"""Property tests: the FFD invariants behind the closed-form reduction.

Each example is a random rotated, non-unit lattice frame of degrees 1 to 3
per axis, a random parameter map in which two entries share a control
point and axis, and points both inside and outside the box. The scalars
of the linear combination are zero or between 1e-3 and 2 in magnitude, so
the relative bound is not lost to underflow. The fixed-seed twin in
``test_ffd.py`` runs the same checks without hypothesis. The geometry
basis built in closed form from such a lattice has orthonormal modes.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from shapemanifold.manifold import build_geometry_pod, sample_ffd_params  # noqa: E402
from shapemanifold.mesh import TriMesh  # noqa: E402

from helpers import assert_ffd_invariants, random_ffd_case  # noqa: E402

DEGREES = st.tuples(*(st.integers(1, 3),) * 3)
SCALARS = st.just(0.0) | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)


@hypothesis.settings(max_examples=100, deadline=None)
# Rounding p + d at |p| = 4.7 exceeded the bound on d; d is now compared.
@hypothesis.example(199, (3, 1, 3), 1, 1, 0.0, 0.0)
@hypothesis.given(
    st.integers(0, 2**32 - 1), DEGREES, st.integers(1, 4), st.integers(1, 8), SCALARS, SCALARS
)
def test_ffd_invariants(seed, degrees, param_dim, n_entries, a, b):
    rng = np.random.default_rng(seed)
    config, points, outside = random_ffd_case(rng, degrees, param_dim, n_entries)
    mu1, mu2 = rng.uniform(-1.0, 1.0, (2, param_dim))
    assert_ffd_invariants(config, points, outside, mu1, mu2, a, b)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.integers(0, 2**32 - 1), DEGREES, st.integers(1, 4), st.integers(1, 8),
    st.integers(2, 30),
)
def test_geometry_pod_modes_orthonormal(seed, degrees, param_dim, n_entries, n_train):
    # Tighter than the 1e-10 defect PodBasis accepts: the modes are Q times
    # the small SVD's left vectors, both orthonormal to round-off.
    rng = np.random.default_rng(seed)
    config, points, _ = random_ffd_case(rng, degrees, param_dim, n_entries)
    params = sample_ffd_params(n_train, config.bounds, seed)
    basis, _ = build_geometry_pod(TriMesh(points, np.zeros((0, 3))), config, params)
    modes = basis.modes
    assert np.abs(modes.T @ modes - np.eye(basis.rank)).max() <= 1e-13
