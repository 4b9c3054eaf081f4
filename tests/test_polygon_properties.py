"""Property test: the feasible polygon contains every training point.

Each example is a rotated, anisotropic Gaussian cloud of 3 to 80 points
at a random scale and offset, fitted with the plain convex hull or with
the hull simplified to 3 to 6 vertices. The fixed-seed twin in
``test_manifold.py`` runs the same check without hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import assert_polygon_contains_cloud, random_cloud  # noqa: E402


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.integers(0, 2**32 - 1), st.integers(3, 80), st.none() | st.integers(3, 6)
)
def test_polygon_contains_every_training_point(seed, n_points, max_vertices):
    cloud = random_cloud(np.random.default_rng(seed), n_points)
    assert_polygon_contains_cloud(cloud, max_vertices)
