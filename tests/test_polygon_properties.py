"""Property tests: the feasible polygon contains every training point.

In the plane: each example is a rotated, anisotropic Gaussian cloud of 3
to 80 points at a random scale and offset, fitted with the plain convex
hull or with the hull simplified to 3 to 6 vertices. In the reduced space:
each example is a coefficient cloud whose polygon pair has a dependent
member, and every training point must be ``contains``-feasible. The hull
on Python floats gives the numpy-scalar monotone chain's vertices bit for
bit, or the same ``CollinearPoints`` message, on random clouds, repeated
points, exactly and nearly collinear runs, signed zeros and three-point
sets. The collapse on float tuples gives the numpy-row collapse's vertices
bit for bit on normal, scaled uniform, noisy elliptic, small-integer and
nearly collinear clouds of 3 to 400 points. The fixed-seed twins in
``test_manifold.py`` run the same checks without hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import (  # noqa: E402
    assert_collapse_matches_numpy_rows,
    assert_hull_matches_numpy_scalar_chain,
    assert_polygon_contains_cloud,
    assert_space_contains_training_points,
    random_cloud,
)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.integers(0, 2**32 - 1), st.integers(3, 80), st.none() | st.integers(3, 6)
)
def test_polygon_contains_every_training_point(seed, n_points, max_vertices):
    cloud = random_cloud(np.random.default_rng(seed), n_points)
    assert_polygon_contains_cloud(cloud, max_vertices)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.integers(0, 2**32 - 1))
def test_reduced_space_contains_every_training_point(seed):
    assert_space_contains_training_points(np.random.default_rng(seed))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.integers(0, 2**32 - 1))
def test_hull_matches_numpy_scalar_chain(seed):
    assert_hull_matches_numpy_scalar_chain(np.random.default_rng(seed))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.integers(0, 2**32 - 1))
def test_collapse_matches_numpy_rows(seed):
    assert_collapse_matches_numpy_rows(np.random.default_rng(seed))
