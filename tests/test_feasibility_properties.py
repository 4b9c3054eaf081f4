"""Property tests: the feasibility tests on values derived at construction
(polygon edges and tolerance, the widened box, the expand plan) give the
per-call formulas' results bit for bit, boundary points and signed zeros
included; the space's infeasibility, the optimizer's penalty, is zero
exactly where the per-call feasibility test holds, and equals the whole-vector
numpy formula bit for bit, NaN, infinite and overflowing entries included
(with up to 10 coefficients, so that numpy's pairwise sum from 8 terms on is
reached); and ``decode`` maps
infeasible points like the inline reconstruction. The fixed-seed twins in
``test_manifold.py`` and ``test_optimize.py`` run the same checks without
hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import (  # noqa: E402
    assert_contains_matches_roll_oracle,
    assert_decode_matches_inline_reconstruction,
    assert_distance_matches_roll_oracle,
    assert_expand_matches_dict_loop,
    assert_infeasibility_matches_numpy_formula,
    assert_penalty_zero_exactly_where_feasible,
    assert_space_contains_matches_per_call_box,
)

seeds = hypothesis.given(st.integers(0, 2**32 - 1))
settings = hypothesis.settings(max_examples=60, deadline=None)


@settings
@seeds
def test_polygon_contains_matches_roll_oracle(seed):
    assert_contains_matches_roll_oracle(np.random.default_rng(seed))


@settings
@seeds
def test_distance_to_polygon_matches_roll_oracle(seed):
    assert_distance_matches_roll_oracle(np.random.default_rng(seed))


@settings
@seeds
def test_reduced_space_contains_matches_per_call_box(seed):
    assert_space_contains_matches_per_call_box(np.random.default_rng(seed))


@settings
@seeds
def test_penalty_zero_exactly_where_feasible(seed):
    assert_penalty_zero_exactly_where_feasible(np.random.default_rng(seed))


@settings
@hypothesis.given(st.integers(0, 2**32 - 1), st.none() | st.integers(1, 10))
def test_infeasibility_matches_numpy_formula(seed, n_coeff):
    assert_infeasibility_matches_numpy_formula(np.random.default_rng(seed), n_coeff)


@settings
@seeds
def test_expand_matches_dict_loop(seed):
    assert_expand_matches_dict_loop(np.random.default_rng(seed))


@settings
@seeds
def test_decode_of_infeasible_points_matches_inline_reconstruction(seed):
    assert_decode_matches_inline_reconstruction(np.random.default_rng(seed))
