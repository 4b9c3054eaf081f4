"""Property tests: the sort-based weld matches the per-corner loop bitwise.

Coordinates are drawn from a small set of multiples of half a tolerance
unit, with signed zeros and one-ulp neighbours, so that exact duplicates,
matches within tolerance, chains, gaps of exactly ``tol`` and points on
both sides of a cell boundary are all common.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import assert_weld_matches_loop, soup_of  # noqa: E402

UNIT = 1e-6
GRID = sorted({k * 0.5 * UNIT for k in range(-4, 5)} | {-0.0})
COORDINATES = st.sampled_from(GRID) | st.builds(
    np.nextafter, st.sampled_from(GRID), st.sampled_from([-np.inf, np.inf])
)
POINTS = st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), min_size=1, max_size=12)


@st.composite
def soups(draw):
    points = draw(POINTS)
    count = draw(st.integers(1, 10))
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=3 * count, max_size=3 * count))
    return soup_of(np.array(points)[picks].reshape(count, 3, 3))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(soups(), st.sampled_from([0.0, UNIT, 1.5 * UNIT, 3 * UNIT]))
def test_weld_matches_loop(soup, tol):
    assert_weld_matches_loop(soup, tol)
