"""Property tests: the sort-based weld matches the per-corner loop bitwise.

Coordinates are drawn from a small set of multiples of half a tolerance
unit, with signed zeros and one-ulp neighbours, so that exact duplicates,
matches within tolerance, chains, gaps of exactly ``tol`` and points on
both sides of a cell boundary are all common. The weld's candidate test
is checked on its own against the pairwise crowded set, on int64 cells
that repeat, neighbour each other and sit at both ends of the range.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import assert_weld_matches_loop, crowded_cells, soup_of  # noqa: E402
from shapemanifold import mesh  # noqa: E402

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


TOP = 2**63 - 1
CELL_VALUES = (
    st.sampled_from([-TOP - 1, -TOP, -TOP + 1, TOP - 2, TOP - 1, TOP])
    | st.integers(-4, 4)
    | st.integers(-TOP - 1, TOP)
)


def wrapped(value: int) -> int:
    # The int64 value with the same bits, as int64 sums wrap.
    return (value + TOP + 1) % 2**64 - TOP - 1


@st.composite
def cell_sets(draw):
    pool = draw(st.lists(CELL_VALUES, min_size=1, max_size=4))
    step = st.builds(lambda v, d: wrapped(v + d), st.sampled_from(pool), st.integers(-1, 1))
    triples = draw(st.lists(st.tuples(step, step, step), min_size=1, max_size=12))
    return np.array(triples, dtype=np.int64)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cell_sets())
@hypothesis.example(np.array([[TOP, 0, 0], [-TOP - 1, 1, -1]]))
@hypothesis.example(np.array([[TOP - 1, TOP, -TOP - 1], [TOP, -TOP - 1, TOP]]))
def test_candidates_contain_the_crowded_points(cells):
    crowded = crowded_cells(cells)
    assert not (crowded & ~mesh._candidates(cells)).any()
