"""Property test: the simplex search on one vertex array makes the
evaluations of the search on a list of vertex arrays (``np.argsort``,
``np.mean``, one ``np.linalg.norm`` per vertex): the same count, and every
trial point and value bit for bit. Each example draws a dimension from 1 to
5, signed steps, a budget from d + 2 to 300 and one of four objectives:
quadratics, plateaus with exact ties, signed-zero values, and values that
are inf or NaN on part of the space. The fixed-seed twin in
``test_optimize.py`` runs the same check without hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import assert_nelder_mead_matches_list_oracle  # noqa: E402


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.integers(0, 2**32 - 1))
def test_nelder_mead_matches_list_oracle(seed):
    assert_nelder_mead_matches_list_oracle(np.random.default_rng(seed))
