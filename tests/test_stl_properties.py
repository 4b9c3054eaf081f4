"""Property test: the STL reader walks the one ASCII facet template as the
token-by-token loop reader walked its chain of ``expect`` calls. Each
example edits the ASCII ``write_stl`` output of a tetrahedron or a small
sphere (tokens deleted, inserted, replaced or duplicated, keyword case, an
extra solid, a fourth vertex, a non-ASCII byte, a truncation), and
``read_stl`` must give the loop's corner bytes, or its exception type and
message. An edit that makes the text look binary is read by a ``struct``
record loop. The fixed-seed twin in ``test_mesh.py`` runs the same check
without hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import assert_read_matches_loop_on_mutated_ascii  # noqa: E402


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.integers(0, 2**32 - 1))
def test_mutated_ascii_reads_as_the_token_loop(seed):
    assert_read_matches_loop_on_mutated_ascii(np.random.default_rng(seed))
