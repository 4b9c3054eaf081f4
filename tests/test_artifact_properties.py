"""Property test: binary artifacts round-trip bit-exactly.

Each example saves and loads a POD basis (rank 0 included), a vector
(length 0 included), a solution database's ``fields.bin`` and a manifold's
``facets.bin``, with signed zeros, subnormals and the extremes of the
double range among the values.
The fixed-seed twin in ``test_artifacts.py`` runs the same check without
hypothesis.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import assert_binary_artifacts_round_trip  # noqa: E402


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.data(),
    st.integers(0, 60),
    st.integers(1, 8),
    st.integers(0, 40),
)
def test_binary_artifacts_round_trip_bit_exactly(seed, state_dim, data, length, rows, cols):
    rank = data.draw(st.integers(0, min(state_dim, 6)))
    with tempfile.TemporaryDirectory() as directory:
        assert_binary_artifacts_round_trip(
            Path(directory), np.random.default_rng(seed), state_dim, rank, length, rows, cols
        )
