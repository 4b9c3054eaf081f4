"""Property tests: the invariants the solution POD and leave-one-out rely on.

``compute_pod`` keeps exactly the rank of tall, wide and rank-deficient
matrices (orthonormal factors around singular values within one decade,
at a random scale), with orthonormal modes. ``loo_error`` reorders its
errors with the samples, for every kernel and truncation rule, on
nonlinear databases with fields shorter or longer than the sample count.
The fixed-seed twins in ``test_pod.py`` and ``test_rom.py`` run the same
checks without hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import (  # noqa: E402
    LOO_RULES,
    assert_loo_permutation_invariant,
    assert_pod_orthonormal,
    random_loo_database,
    random_pod_matrix,
)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40), st.data())
def test_pod_modes_orthonormal(seed, rows, cols, data):
    rank = data.draw(st.integers(0, min(rows, cols)))
    matrix = random_pod_matrix(np.random.default_rng(seed), rows, cols, rank)
    assert_pod_orthonormal(matrix, rank)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(0, 12),
    st.integers(1, 40),
    st.sampled_from(["gaussian", "thin-plate", "linear-rbf"]),
    st.sampled_from(sorted(LOO_RULES)),
)
def test_loo_error_permutation_invariant(seed, d, extra, n, kernel, rule):
    # d + 2 samples leave every fold enough nodes for the thin-plate tail.
    rng = np.random.default_rng(seed)
    db = random_loo_database(rng, d + 2 + extra, n, d)
    assert_loo_permutation_invariant(db, rng.permutation(db.count), LOO_RULES[rule], kernel)
