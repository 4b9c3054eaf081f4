"""Snapshot matrices and SVD-based orthonormal bases.

The solution pipeline decomposes solver output fields with
:func:`compute_pod` (method of snapshots). The geometry pipeline builds
its basis in closed form from the FFD displacement Jacobian (see
:func:`shapemanifold.manifold.build_geometry_pod`); both finish through
the same rank cutoff and sign convention. State dimension is written N,
snapshot count M; snapshots are matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBasis, EmptyDatabase

# Retained modes: drop singular values below this fraction of the largest.
RANK_CUTOFF = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal modes, their singular values, and the centering vector.

    ``modes`` is N x r with orthonormal columns; ``center`` was subtracted
    from every snapshot before the decomposition (all zeros when no
    centering was requested).
    """

    modes: np.ndarray
    singular_values: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=float)
        sigma = np.asarray(self.singular_values, dtype=float).reshape(-1)
        center = np.asarray(self.center, dtype=float).reshape(-1)
        if modes.ndim != 2:
            raise ValueError("modes must be a 2-D array")
        if modes.shape[1] != sigma.size:
            raise ValueError("mode count does not match singular value count")
        if center.size != modes.shape[0]:
            raise DimensionMismatch("center length does not match state dimension")
        if sigma.size:
            if np.any(sigma < 0.0):
                raise ValueError("singular values must be non-negative")
            if np.any(np.diff(sigma) > 1e-12 * sigma[0]):
                raise ValueError("singular values must be non-increasing")
            defect = np.abs(modes.T @ modes - np.eye(sigma.size)).max()
            if defect > _ORTHO_TOL:
                raise ValueError(f"modes are not orthonormal (defect {defect:.2e})")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "singular_values", sigma)
        object.__setattr__(self, "center", center)

    @property
    def rank(self) -> int:
        return self.singular_values.size

    @property
    def state_dim(self) -> int:
        return self.modes.shape[0]


def _cumulative_energy(sigma: np.ndarray) -> np.ndarray:
    # Share of the total squared singular values held by the first k modes.
    energy = np.cumsum(sigma**2)
    return energy / energy[-1]


@dataclass(frozen=True)
class TruncationRule:
    """Keep a fixed number of modes, or enough for an energy fraction.

    Exactly one of ``fixed_count`` and ``energy_threshold`` must be set.
    Energy is cumulative squared singular values over their total. A fixed
    count above the number of singular values keeps them all.
    """

    fixed_count: int | None = None
    energy_threshold: float | None = None

    def __post_init__(self):
        has_fixed = self.fixed_count is not None
        has_energy = self.energy_threshold is not None
        if has_fixed == has_energy:
            raise ValueError("set exactly one of fixed_count and energy_threshold")
        if has_fixed and self.fixed_count < 1:
            raise ValueError("fixed_count must be >= 1")
        if has_energy and not 0.0 < self.energy_threshold <= 1.0:
            raise ValueError("energy_threshold must be in (0, 1]")

    @classmethod
    def fixed(cls, count: int) -> "TruncationRule":
        return cls(fixed_count=count)

    @classmethod
    def energy(cls, threshold: float) -> "TruncationRule":
        return cls(energy_threshold=threshold)

    def select(self, singular_values: np.ndarray) -> int:
        """Number of leading modes to keep for the given spectrum."""
        sigma = np.asarray(singular_values, dtype=float).reshape(-1)
        if sigma.size == 0:
            return 0
        if self.fixed_count is not None:
            return min(self.fixed_count, sigma.size)
        energy = _cumulative_energy(sigma)
        return int(np.searchsorted(energy, self.energy_threshold - 1e-15) + 1)


def assemble(fields):
    """Mean-centered N x M snapshot matrix of fields given one per row.

    Each row is flattened. Returns the centered columns and the mean that
    was subtracted. The matrix is a new array, centered in place: ``fields``
    is never written and never shares memory with it.
    """
    rows = np.asarray(fields, dtype=float)
    if len(rows) == 0:
        raise EmptyDatabase("no snapshots to assemble")
    # C order, as np.column_stack gives: BLAS rounds the snapshot products of
    # a transposed view differently, which moves bases by about 1e-15.
    # ndarray.copy is always a copy; ascontiguousarray returns a view of
    # (1, N) and (N, 1) input, which the subtraction below would write.
    matrix = rows.reshape(len(rows), -1).T.copy()
    return matrix, _center(matrix)


def _center(matrix: np.ndarray) -> np.ndarray:
    # The rule of assemble: subtract the mean column in place and return it.
    center = matrix.mean(axis=1)
    matrix -= center[:, None]
    return center


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    # Each mode's entry of largest magnitude is made non-negative, so
    # repeated runs (and different LAPACK builds) agree on orientation.
    for j in range(modes.shape[1]):
        k = int(np.argmax(np.abs(modes[:, j])))
        if modes[k, j] < 0.0:
            modes[:, j] = -modes[:, j]
    return modes


def _basis_from_factors(
    q: np.ndarray | None, small: np.ndarray, center: np.ndarray
) -> PodBasis:
    """POD of a snapshot matrix given in factored form ``q @ small``.

    ``q`` has orthonormal columns (``None`` stands for the identity), so
    the singular values of ``small`` are those of the full matrix and its
    left singular vectors map to the modes through ``q``. Singular values
    below ``RANK_CUTOFF`` times the largest are dropped and each mode's
    sign is fixed; a zero matrix yields an empty basis.
    """
    u_small, sigma, _ = np.linalg.svd(small, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return PodBasis(np.zeros((center.size, 0)), np.zeros(0), center)
    keep = sigma >= RANK_CUTOFF * sigma[0]
    modes = u_small[:, keep] if q is None else q @ u_small[:, keep]
    return PodBasis(_fix_signs(np.ascontiguousarray(modes)), sigma[keep], center)


def compute_pod(matrix: np.ndarray, center: np.ndarray | None = None) -> PodBasis:
    """Left singular vectors and singular values of a snapshot matrix.

    Tall matrices (N >= M) go through the M x M Gram matrix (method of
    snapshots): eigenvectors of the Gram matrix span the dominant
    subspace, which is then re-orthonormalized and finished with a small
    dense SVD so the returned triples are accurate to machine precision.
    The cost is O(N M^2) and no N x N operator is ever formed. Singular
    values below sqrt(machine eps) of the largest are numerically
    invisible through the Gram matrix and count as rank deficiency.

    The rank cutoff and sign convention are those of
    :func:`_basis_from_factors`.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("snapshot matrix must be 2-D")
    n, m = a.shape
    if center is None:
        center = np.zeros(n)
    if n < m:
        return _basis_from_factors(None, a, center)
    gram = a.T @ a
    lam, phi = np.linalg.eigh(gram)
    lam = lam[::-1]
    phi = phi[:, ::-1]
    floor = max(lam[0], 0.0) * m * np.finfo(float).eps
    keep = lam > floor
    if not keep.any():
        return PodBasis(np.zeros((n, 0)), np.zeros(0), center)
    q, _ = np.linalg.qr(a @ phi[:, keep])
    return _basis_from_factors(q, q.T @ a, center)


def truncate(basis: PodBasis, rule: TruncationRule) -> PodBasis:
    """Leading-mode truncation; a fixed count above the rank keeps every mode."""
    count = rule.select(basis.singular_values)
    if count == basis.rank:
        return basis
    return PodBasis(
        basis.modes[:, :count], basis.singular_values[:count], basis.center
    )


def reconstruct(basis: PodBasis, alpha: np.ndarray) -> np.ndarray:
    """Snapshot from modal coefficients: center plus the modal expansion."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.size != basis.rank:
        raise DimensionMismatch(
            f"coefficient length {alpha.size} does not match rank {basis.rank}"
        )
    return basis.center + basis.modes @ alpha


def decay_report(basis: PodBasis) -> np.ndarray:
    """Per-mode decay table: (index, sigma, sigma/sigma1, cumulative energy).

    Indices are 1-based; the cumulative energy of the last row is 1.
    """
    if basis.rank == 0:
        raise EmptyBasis("no modes to report")
    sigma = basis.singular_values
    index = np.arange(1, sigma.size + 1)
    return np.column_stack([index, sigma, sigma / sigma[0], _cumulative_energy(sigma)])
