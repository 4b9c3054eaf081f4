"""Non-intrusive surrogate of the solver output.

The solution fields are reduced with the same orthonormal decomposition
used for geometries, and the resulting modal coefficients (plus the
scalar objective) are interpolated over the parameter space with radial
basis functions. Querying the surrogate at a new parameter point costs
one small interpolation plus one reconstruction product, independent of
the solver. :func:`extrapolates` reports, as values, which queries lie
outside the bounding box of the training parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pod
from .errors import DuplicateParams, SingularSystem

_KERNELS = ("gaussian", "thin-plate", "linear-rbf")
_COND_LIMIT = 1e14
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class SolutionDatabase:
    """Parameter rows, solution fields (one row per sample), objectives."""

    params: np.ndarray
    fields: np.ndarray
    objectives: np.ndarray

    def __post_init__(self):
        params = np.atleast_2d(np.asarray(self.params, dtype=float))
        fields = np.atleast_2d(np.asarray(self.fields, dtype=float))
        objectives = np.asarray(self.objectives, dtype=float).reshape(-1)
        m = params.shape[0]
        if fields.shape[0] != m or objectives.size != m:
            raise ValueError("database row counts disagree")
        if not (np.isfinite(params).all() and np.isfinite(fields).all()):
            raise ValueError("database entries must be finite")
        # Chebyshev distance of every pair; the first hit in row-major
        # (i, j) order is the one reported.
        close = np.abs(params[:, None, :] - params[None, :, :]).max(axis=2) < 1e-12
        pairs = np.argwhere(np.triu(close, 1))
        if pairs.size:
            i, j = pairs[0]
            raise DuplicateParams(f"parameter rows {i} and {j} coincide within 1e-12")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "objectives", objectives)

    @property
    def count(self) -> int:
        return self.params.shape[0]

    def without(self, index: int) -> "SolutionDatabase":
        keep = [i for i in range(self.count) if i != index]
        return SolutionDatabase(
            self.params[keep], self.fields[keep], self.objectives[keep]
        )


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _kernel_matrix(kernel: str, r: np.ndarray, epsilon: float) -> np.ndarray:
    if kernel == "gaussian":
        return np.exp(-((epsilon * r) ** 2))
    if kernel == "linear-rbf":
        return r
    if kernel == "thin-plate":
        out = np.zeros_like(r)
        mask = r > 0.0
        out[mask] = r[mask] ** 2 * np.log(r[mask])
        return out
    raise ValueError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class Interpolator:
    """Fitted RBF interpolant from d-dimensional nodes to q outputs.

    ``tail`` holds the affine polynomial coefficients used by the
    thin-plate kernel (None for the others).
    """

    kernel: str
    epsilon: float
    nodes: np.ndarray
    weights: np.ndarray
    tail: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        phi = _kernel_matrix(
            self.kernel, _pairwise_distances(x, self.nodes), self.epsilon
        )
        out = phi @ self.weights
        if self.tail is not None:
            p = np.column_stack([np.ones(x.shape[0]), x])
            out = out + p @ self.tail
        return out

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]


def fit_interpolator(
    nodes: np.ndarray,
    values: np.ndarray,
    kernel: str = "gaussian",
    epsilon: float | None = None,
) -> Interpolator:
    """Solve the dense RBF system for scattered data.

    The thin-plate kernel is augmented with an affine tail and the usual
    orthogonality constraints. The symmetric system is solved directly; a
    condition estimate above 1e14 or a node-reproduction residual above
    1e-8 (relative) raises ``SingularSystem``, which usually means the
    shape parameter should change.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    m = nodes.shape[0]
    if m < 1 or values.shape[0] != m:
        raise ValueError("need one value row per node")
    if kernel not in _KERNELS:
        raise ValueError(f"kernel must be one of {_KERNELS}")
    dist = _pairwise_distances(nodes, nodes)
    off_diag = dist + np.diag(np.full(m, np.inf))
    if m > 1 and off_diag.min() == 0.0:
        raise ValueError("interpolation nodes must be distinct")
    if epsilon is None:  # inverse mean nearest-neighbour distance
        mean_nn = float(off_diag.min(axis=1).mean()) if m > 1 else 0.0
        epsilon = 1.0 / mean_nn if mean_nn > 0.0 else 1.0
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")

    k = _kernel_matrix(kernel, dist, epsilon)
    if kernel == "thin-plate":
        p = np.column_stack([np.ones(m), nodes])
        n_tail = p.shape[1]
        system = np.block([[k, p], [p.T, np.zeros((n_tail, n_tail))]])
        rhs = np.vstack([values, np.zeros((n_tail, values.shape[1]))])
    else:
        system = k
        rhs = values

    # The system is symmetric, so its |eigenvalue| ratio is the 2-norm
    # condition number; a zero or NaN eigenvalue fails the test as well.
    lam = np.abs(np.linalg.eigvalsh(system))
    if not 0.0 < lam.max() <= _COND_LIMIT * lam.min():
        raise SingularSystem(
            "interpolation system condition number exceeds 1e14; "
            "adjust the kernel shape parameter"
        )
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"interpolation system is singular: {exc}") from exc

    residual = np.abs(system[:m] @ solution - values)
    scale = 1.0 + np.abs(values).max(initial=0.0)
    if values.size and residual.max() > _RESIDUAL_RTOL * scale:
        raise SingularSystem(
            f"node reproduction residual {residual.max():.2e} exceeds "
            f"{_RESIDUAL_RTOL:.0e} relative; adjust the kernel shape parameter"
        )
    tail = solution[m:] if kernel == "thin-plate" else None
    return Interpolator(kernel, epsilon, nodes, solution[:m], tail)


@dataclass(frozen=True)
class RomModel:
    """Reduced basis of the solution fields plus fitted interpolators.

    The objective is interpolated independently of the field, around its
    training mean so a constant database predicts that constant
    everywhere.
    """

    basis: pod.PodBasis
    coefficients: Interpolator
    objective: Interpolator
    objective_mean: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.coefficients.output_dim != self.basis.rank:
            raise ValueError("interpolator output does not match mode count")


def build_rom(
    db: SolutionDatabase,
    rule: pod.TruncationRule,
    kernel: str = "gaussian",
    epsilon: float | None = None,
    metadata: dict | None = None,
) -> RomModel:
    """Offline phase: reduce the fields and fit the coefficient maps."""
    if db.count < 2:
        raise ValueError("need at least two snapshots to build a model")
    matrix, center = pod.assemble(db.fields, centering="mean")
    basis = pod.truncate(pod.compute_pod(matrix, center=center), rule)
    coeffs = (basis.modes.T @ matrix).T  # training coefficients, one row per sample
    coeff_interp = fit_interpolator(db.params, coeffs, kernel, epsilon)
    obj_mean = float(db.objectives.mean())
    obj_interp = fit_interpolator(
        db.params, db.objectives - obj_mean, kernel, epsilon
    )
    meta = {
        "snapshot_count": db.count,
        "mode_count": basis.rank,
        "kernel": kernel,
        "epsilon": coeff_interp.epsilon,
    }
    if metadata:
        meta.update(metadata)
    return RomModel(basis, coeff_interp, obj_interp, obj_mean, meta)


def extrapolates(model: RomModel, points) -> np.ndarray:
    """One bool per row of ``points`` (a single point is one row): True
    outside the bounding box of the training parameters."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = model.coefficients.nodes
    return ((points < nodes.min(axis=0)) | (points > nodes.max(axis=0))).any(axis=1)


def predict_objective(model: RomModel, mu) -> float:
    """Online phase, objective only, at one point: no field is built."""
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    return model.objective_mean + float(model.objective(mu)[0, 0])


def predict(model: RomModel, mu) -> tuple[np.ndarray, float]:
    """Online phase: field and objective at a new parameter point.

    Points outside the training bounding box (see :func:`extrapolates`)
    are extrapolated; surrogate accuracy degrades away from the data.
    """
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    alpha = model.coefficients(mu)[0]
    value = model.basis.center + model.basis.modes @ alpha
    return value, predict_objective(model, mu)


def loo_error(
    db: SolutionDatabase,
    rule: pod.TruncationRule,
    kernel: str = "gaussian",
    epsilon: float | None = None,
):
    """Leave-one-out validation of the surrogate.

    For each sample the model is rebuilt without it and asked to predict
    it back; reported errors are relative L2 (absolute where the truth is
    zero). Returns the per-sample errors and a mean/max summary.

    Every fold's snapshots lie in the span of the m database fields, so
    the folds run on the fields' coordinates in one orthonormal basis Q
    of that span (N x min(N, m), from one QR): each field keeps min(N, m)
    entries instead of N (method of snapshots, Sirovich 1987). The map
    ``x -> x Q`` is an isometry on the span and commutes with taking
    means, so every fold has the same centering, POD singular values and
    mode count; its training coefficients agree up to each mode's sign,
    which the interpolated prediction does not see; and prediction errors
    keep their norms. The coordinates are taken as ``fields @ Q`` rather
    than from the triangular factor, so identical fields map to identical
    rows.
    """
    if db.count < 3:
        raise ValueError("leave-one-out needs at least three samples")
    q, _ = np.linalg.qr(db.fields.T)
    small = SolutionDatabase(db.params, db.fields @ q, db.objectives)
    errors = np.empty(small.count)
    for i in range(small.count):
        model = build_rom(small.without(i), rule, kernel, epsilon)
        predicted, _ = predict(model, small.params[i])
        truth = small.fields[i]
        denom = np.linalg.norm(truth)
        diff = np.linalg.norm(predicted - truth)
        errors[i] = diff / denom if denom > 0.0 else diff
    return errors, {"mean": float(errors.mean()), "max": float(errors.max())}
