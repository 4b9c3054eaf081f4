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
# Elements of one row block of the duplicate-parameter scan and of the
# pairwise distance temporaries.
_SCAN_BUDGET = 1 << 17


@dataclass(frozen=True)
class SolutionDatabase:
    """Parameter rows, solution fields (one row per sample), objectives; the
    one checker of a database. Float arrays are kept, not copied."""

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
        if not all(np.isfinite(a).all() for a in (params, fields, objectives)):
            raise ValueError("database entries must be finite")
        # Chebyshev distance of every pair i < j below 1e-12, one parameter
        # column at a time and a block of rows at a time so that memory stays
        # bounded; the first hit in row-major (i, j) order is the one reported.
        block = max(1, _SCAN_BUDGET // max(1, params.size))
        for start in range(0, m, block):
            rows = params[start:start + block]
            close = np.ones((rows.shape[0], m), dtype=bool)
            for k in range(params.shape[1]):
                close &= np.abs(rows[:, k, None] - params[None, :, k]) < 1e-12
            pairs = np.argwhere(np.triu(close, start + 1))
            if pairs.size:
                i, j = pairs[0]
                raise DuplicateParams(f"parameter rows {start + i} and {j} coincide within 1e-12")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "objectives", objectives)

    @property
    def count(self) -> int:
        return self.params.shape[0]


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # One block of rows of ``a`` at a time, so the k x m x d differences
    # stay within the budget; each entry is rounded as in one broadcast.
    out = np.empty((a.shape[0], b.shape[0]))
    block = max(1, _SCAN_BUDGET // max(1, b.size))
    for start in range(0, a.shape[0], block):
        diff = a[start:start + block, None, :] - b[None, :, :]
        out[start:start + block] = np.sqrt((diff**2).sum(axis=2))
    return out


def _kernel_matrix(kernel: str, r: np.ndarray, epsilon: float) -> np.ndarray:
    # ``kernel`` is one of _KERNELS: Interpolator and fit_interpolator check it.
    if kernel == "gaussian":
        return np.exp(-((epsilon * r) ** 2))
    if kernel == "linear-rbf":
        return r
    out = np.zeros_like(r)  # thin-plate
    mask = r > 0.0
    out[mask] = r[mask] ** 2 * np.log(r[mask])
    return out


@dataclass(frozen=True)
class Interpolator:
    """Fitted RBF interpolant from d-dimensional nodes to q outputs.

    ``nodes`` is m x d, ``weights`` m x q, and ``tail`` holds the
    (d + 1) x q affine polynomial coefficients used by the thin-plate
    kernel (None for the others).
    """

    kernel: str
    epsilon: float
    nodes: np.ndarray
    weights: np.ndarray
    tail: np.ndarray | None = None

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if (self.tail is not None) != (self.kernel == "thin-plate"):
            raise ValueError("an affine tail goes with the thin-plate kernel only")
        if self.nodes.ndim != 2:
            raise ValueError(f"nodes must be m x d, got shape {self.nodes.shape}")
        (m, d), shape = self.nodes.shape, self.weights.shape
        if len(shape) != 2 or shape[0] != m:
            raise ValueError(f"weights must be {m} x q for {m} nodes, got shape {shape}")
        if self.tail is not None and self.tail.shape != (d + 1, shape[1]):
            raise ValueError(
                f"tail must be {d + 1} x {shape[1]}, got shape {self.tail.shape}"
            )

    def __call__(self, x) -> np.ndarray:
        return self.apply(self.kernel_rows(x))

    def kernel_rows(self, x) -> tuple[np.ndarray, np.ndarray | None]:
        """Kernel rows of the query points, plus their affine rows ``[1, x]``
        under thin-plate: what :meth:`apply` takes. Interpolants with the
        same nodes, kernel and epsilon share them."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        phi = _kernel_matrix(
            self.kernel, _pairwise_distances(x, self.nodes), self.epsilon
        )
        p = None
        if self.kernel == "thin-plate":
            p = np.column_stack([np.ones(x.shape[0]), x])
        return phi, p

    def apply(self, rows) -> np.ndarray:
        """Values at the query points whose :meth:`kernel_rows` are given."""
        phi, p = rows
        out = phi @ self.weights
        if self.tail is not None:
            out = out + p @ self.tail
        return out

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]


def fit_interpolator(
    nodes: np.ndarray,
    values: tuple,
    kernel: str = "gaussian",
    epsilon: float | None = None,
) -> tuple[Interpolator, ...]:
    """Solve the dense RBF system for scattered data.

    The thin-plate kernel is augmented with an affine tail and the usual
    orthogonality constraints. The symmetric system is solved directly; a
    condition estimate above 1e14 or a node-reproduction residual above
    1e-8 (relative) raises ``SingularSystem``, which usually means the
    shape parameter should change.

    ``values`` is a tuple of arrays of value rows. The system is built and
    gated once and solved once per array, and one interpolant per array
    comes back, all sharing nodes, kernel and epsilon. Each is bitwise the
    interpolant of a tuple of that array alone; one solve with all the
    columns side by side would round differently.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    blocks = [np.asarray(v, dtype=float) for v in values]
    blocks = [v[:, None] if v.ndim == 1 else v for v in blocks]
    m = nodes.shape[0]
    if m < 1 or any(v.shape[0] != m for v in blocks):
        raise ValueError("need one value row per node")
    if kernel not in _KERNELS:
        raise ValueError(f"kernel must be one of {_KERNELS}")
    dist = _pairwise_distances(nodes, nodes)
    np.fill_diagonal(dist, np.inf)  # a node's distance to itself is exactly sqrt(0)
    nearest = dist.min(axis=1)
    np.fill_diagonal(dist, 0.0)
    if m > 1 and nearest.min() == 0.0:
        raise ValueError("interpolation nodes must be distinct")
    if epsilon is None:  # inverse mean nearest-neighbour distance
        mean_nn = float(nearest.mean()) if m > 1 else 0.0
        epsilon = 1.0 / mean_nn if mean_nn > 0.0 else 1.0
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if kernel == "gaussian":
        # The square grows with r, so the widest node distance decides.
        r = dist.max()
        with np.errstate(over="ignore", invalid="ignore"):
            square = (epsilon * r) ** 2
        if not np.isfinite(square):
            raise ValueError(f"epsilon {epsilon!r}: (epsilon * r) ** 2 overflows at the node "
                             f"distance r = {float(r)!r}; the gaussian kernel needs a smaller "
                             "epsilon")

    system = _kernel_matrix(kernel, dist, epsilon)
    n_tail = 0
    if kernel == "thin-plate":
        p = np.column_stack([np.ones(m), nodes])
        n_tail = p.shape[1]
        system = np.block([[system, p], [p.T, np.zeros((n_tail, n_tail))]])

    # The system is symmetric, so its |eigenvalue| ratio is the 2-norm
    # condition number; a zero or NaN eigenvalue fails the test as well.
    lam = np.abs(np.linalg.eigvalsh(system))
    if not 0.0 < lam.max() <= _COND_LIMIT * lam.min():
        raise SingularSystem(
            "interpolation system condition number exceeds 1e14; "
            "adjust the kernel shape parameter"
        )
    fitted = []
    for v in blocks:
        rhs = np.vstack([v, np.zeros((n_tail, v.shape[1]))]) if n_tail else v
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"interpolation system is singular: {exc}") from exc
        residual = np.abs(system[:m] @ solution - v)
        scale = 1.0 + np.abs(v).max(initial=0.0)
        if v.size and not residual.max() <= _RESIDUAL_RTOL * scale:  # NaN fails
            raise SingularSystem(
                f"node reproduction residual {residual.max():.2e} exceeds "
                f"{_RESIDUAL_RTOL:.0e} relative; adjust the kernel shape parameter"
            )
        tail = solution[m:] if n_tail else None
        fitted.append(Interpolator(kernel, epsilon, nodes, solution[:m], tail))
    return tuple(fitted)


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
        # predict evaluates one kernel row for both interpolants.
        c, o = self.coefficients, self.objective
        if c.kernel != o.kernel or c.epsilon != o.epsilon:
            raise ValueError("the two interpolants differ in kernel or epsilon")
        if c.nodes is not o.nodes and not np.array_equal(c.nodes, o.nodes):
            raise ValueError("the two interpolants have different nodes")


def build_rom(
    params: np.ndarray,
    snapshots: tuple[np.ndarray, np.ndarray],
    objectives: np.ndarray,
    rule: pod.TruncationRule,
    kernel: str = "gaussian",
    epsilon: float | None = None,
    metadata: dict | None = None,
) -> RomModel:
    """Offline phase: reduce the snapshots (the centred matrix and its centre,
    as :func:`pod.assemble` returns them) and fit the coefficient maps over
    ``params``. The model keeps a copy of ``metadata``, and nothing else."""
    matrix, center = snapshots
    if matrix.shape[1] < 2:
        raise ValueError("need at least two snapshots to build a model")
    basis = pod.truncate(pod.compute_pod(matrix, center=center), rule)
    coeffs = (basis.modes.T @ matrix).T  # training coefficients, one row per sample
    obj_mean = float(objectives.mean())
    coeff_interp, obj_interp = fit_interpolator(
        params, (coeffs, objectives - obj_mean), kernel, epsilon
    )
    return RomModel(basis, coeff_interp, obj_interp, obj_mean, dict(metadata or {}))


def extrapolates(model: RomModel, points) -> np.ndarray:
    """One bool per row of ``points`` (a single point is one row): True
    outside the bounding box of the training parameters."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nodes = model.coefficients.nodes
    return ((points < nodes.min(axis=0)) | (points > nodes.max(axis=0))).any(axis=1)


def _objective_at(model: RomModel, rows) -> float:
    return model.objective_mean + float(model.objective.apply(rows)[0, 0])


def predict_objective(model: RomModel, mu) -> float:
    """Online phase, objective only, at one point: no field is built."""
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    return _objective_at(model, model.objective.kernel_rows(mu))


def predict(model: RomModel, mu) -> tuple[np.ndarray, float]:
    """Online phase: field and objective at a new parameter point, from
    one kernel row shared by both interpolants.

    Points outside the training bounding box (see :func:`extrapolates`)
    are extrapolated; surrogate accuracy degrades away from the data.
    """
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    rows = model.coefficients.kernel_rows(mu)
    alpha = model.coefficients.apply(rows)[0]
    value = model.basis.center + model.basis.modes @ alpha
    return value, _objective_at(model, rows)


def loo_error(
    db: SolutionDatabase,
    rule: pod.TruncationRule,
    kernel: str = "gaussian",
    epsilon: float | None = None,
):
    """Leave-one-out validation of the surrogate.

    For each sample the model is rebuilt without it and asked to predict
    it back; reported errors are relative L2 (absolute where the truth is
    zero). Returns the per-sample errors and a summary of their ``mean``
    and ``max``, plus ``fewest_modes``, the smallest mode count a fold's
    truncated basis kept.

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
    rows. Each fold is a slice of these arrays: the database was checked
    once, when it was built.
    """
    if db.count < 3:
        raise ValueError("leave-one-out needs at least three samples")
    q, _ = np.linalg.qr(db.fields.T)
    coords = db.fields @ q
    errors = np.empty(db.count)
    fewest = db.count
    for i in range(db.count):
        keep = np.arange(db.count) != i
        model = build_rom(db.params[keep], pod.assemble(coords[keep]),
                          db.objectives[keep], rule, kernel, epsilon)
        fewest = min(fewest, model.basis.rank)
        predicted, _ = predict(model, db.params[i])
        truth = coords[i]
        denom = np.linalg.norm(truth)
        diff = np.linalg.norm(predicted - truth)
        errors[i] = diff / denom if denom > 0.0 else diff
    return errors, {"mean": float(errors.mean()), "max": float(errors.max()),
                    "fewest_modes": fewest}
