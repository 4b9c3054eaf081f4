"""Reduced geometric parameter space built from a family of deformations.

Workflow: sample the design-parameter box, extract an orthonormal basis
of the displacement fields of the deformed geometries, and keep the modal
coefficients as new shape parameters. The FFD morph is linear in the
design parameters, so the basis comes in closed form from the
displacement Jacobian and no deformed geometry is ever built. Linear
dependencies between coefficients are detected and folded away; the
remaining free coefficients, restricted to a convex feasible polygon
fitted around the training cloud, form the reduced space that downstream
sampling and optimization operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pod
from .errors import (
    CollinearPoints,
    DegenerateAbscissa,
    DegenerateTrainingSet,
    InfeasibleRegion,
)
from .ffd import FfdConfig, check_params, displacement_jacobian
from .mesh import TriMesh, flatten, unflatten


def sample_ffd_params(n: int, box, seed: int) -> np.ndarray:
    """Uniform independent draws from a box, reproducible from the seed.

    ``box`` is a (p, 2) array of per-component (low, high) bounds.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))


def build_geometry_pod(
    reference: TriMesh,
    config: FfdConfig,
    params: np.ndarray,
    rule: pod.TruncationRule | None = None,
):
    """Deformation family -> orthonormal displacement basis + coefficients.

    Each parameter row ``mu`` morphs the reference to ``flatten(reference)
    + J @ mu``, where ``J`` is the N x p displacement Jacobian of the FFD
    map (:func:`shapemanifold.ffd.displacement_jacobian`). Centered on the
    reference (so zero coefficients mean the undeformed geometry), the
    family is therefore exactly ``J @ params.T``. With ``J = Q R`` its
    singular values and modes are those of the small p x M product
    ``R @ params.T``, mapped back through ``Q``: the cost is O(N p^2) plus
    O(p^2 M) and no N x M array is formed. Returns the (optionally
    truncated) basis and the per-sample coefficient matrix, one row per
    training geometry.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[0] < 2:
        raise ValueError("need a 2-D parameter matrix with at least 2 rows")
    check_params(config, params)  # rows outside the box are allowed
    jac = displacement_jacobian(config, reference.vertices)
    q, r = np.linalg.qr(jac)
    basis = pod._basis_from_factors(q, r @ params.T, flatten(reference))
    if basis.rank == 0:
        raise DegenerateTrainingSet(
            "deformation family has no variation; check the parameter map"
        )
    if rule is not None:
        basis = pod.truncate(basis, rule)
    alpha = params @ (jac.T @ basis.modes)
    return basis, alpha


def linear_fit(x, y):
    """Ordinary least squares line through (x, y): (slope, intercept, r2).

    A constant ordinate is a perfect fit by convention: slope 0, r2 = 1.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two sequences of equal length >= 2")
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx <= 0.0:
        raise DegenerateAbscissa("abscissa has zero variance")
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot <= 0.0:
        return 0.0, ym, 1.0
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    ss_res = float(((y - slope * x - intercept) ** 2).sum())
    return slope, intercept, 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class Dependency:
    """Affine relation of one coefficient to a free one."""

    source: int
    slope: float
    intercept: float
    r2: float


def _free(status) -> tuple[int, ...]:
    """Positions of the free (``None``) entries of a dependency tuple."""
    return tuple(i for i, s in enumerate(status) if s is None)


def detect_dependencies(alpha: np.ndarray, r2_threshold: float) -> tuple:
    """Greedy scan for affine relations between coefficient columns: one
    :class:`Dependency`, or ``None`` for a free coefficient, per column.

    Columns are visited in mode order. A column becomes dependent on the
    already-free column that fits it best, provided that fit reaches the
    r2 threshold; ties prefer the smallest source index. With fewer than
    three samples the statistics are meaningless, so everything stays
    free.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not 0.0 < r2_threshold <= 1.0:
        raise ValueError("r2 threshold must be in (0, 1]")
    n_coeff = alpha.shape[1]
    if alpha.shape[0] < 3:
        return (None,) * n_coeff
    status: list = []
    free: list[int] = []
    for j in range(n_coeff):
        best = None
        for i in free:
            try:
                slope, intercept, r2 = linear_fit(alpha[:, i], alpha[:, j])
            except DegenerateAbscissa:
                continue
            if r2 >= r2_threshold and (best is None or r2 > best.r2):
                best = Dependency(i, slope, intercept, r2)
        status.append(best)
        if best is None:
            free.append(j)
    return tuple(status)


# ---------------------------------------------------------------------------
# Convex feasible region in one coefficient plane.


# Scalar work per point, per trial and per collapse runs on Python floats:
# elementwise ``+ - *`` and ``max`` on them round as numpy's float64 ufuncs
# do. Dot products and norms whose values are used go through BLAS, which
# may fuse multiply-adds, so they stay in numpy (``_row_dots``).


def _turn(a: tuple, b: tuple, c: tuple) -> float:
    """The 2-D cross product of ``b - a`` and ``c - a``, three ``(x, y)``
    float tuples."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Stacked matmuls round each row like ``np.dot`` of two vectors (a BLAS
    # dot), which elementwise sums do not.
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


# A hull narrower than this fraction of its largest coordinate (its width
# taken as twice its area over its longest box side) is round-off around
# collinear points: coordinates of magnitude c carry errors of about 1e-16 c.
_THIN_RTOL = 1e-12


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Strict convex hull, counter-clockwise (monotone chain); collinear
    points, exactly or up to round-off (see ``_THIN_RTOL``), raise
    ``CollinearPoints``."""
    # Sorts lexicographically. With ``return_counts`` numpy 2 skips its
    # ``np.ma.is_masked`` check, whose first call imports ``numpy.ma`` (about
    # 15 ms); the rows come from the same sort either way.
    pts = np.unique(points, axis=0, return_counts=True)[0]
    if pts.shape[0] < 3:
        raise CollinearPoints("need at least 3 distinct points")

    def build(seq):
        chain = []
        for p in seq:
            # A NaN turn is not ``<= 0.0``, so it keeps the last point.
            while len(chain) >= 2 and _turn(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    seq = list(map(tuple, pts.tolist()))
    lower = build(seq)
    upper = build(seq[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise CollinearPoints("points are collinear")
    hull = np.array(hull)
    x, y = hull.T
    twice_area = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if twice_area <= _THIN_RTOL * np.ptp(hull, axis=0).max() * np.abs(hull).max():
        raise CollinearPoints("points are collinear up to round-off")
    return hull


@dataclass(frozen=True)
class FeasiblePolygon:
    """Convex admissible region in the plane of one coefficient pair.

    ``edges`` (vertex k to vertex k + 1), ``_rows`` (one ``(vx, vy, ex,
    ey)`` tuple of Python floats per vertex and its edge, what containment
    reads) and the containment tolerance ``tol`` are derived once, at
    construction.
    """

    axes: tuple[int, int]
    vertices: np.ndarray
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)
    tol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(axes) != 2 or axes[0] == axes[1] or not all(
            isinstance(a, (int, np.integer)) and not isinstance(a, bool) and a >= 0
            for a in axes
        ):
            raise ValueError(f"polygon axes {axes} are not two distinct coefficient indices")
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 two-dimensional vertices")
        e1 = np.roll(v, -1, axis=0) - v
        e2 = np.roll(e1, -1, axis=0)
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("polygon vertices must be strictly convex and CCW")
        object.__setattr__(self, "axes", tuple(int(a) for a in axes))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "edges", e1)
        object.__setattr__(self, "_rows", tuple(map(tuple, np.hstack([v, e1]).tolist())))
        object.__setattr__(self, "tol", 1e-9 * max(1.0, float(np.abs(v).max())))

    def _inside(self, x: float, y: float) -> bool:
        # Boundary-inclusive: every edge sees the point on its left, up to
        # ``-tol``. A NaN cross product is not ``>= -tol``: the point is
        # outside.
        floor = -self.tol
        for vx, vy, ex, ey in self._rows:
            if not ex * (y - vy) - ey * (x - vx) >= floor:
                return False
        return True

    def distance(self, point) -> float:
        """Euclidean distance to the polygon; zero wherever ``_inside``
        holds. Non-finite or huge coordinates give inf or NaN, without a
        floating-point warning."""
        p = np.asarray(point, dtype=float).reshape(2)
        if self._inside(*p.tolist()):
            return 0.0
        a, ab = self.vertices, self.edges
        with np.errstate(all="ignore"):
            # Strict convexity of the polygon rules out zero-length edges.
            t = np.clip(_row_dots(p - a, ab) / _row_dots(ab, ab), 0.0, 1.0)
            gap = p - (a + t[:, None] * ab)
            return float(np.sqrt(_row_dots(gap, gap)).min())


def _line_intersection(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple | None:
    # Intersection of the lines through (a, b) and (c, d); None if parallel.
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return None
    t = ((c[0] - a[0]) * sy - (c[1] - a[1]) * sx) / denom
    return (a[0] + t * rx, a[1] + t * ry)


def _collapse_to(hull: np.ndarray, max_vertices: int) -> np.ndarray:
    """Reduce vertex count by replacing one edge with the intersection of
    its neighbors' extensions, choosing the cheapest (least added area)
    collapse each round. The polygon only ever grows, so containment of
    the original hull (and of every training point) is preserved. When no
    collapse is possible the result keeps more than ``max_vertices``
    vertices. The vertices are ``(x, y)`` float tuples.
    """
    verts = list(map(tuple, hull.tolist()))
    while len(verts) > max_vertices:
        k = len(verts)
        best = None  # (added_area, edge_index, new_point)
        for e in range(k):
            a, b = verts[(e - 1) % k], verts[e]
            c, d = verts[(e + 2) % k], verts[(e + 1) % k]
            p = _line_intersection(a, b, c, d)
            if p is None:
                continue
            # The intersection must lie beyond both edge endpoints,
            # otherwise the collapse would cut into the polygon. Only the
            # signs of these two-term dots are read.
            if ((p[0] - b[0]) * (b[0] - a[0]) + (p[1] - b[1]) * (b[1] - a[1]) < 0.0
                    or (p[0] - d[0]) * (d[0] - c[0]) + (p[1] - d[1]) * (d[1] - c[1]) < 0.0):
                continue
            added = 0.5 * abs(_turn(b, p, d))
            if best is None or added < best[0]:
                best = (added, e, p)
        if best is None:
            break
        _, e, p = best
        verts[e] = p
        del verts[(e + 1) % len(verts)]
    return np.array(verts)


def fit_feasible_polygon(
    points: np.ndarray, max_vertices: int | None = None, axes=(0, 1)
) -> FeasiblePolygon:
    """Convex region containing a point cloud.

    The convex hull is computed first; if ``max_vertices`` is given the
    hull is simplified outward (see :func:`_collapse_to`) so that every
    input point stays inside the final polygon.
    """
    hull = _convex_hull(np.asarray(points, dtype=float).reshape(-1, 2))
    if max_vertices is not None:
        if max_vertices < 3:
            raise ValueError("max_vertices must be >= 3")
        hull = _collapse_to(hull, max_vertices)
    return FeasiblePolygon(axes=axes, vertices=hull)


# ---------------------------------------------------------------------------
# The reduced space.


@dataclass(frozen=True)
class ReducedSpace:
    """Free coefficient coordinates plus the constraints that bound them.

    ``dependencies`` holds one entry per coefficient: ``None`` for a free
    one, or the :class:`Dependency` on a free coefficient of a dependent
    one. ``bounding_box`` is (d, 2) over the free coordinates of the
    training set; the polygon (if any) constrains one coefficient pair,
    where a dependent member of the pair is evaluated through its
    regression. The basis has one mode per coefficient and is centred on
    the reference mesh, whose (F, 3) ``facets`` every decoded mesh shares.
    ``free_indices``, the plan :meth:`expand` follows (per coefficient: the
    position of its free source, and the slope and intercept of a
    dependent one), ``reference`` (the mesh) and ``_low``/``_high`` (the
    box widened by its tolerance, as tuples of Python floats) are derived
    once, at construction.
    """

    basis: pod.PodBasis
    facets: np.ndarray
    dependencies: tuple
    polygon: FeasiblePolygon | None
    bounding_box: np.ndarray
    free_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _plan: tuple = field(init=False, repr=False, compare=False)
    reference: TriMesh = field(init=False, repr=False, compare=False)
    _low: tuple = field(init=False, repr=False, compare=False)
    _high: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        status = tuple(self.dependencies)
        free = _free(status)
        for i, s in enumerate(status):
            if s is not None and s.source not in free:
                raise ValueError(
                    f"coefficient {i} depends on {s.source}, which is not free"
                )
        pos = {idx: k for k, idx in enumerate(free)}
        plan = tuple(
            (pos[i], None, None) if s is None else (pos[s.source], s.slope, s.intercept)
            for i, s in enumerate(status)
        )
        box = np.asarray(self.bounding_box, dtype=float).reshape(-1, 2)
        if box.shape[0] != len(free):
            raise ValueError("bounding box rows must match the free coordinates")
        n_coeff = len(status)
        if n_coeff != self.basis.rank:
            raise ValueError(
                f"{n_coeff} coefficients in the dependency model, "
                f"but the basis has {self.basis.rank} modes"
            )
        if self.polygon is not None and max(self.polygon.axes) >= n_coeff:
            raise ValueError(f"polygon axes {self.polygon.axes} beyond {n_coeff} coefficients")
        reference = TriMesh(self.basis.center.reshape(-1, 3), self.facets)
        tol = 1e-9 * np.maximum(1.0, np.abs(box).max(axis=1))
        object.__setattr__(self, "dependencies", status)
        object.__setattr__(self, "free_indices", free)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "facets", reference.facets)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "bounding_box", box)
        object.__setattr__(self, "_low", tuple((box[:, 0] - tol).tolist()))
        object.__setattr__(self, "_high", tuple((box[:, 1] + tol).tolist()))

    @property
    def dim(self) -> int:
        return len(self.free_indices)

    def expand(self, mu_red) -> np.ndarray:
        """Full coefficient vector for reduced coordinates."""
        free_values = np.asarray(mu_red, dtype=float).reshape(-1)
        if free_values.size != self.dim:
            raise ValueError(f"expected {self.dim} free values, got {free_values.size}")
        return np.array(self._values(free_values.tolist()), dtype=float)

    def _values(self, v: list) -> list:
        # Each entry rounds as the float64 ``slope * value + intercept``.
        return [v[k] if a is None else a * v[k] + b for k, a, b in self._plan]

    def infeasibility(self, mu_red) -> float:
        """Squared distance to the feasible set: the squared excess of the
        free coordinates over the widened box plus the squared polygon
        distance of the constrained pair (dependent members through their
        regression). An excess whose square overflows gives inf, without a
        floating-point warning."""
        x = np.asarray(mu_red, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"expected {self.dim} reduced coordinates, got {x.size}")
        v = x.tolist()
        # ``max`` with the difference first keeps a NaN, as ``np.maximum``
        # does; ``b * b`` overflows to inf where ``b ** 2`` would raise.
        below = [max(lo - t, 0.0) for lo, t in zip(self._low, v)]
        above = [max(t - hi, 0.0) for t, hi in zip(v, self._high)]
        total = _sum_squares(below) + _sum_squares(above)
        if self.polygon is not None:
            full = self._values(v)
            a, b = self.polygon.axes
            if not self.polygon._inside(full[a], full[b]):
                # A distance is the root of a float, so its square cannot
                # overflow; ``**`` rounds as ``pow``, which ``d * d`` may not.
                total += self.polygon.distance((full[a], full[b])) ** 2
        return total

    def contains(self, mu_red) -> bool:
        """Feasibility test: the right length and zero infeasibility."""
        mu_red = np.asarray(mu_red, dtype=float).reshape(-1)
        return mu_red.size == self.dim and self.infeasibility(mu_red) == 0.0


def _sum_squares(terms: list) -> float:
    """``(np.asarray(terms) ** 2).sum()`` in its order: left to right below
    8 terms, numpy's own pairwise sum from 8 on."""
    if len(terms) >= 8:
        with np.errstate(over="ignore"):
            return float(np.square(terms).sum())
    total = 0.0
    for t in terms:
        total += t * t
    return total


def _default_pair(deps: tuple) -> tuple[int, int] | None:
    # Mirror the usual reading of the training scatter: the first
    # regressed coefficient against the next free one; with no detected
    # dependencies, the second and third coefficients.
    for j, s in enumerate(deps):
        if s is not None:
            for f in _free(deps):
                if f > j:
                    return (j, f)
    if len(deps) >= 3:
        return (1, 2)
    if len(deps) == 2:
        return (0, 1)
    return None


def build_reduced_space(
    basis: pod.PodBasis,
    facets: np.ndarray,
    alpha: np.ndarray,
    r2_threshold: float = 0.99,
    max_vertices: int | None = 4,
    pair: tuple[int, int] | None = None,
) -> ReducedSpace:
    """Assemble the reduced space from training coefficients and the facets
    of the reference mesh the basis is centred on.

    ``pair`` selects the coefficient plane the feasible polygon lives in;
    by default the first dependent coefficient against the next free one.
    A dependent member of the pair contributes its regressed value, the
    value decoding gives it, so the polygon contains every training
    point. A pair whose training points are collinear gets no polygon.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] < 1:
        raise ValueError("alpha must be an M x N coefficient matrix")
    if pair is not None and any(not 0 <= i < alpha.shape[1] for i in pair):
        raise ValueError(f"pair {pair} outside the {alpha.shape[1]} coefficients")
    deps = detect_dependencies(alpha, r2_threshold)
    free = _free(deps)
    if pair is None:
        pair = _default_pair(deps)
    polygon = None
    if pair is not None:
        cols = []
        for idx in pair:
            s = deps[idx]
            if s is not None:
                cols.append(s.slope * alpha[:, s.source] + s.intercept)
            else:
                cols.append(alpha[:, idx])
        try:
            polygon = fit_feasible_polygon(
                np.column_stack(cols), max_vertices=max_vertices, axes=pair
            )
        except CollinearPoints:
            pass
    box = np.column_stack(
        [alpha[:, list(free)].min(axis=0), alpha[:, list(free)].max(axis=0)]
    )
    return ReducedSpace(basis, facets, deps, polygon, box)


def sample_reduced(space: ReducedSpace, n: int, seed: int) -> np.ndarray:
    """Rejection-sample the feasible region uniformly.

    Free coordinates are drawn uniformly inside the bounding box and kept
    when the constrained pair falls inside the polygon. Aborts if the
    acceptance rate over the first 10 n draws is below 1 percent.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    box = space.bounding_box
    accepted: list[np.ndarray] = []
    draws = 0
    checked = False
    while len(accepted) < n:
        batch = rng.uniform(box[:, 0], box[:, 1], size=(n, space.dim))
        draws += n
        for row in batch:
            if space.contains(row):
                accepted.append(row)
        if not checked and draws >= 10 * n:
            checked = True
            if len(accepted) < 0.01 * draws:
                raise InfeasibleRegion(
                    f"acceptance rate {len(accepted) / draws:.2%} after "
                    f"{draws} draws"
                )
    return np.array(accepted[:n])


def decode(space: ReducedSpace, mu_red) -> TriMesh:
    """Geometry for one reduced coordinate vector, feasible or not: the
    sampler and the optimizer decide feasibility."""
    return unflatten(pod.reconstruct(space.basis, space.expand(mu_red)), space.reference)
