"""Shared test fixtures: synthetic meshes and independent oracles.

The oracles deliberately avoid the code paths they are used to check:
the SVD oracle is a one-sided Jacobi iteration, point-in-polygon is ray
casting, the least-squares oracle uses the raw-sum formulas, the FFD
oracle lays each parameter vector on the control grid and blends that
grid once instead of going through the displacement Jacobian, the
Jacobian oracle lays the grid of every unit vector through all map
entries, as ``displacement_jacobian`` did before it laid each
parameter's entries once, and the geometry-POD oracle morphs every
sample through the FFD oracle and decomposes the snapshot matrix
instead of using the closed form. The weld oracle is the
per-corner dictionary loop that the sort-based ``mesh.weld`` replaced.
The STL oracles are the token-by-token ASCII reader and line-by-line ASCII
writer that ``mesh``'s one facet template replaced, a binary reader
that unpacks one record at a time with ``struct``, and the binary writer
that filled a separate record array from the float64 corners before
``write_stl`` wrote the records in place.
The leave-one-out oracle rebuilds every fold as a database of the kept
full-length fields, as ``rom.loo_error`` did before it moved the folds
into the fields' span and sliced them from arrays.
The facet oracles take ``np.cross`` of gathered (F, 3) edge rows, as the
mesh and solver did before they gathered one coordinate at a time. The
feasibility oracles recompute, on every call, what the polygon and the
reduced space now derive once at construction: polygon edges by
``np.roll``, the box tolerance, and the free-position map of a dict loop.
The surrogate oracles fit the coefficient and objective interpolants with
two separate ``fit_interpolator`` calls and evaluate each interpolant on
its own kernel row. The float-path oracles are the numpy forms that the
Python-float code replaced: the penalty as whole-vector ``np.maximum`` and
``** 2`` sums, Nelder-Mead on a list of vertex arrays with ``np.argsort``,
``np.mean`` and one ``np.linalg.norm`` per vertex, the monotone chain
on numpy scalars, and the polygon collapse on numpy rows with ``np.dot``
for its endpoint sign tests.
"""

from __future__ import annotations

import math
import re
import struct
import warnings

import numpy as np

from shapemanifold import artifacts, pod, rom
from shapemanifold import mesh as mesh_module
from shapemanifold.errors import CollinearPoints, EmptyMesh, MalformedStl
from shapemanifold.ffd import (
    FfdConfig,
    MapEntry,
    MeshMorpher,
    displacement_jacobian,
    morph,
)
from shapemanifold.manifold import (
    _THIN_RTOL,
    Dependency,
    FeasiblePolygon,
    ReducedSpace,
    _collapse_to,
    _convex_hull,
    build_reduced_space,
    decode,
    fit_feasible_polygon,
)
from shapemanifold.mesh import FacetSoup, TriMesh, flatten, read_stl, unflatten, weld, write_stl
from shapemanifold.optimize import _DIAMETER_TOL, _SPREAD_TOL, _nelder_mead


# ---------------------------------------------------------------------------
# Synthetic geometry.


def make_sphere(rings: int, segments: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Welded UV sphere with (rings - 1) * segments + 2 vertices."""
    cx, cy, cz = center
    vertices = [(cx, cy, cz + radius)]
    for i in range(1, rings):
        phi = math.pi * i / rings
        for j in range(segments):
            theta = 2.0 * math.pi * j / segments
            vertices.append(
                (
                    cx + radius * math.sin(phi) * math.cos(theta),
                    cy + radius * math.sin(phi) * math.sin(theta),
                    cz + radius * math.cos(phi),
                )
            )
    vertices.append((cx, cy, cz - radius))
    top, bottom = 0, len(vertices) - 1

    def ring_vertex(i, j):
        return 1 + (i - 1) * segments + (j % segments)

    facets = []
    for j in range(segments):
        facets.append((top, ring_vertex(1, j), ring_vertex(1, j + 1)))
    for i in range(1, rings - 1):
        for j in range(segments):
            a = ring_vertex(i, j)
            b = ring_vertex(i, j + 1)
            c = ring_vertex(i + 1, j)
            d = ring_vertex(i + 1, j + 1)
            facets.append((a, c, b))
            facets.append((b, c, d))
    for j in range(segments):
        facets.append((bottom, ring_vertex(rings - 1, j + 1), ring_vertex(rings - 1, j)))
    return TriMesh(np.array(vertices), np.array(facets))


def make_tetra() -> TriMesh:
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    facets = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriMesh(vertices, facets)


def ring_facets(basis: pod.PodBasis) -> np.ndarray:
    """Facets over the ``state_dim // 3`` vertices of a synthetic basis's
    center: facet k names vertices k, k + 1 and k + 2 (mod the count)."""
    ring = np.arange(basis.state_dim // 3)
    return np.column_stack([np.roll(ring, -k) for k in range(3)])


def ascii_stl_one_facet() -> bytes:
    return (
        b"solid test\n"
        b"  facet normal 0 0 1\n"
        b"    outer loop\n"
        b"      vertex 0 0 0\n"
        b"      vertex 1 0 0\n"
        b"      vertex 0 1 0\n"
        b"    endloop\n"
        b"  endfacet\n"
        b"endsolid test\n"
    )


# ---------------------------------------------------------------------------
# Independent numerical oracles.


def jacobi_singular_values(a: np.ndarray, sweeps: int = 100, tol: float = 1e-15) -> np.ndarray:
    """Brute-force one-sided Jacobi SVD: rotate column pairs until all are
    mutually orthogonal, then read singular values off the column norms."""
    w = np.array(a, dtype=float, copy=True)
    m = w.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = float(w[:, p] @ w[:, p])
                aqq = float(w[:, q] @ w[:, q])
                apq = float(w[:, p] @ w[:, q])
                denom = math.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                off = max(off, abs(apq) / denom)
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                wp = w[:, p].copy()
                wq = w[:, q].copy()
                w[:, p] = c * wp - s * wq
                w[:, q] = s * wp + c * wq
        if off <= tol:
            break
    sigma = np.linalg.norm(w, axis=0)
    return np.sort(sigma)[::-1]


def ray_cast_inside(point, vertices: np.ndarray, tol: float = 1e-9) -> bool:
    """Point-in-polygon by horizontal ray casting, with an explicit
    on-boundary check so the test is boundary-inclusive."""
    px, py = float(point[0]), float(point[1])
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    scale = max(1.0, float(np.abs(v).max()))
    for i in range(n):
        if segment_distance_oracle((px, py), v[i], v[(i + 1) % n]) <= tol * scale:
            return True
    crossings = 0
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x_at > px:
                crossings += 1
    return crossings % 2 == 1


def segment_distance_oracle(p, a, b) -> float:
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / length_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def shoelace_area(vertices) -> float:
    """Signed area of a polygon by the shoelace formula, positive for
    counter-clockwise vertices."""
    v = [(float(x), float(y)) for x, y in vertices]
    return 0.5 * sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1])
    )


def random_cloud(rng, n_points: int) -> np.ndarray:
    """A rotated Gaussian cloud in the plane, with axis scales up to three
    decades apart, at a random overall scale and offset."""
    rotation, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    scale = 10.0 ** rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-1.5, 1.5, 2)
    offset = 10.0 ** rng.uniform(-2.0, 2.0) * rng.uniform(-1.0, 1.0, 2)
    return (rng.standard_normal((n_points, 2)) * scale) @ rotation + offset


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def numpy_scalar_convex_hull(points: np.ndarray) -> np.ndarray:
    """``manifold._convex_hull`` with the monotone chain on rows of the
    sorted array, so every turn is numpy-scalar arithmetic."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] < 3:
        raise CollinearPoints("need at least 3 distinct points")

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross2(
                chain[-1] - chain[-2], p - chain[-2]
            ) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise CollinearPoints("points are collinear")
    hull = np.array(hull)
    x, y = hull.T
    twice_area = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if twice_area <= _THIN_RTOL * np.ptp(hull, axis=0).max() * np.abs(hull).max():
        raise CollinearPoints("points are collinear up to round-off")
    return hull


def hull_cloud(rng) -> np.ndarray:
    """A planar cloud for the hull: a random cloud, one with repeated
    points, an exactly collinear run (with or without extra points), a run
    collinear to within about 1e-12, a cloud with signed zeros, or three
    points."""
    kind = int(rng.integers(6))
    n = int(rng.integers(3, 60))
    if kind == 0:
        return random_cloud(rng, n)
    if kind == 1:
        cloud = random_cloud(rng, n)
        return cloud[rng.integers(0, n, 2 * n)]
    if kind in (2, 3):
        # Dyadic steps along a dyadic direction: every turn is exactly zero.
        t = rng.integers(-64, 64, n) / 8.0
        d = rng.integers(-4, 5, 2) / 4.0
        line = np.outer(t, d) + rng.integers(-8, 8, 2) / 2.0
        if kind == 2:
            return line
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        off = scale * (1.0 + rng.standard_normal((n, 2)) * 1e-12)
        return line * off
    if kind == 4:
        return signed_zeros(rng, random_cloud(rng, n) * rng.choice([0.0, 1.0], (n, 1)))
    return random_cloud(rng, 3)


def assert_hull_matches_numpy_scalar_chain(rng) -> None:
    """``manifold._convex_hull`` gives the numpy-scalar chain's vertices bit
    for bit, or both raise ``CollinearPoints`` with the same message."""
    cloud = hull_cloud(rng)
    outcomes = []
    for hull in (numpy_scalar_convex_hull, _convex_hull):
        try:
            vertices = hull(cloud)
            outcomes.append((vertices.shape, bits(vertices)))
        except CollinearPoints as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]


def numpy_line_intersection(a, b, c, d):
    """``manifold._line_intersection`` on numpy rows."""
    r = b - a
    s = d - c
    denom = _cross2(r, s)
    if denom == 0.0:
        return None
    t = _cross2(c - a, s) / denom
    return a + t * r


def numpy_collapse_to(hull: np.ndarray, max_vertices: int) -> np.ndarray:
    """``manifold._collapse_to`` on numpy rows, with ``np.dot`` for the two
    endpoint sign tests."""
    verts = [np.asarray(v, dtype=float) for v in hull]
    while len(verts) > max_vertices:
        k = len(verts)
        best = None
        for e in range(k):
            a, b = verts[(e - 1) % k], verts[e]
            c, d = verts[(e + 2) % k], verts[(e + 1) % k]
            p = numpy_line_intersection(a, b, c, d)
            if p is None:
                continue
            if np.dot(p - b, b - a) < 0.0 or np.dot(p - d, d - c) < 0.0:
                continue
            added = 0.5 * abs(_cross2(p - verts[e], verts[(e + 1) % k] - verts[e]))
            if best is None or added < best[0]:
                best = (added, e, p)
        if best is None:
            break
        _, e, p = best
        verts[e] = p
        del verts[(e + 1) % len(verts)]
    return np.array(verts)


def collapse_cloud(rng) -> np.ndarray:
    """A planar cloud of 3 to 400 points for the collapse: a random normal
    cloud, a uniform one scaled per axis, a noisy ellipse, small integers
    (exact arithmetic), or the corners of a random polygon with points on
    its edges moved off them by about 1e-15 to 1e-9 (hull vertices whose
    turns, and whose collapses' endpoint dots, are nearly zero). All but
    the integers are at a random scale and offset."""
    kind = int(rng.integers(5))
    n = int(rng.integers(3, 401))
    if kind == 0:
        return random_cloud(rng, n)
    if kind == 3:
        return rng.integers(-20, 21, (n, 2)).astype(float)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 2)
    offset = 10.0 ** rng.uniform(-3.0, 3.0) * rng.uniform(-1.0, 1.0, 2)
    if kind == 1:
        cloud = rng.uniform(-1.0, 1.0, (n, 2))
    elif kind == 2:
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        cloud = np.column_stack([np.cos(theta), np.sin(theta)])
        cloud += 10.0 ** rng.uniform(-3.0, -1.0) * rng.standard_normal((n, 2))
    else:
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 9))))
        corners = np.column_stack([np.cos(theta), np.sin(theta)])
        edge = rng.integers(0, len(corners), n)
        t = rng.random((n, 1))
        cloud = corners[edge] + t * (np.roll(corners, -1, axis=0)[edge] - corners[edge])
        cloud += 10.0 ** rng.uniform(-15.0, -9.0) * rng.standard_normal((n, 2))
        cloud = np.vstack([corners, cloud])
    return cloud * scale + offset


def assert_collapse_matches_numpy_rows(rng) -> None:
    """``manifold._collapse_to`` on float tuples gives the numpy-row
    collapse's vertices bit for bit, to 3, 4 and 6 vertices."""
    try:
        hull = _convex_hull(collapse_cloud(rng))
    except CollinearPoints:
        return
    for target in (3, 4, 6):
        got = _collapse_to(hull, target)
        with np.errstate(all="ignore"):
            want = numpy_collapse_to(hull, target)
        assert (got.shape, bits(got)) == (want.shape, bits(want))


def polygon_contains(polygon: FeasiblePolygon, point) -> bool:
    """Boundary-inclusive containment of one point: every edge of
    ``polygon`` sees it on its left, up to ``-polygon.tol``."""
    return polygon._inside(*np.asarray(point, dtype=float).reshape(2).tolist())


def assert_polygon_contains_cloud(cloud: np.ndarray, max_vertices) -> None:
    """The feasible polygon fitted to ``cloud`` contains every point of it:
    ``polygon_contains`` accepts each one and its distance to the polygon
    is 0."""
    polygon = fit_feasible_polygon(cloud, max_vertices)
    for point in cloud:
        assert polygon_contains(polygon, point)
        assert polygon.distance(point) == 0.0


def assert_space_contains_training_points(rng) -> None:
    """Every training point of ``build_reduced_space`` is ``contains``-feasible
    on a cloud of 20 to 200 samples where coefficient 2 regresses on
    coefficient 0 (with noise, at random scales) and is a member of the
    polygon pair: (1, 2), (2, 1) or the default."""
    m = int(rng.integers(20, 201))
    a0, a1 = rng.uniform(-1.0, 1.0, (2, m))
    slope = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
    a2 = slope * (a0 + 0.01 * rng.standard_normal(m)) + rng.standard_normal()
    alpha = np.column_stack([a0, a1, a2]) * 10.0 ** rng.uniform(-2.0, 2.0, 3)
    basis = pod.PodBasis(np.eye(9)[:, :3], np.array([3.0, 2.0, 1.0]), np.zeros(9))
    pair = [(1, 2), (2, 1), None][int(rng.integers(3))]
    max_vertices = [None, 3, 4, 6][int(rng.integers(4))]
    space = build_reduced_space(
        basis, ring_facets(basis), alpha, max_vertices=max_vertices, pair=pair
    )
    assert space.dependencies[2].source == 0
    assert space.polygon is not None and 2 in space.polygon.axes
    for row in alpha[:, list(space.free_indices)]:
        assert space.contains(row)


def ols_oracle(x, y):
    """Least squares through the raw-sum formulas (no centering)."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    sx = sum(x)
    sy = sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    ybar = sy / n
    ss_res = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - ybar) ** 2 for b in y)
    r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def control_grid(config, mu) -> np.ndarray:
    """Control-point displacements of one parameter vector, laid entry by
    entry; entries referencing the same control point and axis add up."""
    l, m, n = config.dims
    disp = np.zeros((l + 1, m + 1, n + 1, 3))
    for e in config.entries:
        i, j, k = e.point
        disp[i, j, k, e.axis] += e.weight * mu[e.param]
    return disp


def oracle_displacement(points, config, mu) -> np.ndarray:
    """FFD displacement of a point set, (n_points, 3): the control grid of
    ``mu`` blended in one ``MeshMorpher.displacement`` call, with no
    displacement Jacobian involved."""
    morpher = MeshMorpher(points, config)
    return morpher.displacement(control_grid(config, np.asarray(mu, dtype=float)))


def unit_loop_jacobian(config, points) -> np.ndarray:
    """The displacement Jacobian as it was built before each parameter's
    grid was laid once: the control grid of every unit vector, each laid
    through all map entries and blended on its own. ``displacement_jacobian``
    must match it byte for byte."""
    morpher = MeshMorpher(points, config)
    jac = np.empty((3 * morpher.point_count, config.param_dim))
    for j, unit in enumerate(np.eye(config.param_dim)):
        jac[:, j] = morpher.displacement(control_grid(config, unit)).reshape(-1)
    return jac


def point_cloud(points) -> TriMesh:
    """A reference with no facets, to morph bare points."""
    return TriMesh(np.reshape(points, (-1, 3)), np.zeros((0, 3), dtype=np.int64))


def random_ffd_case(rng, degrees, param_dim: int, n_entries: int, n_points: int = 40):
    """A rotated, non-unit lattice frame with ``n_entries`` random map
    entries plus one more that shares the first entry's control point and
    axis, and a point set of which about half lies outside the box.

    The case is translated so that up to three points inside the box have
    a ``-0.0`` coordinate, one per axis.

    Returns (config, points, outside); ``outside`` marks the points with a
    local coordinate at least 0.05 outside [0, 1].
    """
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    axes = rng.uniform(0.2, 5.0, 3)[:, None] * rotation
    origin = rng.uniform(-2.0, 2.0, 3)
    grid = [d + 1 for d in degrees]
    entries = [
        MapEntry(
            int(rng.integers(param_dim)),
            tuple(int(rng.integers(g)) for g in grid),
            int(rng.integers(3)),
            float(rng.uniform(-2.0, 2.0)),
        )
        for _ in range(n_entries)
    ]
    first = entries[0]
    entries.append(MapEntry(int(rng.integers(param_dim)), first.point, first.axis, 0.5))
    local = rng.uniform(0.0, 1.0, (n_points, 3))
    outside = rng.random(n_points) < 0.5
    axis = rng.integers(3, size=n_points)
    pushed = np.where(rng.random(n_points) < 0.5, rng.uniform(-0.5, -0.05, n_points),
                      rng.uniform(1.05, 1.5, n_points))
    local[outside, axis[outside]] = pushed[outside]
    points = origin + local @ axes
    zeroed = np.flatnonzero(~outside)[:3]
    shift = np.zeros(3)
    shift[: len(zeroed)] = points[zeroed, np.arange(len(zeroed))]
    origin, points = origin - shift, points - shift
    points[zeroed, np.arange(len(zeroed))] = -0.0
    config = FfdConfig(origin, axes, degrees, tuple(entries), param_dim)
    return config, points, outside


def assert_ffd_invariants(config, points, outside, mu1, mu2, a: float, b: float):
    """The invariants the closed-form reduction relies on, for one lattice:
    ``J`` is byte for byte the unit-loop Jacobian, the zero morph is
    bitwise the identity, ``J`` is linear, ``J mu`` matches the
    grid-then-blend oracle, ``morph`` adds exactly ``J mu`` to the points
    (keeping a point where its displacement is zero), and points outside
    the box get exactly zero rows. Tolerances are relative
    to ``|J| |mu|``; the morphed points are compared bitwise, because
    rounding ``p + d`` at a large ``|p|`` can exceed a bound on ``d``."""
    reference = point_cloud(points)
    jac = displacement_jacobian(config, points)
    assert jac.tobytes() == unit_loop_jacobian(config, points).tobytes()
    zero = morph(reference, jac, np.zeros(config.param_dim))
    assert zero.vertices.tobytes() == reference.vertices.tobytes()

    combined = jac @ (a * mu1 + b * mu2)
    scale = np.abs(jac) @ (abs(a) * np.abs(mu1) + abs(b) * np.abs(mu2))
    assert np.all(np.abs(combined - (a * (jac @ mu1) + b * (jac @ mu2))) <= 1e-12 * scale.max())

    for mu in (mu1, mu2):
        disp = (jac @ mu).reshape(-1, 3)
        want = oracle_displacement(points, config, mu)
        scale = (np.abs(jac) @ np.abs(mu)).max()
        assert np.all(np.abs(disp - want) <= 1e-12 * scale)
        moved = np.where(disp == 0.0, points, points + disp)
        assert morph(reference, jac, mu).vertices.tobytes() == moved.tobytes()

    assert np.all(jac.reshape(-1, 3, config.param_dim)[outside] == 0.0)


def snapshot_geometry_pod(reference: TriMesh, config, params, rule=None):
    """Geometry POD by the method of snapshots: morph every parameter row,
    stack the displacement fields as columns of an N x M matrix centered
    on the reference, and decompose it with ``pod.compute_pod``. Returns
    (basis, alpha) like ``manifold.build_geometry_pod``."""
    params = np.asarray(params, dtype=float)
    morpher = MeshMorpher(reference.vertices, config)
    centered = np.empty((3 * reference.vertex_count, params.shape[0]))
    for i, mu in enumerate(params):
        centered[:, i] = morpher.displacement(control_grid(config, mu)).reshape(-1)
    basis = pod.compute_pod(centered, center=flatten(reference))
    if rule is not None:
        basis = pod.truncate(basis, rule)
    return basis, (basis.modes.T @ centered).T


def loop_weld(soup: FacetSoup, tol: float) -> TriMesh:
    """Weld corner by corner: an exact-coordinate dictionary, then a
    spatial hash with cell width ``tol`` probed over the 27 neighbouring
    cells. ``mesh.weld`` must match it bitwise."""
    if not tol >= 0.0:
        raise ValueError("weld tolerance must be >= 0")
    corners = soup.corners.reshape(-1, 3)
    vertices: list[np.ndarray] = []
    indices = np.empty(len(corners), dtype=np.int64)
    exact: dict[tuple, int] = {}

    if tol == 0.0:
        for n, p in enumerate(corners):
            key = (p[0], p[1], p[2])
            idx = exact.get(key)
            if idx is None:
                idx = len(vertices)
                exact[key] = idx
                vertices.append(p)
            indices[n] = idx
    else:
        # Spatial hash with cell width tol: any match lies in one of the
        # 27 neighboring cells. An exact-coordinate dictionary handles the
        # common case of bitwise-identical shared corners first.
        cells: dict[tuple, list[int]] = {}
        cell_ids = np.floor(corners / tol).astype(np.int64)
        offsets = [
            (di, dj, dk)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for dk in (-1, 0, 1)
        ]
        for n, p in enumerate(corners):
            key = (p[0], p[1], p[2])
            idx = exact.get(key)
            if idx is None:
                ci, cj, ck = cell_ids[n]
                for di, dj, dk in offsets:
                    for cand in cells.get((ci + di, cj + dj, ck + dk), ()):
                        if np.max(np.abs(vertices[cand] - p)) <= tol:
                            idx = cand
                            break
                    if idx is not None:
                        break
                if idx is None:
                    idx = len(vertices)
                    vertices.append(p)
                    cells.setdefault((ci, cj, ck), []).append(idx)
                exact[key] = idx
            indices[n] = idx

    return TriMesh(np.array(vertices, dtype=float), indices.reshape(-1, 3))


def soup_of(corners) -> FacetSoup:
    """Facet soup around (F, 3, 3) corners."""
    return FacetSoup(np.asarray(corners, dtype=float))


def crowded_cells(cells) -> np.ndarray:
    """Mask of the points whose int64 cell lies within one step of another
    point's on every axis, pair by pair: the points ``mesh.weld`` must
    visit. Steps are int64 array sums ``c + d``, which wrap at 2**63, so
    cells at the two ends of the range count as neighbours; the weld's
    uint64 block keys pair them too."""
    cells = np.asarray(cells, dtype=np.int64)
    near = np.ones((len(cells), len(cells)), dtype=bool)
    for a in cells.T:
        near &= (a[None] == a[:, None]) | (a[None] == a[:, None] + 1) | (a[None] == a[:, None] - 1)
    np.fill_diagonal(near, False)
    return near.any(axis=1)


def assert_weld_matches_loop(soup: FacetSoup, tol: float) -> TriMesh:
    """Require ``weld`` to give the loop oracle's mesh bit for bit."""
    got, want = weld(soup, tol), loop_weld(soup, tol)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.facets.tobytes() == want.facets.tobytes()
    return got


# The decimal-float grammar, ASCII digits only and no digit-group
# underscores: the numbers Python's float reads that the readers take.
DECIMAL_FLOAT = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)",
                           re.ASCII | re.IGNORECASE)


def loop_read_ascii(data: bytes) -> FacetSoup:
    """Read ASCII STL token by token, with one ``expect`` or ``floats`` call
    per keyword or number group of a facet. ``mesh.read_stl`` must give its
    corners, or its exception type and message, on every ASCII input."""
    try:
        tokens = data.decode("ascii", errors="strict").split()
    except UnicodeDecodeError as exc:
        raise MalformedStl(f"ASCII STL is not valid text: {exc}") from exc
    pos = 0

    def next_token() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise MalformedStl("ASCII STL ended unexpectedly")
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(word: str):
        tok = next_token()
        if tok.lower() != word:
            raise MalformedStl(f"expected '{word}', found '{tok}'")

    def floats(n: int) -> list[float]:
        out = []
        for _ in range(n):
            tok = next_token()
            if not DECIMAL_FLOAT.fullmatch(tok):
                raise MalformedStl(f"expected a number, found '{tok}'")
            out.append(float(tok))
        return out

    corners = []
    expect("solid")
    while pos < len(tokens):
        tok = next_token()
        low = tok.lower()
        if low == "facet":
            expect("normal")
            floats(3)
            expect("outer")
            expect("loop")
            tri = []
            for _ in range(3):
                expect("vertex")
                tri.append(floats(3))
            if pos < len(tokens) and tokens[pos].lower() == "vertex":
                raise MalformedStl("facet loop has more than three vertices")
            expect("endloop")
            expect("endfacet")
            corners.append(tri)
        elif low == "endsolid":
            while pos < len(tokens) and tokens[pos].lower() != "solid":
                pos += 1
            if pos < len(tokens):
                pos += 1
        elif low == "vertex":
            raise MalformedStl("vertex outside a facet loop")
    if not corners:
        raise EmptyMesh("ASCII STL contains no facets")
    return FacetSoup(np.array(corners, dtype=float))


def loop_read_binary(data: bytes) -> FacetSoup:
    """Read binary STL one 50-byte record at a time with ``struct``."""
    if len(data) < 84:
        raise MalformedStl("binary STL shorter than header plus count")
    (count,) = struct.unpack_from("<I", data, 80)
    if count == 0:
        raise EmptyMesh("binary STL declares zero facets")
    expected = 84 + 50 * count
    if len(data) < expected:
        raise MalformedStl(
            f"binary STL truncated: {len(data)} bytes, {expected} required for {count} facets"
        )
    corners = [struct.unpack_from("<9f", data, 84 + 50 * i + 12) for i in range(count)]
    return FacetSoup(np.array(corners).reshape(-1, 3, 3))


def loop_read_stl(data: bytes) -> FacetSoup:
    """``read_stl`` through the loop readers, with its format detection."""
    if not data:
        raise MalformedStl("empty byte stream")
    return (loop_read_ascii if mesh_module._looks_ascii(data) else loop_read_binary)(data)


def loop_write_ascii(mesh: TriMesh) -> bytes:
    """ASCII STL printed line by line: ``write_stl(mesh, "ascii")`` must
    give these bytes."""
    lines = ["solid shapemanifold"]
    for nrm, corners in zip(mesh_module._facet_normals(mesh), mesh.vertices[mesh.facets]):
        lines.append("  facet normal {:.17g} {:.17g} {:.17g}".format(*nrm))
        lines.append("    outer loop")
        for p in corners:
            lines.append("      vertex {:.17g} {:.17g} {:.17g}".format(*p))
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append("endsolid shapemanifold")
    return ("\n".join(lines) + "\n").encode("ascii")


def record_write_binary(mesh: TriMesh) -> bytes:
    """Binary STL from one zeroed record array that is filled with the
    ``np.cross`` normals and the float64 corners, then serialised after the
    header and count: ``write_stl(mesh, "binary")`` must give these bytes."""
    records = np.zeros(len(mesh.facets), dtype=mesh_module._FACET_DTYPE)
    records["normal"] = np_cross_facet_normals(mesh)
    records["corners"] = mesh.vertices[mesh.facets]
    header = b"shapemanifold".ljust(80, b"\x00")
    return header + struct.pack("<I", len(records)) + records.tobytes()


# Tokens an edit may insert: keywords in three cases, numbers the reader
# takes (signed zero, extremes, nan, inf) and ones it refuses (digit-group
# underscores among them).
STL_VOCABULARY = [
    b"solid", b"endsolid", b"facet", b"normal", b"outer", b"loop", b"vertex",
    b"endloop", b"endfacet", b"SOLID", b"EndSolid", b"FACET", b"Vertex", b"ENDLOOP",
    b"0", b"-0", b"1.5e300", b"4.9e-324", b"nan", b"-inf", b"1_0", b"0x1", b"1e", b".",
    b"name", b"x",
]


# Edit kinds of mutated_ascii_stl and their relative weights.
_STL_EDITS = ("delete", "insert", "replace", "duplicate", "case", "solid", "vertex",
              "non-ascii", "truncate")
_STL_EDIT_WEIGHTS = np.array([3, 3, 3, 2, 3, 2, 2, 1, 2]) / 21  # sums to one


def mutated_ascii_stl(rng) -> bytes:
    """``write_stl`` ASCII output of a tetrahedron or a small sphere after
    one to three edits: a token deleted, inserted, replaced or duplicated,
    a keyword's case changed, an extra solid opened, a fourth vertex line,
    a non-ASCII byte, or the text truncated at a random byte."""
    base = make_tetra() if rng.integers(2) else make_sphere(3, 4)
    tokens = write_stl(base, "ascii").split()
    cut = None
    for _ in range(int(rng.integers(1, 4))):
        kind = _STL_EDITS[rng.choice(len(_STL_EDITS), p=_STL_EDIT_WEIGHTS)]
        i = int(rng.integers(len(tokens) + 1))
        j = min(i, len(tokens) - 1)
        word = STL_VOCABULARY[int(rng.integers(len(STL_VOCABULARY)))]
        if kind == "insert" or not tokens:
            tokens.insert(i, word)
        elif kind == "delete":
            del tokens[j]
        elif kind == "replace":
            tokens[j] = word
        elif kind == "duplicate":
            tokens.insert(j, tokens[j])
        elif kind == "case":
            tokens[j] = tokens[j].upper() if rng.integers(2) else tokens[j].title()
        elif kind == "solid":  # close the solid and open another, in part or whole
            extra = [b"endsolid", b"part", b"solid", b"second", b"part"]
            tokens[i:i] = extra[:int(rng.integers(1, 6))]
        elif kind == "vertex":  # a vertex line again, right after itself
            starts = [k for k, tok in enumerate(tokens) if tok == b"vertex"] or [j]
            k = starts[int(rng.integers(len(starts)))]
            tokens[k:k] = tokens[k:k + 4]
        elif kind == "non-ascii":
            tokens[j] = tokens[j] + b"\xe9"
        else:
            cut = rng.random()
    data = b"\n".join(tokens) + b"\n"
    return data if cut is None else data[:max(1, int(cut * len(data)))]


def stl_outcome(read, data: bytes):
    """The corner bytes ``read`` gives for ``data``, or its error's type and
    message."""
    try:
        return read(data).corners.tobytes()
    except (MalformedStl, EmptyMesh) as exc:
        return type(exc), str(exc)


def assert_read_matches_loop_on_mutated_ascii(rng) -> None:
    data = mutated_ascii_stl(rng)
    assert stl_outcome(read_stl, data) == stl_outcome(loop_read_stl, data), data


def written_normals(data: bytes) -> np.ndarray:
    """The facet normals stored in STL bytes from ``write_stl``, (F, 3):
    float32 from a binary record, the printed numbers from ASCII text."""
    if data.startswith(b"solid"):
        lines = data.decode("ascii").splitlines()
        return np.array([[float(v) for v in line.split()[2:]]
                         for line in lines if line.strip().startswith("facet normal")])
    (count,) = struct.unpack_from("<I", data, 80)
    record = np.dtype([("normal", "<f4", (3,)), ("rest", "V38")])  # 50 bytes
    return np.frombuffer(data, dtype=record, count=count, offset=84)["normal"].astype(float)


def rom_of(db: rom.SolutionDatabase, *args, **kwargs) -> rom.RomModel:
    """``rom.build_rom`` on a database's arrays, as ``build-rom`` calls it."""
    return rom.build_rom(db.params, pod.assemble(db.fields), db.objectives, *args, **kwargs)


def loop_loo_error(db: rom.SolutionDatabase, rule, kernel="gaussian", epsilon=None):
    """Leave-one-out by rebuilding each fold as a database of the kept
    full-length rows; ``rom.loo_error`` must match it to round-off, and its
    fewest modes exactly."""
    if db.count < 3:
        raise ValueError("leave-one-out needs at least three samples")
    errors = np.empty(db.count)
    ranks = []
    for i in range(db.count):
        keep = [j for j in range(db.count) if j != i]
        fold = rom.SolutionDatabase(db.params[keep], db.fields[keep], db.objectives[keep])
        model = rom_of(fold, rule, kernel, epsilon)
        ranks.append(model.basis.rank)
        predicted, _ = rom.predict(model, db.params[i])
        truth = db.fields[i]
        denom = np.linalg.norm(truth)
        diff = np.linalg.norm(predicted - truth)
        errors[i] = diff / denom if denom > 0.0 else diff
    return errors, {"mean": float(errors.mean()), "max": float(errors.max()),
                    "fewest_modes": min(ranks)}


def random_loo_database(rng, m: int, n: int, d: int) -> rom.SolutionDatabase:
    """m samples over d parameters, fields of length n nonlinear in them.

    The parameters are distinct cells of a regular grid, jittered by up to
    a quarter cell, so nodes stay well separated and every kernel's system
    stays well conditioned.
    """
    side = int(np.ceil(m ** (1.0 / d))) + 1
    cells = rng.choice(side**d, size=m, replace=False)
    grid = np.stack(np.unravel_index(cells, (side,) * d), axis=1)
    params = (grid + rng.uniform(-0.25, 0.25, (m, d))) / side
    freq = rng.uniform(0.5, 3.0, (d, n))
    phase = rng.uniform(0.0, 2.0 * math.pi, n)
    fields = 1.0 + np.sin(params @ freq + phase)
    objectives = np.cos(params.sum(axis=1))
    return rom.SolutionDatabase(params, fields, objectives)


def random_pod_matrix(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """rows x cols matrix of exactly ``rank``: orthonormal factors around
    singular values within one decade, at a random overall scale."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rank)))
    sigma = 10.0 ** rng.uniform(-3.0, 3.0) * 10.0 ** rng.uniform(0.0, 1.0, rank)
    return (u * sigma) @ v.T


def assert_pod_orthonormal(matrix: np.ndarray, rank: int) -> None:
    """``compute_pod`` keeps exactly ``rank`` modes, orthonormal to 1e-12."""
    basis = pod.compute_pod(matrix)
    assert basis.rank == rank
    assert basis.modes.shape == (matrix.shape[0], rank)
    assert np.abs(basis.modes.T @ basis.modes - np.eye(rank)).max(initial=0.0) <= 1e-12


LOO_RULES = {
    "energy 0.9999": pod.TruncationRule.energy(0.9999),
    "energy 1-1e-12": pod.TruncationRule.energy(1.0 - 1e-12),
    "fixed 3": pod.TruncationRule.fixed(3),
}


def assert_loo_permutation_invariant(db: rom.SolutionDatabase, perm, rule, kernel):
    """Reordering the samples reorders the leave-one-out errors alike.

    Each error is already relative to its truth's norm, so the absolute
    bound is a relative bound on the difference of the predicted fields.
    """
    errors, _ = rom.loo_error(db, rule, kernel)
    shuffled = rom.SolutionDatabase(db.params[perm], db.fields[perm], db.objectives[perm])
    permuted, _ = rom.loo_error(shuffled, rule, kernel)
    np.testing.assert_allclose(permuted, errors[perm], rtol=1e-10, atol=1e-10)


def np_cross_facet_cross(mesh: TriMesh) -> np.ndarray:
    """Per-facet edge cross products, (F, 3), by ``np.cross``."""
    v, f = mesh.vertices, mesh.facets
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def np_cross_facet_normals(mesh: TriMesh) -> np.ndarray:
    """Unit facet normals from ``np.cross``; zero for a degenerate facet."""
    n = np_cross_facet_cross(mesh)
    lengths = np.linalg.norm(n, axis=1)
    ok = lengths > 0.0
    n[ok] /= lengths[ok, None]
    n[~ok] = 0.0
    return n


def np_cross_evaluate(mesh: TriMesh, cfg) -> tuple[np.ndarray, float]:
    """Field and objective of the ``field-synthetic`` stub, with the areas
    from ``np.cross`` and the facet means from one (F, 3) gather."""
    v = mesh.vertices
    kx, ky, kz = cfg.frequency
    values = cfg.amplitude * np.sin(kx * v[:, 0]) * np.cos(ky * v[:, 1])
    values = values + kz * v[:, 2] ** 2
    areas = 0.5 * np.linalg.norm(np_cross_facet_cross(mesh), axis=1)
    facet_mean = values[mesh.facets].mean(axis=1)
    return values, float((areas * facet_mean).sum() / areas.sum())


# ---------------------------------------------------------------------------
# Feasibility oracles: every derived quantity recomputed per call.


def bits(x) -> bytes:
    """Bytes of a float64 scalar or array: equal bits, sign of zero included."""
    return np.asarray(x, dtype=np.float64).tobytes()


def roll_point_in_polygon(point, vertices, rtol: float = 1e-9) -> bool:
    """Boundary-inclusive containment with the edges taken by ``np.roll``
    and the tolerance from the vertices on every call."""
    p = np.asarray(point, dtype=float).reshape(2)
    v = np.asarray(vertices, dtype=float)
    tol = rtol * max(1.0, float(np.abs(v).max()))
    nxt = np.roll(v, -1, axis=0)
    cross = (nxt[:, 0] - v[:, 0]) * (p[1] - v[:, 1]) - (nxt[:, 1] - v[:, 1]) * (
        p[0] - v[:, 0]
    )
    return bool(np.all(cross >= -tol))


def _row_dots(x, y):
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def roll_distance_to_polygon(point, polygon: FeasiblePolygon) -> float:
    """``FeasiblePolygon.distance`` with the edges by ``np.roll``."""
    p = np.asarray(point, dtype=float).reshape(2)
    if roll_point_in_polygon(p, polygon.vertices):
        return 0.0
    a = polygon.vertices
    ab = np.roll(a, -1, axis=0) - a
    t = np.clip(_row_dots(p - a, ab) / _row_dots(ab, ab), 0.0, 1.0)
    gap = p - (a + t[:, None] * ab)
    return float(np.sqrt(_row_dots(gap, gap)).min())


def dict_loop_expand(status, free_values) -> np.ndarray:
    """Full coefficient vector by a loop over the status tuple (one
    ``Dependency`` or ``None`` per coefficient), through a dict from
    coefficient index to free position."""
    free_values = np.asarray(free_values, dtype=float).reshape(-1)
    free = tuple(i for i, s in enumerate(status) if s is None)
    if free_values.size != len(free):
        raise ValueError(f"expected {len(free)} free values, got {free_values.size}")
    full = np.zeros(len(status))
    pos = {idx: k for k, idx in enumerate(free)}
    for i, s in enumerate(status):
        if s is None:
            full[i] = free_values[pos[i]]
        else:
            full[i] = s.slope * free_values[pos[s.source]] + s.intercept
    return full


def per_call_box_contains(space: ReducedSpace, mu_red) -> bool:
    """``ReducedSpace.contains`` with the box tolerance computed per call and
    the pair through the two oracles above."""
    mu_red = np.asarray(mu_red, dtype=float).reshape(-1)
    if mu_red.size != space.dim:
        return False
    box = space.bounding_box
    tol = 1e-9 * np.maximum(1.0, np.abs(box).max(axis=1))
    if np.any(mu_red < box[:, 0] - tol) or np.any(mu_red > box[:, 1] + tol):
        return False
    if space.polygon is None:
        return True
    full = dict_loop_expand(space.dependencies, mu_red)
    a, b = space.polygon.axes
    return roll_point_in_polygon([full[a], full[b]], space.polygon.vertices)


def signed_zeros(rng, points: np.ndarray) -> np.ndarray:
    """A copy of ``points`` with about a quarter of the entries set to
    -0.0 or +0.0."""
    out = np.array(points, dtype=float)
    hit = rng.random(out.shape) < 0.25
    out[hit] = rng.choice([-0.0, 0.0], size=int(hit.sum()))
    return out


def random_polygon(rng) -> FeasiblePolygon:
    """The polygon of a random cloud, or a diamond with -0.0 vertex
    coordinates around the origin."""
    if rng.random() < 0.2:
        s = 10.0 ** rng.uniform(-2.0, 2.0)
        return FeasiblePolygon(
            (0, 1), np.array([[-0.0, -s], [s, -0.0], [-0.0, s], [-s, -0.0]])
        )
    max_vertices = rng.choice([None, 3, 4, 6])
    cloud = random_cloud(rng, int(rng.integers(3, 60)))
    return fit_feasible_polygon(cloud, None if max_vertices is None else int(max_vertices))


def probe_points(rng, vertices: np.ndarray, count: int) -> np.ndarray:
    """Points around a vertex set: uniform in its box grown by half on each
    side, the vertices themselves, points on the edges, points a few ulps
    off them, points outside them by about the containment tolerance, and
    signed zeros."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    low, high = v.min(axis=0), v.max(axis=0)
    pad = 0.5 * (high - low) + 1e-3
    uniform = rng.uniform(low - pad, high + pad, (count, 2))
    edges = np.roll(v, -1, axis=0) - v
    on_edges = v + rng.random((len(v), 1)) * edges
    nudge = (rng.choice([-1.0, 1.0], on_edges.shape)
             * np.spacing(np.abs(on_edges)) * rng.integers(0, 4, on_edges.shape))
    # A point d outside an edge of length L has edge cross product -L d.
    tol = 1e-9 * max(1.0, float(np.abs(v).max()))
    length = np.linalg.norm(edges, axis=1)[:, None]
    outward = np.column_stack([edges[:, 1], -edges[:, 0]]) / length
    band = [on_edges + outward * (k * tol / length) for k in (0.9, 1.0, 1.05, 1.2, 2.0)]
    return np.vstack([uniform, v, on_edges, on_edges + nudge, *band,
                      signed_zeros(rng, uniform), [[-0.0, -0.0], [0.0, -0.0]]])


def assert_contains_matches_roll_oracle(rng) -> None:
    """``polygon_contains`` gives the ``np.roll`` formula's answer."""
    polygon = random_polygon(rng)
    for p in probe_points(rng, polygon.vertices, 40):
        assert polygon_contains(polygon, p) is roll_point_in_polygon(p, polygon.vertices)


def assert_distance_matches_roll_oracle(rng) -> None:
    """``FeasiblePolygon.distance`` gives the ``np.roll`` formula's distance
    bit for bit."""
    polygon = random_polygon(rng)
    for p in probe_points(rng, polygon.vertices, 40):
        assert bits(polygon.distance(p)) == bits(
            roll_distance_to_polygon(p, polygon)
        )


def random_dependencies(rng, n_coeff: int) -> tuple:
    """One ``Dependency`` or ``None`` per coefficient: coefficient 0 free;
    each later one free or an affine function of an earlier free one, with
    slopes and intercepts that may be zero."""
    status: list = [None]
    free = [0]
    for i in range(1, n_coeff):
        if rng.random() < 0.5:
            status.append(None)
            free.append(i)
        else:
            slope, intercept = rng.choice([0.0, -0.0, 1.0, 1.0 / 3.0]), 0.0
            if rng.random() < 0.7:
                slope, intercept = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
            status.append(Dependency(int(rng.choice(free)), float(slope),
                                     float(intercept), 1.0))
    return tuple(status)


def assert_expand_matches_dict_loop(rng) -> None:
    """``ReducedSpace.expand`` gives the dict loop's vector bit for bit."""
    space = random_reduced_space(rng)
    for _ in range(20):
        values = rng.standard_normal(space.dim) * 10.0 ** rng.uniform(-3, 3, space.dim)
        values = signed_zeros(rng, values)
        got = space.expand(values)
        assert got.dtype == np.float64 and got.shape == (len(space.dependencies),)
        assert bits(got) == bits(dict_loop_expand(space.dependencies, values))


def random_reduced_space(rng, n_coeff: int | None = None) -> ReducedSpace:
    """Random dependencies and polygon over ``n_coeff`` coefficients (1 to
    5 by default, at most 12), with a box over the free coordinates that
    maps onto the polygon's range (through the regression where a polygon
    member is dependent), so that points fall on both sides of both
    constraints."""
    n = int(rng.integers(1, 6)) if n_coeff is None else n_coeff
    deps = random_dependencies(rng, n)
    polygon = None
    if n >= 2 and rng.random() < 0.8:
        axes = tuple(int(a) for a in rng.choice(n, size=2, replace=False))
        polygon = FeasiblePolygon(axes, random_polygon(rng).vertices)
    ranges = []
    for i in (k for k, s in enumerate(deps) if s is None):
        lo, hi = np.sort(rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2))
        for axis, a in enumerate(polygon.axes if polygon is not None else ()):
            s = deps[a]
            v = polygon.vertices[:, axis]
            if a == i:
                lo, hi = v.min(), v.max()
            elif s is not None and s.source == i and s.slope != 0.0:
                lo, hi = np.sort((np.array([v.min(), v.max()]) - s.intercept) / s.slope)
        pad = 0.3 * (hi - lo)
        ranges.append([lo - pad, hi + pad])
    tetra = make_tetra()  # 12 coordinates, the state size of the basis
    return ReducedSpace(
        basis=pod.compute_pod(rng.standard_normal((12, n)), center=flatten(tetra)),
        facets=tetra.facets,
        dependencies=deps,
        polygon=polygon,
        bounding_box=np.array(ranges).reshape(-1, 2),
    )


def space_probe_points(rng, space: ReducedSpace) -> list:
    """Points in and around the box of ``space``, on its faces and corners,
    just inside and outside its tolerance, and with signed zeros."""
    box = space.bounding_box
    d = space.dim
    span = box[:, 1] - box[:, 0]
    points = [rng.uniform(box[:, 0] - 0.2 * span - 1e-9, box[:, 1] + 0.2 * span + 1e-9)
              for _ in range(30)]
    corners = rng.integers(0, 2, (10, d))
    points += [box[np.arange(d), c] for c in corners]
    tol = 1e-9 * np.maximum(1.0, np.abs(box).max(axis=1))
    points += [box[np.arange(d), c] + (2 * c - 1) * tol * k for c in corners for k in (1, 2)]
    return points + [signed_zeros(rng, p) for p in points[:30]]


_EXTREMES = (np.nan, np.inf, -np.inf, 1e200, -1e200, 1e160, -1.5e154, 1e-200, -0.0)


def extreme_probe_points(rng, space: ReducedSpace) -> list:
    """Probe points of ``space`` with one or more entries replaced by NaN,
    an infinity, or a finite value whose square overflows or underflows."""
    points = []
    for p in space_probe_points(rng, space)[:20]:
        hit = rng.random(p.size) < 0.4
        hit[rng.integers(p.size)] = True
        q = np.array(p, dtype=float)
        q[hit] = rng.choice(_EXTREMES, int(hit.sum()))
        points.append(q)
    return points


def pair_point(space: ReducedSpace, mu_red) -> np.ndarray | None:
    """Value of the polygon-constrained coefficient pair (None without a
    polygon), from ``space.expand``: dependent members through their
    regression."""
    if space.polygon is None:
        return None
    full = space.expand(mu_red)
    a, b = space.polygon.axes
    return np.array([full[a], full[b]])


def numpy_infeasibility(space: ReducedSpace, mu_red) -> float:
    """``ReducedSpace.infeasibility`` by whole-vector numpy formulas: the box
    widened by its per-call tolerance, ``np.maximum`` excesses summed as
    ``(excess**2).sum()``, and the pair's squared distance by the
    ``np.roll`` oracle on the dict loop's pair."""
    x = np.asarray(mu_red, dtype=float).reshape(-1)
    box = space.bounding_box
    tol = 1e-9 * np.maximum(1.0, np.abs(box).max(axis=1))
    below = np.maximum((box[:, 0] - tol) - x, 0.0)
    above = np.maximum(x - (box[:, 1] + tol), 0.0)
    total = float((below**2).sum() + (above**2).sum())
    if space.polygon is not None:
        full = dict_loop_expand(space.dependencies, x)
        a, b = space.polygon.axes
        total += roll_distance_to_polygon([full[a], full[b]], space.polygon) ** 2
    return total


def assert_infeasibility_matches_numpy_formula(rng, n_coeff: int | None = None) -> None:
    """``ReducedSpace.infeasibility`` gives the numpy formula's value bit for
    bit on the probe points and on points with NaN, infinite and overflowing
    entries, and raises no error and no warning where the formula's squares
    overflow."""
    space = random_reduced_space(rng, n_coeff)
    for p in space_probe_points(rng, space) + extreme_probe_points(rng, space):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = space.infeasibility(p)
        with np.errstate(all="ignore"):
            want = numpy_infeasibility(space, p)
        assert type(got) is float and bits(got) == bits(want)


def assert_space_contains_matches_per_call_box(rng) -> None:
    """``ReducedSpace.contains`` agrees with the per-call-tolerance oracle
    on the probe points and on a point of the wrong length."""
    space = random_reduced_space(rng)
    for p in space_probe_points(rng, space):
        assert space.contains(p) is per_call_box_contains(space, p)
    wrong = np.zeros(space.dim + 1)
    assert space.contains(wrong) is per_call_box_contains(space, wrong)


def assert_penalty_zero_exactly_where_feasible(rng) -> None:
    """``ReducedSpace.infeasibility``, the optimizer's penalty, is zero on
    the probe points that the per-call-tolerance oracle accepts, and
    positive on the others."""
    space = random_reduced_space(rng)
    for p in space_probe_points(rng, space):
        penalty = space.infeasibility(p)
        assert penalty >= 0.0
        assert (penalty == 0.0) is per_call_box_contains(space, p)


def assert_decode_matches_inline_reconstruction(rng) -> int:
    """The space's reference is the tetrahedron it was built on, bit for bit,
    and on the probe points that ``ReducedSpace.contains`` rejects, ``decode``
    gives bit for bit the mesh of the inline ``unflatten(pod.reconstruct(...))``
    map onto that tetrahedron; returns how many such points were checked."""
    space = random_reduced_space(rng)
    reference = make_tetra()
    assert bits(space.reference.vertices) == bits(reference.vertices)
    assert np.array_equal(space.reference.facets, reference.facets)
    checked = 0
    for p in space_probe_points(rng, space):
        if space.contains(p):
            continue
        got = decode(space, p)
        want = unflatten(pod.reconstruct(space.basis, space.expand(p)), reference)
        assert bits(got.vertices) == bits(want.vertices)
        assert np.array_equal(got.facets, want.facets)
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Optimizer oracle: the simplex as a list of vertex arrays.


def list_nelder_mead(f, x0: np.ndarray, f0: float, steps: np.ndarray, budget: int) -> int:
    """``optimize._nelder_mead`` on a list of vertex arrays, reordered by
    ``np.argsort(kind="stable")``, with the centroid by ``np.mean`` and the
    diameter from one ``np.linalg.norm`` per vertex."""
    count = 1

    def call(x):
        nonlocal count
        count += 1
        return f(x)

    simplex = [x0.copy()]
    for i in range(x0.size):
        vertex = x0.copy()
        vertex[i] += steps[i]
        simplex.append(vertex)
    values = [f0] + [call(x) for x in simplex[1:]]

    while count < budget:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = simplex[0], simplex[-1]
        diameter = max(float(np.linalg.norm(x - best)) for x in simplex[1:])
        if diameter < _DIAMETER_TOL or values[-1] - values[0] < _SPREAD_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - worst)
        fr = call(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = call(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            if fr < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
            fc = call(contracted)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = contracted, fc
            else:  # shrink toward the best vertex
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = call(simplex[i])
                    if count >= budget:
                        break
    return count


def random_objective(rng, d: int):
    """A deterministic objective on d-vectors, one of four kinds: a
    quadratic; a quadratic rounded onto plateaus, so values tie exactly; a
    signed zero whose sign follows one coordinate, above a plateau floor;
    or a quadratic that is inf or NaN on part of the space."""
    kind = int(rng.integers(4))
    center = rng.standard_normal(d)
    weights = 10.0 ** rng.uniform(-2.0, 2.0, d)

    def quadratic(x):
        return float(((x - center) ** 2 * weights).sum())

    if kind == 0:
        return quadratic
    if kind == 1:
        step = 10.0 ** rng.uniform(-2.0, 1.0)
        return lambda x: math.floor(quadratic(x) / step) * step
    if kind == 2:
        floor = rng.choice([0.0, 0.5])
        return lambda x: max(quadratic(x) - 1.0, floor) if x[0] > 0.3 else (
            -0.0 if x[-1] < center[-1] else 0.0)
    bad = rng.choice([np.inf, -np.inf, np.nan])
    edge = rng.uniform(-1.0, 1.0)
    return lambda x: float(bad) if x[0] > edge else quadratic(x)


def assert_nelder_mead_matches_list_oracle(rng) -> None:
    """``optimize._nelder_mead`` makes the list oracle's evaluations: the
    same count, and every trial point and value bit for bit."""
    d = int(rng.integers(1, 6))
    objective = random_objective(rng, d)
    x0 = signed_zeros(rng, rng.standard_normal(d))
    steps = 10.0 ** rng.uniform(-3.0, 0.0, d) * rng.choice([-1.0, 1.0], d)
    budget = int(rng.integers(d + 2, 301))
    runs = []
    for search in (list_nelder_mead, _nelder_mead):
        trials = []

        def f(x):
            value = objective(x)
            trials.append((bits(x), bits(value)))
            return value

        count = search(f, x0.copy(), objective(x0), steps.copy(), budget)
        runs.append((count, trials))
    assert runs[0][0] == runs[1][0] == len(runs[0][1]) + 1
    assert runs[0][1] == runs[1][1]


# ---------------------------------------------------------------------------
# Surrogate oracles: one fit per interpolant, one kernel row per interpolant.


def separate_fits(db: rom.SolutionDatabase, basis: pod.PodBasis, kernel, epsilon):
    """The coefficient and objective interpolants of ``build_rom`` from two
    independent ``fit_interpolator`` calls, on ``basis``'s coefficients."""
    matrix, _ = pod.assemble(db.fields)
    coeffs = (basis.modes.T @ matrix).T
    mean = float(db.objectives.mean())
    return (
        fit_one(db.params, coeffs, kernel, epsilon),
        fit_one(db.params, db.objectives - mean, kernel, epsilon),
    )


def fit_one(nodes, values, kernel="gaussian", epsilon=None) -> rom.Interpolator:
    """The interpolant of one array of value rows (or one value per node)."""
    return rom.fit_interpolator(nodes, (values,), kernel, epsilon)[0]


def assert_same_interpolator(got: rom.Interpolator, want: rom.Interpolator) -> None:
    assert got.kernel == want.kernel
    assert bits(got.epsilon) == bits(want.epsilon)
    assert bits(got.nodes) == bits(want.nodes)
    assert got.weights.shape == want.weights.shape
    assert bits(got.weights) == bits(want.weights)
    assert (got.tail is None) == (want.tail is None)
    if want.tail is not None:
        assert got.tail.shape == want.tail.shape
        assert bits(got.tail) == bits(want.tail)


def separate_rows_predict(model: rom.RomModel, mu):
    """Field from the coefficient interpolant's own call, objective from
    ``predict_objective``: each evaluates its own kernel row."""
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    alpha = model.coefficients(mu)[0]
    return model.basis.center + model.basis.modes @ alpha, rom.predict_objective(model, mu)


# ---------------------------------------------------------------------------
# Binary artifact round trips.

_SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, -2.5e-310, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308)


def special_floats(rng, size: int, non_finite: bool = False) -> np.ndarray:
    """Floats from every decade of the double range, with signed zeros,
    subnormals and the extremes at random positions (and infinities and
    NaN when ``non_finite``)."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 308, size)
    special = _SPECIAL_FLOATS + ((np.inf, -np.inf, np.nan) if non_finite else ())
    count = min(size, len(special))
    values[rng.permutation(size)[:count]] = rng.permutation(special)[:count]
    return values


def assert_binary_artifacts_round_trip(directory, rng, state_dim, rank, length, rows, cols):
    """A basis (``state_dim`` x ``rank``), a vector (``length``), a
    database's ``fields.bin`` (``rows`` x ``cols``) and a manifold's
    ``facets.bin`` (``rows`` facets over ``state_dim`` vertices) load back
    bit for bit in their saved shapes, the loaded modes are C-contiguous,
    and the files hold the documented layout: magic, version, uint64
    dimensions, float64 payload (modes column-major, facet indices as
    integer-valued floats). Fortran-order fields write the same bytes, and
    ``load_snapshots`` gives a C-contiguous matrix and a centre bitwise
    those of ``pod.assemble`` of the loaded fields."""
    header = struct.pack("<I", 1)
    # Signed unit columns: exactly orthonormal, with -0.0 off the diagonal.
    modes = -np.eye(state_dim)[:, rng.permutation(state_dim)[:rank]]
    sigma = np.sort(np.abs(special_floats(rng, rank)))[::-1]  # a strided view
    basis = pod.PodBasis(modes, sigma, special_floats(rng, state_dim))
    path = directory / "basis.bin"
    artifacts.save_pod_basis(path, basis)
    assert path.read_bytes() == (
        b"SMPODBAS" + header + struct.pack("<QQ", state_dim, rank)
        + modes.tobytes(order="F") + sigma.tobytes() + basis.center.tobytes()
    )
    again = artifacts.load_pod_basis(path)
    for got, want in [(again.modes, modes), (again.singular_values, sigma),
                      (again.center, basis.center)]:
        assert got.shape == want.shape and bits(got) == bits(want)
    assert again.modes.flags.c_contiguous

    vector = special_floats(rng, length, non_finite=True)
    path = directory / "vector.bin"
    artifacts.save_vector(path, vector)
    assert path.read_bytes() == (
        b"SMVECTOR" + header + struct.pack("<Q", length) + vector.tobytes()
    )
    again = artifacts.load_vector(path)
    assert again.shape == (length,) and bits(again) == bits(vector)

    fields = special_floats(rng, rows * cols).reshape(rows, cols)
    db = rom.SolutionDatabase(rng.uniform(-1.0, 1.0, (rows, 2)), fields, np.zeros(rows))
    artifacts.save_solution_database(directory / "db", db)
    path = directory / "db" / "fields.bin"
    assert path.read_bytes() == (
        b"SMMATRIX" + header + struct.pack("<QQ", rows, cols) + fields.tobytes()
    )
    again = artifacts.load_solution_database(directory / "db").fields
    assert again.shape == (rows, cols) and bits(again) == bits(fields)
    artifacts.save_solution_database(directory / "fortran", rom.SolutionDatabase(
        db.params, np.asfortranarray(fields), db.objectives))
    assert (directory / "fortran" / "fields.bin").read_bytes() == path.read_bytes()
    # 1 to 8 rows reach the (1, V) and (V, 1) shapes; a column whose sum
    # overflows centres on inf.
    with np.errstate(over="ignore", invalid="ignore"):
        params, (matrix, center), objectives = artifacts.load_snapshots(directory / "db")
        want_matrix, want_center = pod.assemble(again)
    assert matrix.flags.c_contiguous
    for got, want in [(params, db.params), (matrix, want_matrix), (center, want_center),
                      (objectives, db.objectives)]:
        assert got.shape == want.shape and bits(got) == bits(want)

    vertices = special_floats(rng, 3 * state_dim)
    space = ReducedSpace(
        basis=pod.PodBasis(-np.eye(3 * state_dim)[:, :rank], sigma, vertices),
        facets=rng.integers(0, state_dim, (rows, 3)),
        dependencies=(None,) * rank,
        polygon=None,
        bounding_box=np.zeros((rank, 2)),
    )
    artifacts.save_reduced_space(directory / "manifold", space)
    path = directory / "manifold" / "facets.bin"
    assert path.read_bytes() == (
        b"SMMATRIX" + header + struct.pack("<QQ", rows, 3)
        + space.facets.astype("<f8").tobytes()
    )
    again = artifacts.load_reduced_space(directory / "manifold")
    assert again.facets.dtype == np.int64 and np.array_equal(again.facets, space.facets)
    assert bits(again.reference.vertices) == bits(vertices)
