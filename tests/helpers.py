"""Shared test fixtures: synthetic meshes and independent oracles.

The oracles deliberately avoid the code paths they are used to check:
the SVD oracle is a one-sided Jacobi iteration, point-in-polygon is ray
casting, the least-squares oracle uses the raw-sum formulas, the FFD
oracle lays each parameter vector on the control grid and blends that
grid once instead of going through the displacement Jacobian, and the
geometry-POD oracle morphs every sample that way and decomposes the
snapshot matrix instead of using the closed form. The weld oracle is the
per-corner dictionary loop that the sort-based ``mesh.weld`` replaced.
The leave-one-out oracle rebuilds every fold on the full-length fields,
as ``rom.loo_error`` did before it moved the folds into the fields' span.
"""

from __future__ import annotations

import math

import numpy as np

from shapemanifold import pod, rom
from shapemanifold.ffd import (
    FfdConfig,
    MapEntry,
    MeshMorpher,
    ParamMap,
    displacement_jacobian,
    morph,
)
from shapemanifold.manifold import fit_feasible_polygon
from shapemanifold.mesh import FacetSoup, TriMesh, flatten, weld
from shapemanifold.optimize import distance_to_polygon


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


def random_cloud(rng, n_points: int) -> np.ndarray:
    """A rotated Gaussian cloud in the plane, with axis scales up to three
    decades apart, at a random overall scale and offset."""
    rotation, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    scale = 10.0 ** rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-1.5, 1.5, 2)
    offset = 10.0 ** rng.uniform(-2.0, 2.0) * rng.uniform(-1.0, 1.0, 2)
    return (rng.standard_normal((n_points, 2)) * scale) @ rotation + offset


def assert_polygon_contains_cloud(cloud: np.ndarray, max_vertices) -> None:
    """The feasible polygon fitted to ``cloud`` contains every point of it:
    ``contains`` accepts each one and its distance to the polygon is 0."""
    polygon = fit_feasible_polygon(cloud, max_vertices)
    for point in cloud:
        assert polygon.contains(point)
        assert distance_to_polygon(point, polygon) == 0.0


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
    for e in config.param_map.entries:
        i, j, k = e.point
        disp[i, j, k, e.axis] += e.weight * mu[e.param]
    return disp


def oracle_displacement(points, config, mu) -> np.ndarray:
    """FFD displacement of a point set, (n_points, 3): the control grid of
    ``mu`` blended in one ``MeshMorpher.displacement`` call, with no
    displacement Jacobian involved."""
    morpher = MeshMorpher(points, config.origin, config.axes, config.dims)
    return morpher.displacement(control_grid(config, np.asarray(mu, dtype=float)))


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
    config = FfdConfig(origin, axes, degrees, ParamMap(tuple(entries), param_dim))
    return config, points, outside


def assert_ffd_invariants(config, points, outside, mu1, mu2, a: float, b: float):
    """The invariants the closed-form reduction relies on, for one lattice:
    the zero morph is bitwise the identity, ``J`` is linear, ``J mu``
    matches the grid-then-blend oracle, and points outside the box get
    exactly zero rows. Tolerances are relative to ``|J| |mu|``."""
    reference = point_cloud(points)
    jac = displacement_jacobian(config, points)
    zero = morph(reference, jac, np.zeros(config.param_dim))
    assert zero.vertices.tobytes() == reference.vertices.tobytes()

    combined = jac @ (a * mu1 + b * mu2)
    scale = np.abs(jac) @ (abs(a) * np.abs(mu1) + abs(b) * np.abs(mu2))
    assert np.all(np.abs(combined - (a * (jac @ mu1) + b * (jac @ mu2))) <= 1e-12 * scale.max())

    for mu in (mu1, mu2):
        got = morph(reference, jac, mu).vertices - points
        want = oracle_displacement(points, config, mu)
        scale = (np.abs(jac) @ np.abs(mu)).max()
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    assert np.all(jac.reshape(-1, 3, config.param_dim)[outside] == 0.0)


def snapshot_geometry_pod(reference: TriMesh, config, params, rule=None):
    """Geometry POD by the method of snapshots: morph every parameter row,
    stack the displacement fields as columns of an N x M matrix centered
    on the reference, and decompose it with ``pod.compute_pod``. Returns
    (basis, alpha) like ``manifold.build_geometry_pod``."""
    params = np.asarray(params, dtype=float)
    morpher = MeshMorpher(reference.vertices, config.origin, config.axes, config.dims)
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

    return TriMesh(
        np.array(vertices, dtype=float),
        indices.reshape(-1, 3),
        weld_tolerance=tol,
    )


def soup_of(corners) -> FacetSoup:
    """Facet soup with zero normals and attributes around (F, 3, 3) corners."""
    corners = np.asarray(corners, dtype=float)
    count = corners.shape[0]
    return FacetSoup(np.zeros((count, 3)), corners, np.zeros(count, dtype=np.uint16))


def assert_weld_matches_loop(soup: FacetSoup, tol: float) -> TriMesh:
    """Require ``weld`` to give the loop oracle's mesh bit for bit."""
    got, want = weld(soup, tol), loop_weld(soup, tol)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.facets.tobytes() == want.facets.tobytes()
    assert got.weld_tolerance == want.weld_tolerance
    return got


def loop_loo_error(db: rom.SolutionDatabase, rule, kernel="gaussian", epsilon=None):
    """Leave-one-out by rebuilding each fold on the full-length fields;
    ``rom.loo_error`` must match it to round-off."""
    if db.count < 3:
        raise ValueError("leave-one-out needs at least three samples")
    errors = np.empty(db.count)
    for i in range(db.count):
        model = rom.build_rom(db.without(i), rule, kernel, epsilon)
        predicted, _ = rom.predict(model, db.params[i])
        truth = db.fields[i]
        denom = np.linalg.norm(truth)
        diff = np.linalg.norm(predicted - truth)
        errors[i] = diff / denom if denom > 0.0 else diff
    return errors, {"mean": float(errors.mean()), "max": float(errors.max())}


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
