"""End-to-end acceptance suite.

Each test prints one pass/fail line (run pytest with -s to see them all
in order) and enforces its tolerance with asserts. The numbered criteria
cover morphing exactness, the decomposition against an independent
oracle, intrinsic-dimension recovery, the dependency and polygon
machinery, the surrogate, the optimizer, and whole-pipeline determinism.
"""

import hashlib
import json
import time

import numpy as np

from shapemanifold import pod
from shapemanifold.artifacts import save_decay_csv
from shapemanifold.cli import main
from shapemanifold.ffd import (
    FfdConfig,
    MapEntry,
    bernstein_row,
    default_config,
    displacement_jacobian,
    morph,
)
from shapemanifold.manifold import (
    build_geometry_pod,
    build_reduced_space,
    decode,
    detect_dependencies,
    fit_feasible_polygon,
    sample_ffd_params,
    sample_reduced,
)
from shapemanifold.mesh import read_stl, unflatten, weld, write_stl
from shapemanifold.optimize import OptProblem, minimize
from shapemanifold.rom import SolutionDatabase, build_rom, loo_error, predict
from shapemanifold.solver import StubConfig, evaluate

from helpers import (
    jacobi_singular_values,
    make_sphere,
    pair_point,
    polygon_contains,
    ring_facets,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_ffd_identity():
    mesh = make_sphere(101, 101)  # 10102 vertices
    assert mesh.vertex_count >= 10_000
    welded = weld(read_stl(write_stl(mesh, "binary")), tol=0.0)
    cfg = default_config(welded)
    t0 = time.perf_counter()
    morphed = morph(welded, displacement_jacobian(cfg, welded.vertices), np.zeros(5))
    elapsed = time.perf_counter() - t0
    deviation = np.abs(morphed.vertices - welded.vertices).max()
    report(
        1,
        "zero-parameter morph is the identity",
        deviation < 1e-12 and elapsed < 1.0,
        f"max dev {deviation:.1e}, {elapsed:.2f}s on {welded.vertex_count} vertices",
    )


def test_criterion_02_partition_of_unity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for degree in range(1, 11):
        for t in rng.random(100):
            row = bernstein_row(degree, t)
            total = sum(row[i] for i in range(degree + 1))
            worst = max(worst, abs(total - 1.0))
    report(2, "Bernstein partition of unity", worst < 1e-14, f"max defect {worst:.1e}")


def test_criterion_03_svd_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst_sigma = 0.0
    worst_frob = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 11))
        a = rng.standard_normal((n, m))
        if trial % 4 == 0 and min(n, m) > 1:
            r = int(rng.integers(1, min(n, m)))
            a = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        if trial % 7 == 0:
            a = a * 10.0 ** int(rng.integers(-6, 7))
        basis = pod.compute_pod(a)
        oracle = jacobi_singular_values(a)
        sigma1 = oracle[0]
        retained = oracle[oracle >= pod.RANK_CUTOFF * sigma1]
        assert basis.rank == retained.size
        worst_sigma = max(
            worst_sigma, np.abs(basis.singular_values - retained).max() / sigma1
        )
        for k in range(1, basis.rank + 1):
            modes = basis.modes[:, :k]
            err = np.linalg.norm(a - modes @ (modes.T @ a))
            expected = np.sqrt((oracle[k:] ** 2).sum())
            worst_frob = max(worst_frob, abs(err - expected) / sigma1)
    report(
        3,
        "singular values and tail energies match the Jacobi oracle",
        worst_sigma <= 1e-9 and worst_frob <= 1e-9,
        f"sigma defect {worst_sigma:.1e}, Frobenius defect {worst_frob:.1e}",
    )


def test_criterion_04_intrinsic_dimension_recovery():
    mesh = make_sphere(101, 50)  # 5002 vertices
    assert mesh.vertex_count >= 5_000
    cfg = default_config(mesh)  # five inputs, three displacement directions
    params = sample_ffd_params(1500, cfg.bounds, seed=404)
    t0 = time.perf_counter()
    basis, _ = build_geometry_pod(mesh, cfg, params)
    elapsed = time.perf_counter() - t0
    sigma = basis.singular_values
    tail_ok = basis.rank == 3 or sigma[3] / sigma[0] < 1e-10
    kept = pod.truncate(basis, pod.TruncationRule.energy(1.0 - 1e-9))
    report(
        4,
        "five parameters collapse to three geometry modes",
        tail_ok and kept.rank == 3 and elapsed < 30.0,
        f"rank {basis.rank}, kept {kept.rank}, {elapsed:.1f}s at 1500 samples",
    )


def test_criterion_05_dependency_detection():
    rng = np.random.default_rng(505)
    a0 = rng.uniform(-1.5, 1.5, 1000)
    alpha = np.column_stack([a0, 2.0 * a0 + 0.1, rng.uniform(-1, 1, 1000)])
    deps = detect_dependencies(alpha, r2_threshold=0.99)
    dep = deps[1]
    ok = (
        dep is not None
        and dep.source == 0
        and abs(dep.slope - 2.0) < 1e-9
        and abs(dep.intercept - 0.1) < 1e-9
        and deps[0] is None
        and deps[2] is None
    )
    report(
        5,
        "an affine coefficient relation is detected and folded away",
        ok,
        f"slope {dep.slope:.12f}, intercept {dep.intercept:.12f}, "
        f"{deps.count(None)} free",
    )


def test_criterion_06_polygon_soundness():
    rng = np.random.default_rng(606)
    base = rng.uniform(-2, 2, 1500)
    pairs = np.column_stack([base, 0.6 * base + rng.uniform(-0.5, 0.5, 1500)])
    hull = fit_feasible_polygon(pairs)
    quad = fit_feasible_polygon(pairs, max_vertices=4)
    hull_ok = all(polygon_contains(hull, p) for p in pairs)
    quad_ok = all(polygon_contains(quad, p) for p in pairs)

    basis = pod.PodBasis(np.eye(6)[:, :2], np.array([2.0, 1.0]), np.zeros(6))
    space = build_reduced_space(basis, ring_facets(basis), pairs, max_vertices=4)
    samples = sample_reduced(space, 10_000, seed=607)
    samples_ok = all(polygon_contains(space.polygon, pair_point(space, row))
                     for row in samples)
    report(
        6,
        "feasible polygon contains the training cloud and all samples",
        hull_ok and quad_ok and samples_ok and len(quad.vertices) == 4,
        f"hull {len(hull.vertices)} vertices, simplified {len(quad.vertices)}, "
        f"10000 samples checked",
    )


def _decay_modes(fields, threshold):
    matrix, center = pod.assemble(fields)
    rep = pod.decay_report(pod.compute_pod(matrix, center=center))
    return int(np.searchsorted(rep[:, 3], threshold - 1e-15) + 1), rep


def test_criterion_07_reduced_sampling_decays_faster(tmp_path):
    t0 = time.perf_counter()
    mesh = make_sphere(31, 40)
    box = mesh.bounding_box()
    # Five parameters, three directions, the third one weak; keeping two
    # geometry modes restricts reduced sampling to a thinner manifold
    # than the raw five-parameter box.
    entries = (
        MapEntry(0, (1, 1, 1), 0, 1.0),
        MapEntry(1, (1, 1, 1), 1, 1.0),
        MapEntry(2, (1, 1, 1), 2, 0.2),
        MapEntry(3, (1, 1, 1), 0, 0.5),
        MapEntry(4, (1, 1, 1), 1, 0.5),
    )
    cfg = FfdConfig(
        origin=box[:, 0],
        axes=np.diag(box[:, 1] - box[:, 0]),
        dims=(2, 2, 2),
        entries=entries,
        param_dim=5,
    )
    stub = StubConfig()
    train = sample_ffd_params(600, cfg.bounds, seed=701)
    basis, alpha = build_geometry_pod(mesh, cfg, train, pod.TruncationRule.fixed(2))
    space = build_reduced_space(basis, mesh.facets, alpha)

    full_params = sample_ffd_params(40, cfg.bounds, seed=702)
    jac = displacement_jacobian(cfg, mesh.vertices)
    full_fields = [evaluate(morph(mesh, jac, mu), stub).field for mu in full_params]
    reduced_params = sample_reduced(space, 32, seed=703)
    reduced_fields = [
        evaluate(decode(space, mu), stub).field for mu in reduced_params
    ]

    n_full, rep_full = _decay_modes(full_fields, 0.999)
    n_reduced, rep_reduced = _decay_modes(reduced_fields, 0.999)
    save_decay_csv(tmp_path / "decay_full.csv", rep_full)
    save_decay_csv(tmp_path / "decay_reduced.csv", rep_reduced)
    elapsed = time.perf_counter() - t0
    report(
        7,
        "reduced-space sampling needs no more modes at 0.999 energy",
        n_reduced <= n_full and elapsed < 120.0,
        f"full {n_full} vs reduced {n_reduced} modes "
        f"(40 vs 32 snapshots), {elapsed:.1f}s",
    )


def _pipeline_database(n_samples=20, seed=808):
    mesh = make_sphere(13, 16)
    cfg = default_config(mesh)
    train = sample_ffd_params(200, cfg.bounds, seed=seed)
    basis, alpha = build_geometry_pod(
        mesh, cfg, train, pod.TruncationRule.energy(0.9999)
    )
    space = build_reduced_space(basis, mesh.facets, alpha)
    params = sample_reduced(space, n_samples, seed=seed + 1)
    stub = StubConfig()
    snaps = [evaluate(decode(space, mu), stub) for mu in params]
    db = SolutionDatabase(
        params,
        np.array([s.field for s in snaps]),
        np.array([s.objective for s in snaps]),
    )
    return mesh, space, db


def test_criterion_08_podi_node_reproduction():
    _, _, db = _pipeline_database()
    model = build_rom(db.params, pod.assemble(db.fields), db.objectives,
                      pod.TruncationRule.energy(0.9999))
    modes, center = model.basis.modes, model.basis.center
    worst_field = -np.inf
    worst_obj = 0.0
    for i in range(db.count):
        field, objective = predict(model, db.params[i])
        truth = db.fields[i]
        residual = truth - center - modes @ (modes.T @ (truth - center))
        bound = np.linalg.norm(residual) + 1e-8 * np.linalg.norm(truth)
        worst_field = max(worst_field, np.linalg.norm(field - truth) - bound)
        worst_obj = max(
            worst_obj,
            abs(objective - db.objectives[i]) / (1.0 + abs(db.objectives[i])),
        )
    report(
        8,
        "surrogate reproduces every training sample",
        worst_field <= 0.0 and worst_obj <= 1e-8,
        f"{db.count} nodes, field slack {worst_field:.1e}, "
        f"objective defect {worst_obj:.1e}",
    )


def _loo_mean_on_slice(n_samples: int) -> float:
    mesh = make_sphere(13, 16)
    cfg = default_config(mesh)
    stub = StubConfig()
    slice_values = np.linspace(-0.25, 0.25, n_samples)
    jac = displacement_jacobian(cfg, mesh.vertices)
    fields = []
    for t in slice_values:
        geom = morph(mesh, jac, [t, 0.0, 0.0, 0.0, 0.0])
        fields.append(evaluate(geom, stub).field)
    db = SolutionDatabase(
        slice_values[:, None],
        np.array(fields),
        slice_values**2,
    )
    _, summary = loo_error(
        db, pod.TruncationRule.energy(1.0 - 1e-12), kernel="linear-rbf"
    )
    return summary["mean"]


def test_criterion_09_podi_refinement():
    coarse = _loo_mean_on_slice(8)
    fine = _loo_mean_on_slice(16)
    report(
        9,
        "leave-one-out error drops with more snapshots",
        fine < coarse,
        f"mean LOO 8 samples {coarse:.3e} -> 16 samples {fine:.3e}",
    )


def test_criterion_10_optimizer_recovery():
    mesh, space, _ = _pipeline_database()

    def geometry(mu):
        return unflatten(pod.reconstruct(space.basis, space.expand(mu)), mesh)

    mu_star = 0.25 * space.bounding_box[:, 1]
    assert space.contains(mu_star)
    target = tuple(geometry(mu_star).vertices.mean(axis=0))
    stub = StubConfig(mode="quadratic-centroid", target=target)

    def objective(mu):
        return evaluate(geometry(mu), stub).objective

    # Independent oracle: the region centroid is affine in the reduced
    # coordinates, so the minimizer solves a small linear system.
    origin_centroid = geometry(np.zeros(space.dim)).vertices.mean(axis=0)
    sensitivity = np.column_stack(
        [
            geometry(basis_vec).vertices.mean(axis=0) - origin_centroid
            for basis_vec in np.eye(space.dim)
        ]
    )
    analytic = np.linalg.solve(sensitivity, np.asarray(target) - origin_centroid)
    assert np.abs(analytic - mu_star).max() < 1e-12

    t0 = time.perf_counter()
    result = minimize(OptProblem(objective, space, budget=200, starts=8, seed=1010))
    elapsed = time.perf_counter() - t0
    position_err = np.abs(result.best_mu - analytic).max()
    report(
        10,
        "multistart simplex recovers the analytic minimizer",
        position_err < 1e-3
        and result.best_value < 1e-6
        and result.evaluations < 2000
        and elapsed < 10.0,
        f"position err {position_err:.1e}, value {result.best_value:.1e}, "
        f"{result.evaluations} evaluations, {elapsed:.1f}s",
    )


def _run_pipeline(root, seed=11):
    root.mkdir(parents=True, exist_ok=True)
    mesh = make_sphere(8, 10, radius=0.8)
    (root / "sphere.stl").write_bytes(write_stl(mesh, "binary"))
    cfg = {
        "reference_stl": "sphere.stl",
        "output_dir": "out",
        "sampling": {"n_train": 60, "n_full": 8, "n_reduced": 10, "seed": seed},
        "optimizer": {"starts": 3, "budget": 60},
    }
    cfg_path = root / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    base = ["--config", str(cfg_path)]
    assert main(["build-manifold", *base]) == 0
    assert main(["evaluate", "--sampling", "reduced", *base]) == 0
    assert main(["build-rom", *base]) == 0
    assert main(["predict", "--mu", "0.0,0.0,0.0", *base]) == 0
    assert main(["optimize", *base]) == 0
    digest = {}
    for path in sorted((root / "out").rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root / "out"))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digest


def test_criterion_11_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    same_files = set(first) == set(second)
    same_hashes = same_files and all(first[k] == second[k] for k in first)
    report(
        11,
        "two seeded pipeline runs produce hash-identical artifacts",
        same_hashes,
        f"{len(first)} artifacts compared",
    )
