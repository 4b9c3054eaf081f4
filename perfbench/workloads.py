"""Set-up and timed passes of the three benchmark workloads.

This module runs inside a child process started by ``run.py``; it imports
numpy and the package, so the parent can pin BLAS threads first. Every
function here returns plain JSON-able data. A pass returns its timings
(``metrics``) and the correctness checks made after its timed part
(``checks``: name -> bool, stage exit codes included).

The package is driven only through public entry points: in-process
``shapemanifold.cli.main`` for stages, and the public ``rom``,
``pod``, ``mesh``, ``solver`` and ``artifacts`` functions
for queries and for checking outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import time
from pathlib import Path

import numpy as np

from shapemanifold import artifacts, cli, mesh, pod, rom, solver
from shapemanifold.config import load_pipeline_config

# name -> mesh rings/segments and sample counts. "full" is the reference
# workload; "tiny" keeps the smoke test fast.
SIZES = {
    "full": {
        "sphere": (101, 101),
        "n_train": 1500,
        "n_train_small": 300,
        "n_full": 100,
        "n_reduced": 80,
        "queries": 2000,
    },
    "tiny": {
        "sphere": (8, 10),
        "n_train": 60,
        "n_train_small": 60,
        "n_full": 20,
        "n_reduced": 16,
        "queries": 200,
    },
}
JOBS = 2
# The optimizer recovery check: a quadratic-centroid objective whose
# minimizer is 0.25 x the upper corner of the reduced box.
RECOVERY_OPTIMIZER = {"starts": 2, "budget": 200}


def make_sphere(rings: int, segments: int) -> mesh.TriMesh:
    """Welded unit UV sphere with (rings - 1) * segments + 2 vertices."""
    phi = np.pi * np.arange(1, rings) / rings
    theta = 2.0 * np.pi * np.arange(segments) / segments
    ring_pts = np.stack(
        [
            np.outer(np.sin(phi), np.cos(theta)),
            np.outer(np.sin(phi), np.sin(theta)),
            np.repeat(np.cos(phi)[:, None], segments, axis=1),
        ],
        axis=-1,
    ).reshape(-1, 3)
    vertices = np.vstack([[0.0, 0.0, 1.0], ring_pts, [0.0, 0.0, -1.0]])
    top, bottom = 0, len(vertices) - 1
    j = np.arange(segments)
    jn = (j + 1) % segments
    facets = [np.column_stack([np.full(segments, top), 1 + j, 1 + jn])]
    for i in range(1, rings - 1):
        a = 1 + (i - 1) * segments + j
        b = 1 + (i - 1) * segments + jn
        c = 1 + i * segments + j
        d = 1 + i * segments + jn
        facets.append(np.column_stack([a, c, b]))
        facets.append(np.column_stack([b, c, d]))
    last = 1 + (rings - 2) * segments
    facets.append(np.column_stack([np.full(segments, bottom), last + jn, last + j]))
    return mesh.TriMesh(vertices, np.vstack(facets))


def _write_config(path: Path, n_train: int, size: dict, seed: int, **extra):
    doc = {
        "reference_stl": "geometry.stl",
        "output_dir": "out",
        "sampling": {
            "n_train": n_train,
            "n_full": size["n_full"],
            "n_reduced": size["n_reduced"],
            "seed": seed,
        },
    }
    doc.update(extra)
    path.write_text(json.dumps(doc, indent=1) + "\n")


class StageRunner:
    """Runs CLI stages in-process, timing each and keeping its output.

    ``tracer`` (optional) opens a ``cli.<stage>`` span around each stage.
    """

    def __init__(self, config: Path, tracer=None):
        self.config = config
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.stdout: dict[str, str] = {}
        self.stderr: dict[str, str] = {}
        self.codes: dict[str, int] = {}

    def __call__(self, stage: str, *args: str) -> int:
        out, err = io.StringIO(), io.StringIO()
        argv = [args[0], "--config", str(self.config), *args[1:]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = self.tracer.span(f"cli.{stage}") if self.tracer else None
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    span.close()
        self.times[stage] = elapsed
        self.stdout[stage] = out.getvalue()
        self.stderr[stage] = err.getvalue()
        self.codes[stage] = code
        return code


def _traced(tracer):
    """The tracer's patches, in force for the timed part only."""
    return tracer if tracer is not None else contextlib.nullcontext()


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Set-up.


def setup(workload: str, directory: Path, seed: int, size_name: str) -> dict:
    """Write the reference STL and config, plus the artifacts the
    workload's timed part starts from. Returns the set-up time, the checks
    (stage exit codes included) and a digest of everything written."""
    size = SIZES[size_name]
    directory.mkdir(parents=True)
    t0 = time.perf_counter()
    reference = make_sphere(*size["sphere"])
    stl = mesh.write_stl(reference, "binary")
    (directory / "geometry.stl").write_bytes(stl)
    # The STL must weld back to the sphere's vertices and facets.
    soup = mesh.read_stl(stl)
    welded = mesh.weld(soup, mesh.default_weld_tolerance(soup))
    checks = {
        "reference_welds_back": welded.vertex_count == reference.vertex_count
        and len(welded.facets) == len(reference.facets)
    }
    n_train = size["n_train"] if workload == "offline-chain" else size["n_train_small"]
    config = directory / "pipeline.json"
    _write_config(config, n_train, size, seed)
    run = StageRunner(config)
    if workload in ("solver-loop", "surrogate-queries"):
        run("build-manifold", "build-manifold")
    if workload == "surrogate-queries":
        run("evaluate-reduced", "evaluate", "--sampling", "reduced", "--jobs", str(JOBS))
        run("build-rom", "build-rom")
    elapsed = time.perf_counter() - t0
    checks.update({f"exit.{stage}": code == 0 for stage, code in run.codes.items()})
    return {"setup_s": elapsed, "checks": checks, "digest": _tree_digest(directory)}


# --------------------------------------------------------------------------
# Timed passes.


def _load_mesh(cfg) -> mesh.TriMesh:
    soup = mesh.read_stl(Path(cfg.reference_stl).read_bytes())
    tol = cfg.weld_tolerance
    if tol is None:
        tol = mesh.default_weld_tolerance(soup)
    return mesh.weld(soup, tol)


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def _first_node(db_dir: Path) -> str:
    """The first training node of a solution database, as written."""
    row = (db_dir / "index.csv").read_text().splitlines()[1].split(",")
    return ",".join(row[1:-1])


def _evaluation_count(log: str) -> int:
    # cmd_optimize logs "wrote <path> (<n> evaluations)".
    for line in log.splitlines():
        if line.endswith(" evaluations)"):
            return int(line.rsplit("(", 1)[1].split()[0])
    return 0


def pass_offline_chain(setup_dir: Path, out: Path, tracer=None, jobs1=False) -> dict:
    config = setup_dir / "pipeline.json"
    run = StageRunner(config, tracer)
    o = ["--out", str(out)]
    j = ["--jobs", str(JOBS)]
    with _traced(tracer):
        run("build-manifold", "build-manifold", *o)
        run("evaluate-full", "evaluate", "--sampling", "full", *j, *o)
        run("evaluate-reduced", "evaluate", "--sampling", "reduced", *j, *o)
        # Predict at a training node; reading the index is not timed.
        node = "0"
        if run.codes["evaluate-reduced"] == 0:
            node = _first_node(out / "db_reduced")
        run("compare-decay", "compare-decay", *o)
        run("build-rom", "build-rom", *o)
        run("predict", "predict", f"--mu={node}", *o)
        run("optimize-rom", "optimize", *o)
    times = dict(run.times)
    if jobs1:
        run("evaluate-full.jobs1", "evaluate", "--sampling", "full", "--jobs", "1",
            "--out", str(out / "jobs1"))

    checks = {f"exit.{s}": c == 0 for s, c in run.codes.items()}
    if all(checks.values()):
        space = artifacts.load_reduced_space(out / "manifold")
        checks["geometry_rank_3"] = space.basis.rank == 3
        checks["reduced_dim_3"] = space.dim == 3
        energy = [l for l in run.stdout["compare-decay"].splitlines() if l.startswith("energy ")]
        checks["compare_decay_energy_lines"] = len(energy) == 3
        # A training node is reproduced up to the solution truncation
        # residual plus 1e-8 relative (acceptance criterion 8).
        db = artifacts.load_solution_database(out / "db_reduced")
        model = artifacts.load_rom(out / "rom")
        truth = db.fields[0]
        modes, center = model.basis.modes, model.basis.center
        residual = truth - center - modes @ (modes.T @ (truth - center))
        predicted = artifacts.load_vector(out / "prediction.bin")
        bound = np.linalg.norm(residual) + 1e-8 * np.linalg.norm(truth)
        checks["predict_reproduces_node_field"] = bool(
            np.linalg.norm(predicted - truth) <= bound
        )
        value = float(run.stdout["predict"].strip())
        checks["predict_reproduces_node_objective"] = (
            abs(value - db.objectives[0]) <= 1e-8 * (1.0 + abs(db.objectives[0]))
        )
    stages = ["build-manifold", "evaluate-full", "evaluate-reduced", "compare-decay",
              "build-rom", "predict", "optimize-rom"]
    wall = sum(times[s] for s in stages)
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mib(),
        "time_to_surrogate_s": times["build-manifold"] + times["evaluate-reduced"]
        + times["build-rom"],
    }
    metrics.update({f"stage.{s}_s": times[s] for s in stages})
    if jobs1:
        metrics["cli.evaluate-full.jobs1_s"] = run.times["evaluate-full.jobs1"]
    return {"metrics": metrics, "checks": checks}


def pass_solver_loop(setup_dir: Path, out: Path, tracer=None, recovery=False) -> dict:
    config = setup_dir / "pipeline.json"
    space_dir = setup_dir / "out" / "manifold"
    run = StageRunner(config, tracer)
    with _traced(tracer):
        run("optimize-stub", "optimize", "--objective", "stub", "--space",
            str(space_dir), "--out", str(out))
    wall = run.times["optimize-stub"]
    evaluations = _evaluation_count(run.stderr["optimize-stub"])

    checks = {"exit.optimize-stub": run.codes["optimize-stub"] == 0}
    if checks["exit.optimize-stub"]:
        cfg = load_pipeline_config(config)
        space = artifacts.load_reduced_space(space_dir)
        reference = _load_mesh(cfg)
        lines = run.stdout["optimize-stub"].split()
        best_mu = np.array([float(v) for v in lines[0].split(",")])
        best_value = float(lines[1])
        checks["optimum_feasible"] = space.contains(best_mu)

        def geometry(mu):
            return mesh.unflatten(pod.reconstruct(space.basis, space.expand(mu)), reference)

        again = solver.evaluate(geometry(best_mu), cfg.stub).objective
        checks["optimum_value_reproduced"] = (
            abs(again - best_value) <= 1e-12 * max(abs(best_value), 1e-300)
        )
        checks["evaluations_counted"] = evaluations > 0
        if recovery:
            mu_star = 0.25 * space.bounding_box[:, 1]
            target = geometry(mu_star).vertices.mean(axis=0)
            quad = setup_dir / "recovery.json"
            doc = json.loads(config.read_text())
            doc["stub"] = {"mode": "quadratic-centroid", "target": target.tolist()}
            doc["optimizer"] = RECOVERY_OPTIMIZER
            quad.write_text(json.dumps(doc, indent=1) + "\n")
            check_run = StageRunner(quad)
            code = check_run("recovery", "optimize", "--objective", "stub", "--space",
                             str(space_dir), "--out", str(out / "recovery"))
            checks["exit.recovery"] = code == 0
            if code == 0:
                found = np.array(
                    [float(v) for v in check_run.stdout["recovery"].split()[0].split(",")]
                )
                checks["recovery_within_1e-3"] = bool(np.abs(found - mu_star).max() < 1e-3)
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mib(),
        "stage.optimize-stub_s": wall,
        "evals_per_s": evaluations / wall if wall > 0 else 0.0,
    }
    return {"metrics": metrics, "checks": checks}


def query_points(space, nodes: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Feasible points drawn uniformly from the training-node box."""
    rng = np.random.default_rng([seed, 2])
    low, high = nodes.min(axis=0), nodes.max(axis=0)
    points: list[np.ndarray] = []
    while len(points) < count:
        for row in rng.uniform(low, high, size=(count, nodes.shape[1])):
            if space.contains(row):
                points.append(row)
    return np.array(points[:count])


def pass_surrogate_queries(setup_dir: Path, out: Path, seed: int, size_name: str,
                           tracer=None) -> dict:
    config = setup_dir / "pipeline.json"
    cfg = load_pipeline_config(config)
    base = setup_dir / "out"
    model = artifacts.load_rom(base / "rom")
    space = artifacts.load_reduced_space(base / "manifold")
    db = artifacts.load_solution_database(base / "db_reduced")
    points = query_points(space, model.coefficients.nodes, SIZES[size_name]["queries"], seed)
    run = StageRunner(config, tracer)
    with _traced(tracer):
        # Single queries, one caller, each timed on its own.
        latencies = np.empty(len(points))
        objectives = np.empty(len(points))
        kept_fields = {}
        for i, mu in enumerate(points):
            t0 = time.perf_counter()
            field, objective = rom.predict(model, mu)
            latencies[i] = time.perf_counter() - t0
            objectives[i] = objective
            if i % 10 == 0:
                kept_fields[i] = field

        # One batched query of the same points: interpolators plus
        # reconstruction.
        t0 = time.perf_counter()
        alpha = model.coefficients(points)
        batch_fields = model.basis.center + alpha @ model.basis.modes.T
        batch_objectives = model.objective_mean + model.objective(points)[:, 0]
        batch_s = time.perf_counter() - t0

        run("optimize-rom", "optimize", "--space", str(base / "manifold"), "--rom",
            str(base / "rom"), "--out", str(out))

        t0 = time.perf_counter()
        errors, summary = rom.loo_error(db, cfg.solution_truncation, cfg.rom.kernel,
                                        cfg.rom.epsilon)
        loo_s = time.perf_counter() - t0

    checks = {"exit.optimize-rom": run.codes["optimize-rom"] == 0}
    checks["batch_matches_single_fields"] = all(
        _rel(batch_fields[i], f) <= 1e-12 for i, f in kept_fields.items()
    )
    checks["batch_matches_single_objectives"] = _rel(batch_objectives, objectives) <= 1e-12
    checks["loo_errors_finite"] = bool(np.isfinite(errors).all()
                                       and math.isfinite(summary["mean"]))
    wall = float(latencies.sum()) + batch_s + run.times["optimize-rom"] + loo_s
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mib(),
        "stage.optimize-rom_s": run.times["optimize-rom"],
        "predict_p50_us": float(np.percentile(latencies, 50)) * 1e6,
        "predict_p99_us": float(np.percentile(latencies, 99)) * 1e6,
        "predict_batch_qps": len(points) / batch_s,
        "loo_s": loo_s,
    }
    return {"metrics": metrics, "checks": checks}


def run_pass(workload: str, setup_dir: Path, out: Path, seed: int, size_name: str,
             tracer=None, extras=False) -> dict:
    """One timed pass; ``extras`` adds the run-once reference measurements
    (the --jobs 1 evaluate on offline-chain, the recovery check on
    solver-loop)."""
    if workload == "offline-chain":
        return pass_offline_chain(setup_dir, out, tracer, jobs1=extras)
    if workload == "solver-loop":
        return pass_solver_loop(setup_dir, out, tracer, recovery=extras)
    return pass_surrogate_queries(setup_dir, out, seed, size_name, tracer)
