"""Command-line pipeline with file-based handoff between stages.

Commands: morph, build-manifold, evaluate, compare-decay, build-rom,
validate, predict, optimize. Each stage reads the artifacts of earlier
stages from the output directory, so downstream stages can be re-run
without recomputing upstream ones. Seeds are derived from one base seed:
training sampling uses the base, full-space evaluation base + 1,
reduced-space evaluation base + 2, and the optimizer base + 3 (unless
set explicitly).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import artifacts, ffd, manifold, optimize, pod, rom, solver
from .config import PipelineConfig, load_pipeline_config
from .errors import ShapeManifoldError
from .mesh import (
    TriMesh,
    default_weld_tolerance,
    read_stl,
    weld,
    write_stl,
)

_ENERGY_MARKS = (0.99, 0.999, 0.9999)


def _log(message: str):
    print(message, file=sys.stderr)


def _load_reference(cfg: PipelineConfig) -> TriMesh:
    data = Path(cfg.reference_stl).read_bytes()
    soup = read_stl(data)
    tol = cfg.weld_tolerance
    if tol is None:
        tol = default_weld_tolerance(soup)
    mesh = weld(soup, tol)
    _log(f"reference: {mesh.vertex_count} vertices, {len(mesh.facets)} facets")
    return mesh


def _log_clamp(stage: str, rule: pod.TruncationRule, available: int):
    # A fixed mode count above the snapshots' rank keeps every mode.
    if rule.fixed_count is not None and rule.fixed_count > available:
        _log(
            f"{stage}: truncation asks for {rule.fixed_count} modes, only "
            f"{available} available; the count is clamped"
        )


def _resolve_ffd(cfg: PipelineConfig, mesh: TriMesh) -> ffd.FfdConfig:
    if cfg.ffd is not None:
        return cfg.ffd
    _log("ffd: no lattice configured, using the built-in bounding-box lattice")
    return ffd.default_config(mesh)


def _parse_mu(text: str, expected: int | None = None) -> np.ndarray:
    try:
        mu = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ShapeManifoldError(f"cannot parse parameter vector {text!r}") from exc
    if not np.isfinite(mu).all():
        raise ShapeManifoldError(f"parameter vector {text!r} is not finite")
    if expected is not None and mu.size != expected:
        raise ShapeManifoldError(
            f"expected {expected} parameter components, got {mu.size}"
        )
    return mu


def cmd_morph(args, cfg: PipelineConfig) -> int:
    mesh = _load_reference(cfg)
    ffd_cfg = _resolve_ffd(cfg, mesh)
    mu = _parse_mu(args.mu, ffd_cfg.param_dim)
    if ffd.check_params(ffd_cfg, mu)[0]:
        _log("morph: parameter vector outside the configured bounds; morphing it anyway")
    morphed = ffd.morph(mesh, ffd.displacement_jacobian(ffd_cfg, mesh.vertices), mu)
    out = Path(args.stl_out) if args.stl_out else cfg.output_dir / "morphed.stl"
    artifacts.write_atomic(out, [write_stl(morphed, args.format)])
    _log(f"wrote {out}")
    return 0


def cmd_build_manifold(args, cfg: PipelineConfig) -> int:
    mesh = _load_reference(cfg)
    ffd_cfg = _resolve_ffd(cfg, mesh)
    pair = cfg.reduction.pair
    if pair is not None and max(pair) >= ffd_cfg.param_dim:
        raise ShapeManifoldError(
            f"reduction.pair {pair}: the {ffd_cfg.param_dim} design parameters "
            f"give at most {ffd_cfg.param_dim} coefficients"
        )
    n = cfg.sampling.n_train
    if n < 10:
        _log(f"warning: only {n} training samples; statistics will be poor")
    params = manifold.sample_ffd_params(n, ffd_cfg.bounds, cfg.sampling.seed)
    _log(f"manifold: reducing {n} training geometries")
    basis, alpha = manifold.build_geometry_pod(
        mesh, ffd_cfg, params, cfg.geometry_truncation
    )
    _log(f"manifold: kept {basis.rank} geometry modes")
    space = manifold.build_reduced_space(
        basis,
        mesh.facets,
        alpha,
        r2_threshold=cfg.reduction.r2_threshold,
        max_vertices=cfg.reduction.max_vertices,
        pair=pair,
    )
    poly, limit = space.polygon, cfg.reduction.max_vertices
    if poly is None and basis.rank >= 2:  # a pair was chosen: its points are collinear
        _log("manifold: training pair is collinear; polygon constraint dropped")
    elif poly is not None and limit is not None and len(poly.vertices) > limit:
        _log(f"manifold: cannot simplify the polygon below {len(poly.vertices)} vertices")
    out = cfg.output_dir / "manifold"
    artifacts.save_reduced_space(out, space)
    artifacts.save_decay_csv(out / "decay.csv", pod.decay_report(basis))
    artifacts.save_coefficients_csv(out / "coefficients.csv", alpha)
    _log(
        f"manifold: {space.dim} free parameters "
        f"({len(basis.singular_values)} modes, "
        f"{sum(s is not None for s in space.dependencies.status)} dependent); "
        f"wrote {out}"
    )
    return 0


def _evaluate_samples(stub_cfg, geometry_for, params, jobs: int):
    """Morph plus solver run per sample; order-preserving, threadable
    (the heavy work is in GIL-releasing numpy kernels)."""

    def run(mu):
        return solver.evaluate(geometry_for(mu), stub_cfg)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, params))
    return [run(mu) for mu in params]


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    if args.jobs < 1:
        raise ShapeManifoldError(f"--jobs must be at least 1, got {args.jobs}")
    if args.n is not None and args.n < 1:
        raise ShapeManifoldError(f"--n must be at least 1, got {args.n}")
    if args.sampling == "full" and args.space is not None:
        raise ShapeManifoldError("--space is read by --sampling reduced only")
    if args.sampling == "full":
        mesh = _load_reference(cfg)
        ffd_cfg = _resolve_ffd(cfg, mesh)
        n = args.n or cfg.sampling.n_full
        params = manifold.sample_ffd_params(
            n, ffd_cfg.bounds, cfg.sampling.seed + 1
        )
        _log(f"evaluate: {n} full-space samples")
        jac = ffd.displacement_jacobian(ffd_cfg, mesh.vertices)

        def geometry_for(mu):
            return ffd.morph(mesh, jac, mu)

        out = cfg.output_dir / "db_full"
    else:
        space_dir = Path(args.space) if args.space else cfg.output_dir / "manifold"
        space = artifacts.load_reduced_space(space_dir)
        n = args.n or cfg.sampling.n_reduced
        params = manifold.sample_reduced(space, n, cfg.sampling.seed + 2)
        _log(f"evaluate: {n} reduced-space samples")
        geometry_for = partial(manifold.decode, space)
        out = cfg.output_dir / "db_reduced"
    snapshots = _evaluate_samples(cfg.stub, geometry_for, params, args.jobs)
    db = rom.SolutionDatabase(
        params,
        np.array([s.field for s in snapshots]),
        np.array([s.objective for s in snapshots]),
    )
    artifacts.save_solution_database(out, db)
    _log(f"evaluate: wrote {db.count} snapshots to {out}")
    return 0


def _solution_pod(fields: np.ndarray) -> pod.PodBasis:
    # Untruncated POD of mean-centered solution fields, one per row.
    matrix, center = pod.assemble(fields)
    return pod.compute_pod(matrix, center=center)


def cmd_compare_decay(args, cfg: PipelineConfig) -> int:
    full_dir = Path(args.full) if args.full else cfg.output_dir / "db_full"
    reduced_dir = Path(args.reduced) if args.reduced else cfg.output_dir / "db_reduced"
    spectra, reports = {}, {}
    for name, directory in (("full", full_dir), ("reduced", reduced_dir)):
        # Only the basis outlives the call: one database in memory at a time.
        basis = _solution_pod(artifacts.load_solution_database(directory).fields)
        reports[name] = pod.decay_report(basis)
        spectra[name] = basis.singular_values

    out = cfg.output_dir / "decay_comparison.csv"
    pairs = zip_longest(reports["full"][:, 1:], reports["reduced"][:, 1:], fillvalue=[None] * 3)
    artifacts.save_csv(out, ["index", "sigma_full", "ratio_full", "cumulative_full",
                             "sigma_reduced", "ratio_reduced", "cumulative_reduced"],
                       ([i, *a, *b] for i, (a, b) in enumerate(pairs, start=1)))

    for mark in _ENERGY_MARKS:
        rule = pod.TruncationRule.energy(mark)
        full_n = rule.select(spectra["full"])
        reduced_n = rule.select(spectra["reduced"])
        print(f"energy {mark}: full={full_n} reduced={reduced_n}")
    _log(f"wrote {out}")
    return 0


def cmd_build_rom(args, cfg: PipelineConfig) -> int:
    db_dir = Path(args.db) if args.db else cfg.output_dir / "db_reduced"
    db = artifacts.load_solution_database(db_dir)
    model = rom.build_rom(
        db,
        cfg.solution_truncation,
        kernel=cfg.rom.kernel,
        epsilon=cfg.rom.epsilon,
        metadata={"seed": cfg.sampling.seed},
    )
    _log_clamp("rom", cfg.solution_truncation, model.basis.rank)
    out = cfg.output_dir / "rom"
    artifacts.save_rom(out, model)
    _log(f"rom: {model.basis.rank} modes from {db.count} snapshots; wrote {out}")
    return 0


def cmd_validate(args, cfg: PipelineConfig) -> int:
    db_dir = Path(args.db) if args.db else cfg.output_dir / "db_reduced"
    db = artifacts.load_solution_database(db_dir)
    errors, summary = rom.loo_error(
        db, cfg.solution_truncation, kernel=cfg.rom.kernel, epsilon=cfg.rom.epsilon
    )
    if cfg.solution_truncation.fixed_count is not None:
        # A fold's centered snapshots have no higher rank than the whole
        # database's, and at most one less than its own sample count.
        rank = _solution_pod(db.fields).rank
        _log_clamp("validate", cfg.solution_truncation, min(rank, db.count - 2))
    out = cfg.output_dir / "rom"
    artifacts.save_validation(
        out / "validation.json", errors, summary, cfg.rom.kernel, cfg.rom.epsilon
    )
    _log(f"wrote {out / 'validation.json'}")
    print(repr(summary["mean"]))
    print(repr(summary["max"]))
    return 0


def cmd_predict(args, cfg: PipelineConfig) -> int:
    rom_dir = Path(args.rom) if args.rom else cfg.output_dir / "rom"
    model = artifacts.load_rom(rom_dir)
    mu = _parse_mu(args.mu, model.coefficients.nodes.shape[1])
    if rom.extrapolates(model, mu)[0]:
        _log("predict: point outside the training range; extrapolating")
    value, objective = rom.predict(model, mu)
    out = Path(args.field_out) if args.field_out else cfg.output_dir / "prediction.bin"
    artifacts.save_vector(out, value)
    _log(f"wrote {out}")
    print(repr(objective))
    return 0


def cmd_optimize(args, cfg: PipelineConfig) -> int:
    if args.objective == "stub" and args.rom is not None:
        raise ShapeManifoldError("--rom is read by --objective rom only")
    space_dir = Path(args.space) if args.space else cfg.output_dir / "manifold"
    space = artifacts.load_reduced_space(space_dir)

    if args.objective == "rom":
        rom_dir = Path(args.rom) if args.rom else cfg.output_dir / "rom"
        model = artifacts.load_rom(rom_dir)
        objective = partial(rom.predict_objective, model)
    else:  # query the synthetic solver through the decode map directly
        def objective(mu):
            return solver.evaluate(manifold.decode(space, mu), cfg.stub).objective

    problem = optimize.OptProblem(
        objective=objective,
        space=space,
        budget=cfg.optimizer.budget,
        starts=cfg.optimizer.starts,
        seed=cfg.optimizer_seed,
    )
    result = optimize.minimize(problem)
    out = cfg.output_dir / "optimization_trace.csv"
    artifacts.save_trace_csv(out, result.traces)
    _log(f"wrote {out} ({result.evaluations} evaluations)")
    if args.objective == "rom":
        trials = np.array([x for trace in result.traces for x, _ in trace])
        outside = int(rom.extrapolates(model, trials).sum())
        _log(f"optimize: {outside} of {len(trials)} trial points outside the training range")
    print(",".join(repr(float(v)) for v in result.best_mu))
    print(repr(result.best_value))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: one ``error:`` line
    and exit 1 (see :func:`main`)."""

    def error(self, message):
        raise ShapeManifoldError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline JSON file")
    common.add_argument("--seed", type=int, default=None, help="override the base seed")
    common.add_argument("--out", default=None, help="override the output directory")

    parser = _Parser(
        prog="shapemanifold",
        description="FFD morphing, shape-manifold reduction, surrogate prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("morph", parents=[common], help="deform the reference STL")
    p.add_argument("--mu", required=True, help="comma-separated design parameters")
    p.add_argument("--format", choices=("binary", "ascii"), default="binary")
    p.add_argument("--stl-out", default=None)
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser(
        "build-manifold", parents=[common], help="train the reduced shape space"
    )
    p.set_defaults(func=cmd_build_manifold)

    p = sub.add_parser(
        "evaluate", parents=[common], help="generate a solution database"
    )
    p.add_argument("--sampling", choices=("full", "reduced"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--space", default=None, help="reduced-space artifact directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel solver evaluations")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare-decay", parents=[common], help="compare two databases' mode decay"
    )
    p.add_argument("--full", default=None)
    p.add_argument("--reduced", default=None)
    p.set_defaults(func=cmd_compare_decay)

    p = sub.add_parser("build-rom", parents=[common], help="fit the surrogate")
    p.add_argument("--db", default=None, help="solution database directory")
    p.set_defaults(func=cmd_build_rom)

    p = sub.add_parser(
        "validate", parents=[common], help="leave-one-out error of the surrogate"
    )
    p.add_argument("--db", default=None, help="solution database directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("predict", parents=[common], help="query the surrogate")
    p.add_argument("--mu", required=True)
    p.add_argument("--rom", default=None)
    p.add_argument("--field-out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("optimize", parents=[common], help="minimize the objective")
    p.add_argument("--rom", default=None)
    p.add_argument("--space", default=None)
    p.add_argument(
        "--objective",
        choices=("rom", "stub"),
        default="rom",
        help="query the fitted surrogate or the synthetic solver directly",
    )
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, load_pipeline_config(args.config, args.out, args.seed))
    except (ShapeManifoldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
