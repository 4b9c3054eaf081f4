"""Command-line pipeline with file-based handoff between stages.

Commands: morph, build-manifold, evaluate, compare-decay, build-rom,
validate, predict, optimize. Each stage reads the artifacts of earlier
stages from the output directory, so downstream stages can be re-run
without recomputing upstream ones. :data:`STAGES` declares what each
stage or stage mode reads, writes and takes; the parser, the default
paths and the refusal of a path option the mode does not read come from
it. Seeds are derived from one base seed: training sampling uses the
base, full-space evaluation base + 1, reduced-space evaluation base + 2,
and the optimizer base + 3 (unless set explicitly).
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import artifacts, ffd, manifold, optimize, pod, rom, solver
from .config import PipelineConfig, load_pipeline_config
from .errors import EmptyMesh, MalformedStl, ShapeManifoldError
from .mesh import (
    TriMesh,
    default_weld_tolerance,
    parse_number,
    read_stl,
    weld,
    write_stl,
)

_ENERGY_MARKS = (0.99, 0.999, 0.9999)


def _log(message: str):
    print(message, file=sys.stderr)


def _load_reference(cfg: PipelineConfig) -> TriMesh:
    data = Path(cfg.reference_stl).read_bytes()
    try:
        soup = read_stl(data)
    except (MalformedStl, EmptyMesh) as exc:
        raise type(exc)(f"{cfg.reference_stl}: {exc}") from exc
    tol = cfg.weld_tolerance
    if tol is None:
        tol = default_weld_tolerance(soup)
    mesh = weld(soup, tol)
    _log(f"reference: {mesh.vertex_count} vertices, {len(mesh.facets)} facets")
    return mesh


def _log_clamp(stage: str, rule: pod.TruncationRule, available: int):
    # A fixed mode count above the snapshots' rank keeps every mode; each
    # stage passes the mode count of the basis it truncated.
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


def _parse_mu(text: str, expected: int) -> np.ndarray:
    try:
        mu = np.array([parse_number(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ShapeManifoldError(f"cannot parse parameter vector {text!r}") from exc
    if not np.isfinite(mu).all():
        raise ShapeManifoldError(f"parameter vector {text!r} is not finite")
    if mu.size != expected:
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
    # Far enough out, the morphed coordinates, their facet normals or (in
    # a binary STL) their float32 casts overflow: no STL, and nothing written.
    try:
        with np.errstate(over="raise", invalid="raise"):
            morphed = ffd.morph(mesh, ffd.displacement_jacobian(ffd_cfg, mesh.vertices), mu)
            data = write_stl(morphed, args.format)
    except FloatingPointError:
        raise ShapeManifoldError(f"--mu {args.mu}: the morphed mesh overflows "
                                 f"in the {args.format} STL") from None
    artifacts.write_atomic(args.stl_out, [data])
    _log(f"wrote {args.stl_out}")
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
    _log_clamp("manifold", cfg.geometry_truncation, basis.rank)
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
    artifacts.save_reduced_space(args.output, space)
    artifacts.save_decay_csv(args.output / "decay.csv", pod.decay_report(basis))
    artifacts.save_coefficients_csv(args.output / "coefficients.csv", alpha)
    _log(
        f"manifold: {space.dim} free parameters "
        f"({len(basis.singular_values)} modes, "
        f"{sum(s is not None for s in space.dependencies)} dependent); "
        f"wrote {args.output}"
    )
    return 0


def _evaluate_samples(stub_cfg, geometry_for, params, vertex_count: int, jobs: int):
    """Morph plus solver run per sample, threadable (the heavy work is in
    GIL-releasing numpy kernels). Each task copies its result into its row of
    one (n, vertex_count) field matrix and one objective vector, which are
    returned; no per-sample field outlives its task."""
    fields = np.empty((len(params), vertex_count))
    objectives = np.empty(len(params))

    def run(i):
        snapshot = solver.evaluate(geometry_for(params[i]), stub_cfg)
        fields[i], objectives[i] = snapshot.field, snapshot.objective

    # The pool starts its threads on the first submit: none at --jobs 1.
    tasks = range(len(params))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for _ in pool.map(run, tasks) if jobs > 1 else map(run, tasks):
            pass  # each result is None; reading it re-raises a task's error
    return fields, objectives


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    if args.jobs < 1:
        raise ShapeManifoldError(f"--jobs must be at least 1, got {args.jobs}")
    if args.n is not None and args.n < 1:
        raise ShapeManifoldError(f"--n must be at least 1, got {args.n}")
    if args.sampling == "full":
        mesh = _load_reference(cfg)
        ffd_cfg = _resolve_ffd(cfg, mesh)
        n = args.n or cfg.sampling.n_full
        params = manifold.sample_ffd_params(
            n, ffd_cfg.bounds, cfg.sampling.seed + 1
        )
        _log(f"evaluate: {n} full-space samples")
        jac = ffd.displacement_jacobian(ffd_cfg, mesh.vertices)
        vertex_count = mesh.vertex_count

        def geometry_for(mu):
            return ffd.morph(mesh, jac, mu)
    else:
        space = artifacts.load_reduced_space(args.space)
        n = args.n or cfg.sampling.n_reduced
        params = manifold.sample_reduced(space, n, cfg.sampling.seed + 2)
        _log(f"evaluate: {n} reduced-space samples")
        vertex_count = space.basis.state_dim // 3
        geometry_for = partial(manifold.decode, space)
    fields, objectives = _evaluate_samples(
        cfg.stub, geometry_for, params, vertex_count, args.jobs
    )
    db = rom.SolutionDatabase(params, fields, objectives)
    artifacts.save_solution_database(args.output, db)
    _log(f"evaluate: wrote {db.count} snapshots to {args.output}")
    return 0


def cmd_compare_decay(args, cfg: PipelineConfig) -> int:
    spectra, reports = {}, {}
    for name, directory in (("full", args.full), ("reduced", args.reduced)):
        basis = pod.compute_pod(*artifacts.load_snapshots(directory)[1])  # untruncated
        reports[name] = pod.decay_report(basis)
        spectra[name] = basis.singular_values

    pairs = zip_longest(reports["full"][:, 1:], reports["reduced"][:, 1:], fillvalue=[None] * 3)
    artifacts.save_csv(args.output, ["index", "sigma_full", "ratio_full", "cumulative_full",
                                     "sigma_reduced", "ratio_reduced", "cumulative_reduced"],
                       ([i, *a, *b] for i, (a, b) in enumerate(pairs, start=1)))

    for mark in _ENERGY_MARKS:
        rule = pod.TruncationRule.energy(mark)
        full_n = rule.select(spectra["full"])
        reduced_n = rule.select(spectra["reduced"])
        print(f"energy {mark}: full={full_n} reduced={reduced_n}")
    _log(f"wrote {args.output}")
    return 0


def cmd_build_rom(args, cfg: PipelineConfig) -> int:
    model = rom.build_rom(*artifacts.load_snapshots(args.db), cfg.solution_truncation,
                          kernel=cfg.rom.kernel, epsilon=cfg.rom.epsilon,
                          metadata={"seed": cfg.sampling.seed})
    _log_clamp("rom", cfg.solution_truncation, model.basis.rank)
    artifacts.save_rom(args.output, model)
    count = len(model.coefficients.nodes)
    _log(f"rom: {model.basis.rank} modes from {count} snapshots; wrote {args.output}")
    return 0


def cmd_validate(args, cfg: PipelineConfig) -> int:
    db = artifacts.load_solution_database(args.db)
    errors, summary = rom.loo_error(
        db, cfg.solution_truncation, kernel=cfg.rom.kernel, epsilon=cfg.rom.epsilon
    )
    _log_clamp("validate", cfg.solution_truncation, summary["fewest_modes"])
    artifacts.save_validation(args.output, errors, summary, cfg.rom.kernel, cfg.rom.epsilon)
    _log(f"wrote {args.output}")
    print(repr(summary["mean"]))
    print(repr(summary["max"]))
    return 0


def cmd_predict(args, cfg: PipelineConfig) -> int:
    model = artifacts.load_rom(args.rom)
    mu = _parse_mu(args.mu, model.coefficients.nodes.shape[1])
    # Far enough from the nodes, the squared distances or the kernel
    # overflow: no prediction there, and nothing written.
    try:
        with np.errstate(over="raise", invalid="raise"):
            value, objective = rom.predict(model, mu)
    except FloatingPointError:
        raise ShapeManifoldError(f"--mu {args.mu}: the surrogate overflows this far "
                                 "from the training nodes") from None
    if rom.extrapolates(model, mu)[0]:
        _log("predict: point outside the training range; extrapolating")
    artifacts.save_vector(args.field_out, value)
    _log(f"wrote {args.field_out}")
    print(repr(objective))
    return 0


def cmd_optimize(args, cfg: PipelineConfig) -> int:
    space = artifacts.load_reduced_space(args.space)

    if args.objective == "rom":
        model = artifacts.load_rom(args.rom)
        if model.coefficients.nodes.shape[1] != space.dim:
            raise ShapeManifoldError(f"{args.rom}: fitted on {model.coefficients.nodes.shape[1]} "
                                     f"parameters, but the reduced space has {space.dim}")
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
    artifacts.save_trace_csv(args.output, result.traces)
    _log(f"wrote {args.output} ({result.evaluations} evaluations)")
    if args.objective == "rom":
        trials = np.array([x for trace in result.traces for x, _ in trace])
        outside = int(rom.extrapolates(model, trials).sum())
        _log(f"optimize: {outside} of {len(trials)} trial points outside the training range")
    print(",".join(repr(float(v)) for v in result.best_mu))
    print(repr(result.best_value))
    return 0


# One row per stage, or per mode of a stage that ``mode``, a (selector
# option, value) pair, picks. ``reads`` and ``writes`` map each artifact's
# path option, or ``output`` for an output with no option, to its default
# under the output directory. ``options`` are the row's other arguments, as
# (flag, ``add_argument`` keywords); a stage takes the options of all its rows.
Stage = namedtuple("Stage", "command mode func help reads writes options", defaults=((),))
_PATH_HELP = {"--space": "reduced-space artifact directory", "--db": "solution database directory"}
_EVALUATE = (("--sampling", {"choices": ("full", "reduced"), "required": True}),
             ("--n", {"type": int, "default": None}),
             ("--jobs", {"type": int, "default": 1, "help": "parallel solver evaluations"}))
_OPTIMIZE = (("--objective", {"choices": ("rom", "stub"), "default": "rom", "help":
                              "query the fitted surrogate or the synthetic solver directly"}),)
STAGES = (
    Stage("morph", None, cmd_morph, "deform the reference STL", {}, {"--stl-out": "morphed.stl"},
          (("--mu", {"required": True, "help": "comma-separated design parameters"}),
           ("--format", {"choices": ("binary", "ascii"), "default": "binary"}))),
    Stage("build-manifold", None, cmd_build_manifold, "train the reduced shape space", {},
          {"output": "manifold"}),
    Stage("evaluate", ("--sampling", "full"), cmd_evaluate, "generate a solution database",
          {}, {"output": "db_full"}, _EVALUATE),
    Stage("evaluate", ("--sampling", "reduced"), cmd_evaluate, "generate a solution database",
          {"--space": "manifold"}, {"output": "db_reduced"}, _EVALUATE),
    Stage("compare-decay", None, cmd_compare_decay, "compare two databases' mode decay",
          {"--full": "db_full", "--reduced": "db_reduced"}, {"output": "decay_comparison.csv"}),
    Stage("build-rom", None, cmd_build_rom, "fit the surrogate", {"--db": "db_reduced"},
          {"output": "rom"}),
    Stage("validate", None, cmd_validate, "leave-one-out error of the surrogate",
          {"--db": "db_reduced"}, {"output": "rom/validation.json"}),
    Stage("predict", None, cmd_predict, "query the surrogate", {"--rom": "rom"},
          {"--field-out": "prediction.bin"}, (("--mu", {"required": True}),)),
    Stage("optimize", ("--objective", "rom"), cmd_optimize, "minimize the objective",
          {"--rom": "rom", "--space": "manifold"}, {"output": "optimization_trace.csv"}, _OPTIMIZE),
    Stage("optimize", ("--objective", "stub"), cmd_optimize, "minimize the objective",
          {"--space": "manifold"}, {"output": "optimization_trace.csv"}, _OPTIMIZE),
)


def _dest(key: str) -> str:
    return key.lstrip("-").replace("-", "_")


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
    commands = {}
    for stage in STAGES:
        options = commands.setdefault(stage.command, (stage.help, {}))[1]
        options.update(stage.options)
        options.update((k, {"help": _PATH_HELP.get(k)}) for k in {**stage.reads, **stage.writes}
                       if k.startswith("--"))
    for command, (help_text, options) in commands.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _select(args, output_dir: Path) -> Stage:
    """The row of :data:`STAGES` that ``args`` pick, with each of its paths
    set on ``args``: a path option left out takes its default under
    ``output_dir``. An empty path, or a path option of another mode only, is
    refused."""
    rows = [s for s in STAGES if s.command == args.command]
    stage = next(s for s in rows if s.mode is None or getattr(args, _dest(s.mode[0])) == s.mode[1])
    paths = {**stage.reads, **stage.writes}
    for key in (k for s in rows for k in {**s.reads, **s.writes} if k not in paths):
        if getattr(args, _dest(key)) is not None:
            modes = " or ".join(s.mode[1] for s in rows if key in {**s.reads, **s.writes})
            raise ShapeManifoldError(f"{key} is read by {stage.mode[0]} {modes} only")
    for key, default in paths.items():
        value = getattr(args, _dest(key), None)
        if value == "":
            raise ShapeManifoldError(f"{key} is empty; give a path or leave the option out")
        setattr(args, _dest(key), output_dir / default if value is None else Path(value))
    return stage


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Path("") is the current directory: an empty path is refused, not read as ".".
        if args.config == "":
            raise ShapeManifoldError("--config is empty; give a path")
        if args.out == "":
            raise ShapeManifoldError("--out is empty; give a path or leave the option out")
        cfg = load_pipeline_config(args.config, args.out, args.seed)
        return _select(args, cfg.output_dir).func(args, cfg)
    except (ShapeManifoldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
