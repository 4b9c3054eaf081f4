"""Benchmark of the shapemanifold pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (each a closed loop with one caller):

    offline-chain      the seven CLI stages on a 10,102-vertex sphere with
                       the default config (1500 train / 100 full / 80 reduced)
    surrogate-queries  2,000 single rom.predict calls, one batched query,
                       optimize (rom) and rom.loo_error on 80 snapshots
    solver-loop        optimize --objective stub on a manifold built in set-up;
                       run by hand only, too sensitive to host speed to gate

A run sets its workload up several times (each in a fresh child process)
and reports the median set-up time. It then runs timed passes, each in a
fresh child process, for about ``--seconds`` seconds, and reports the
median of each metric over the passes. The correctness checks run after
each pass's timed part; every check and every stage exit code is one
operation attempted. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

With ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer metrics from the traced ones, measured by wrapping the
package's public functions from ``tracing.py``.

BLAS and OpenMP threads are pinned to one in this process's environment
before any child imports numpy. Results, machine facts and span dumps go
to ``.perfbench-results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("offline-chain", "solver-loop", "surrogate-queries")
SETUP_REPEATS = {"offline-chain": 7, "solver-loop": 3, "surrogate-queries": 3}
CHILD_TIMEOUT = 170

# name -> unit, per workload where it applies. GATED are reported on every
# workload and are the end-to-end metrics of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "time_to_surrogate_s": "s",
    "stage.build-manifold_s": "s",
    "stage.evaluate-full_s": "s",
    "stage.evaluate-reduced_s": "s",
    "stage.compare-decay_s": "s",
    "stage.build-rom_s": "s",
    "stage.predict_s": "s",
    "stage.optimize-rom_s": "s",
    "stage.optimize-stub_s": "s",
    "evals_per_s": "1/s",
    "predict_p50_us": "us",
    "predict_p99_us": "us",
    "predict_batch_qps": "1/s",
    "loo_s": "s",
}
GATED = ("setup_s", "wall_s", "peak_rss_mb")


# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "mesh.weld_s": ("s", "lower"),
    "mesh.weld.calls": ("count", "lower"),
    "mesh.read_stl_s": ("s", "lower"),
    "mesh.unflatten_s": ("s", "lower"),
    "mesh.unflatten.calls": ("count", "lower"),
    "ffd.morpher_init_s": ("s", "lower"),
    "ffd.displacement_s": ("s", "lower"),
    "ffd.displacement.calls": ("count", "lower"),
    "ffd.apply_params.calls": ("count", "lower"),
    "pod.compute_pod_s": ("s", "lower"),
    "pod.compute_pod.calls": ("count", "lower"),
    "pod.snapshot_bytes": ("bytes", "lower"),
    "pod.reconstruct_s": ("s", "lower"),
    "pod.reconstruct.calls": ("count", "lower"),
    "manifold.build_geometry_pod.self_s": ("s", "lower"),
    "manifold.build_reduced_space_s": ("s", "lower"),
    "manifold.sample_reduced_s": ("s", "lower"),
    "manifold.sample_acceptance": ("ratio", "higher"),
    "manifold.decode_s": ("s", "lower"),
    "manifold.decode.calls": ("count", "lower"),
    "solver.evaluate_s": ("s", "lower"),
    "solver.evaluate.calls": ("count", "lower"),
    "solver.evaluate_us_per_call": ("us", "lower"),
    "rom.database_init_s": ("s", "lower"),
    "rom.database_init.calls": ("count", "lower"),
    "rom.fit_interpolator_s": ("s", "lower"),
    "rom.fit_interpolator.calls": ("count", "lower"),
    "rom.build_rom.self_s": ("s", "lower"),
    "rom.loo_fold_s": ("s", "lower"),
    "rom.predict_us": ("us", "lower"),
    "rom.system_rows": ("count", "lower"),
    "optimize.objective.calls": ("count", "lower"),
    "optimize.overhead_us_per_eval": ("us", "lower"),
    "optimize.feasible_frac": ("ratio", "higher"),
    "artifacts.save_s": ("s", "lower"),
    "artifacts.load_s": ("s", "lower"),
    "artifacts.bytes_written": ("bytes", "lower"),
    "config.load_s": ("s", "lower"),
    **{f"cli.{stage}.self_s": ("s", "lower") for stage in (
        "build-manifold", "evaluate-full", "evaluate-reduced", "compare-decay",
        "build-rom", "predict", "optimize-rom", "optimize-stub")},
    "cli.evaluate-full.jobs1_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# --------------------------------------------------------------------------
# Child processes.


def child_main(args) -> int:
    """Runs inside a child: one set-up or one pass; prints one JSON line."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    work = Path(args.dir)
    if args.child == "setup":
        result = workloads.setup(args.workload, work, args.seed, args.size)
    else:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        out = work / f"pass-{os.getpid()}"
        result = workloads.run_pass(args.workload, work, out, args.seed, args.size,
                                    tracer, extras=args.extras)
        if tracer is not None:
            layer, checks = tracing.layer_metrics(tracer)
            result["metrics"].update(layer)
            result["checks"].update(checks)
            if args.spans:
                tracing.dump_spans(tracer, Path(args.spans))
        shutil.rmtree(out, ignore_errors=True)
    result["checks"] = {k: bool(v) for k, v in result.get("checks", {}).items()}
    print(json.dumps(result))
    return 0


def spawn(role: str, args, work: Path, trace=False, extras=False, spans=None):
    """Run one set-up or pass in a fresh interpreter; None if it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--dir", str(work)]
    if trace:
        cmd.append("--trace-child")
    if extras:
        cmd.append("--extras")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"{role} child timed out after {CHILD_TIMEOUT} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Machine facts.


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_sha(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(root / ".git" / ref))
        if sha:
            return sha
        for line in _read(str(root / ".git" / "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    return head or "unknown"


def machine_facts(root: Path) -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            level = _read(str(index / "level"))
            kind = _read(str(index / "type"))
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = _read(
                str(index / "size"))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, json; c = numpy.show_config(mode='dicts');"
         "b = c.get('Build Dependencies', {}).get('blas', {});"
         "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))"],
        capture_output=True, text=True, timeout=60)
    numpy_version, blas_name, blas_version = (json.loads(probe.stdout)
                                              if probe.returncode == 0 else [None] * 3)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas_name} {blas_version}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": git_sha(root),
    }


# --------------------------------------------------------------------------
# The run.


def median(values):
    return statistics.median(values) if values else 0.0


def run(args, root: Path) -> dict:
    results_dir = root / ".perfbench-results"
    results_dir.mkdir(exist_ok=True)
    work_root = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    work_root.mkdir(parents=True)
    attempted = failed = 0
    failures = []

    def count(checks: dict, where: str):
        nonlocal attempted, failed
        for name, ok in checks.items():
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{where}: {name}")

    def child(role, where, **kwargs):
        res = spawn(role, args, **kwargs)
        if res is None:
            count({"child_exit": False}, where)
        return res

    setups, passes, traced = [], [], []
    try:
        # Set-up, several times; every copy must be byte-identical.
        repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
        for i in range(repeats):
            res = child("setup", f"setup {i}", work=work_root / f"setup-{i}")
            if res is None:
                break
            count(res["checks"], f"setup {i}")
            setups.append(res)
        if setups:
            count({"setup_deterministic": len({s["digest"] for s in setups}) == 1},
                  "setup")
        work = work_root / "setup-0"
        for i in range(1, repeats):
            shutil.rmtree(work_root / f"setup-{i}", ignore_errors=True)

        t_start = time.perf_counter()
        longest = 0.0
        while setups:
            t0 = time.perf_counter()
            res = child("pass", f"pass {len(passes)}", work=work, extras=not passes)
            if res is None:
                break
            count(res["checks"], f"pass {len(passes)}")
            passes.append(res["metrics"])
            if args.trace:
                spans = results_dir / f"spans-{args.workload}-{args.seed}.jsonl"
                res = child("pass", f"traced pass {len(traced)}", work=work, trace=True,
                            spans=None if traced else spans)
                if res is None:
                    break
                count(res["checks"], f"traced pass {len(traced)}")
                traced.append(res["metrics"])
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - t_start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (root / ".perfbench-work").rmdir()
        except OSError:
            pass

    summary = {}
    if setups and passes:
        summary["setup_s"] = median([s["setup_s"] for s in setups])
        for name in END_TO_END:
            values = [p[name] for p in passes if name in p]
            if values:
                summary[name] = median(values)
    layer = {}
    if traced:
        layer = {name: median([t.get(name, 0.0) for t in traced]) for name in PER_LAYER}
        # The --jobs 1 reference is timed in the untraced passes.
        layer["cli.evaluate-full.jobs1_s"] = median(
            [p["cli.evaluate-full.jobs1_s"] for p in passes
             if "cli.evaluate-full.jobs1_s" in p])
        layer["trace.overhead_frac"] = (
            median([t["wall_s"] for t in traced]) / summary["wall_s"] - 1.0)
    return {
        "summary": summary,
        "layer": layer,
        "passes": len(passes),
        "setup_values": [s["setup_s"] for s in setups],
        "pass_values": passes,
        "traced_values": traced,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a small mesh for the smoke test")
    # Internal: the child-process roles.
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--extras", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed %= 2**32

    root = Path.cwd()
    if not (root / "src" / "shapemanifold" / "__init__.py").is_file():
        print("error: run from the root of a shapemanifold source checkout "
              "(src/shapemanifold not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.child:
        args.trace = args.trace_child
        return child_main(args)

    # On SIGTERM, unwind so that the running child is killed and waited for
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    facts = machine_facts(root)
    outcome = run(args, root)
    wanted = PER_LAYER if args.trace else GATED
    values = outcome["layer"] if args.trace else outcome["summary"]
    if any(name not in values for name in wanted):
        print(f"error: no complete pass; {outcome['failures']}", file=sys.stderr)
        return 1
    error_rate = outcome["failed"] / max(outcome["attempted"], 1)

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}, {outcome['passes']} passes, "
          f"trace {args.trace}")
    for name, value in outcome["summary"].items():
        print(f"  {name:36s} {value:14.6g} {END_TO_END[name]}")
    print(f"  {'error_rate':36s} {error_rate:14.6g} ratio "
          f"({outcome['failed']} of {outcome['attempted']} operations failed)")
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")
    for name, value in outcome["layer"].items():
        print(f"  {name:36s} {value:14.6g} {PER_LAYER[name][0]}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": facts,
        "error_rate": error_rate, **outcome,
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (root / ".perfbench-results" / name).write_text(json.dumps(record, indent=1) + "\n")
    units = {**END_TO_END, **{k: u for k, (u, _) in PER_LAYER.items()}}
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
