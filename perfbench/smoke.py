"""Smoke test of the benchmark: every workload once at a tiny size.

Run from the root of a source checkout:

    python3 perfbench/smoke.py

For each workload it runs one untraced and one traced pass on an
8 x 10 sphere (60 training geometries) and asserts that every metric of
that workload is printed by name with its unit, that the last line is the
result object, and that no operation failed. Exits 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, GATED, PER_LAYER  # noqa: E402

EXPECTED = {
    "offline-chain": (
        "time_to_surrogate_s", "stage.build-manifold_s", "stage.evaluate-full_s",
        "stage.evaluate-reduced_s", "stage.compare-decay_s", "stage.build-rom_s",
        "stage.predict_s", "stage.optimize-rom_s",
    ),
    "solver-loop": ("stage.optimize-stub_s", "evals_per_s"),
    "surrogate-queries": (
        "stage.optimize-rom_s", "predict_p50_us", "predict_p99_us",
        "predict_batch_qps", "loo_s",
    ),
}


def run_once(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}"
    return proc.stdout.strip().splitlines()


def printed(lines: list[str]) -> dict[str, str]:
    """metric name -> unit, from the summary lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            out[parts[0]] = parts[2]
    return out


def check(workload: str):
    for trace in (0, 1):
        lines = run_once(workload, trace)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, lines
        assert result["attempted"] >= 1
        wanted = PER_LAYER if trace else GATED
        assert set(result["metrics"]) == set(wanted), sorted(result["metrics"])
        shown = printed(lines)
        names = (*GATED, *EXPECTED[workload]) + (tuple(PER_LAYER) if trace else ())
        units = {**END_TO_END, **{k: u for k, (u, _) in PER_LAYER.items()}}
        for name in names:
            assert shown.get(name) == units[name], f"{workload}: {name} not printed"
        assert shown.get("error_rate") == "ratio"
        error_line = next(l for l in lines if l.split()[:1] == ["error_rate"])
        assert float(error_line.split()[1]) == 0.0, error_line
    print(f"ok {workload}")


def main() -> int:
    for workload in EXPECTED:
        check(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
