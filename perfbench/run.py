"""Time-to-verdict benchmark for ppst.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A single-process, single-client, closed
loop: each workload runs in its own fresh interpreter (perfbench/worker.py)
that issues one request after the other, with no threads.

--trace 0   end-to-end metrics from an untraced run of S seconds, plus
            extra set-up-only interpreters so that setup_s is a median.
--trace 1   per-layer metrics: an untraced and a traced run of S/2 seconds
            each; trace_overhead_frac is the traced run_s over the
            untraced run_s, minus 1.

Human-readable lines (every metric with unit and sample count, verdict
mismatches, failed-operation share, absent trace names) go first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status is 0 when a result was printed, whether or not it
is correct; any failure to run prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MIN_PASSES, WORKLOADS  # noqa: E402

# set-up runs per --trace 0 run besides the measured one; setup_s is the
# median over all of them
EXTRA_SETUPS = 4
# every worker together must end well within the 180 s a run may take
BUDGET_S = 170


class BenchError(Exception):
    pass


def child(workload: str, seed: int, seconds: float, mode: str,
          min_passes: int, tiny: bool, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--min-passes", str(min_passes)]
    if tiny:
        argv.append("--tiny")
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} did not end within "
                         f"the {BUDGET_S} s budget")
    if done.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited "
                         f"{done.returncode}:\n{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed nothing")
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(run: dict, setups: list[float]) -> dict:
    lat = run["latencies_s"]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "run_s": (statistics.median(run["pass_s"]), "s", len(run["pass_s"])),
        "request_p50_ms": (statistics.median(lat) * 1000, "ms", len(lat)),
        "request_p90_ms": (p90(lat) * 1000, "ms", len(lat)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }


def measure(args) -> tuple[list[dict], dict, list[str]]:
    """Run the workers; returns (runs, metrics, absent names)."""
    deadline = time.monotonic() + BUDGET_S

    def go(mode, seconds, min_passes=1):
        return child(args.workload, args.seed, seconds, mode, min_passes,
                     args.tiny, deadline)

    if not args.trace:
        run = go("untraced", args.seconds,
                 1 if args.tiny else MIN_PASSES[args.workload])
        extra = 1 if args.tiny else EXTRA_SETUPS
        setups = [run["setup_s"]] + [go("setup", 0)["setup_s"]
                                     for _ in range(extra)]
        return [run], end_to_end(run, setups), []
    plain = go("untraced", args.seconds / 2)
    traced = go("traced", args.seconds / 2)
    metrics = {name: (value, unit, len(traced["pass_s"]))
               for name, (value, unit) in traced["trace"]["metrics"].items()}
    overhead = (statistics.median(traced["pass_s"])
                / statistics.median(plain["pass_s"]) - 1)
    metrics["trace_overhead_frac"] = (overhead, "ratio", len(plain["pass_s"]))
    return [plain, traced], metrics, traced["trace"]["absent"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs and one pass (self-test only)")
    args = parser.parse_args()
    if not (ROOT / "src" / "ppst" / "__init__.py").is_file():
        print(f"perfbench: no ppst sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    try:
        runs, metrics, absent = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    ops_failed = sum(r["ops_failed"] for r in runs)
    mismatches = sum(r["mismatches"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={samples})")
    print(f"  verdict_mismatches = {mismatches} count")
    print(f"  ops_failed_frac = {ops_failed / max(attempted, 1):.6g} ratio "
          f"(n={attempted})")
    for name in absent:
        print(f"  absent: {name}")
    for r in runs:
        for problem in r["problems"]:
            print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
