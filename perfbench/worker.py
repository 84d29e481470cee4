"""One workload in one fresh interpreter; prints a JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --mode setup|untraced|traced
                                --min-passes K [--tiny]

``setup`` only measures set-up (imports plus input generation).  The other
modes then run passes while the next one is expected to end within
``--seconds`` (at least ``--min-passes``) and report pass times, per-request latencies, failures,
verdict mismatches and peak RSS; ``traced`` also installs the tracer after
set-up and reports its per-pass layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"),
                        required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import sympy  # noqa: F401  eager, so its import is set-up, not latency
    import ppst
    import ppst.cli  # noqa: F401
    if not Path(ppst.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ppst imported from {ppst.__file__}, not {ROOT}/src")

    import workloads
    os.chdir(ROOT)
    workdir = OUT_DIR.relative_to(ROOT) / f"work-{os.getpid()}"
    try:
        state = workloads.setup(ppst, args.workload, workdir, args.tiny)
        setup_s = time.perf_counter() - T_START
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result = run_passes(ppst, workloads, args, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    if tracer is not None:
        result["trace"] = layer_metrics(tracer, result)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


def run_passes(ppst, workloads, args, state) -> dict:
    rng = random.Random(args.seed)
    rec = workloads.Recorder()
    run_pass = workloads.PASSES[args.workload]
    pass_s: list[float] = []
    start = time.perf_counter()
    # start a pass only if it is expected to end within the budget
    while (len(pass_s) < args.min_passes
           or time.perf_counter() - start + statistics.median(pass_s)
           <= args.seconds):
        t0 = time.perf_counter()
        run_pass(ppst, state, rng, rec)
        pass_s.append(time.perf_counter() - t0)
    return {
        "pass_s": pass_s,
        "latencies_s": rec.latencies,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "ops_failed": rec.ops_failed,
        "mismatches": rec.mismatches,
        "problems": rec.problems,
        "search_hits": state.get("found", 0),
    }


def layer_metrics(tracer, result) -> dict:
    """Per-pass layer numbers from the tracer; absent names are omitted."""
    passes = len(result["pass_s"])
    out: dict[str, tuple[float, str]] = {}
    from tracer import COUNTERS, SPANS

    def time_pair(span, total_name, self_name):
        if span in tracer.absent:
            return
        out[total_name] = (tracer.total.get(span, 0.0) / passes, "s")
        out[self_name] = (tracer.self_time.get(span, 0.0) / passes, "s")

    for span in SPANS:
        if span == "cli.run_command":
            time_pair(span, "cli.run_command_s", "cli.self_s")
        else:
            time_pair(span, f"{span}_s", f"{span}_self_s")
    if "expr.canonical" not in tracer.absent:
        out["expr.canonical_calls"] = (
            tracer.calls.get("expr.canonical", 0) / passes, "count")
    time_pair("expr.canonical", "expr.canonical_s", "expr.self_s")
    if "expr.poly_gcd" not in tracer.absent:
        out["expr.poly_gcd_calls"] = (
            tracer.calls.get("expr.poly_gcd", 0) / passes, "count")
    time_pair("expr.poly_gcd", "expr.poly_gcd_s", "expr.poly_gcd_self_s")
    if "spaceforms.nijenhuis_N1" not in tracer.absent:
        built = tracer.calls.get("spaceforms.nijenhuis_N1", 0)
        out["spaceforms.search_structures_built"] = (built / passes, "count")
        out["spaceforms.search_hit_ratio"] = (
            result["search_hits"] / built if built else 0.0, "ratio")
    absent = [f"{name} ({COUNTERS.get(name, SPANS.get(name))[:2]})"
              for name in tracer.absent]
    return {"metrics": out, "absent": absent}


if __name__ == "__main__":
    sys.exit(main())
