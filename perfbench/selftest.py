"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
* every workload, untraced and traced, prints a last line with exactly the
  keys correct, attempted, failed and metrics, is correct, and reports every
  metric named in BENCHMARK.json with its unit;
* a deliberately wrong expected entry is counted as a verdict mismatch;
* a traced name that no longer exists is reported absent, not an error;
* without the ppst sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expected as X  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, tiny: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] is True, done.stdout
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert "verdict_mismatches = 0 count" in done.stdout
            assert "ops_failed_frac = 0 ratio" in done.stdout
            print(f"ok {workload} trace {trace}: {len(got)} metrics")


def check_wrong_expectation() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import ppst
    import ppst.cli  # noqa: F401

    workdir = ROOT / ".perfbench_out" / "selftest"
    state = workloads.setup(ppst, "catalog-cli", workdir, tiny=True)
    saved = X.CATALOG["example-frame"]
    X.CATALOG["example-frame"] = (X.PS,) + saved[1:]   # wrong on purpose
    try:
        rec = workloads.Recorder()
        workloads.pass_catalog(ppst, state, random.Random(0), rec)
    finally:
        X.CATALOG["example-frame"] = saved
        shutil.rmtree(workdir, ignore_errors=True)
    # classify answers the true class in both the --model and the file form
    assert rec.mismatches == 2, rec.problems
    assert rec.ops_failed == 0 and rec.failed == 2
    print("ok wrong expected entry counted:", rec.problems[0])


def check_absent_name() -> None:
    import tracer

    t = tracer.Tracer()
    t._install("expr.gone", "ppst.expr", "_no_such_function",
               keep_span=False, everywhere=True)
    assert t.absent == ["expr.gone"], t.absent
    print("ok missing name reported absent")


def check_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench(bare, "search", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("ok without sources: exit", done.returncode)


if __name__ == "__main__":
    check_wrong_expectation()
    check_absent_name()
    check_without_sources()
    check_metrics()
    print("selftest passed")
