"""Input generators and one-pass runners for the four workloads.

Every workload drives ppst only through its public functions, looked up on
the ``ppst`` package at call time so that the traced run's wrappers see every
call.  Each public call is one operation: any unexpected exception or exit
code 2 counts as a failed operation, and its verdicts are compared against
the hand-written tables in ``expected``.  A request is what a user waits on
for a verdict: one CLI invocation (catalog-cli), one structure through the
whole pipeline (frame-highdim, chart-gcd), one search call (search).

Workloads (see NOTES.md for why each was chosen):

catalog-cli    every catalog model x check, classify, curvature, identities,
               theorem, deform --alpha -2 --beta 4, as --model NAME and as a
               spec file exported at set-up, plus ``models``; all through
               ppst.cli.run_command(..., "--format", "json") and render.
frame-highdim  para-Heisenberg frames [e_i, e_{n+i}] = c xi at dim 5
               (c = -2, 4) and dim 7 (c = 4) through the full pipeline.
chart-gcd      the corrected chart re-charted with z -> w, w = 1+z^2 and
               w = 1+y^2+z, through the full pipeline.
search         search_constant_negative_curvature over the grid (-2, 0, 2).

The seed permutes request order (catalog-cli), structure order (frame-highdim,
chart-gcd) and the order of the grid values (search); the set of inputs is
fixed.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from pathlib import Path

import expected as X

WORKLOADS = ("catalog-cli", "frame-highdim", "chart-gcd", "search")

DEFORM_ALPHA, DEFORM_BETA = -2, 4
SEARCH_VALUES = (-2, 0, 2)


class Recorder:
    """Times requests and counts operations, failures and verdict mismatches."""

    def __init__(self):
        self.latencies: list[float] = []   # one per request
        self.attempted = 0
        self.failed = 0          # ops that raised, exited 2 or mismatched
        self.ops_failed = 0      # ops that raised or exited 2
        self.mismatches = 0      # verdicts that differ from the tables
        self.problems: list[str] = []

    @contextlib.contextmanager
    def request(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.latencies.append(time.perf_counter() - t0)

    def op(self, label: str, fn, check=None):
        """Run ``fn``; ``check(result)`` returns mismatch descriptions."""
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # an unexpected raise is a failed operation
            self._fail(f"{label}: raised {type(exc).__name__}: {exc}")
            self.ops_failed += 1
            return None
        bad = check(result) if check is not None else []
        if bad:
            self.mismatch(label, bad)
        return result

    def mismatch(self, label: str, bad: list[str]) -> None:
        self.mismatches += len(bad)
        self._fail(f"{label}: " + "; ".join(bad))

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _differs(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what} = {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# input generators


def frame_spec(dim: int, c: int) -> str:
    """Spec text of the para-Heisenberg frame [e_i, e_{n+i}] = c xi."""
    n = (dim - 1) // 2
    labels = [f"e{i + 1}" for i in range(2 * n)] + ["xi"]
    signature = ["+1"] * n + ["-1"] * n + ["+1"]

    def row(entries):
        return ", ".join(str(v) for v in entries)

    lines = ["[manifold]", f"name = para-heisenberg-{dim}-c{c}",
             "mode = frame", f"dim = {dim}", f"labels = {', '.join(labels)}",
             f"signature = {', '.join(signature)}", "", "[brackets]"]
    lines += [f"{labels[i]}, {labels[n + i]} = {c}*xi" for i in range(n)]
    lines += ["", "[g]"]
    for i in range(dim):
        lines.append(f"row{i + 1} = " + row(
            (1 if i < n or i == dim - 1 else -1) if j == i else 0
            for j in range(dim)))
    lines += ["", "[phi]"]
    for i in range(dim):
        partner = i + n if i < n else i - n if i < 2 * n else None
        lines.append(f"row{i + 1} = " + row(
            1 if j == partner else 0 for j in range(dim)))
    unit_xi = row(1 if j == dim - 1 else 0 for j in range(dim))
    lines += ["", "[xi]", f"components = {unit_xi}",
              "", "[eta]", f"components = {unit_xi}"]
    return "\n".join(lines) + "\n"


def chart_spec(w: str) -> str:
    """Spec text of example-chart-corrected re-charted with z -> w."""
    w = f"({w})"
    return "\n".join([
        "[manifold]", f"name = chart-w={w}", "mode = chart", "dim = 3",
        "coordinates = x, y, z", f"constraints = {w}",
        "", "[g]",
        f"row1 = 1, 0, -4*y/{w}",
        "row2 = 0, -1, 0",
        f"row3 = -4*y/{w}, 0, (1+16*y^2)/{w}^2",
        "", "[phi]",
        "row1 = 0, 4*y, 0",
        f"row2 = 0, 0, 1/{w}",
        f"row3 = 0, {w}, 0",
        "", "[xi]", "components = 1, 0, 0",
        "", "[eta]", f"components = 1, 0, -4*y/{w}",
        "", "[frame]",
        f"field1 = 4*y, 0, {w}",
        "field2 = 0, 1, 0",
        "field3 = 1, 0, 0",
    ]) + "\n"


# ---------------------------------------------------------------------------
# catalog-cli


def _catalog_models(tiny: bool) -> tuple[str, ...]:
    if tiny:
        return ("example-frame", "example-chart-printed")
    return tuple(X.CATALOG)


def setup_catalog(ppst, workdir: Path, tiny: bool) -> dict:
    """Export every catalog model once as a spec file; build the requests."""
    workdir.mkdir(parents=True, exist_ok=True)
    requests = [(("models", "--format", "json"), "models", None)]
    for name in _catalog_models(tiny):
        path = workdir / f"{name}.spec"
        path.write_text(ppst.export_text(ppst.get_model(name)),
                        encoding="utf-8")
        for cmd in X.CATALOG_COMMANDS:
            extra = (("--alpha", str(DEFORM_ALPHA), "--beta", str(DEFORM_BETA))
                     if cmd == "deform" else ())
            for source in (("--model", name), (str(path),)):
                argv = (cmd, *source, *extra, "--format", "json")
                requests.append((argv, cmd, name))
    return {"requests": requests}


def check_catalog(cmd: str, name: str | None, out: dict) -> list[str]:
    code = out.get("exit_code")
    data = out.get("data") or {}
    if cmd == "models":
        return (_differs("exit", code, 0)
                + _differs("models", sorted(data.get("models", {})),
                           sorted(X.CATALOG)))
    exp = X.CATALOG[name]
    if exp is None:
        return _differs("exit", code, X.PRINTED_EXIT[cmd])
    cls, theorem, deformed = exp
    bad = _differs("exit", code, 0)
    if cmd == "classify":
        bad += _differs("class", data.get("classification"), cls)
    elif cmd == "theorem":
        bad += _differs("theorem", data.get("theorem_status"), theorem)
    elif cmd == "deform":
        bad += _differs("deformed class", data.get("deformed_classification"),
                        deformed)
    return bad


class InputRejected(Exception):
    """A request that ppst answered with exit code 2."""


def pass_catalog(ppst, state: dict, rng: random.Random, rec: Recorder) -> None:
    requests = list(state["requests"])
    rng.shuffle(requests)
    for argv, cmd, name in requests:
        def call(argv=argv):
            report = ppst.cli.run_command(argv)
            text = report.render("json")
            if report.exit_code == 2:
                raise InputRejected(report.error)
            return text

        with rec.request():
            text = rec.op(" ".join(argv), call)
        if text is not None:
            bad = check_catalog(cmd, name, json.loads(text))
            if bad:
                rec.mismatch(" ".join(argv), bad)


# ---------------------------------------------------------------------------
# frame-highdim and chart-gcd: the full pipeline on one structure


def pipeline(ppst, label: str, text: str, cls: str, deformed_cls: str,
             rec: Recorder) -> None:
    s = rec.op(f"{label} load", lambda: ppst.import_text(text))
    if s is None:
        return
    dim = s.model.dim
    params = ppst.DeformationParams(DEFORM_ALPHA, DEFORM_BETA)
    rec.op(f"{label} connection", lambda: s.connection)
    rec.op(f"{label} curvature", lambda: s.curvature)
    rec.op(f"{label} axioms", s.axiom_report,
           lambda r: _differs("axioms passed", r.passed, True))
    rec.op(f"{label} classify", s.classification,
           lambda c: _differs("class", c.label, cls))
    rec.op(f"{label} phi-basis", lambda: s.phi_basis,
           lambda b: _differs("basis size", len(b), dim))
    rec.op(f"{label} identities", lambda: ppst.run_suite(s),
           lambda r: (_differs("identities", len(r.results), X.IDENTITY_COUNT)
                      + _differs("identities failed",
                                 [k for k, v in r.results.items()
                                  if not v.passed], [])))
    rec.op(f"{label} theorem",
           lambda: ppst.check_constant_curvature_theorem(s),
           lambda r: _differs("theorem", r.status, X.PIPELINE_THEOREM))
    rec.op(f"{label} deformation laws",
           lambda: ppst.verify_deformation_relations(s, params),
           lambda r: _differs("laws passed",
                              sorted(k for k, v in r.results.items()
                                     if v.passed),
                              sorted(X.DEFORMATION_LAWS)))
    rec.op(f"{label} deformed classify",
           lambda: ppst.apply_deformation(s, params).classification(),
           lambda c: _differs("deformed class", c.label, deformed_cls))


def setup_frames(tiny: bool) -> dict:
    keys = ((3, -2), (3, 4)) if tiny else ((5, -2), (5, 4), (7, 4))
    return {"items": [(f"dim{d} c={c}", frame_spec(d, c)) + X.FRAMES[(d, c)]
                      for d, c in keys]}


def setup_charts(tiny: bool) -> dict:
    keys = ("1+z^2",) if tiny else tuple(X.CHARTS)
    return {"items": [(f"w={w}", chart_spec(w)) + X.CHARTS[w] for w in keys]}


def pass_pipeline(ppst, state: dict, rng: random.Random,
                  rec: Recorder) -> None:
    items = list(state["items"])
    rng.shuffle(items)
    for label, text, cls, deformed_cls in items:
        with rec.request():
            pipeline(ppst, label, text, cls, deformed_cls, rec)


# ---------------------------------------------------------------------------
# search


def setup_search(tiny: bool) -> dict:
    values = (0, 2) if tiny else SEARCH_VALUES
    allowed = set(values)
    hits = frozenset(h for h in X.SEARCH_HITS
                     if all(x in allowed for _, vec in h[0] for x in vec))
    return {"values": values, "hits": hits}


def pass_search(ppst, state: dict, rng: random.Random, rec: Recorder) -> None:
    values = list(state["values"])
    rng.shuffle(values)

    def check(found):
        got = {(h.brackets, h.K, h.lam) for h in found}
        state["found"] = state.get("found", 0) + len(found)
        missing = state["hits"] - got
        extra = got - state["hits"]
        return ([f"missing hit {h}" for h in sorted(missing)]
                + [f"unexpected hit {h}" for h in sorted(extra)])

    with rec.request():
        rec.op(f"search {values}",
               lambda: ppst.search_constant_negative_curvature(tuple(values)),
               check)


# ---------------------------------------------------------------------------


def setup(ppst, workload: str, workdir: Path, tiny: bool) -> dict:
    if workload == "catalog-cli":
        return setup_catalog(ppst, workdir, tiny)
    if workload == "frame-highdim":
        return setup_frames(tiny)
    if workload == "chart-gcd":
        return setup_charts(tiny)
    if workload == "search":
        return setup_search(tiny)
    raise ValueError(f"unknown workload {workload!r}")


PASSES = {
    "catalog-cli": pass_catalog,
    "frame-highdim": pass_pipeline,
    "chart-gcd": pass_pipeline,
    "search": pass_search,
}

# minimum passes of an untraced (--trace 0) run.  A catalog run holds two
# rounds (146 requests), so p90 has at least ten samples beyond it; a
# frame-highdim run holds two passes (six structures), since one pass alone
# takes most of the 20 s budget.
MIN_PASSES = {"catalog-cli": 2, "frame-highdim": 2, "chart-gcd": 1,
              "search": 1}
