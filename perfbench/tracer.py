"""In-memory spans around every call into each ppst module (traced run only).

The benchmark installs wrappers on public names of the program; the program
itself is not changed.  A wrapper replaces every reference to the function
in the ppst modules (``from .x import f`` copies a reference), so calls made
from inside ppst are traced too.

Two kinds of wrapper:

* spans, at module boundaries: name, start, end and parent id are kept in
  memory and written out at the end;
* counters, on hot private functions (``expr._canonical``,
  ``expr._poly_gcd``, ``spaceforms.nijenhuis_N1``), which run up to a few
  hundred thousand times a pass: they keep a call count, total and self time
  and take part in the span stack (their time is subtracted from the
  caller's self time), but keep no per-call record.

Self time is a span's duration minus the time its child spans and counters
cover.  Total time counts only the outermost call of a name, so recursion
is not counted twice.  A name that no longer exists is reported as absent
instead of failing.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); the span name is the metric prefix
SPANS = {
    "curvature.metric_inverse": ("ppst.curvature", "metric_inverse"),
    "curvature.levi_civita": ("ppst.curvature", "levi_civita"),
    "curvature.riemann": ("ppst.curvature", "riemann"),
    "curvature.ricci": ("ppst.curvature", "ricci_scalar"),
    "curvature.star_ricci": ("ppst.curvature", "star_ricci_scalar"),
    "structures.validate": ("ppst.structures", "validate_structure"),
    "structures.classify": ("ppst.structures", "classify"),
    "structures.phi_basis": ("ppst.structures", "build_phi_basis"),
    "identities.run_suite": ("ppst.identities", "run_suite"),
    "deformation.apply": ("ppst.deformation", "apply_deformation"),
    "deformation.verify": ("ppst.deformation", "verify_deformation_relations"),
    "spaceforms.theorem": ("ppst.spaceforms",
                           "check_constant_curvature_theorem"),
    "spaceforms.search": ("ppst.spaceforms",
                          "search_constant_negative_curvature"),
    "specfile.import_text": ("ppst.specfile", "import_text"),
    "specfile.export_text": ("ppst.specfile", "export_text"),
    "report.render": ("ppst.report", "Report.render"),
    "cli.run_command": ("ppst.cli", "run_command"),
}

# counter name -> (module, attribute, replace every reference?)
COUNTERS = {
    "expr.canonical": ("ppst.expr", "_canonical", True),
    "expr.poly_gcd": ("ppst.expr", "_poly_gcd", True),
    # only the search's own reference: the lazy N1 property of a structure
    # goes through ppst.structures and is not counted
    "spaceforms.nijenhuis_N1": ("ppst.spaceforms", "nijenhuis_N1", False),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.stack: list[list] = []     # [span id or None, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._next_id = 0

    def _wrap(self, name: str, fn, keep_span: bool):
        stack, calls, total = self.stack, self.calls, self.total
        self_time, depth, spans = self.self_time, self.depth, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = None
            frame = [span_id, 0.0]
            depth[name] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = t1 - t0
                calls[name] += 1
                self_time[name] += duration - frame[1]
                if not depth[name]:
                    total[name] += duration
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    parent = next((f[0] for f in reversed(stack)
                                   if f[0] is not None), None)
                    spans.append((span_id, name, parent, t0, t1))

        return traced

    def install(self) -> None:
        """Wrap every name in SPANS and COUNTERS that exists."""
        for name, (module, attr) in SPANS.items():
            self._install(name, module, attr, keep_span=True, everywhere=True)
        for name, (module, attr, everywhere) in COUNTERS.items():
            self._install(name, module, attr, keep_span=False,
                          everywhere=everywhere)

    def _install(self, name, module, attr, keep_span, everywhere) -> None:
        owner = sys.modules.get(module)
        cls_name, _, attr = attr.rpartition(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original, keep_span)
        if cls_name or not everywhere:
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ppst" or mod_name.startswith("ppst."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        """Write every recorded span and the counters as JSON."""
        data = {
            "spans": [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                      for i, n, p, s, e in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
