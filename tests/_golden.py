"""Golden CLI reports: every command on every catalog model and spec input.

``render_all()`` runs ``ppst.cli.run_command`` for each golden argv and
renders the report in both formats.  Spec inputs live in ``tests/golden/``
and are passed by file name from inside that directory, so the ``file:``
source tag does not depend on where the suite runs.  They cover what no
dim-3 catalog model reaches: n = 2 frames (the pivoting in
``build_phi_basis``) and charts whose denominators are not monomials (the
GCD by trial division over factors sympy finds), one of them, 1+y^2+z,
in two variables.

Regenerate the committed goldens after an intended report change with

    PYTHONPATH=src python tests/_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ppst.cli import run_command
from ppst.spaceforms import model_catalog

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "reports.json"
SPECS = ("heisenberg5-c-2.spec", "heisenberg5-c4.spec", "chart-1+z2.spec",
         "chart-1+y2+z.spec")
COMMANDS = (("check",), ("classify",), ("curvature",), ("identities",),
            ("theorem",), ("deform", "--alpha", "-2", "--beta", "4"))
FORMATS = ("json", "text")


def golden_argvs() -> list[list[str]]:
    argvs = [["models"], ["check", "--model", "nope"]]
    for entry in model_catalog():
        argvs += [[cmd[0], "--model", entry.name, *cmd[1:]] for cmd in COMMANDS]
    for spec in SPECS:
        argvs += [[cmd[0], spec, *cmd[1:]] for cmd in COMMANDS]
    return argvs


def render_all() -> dict[str, str]:
    """Map "argv | format" to the rendered report, for every golden argv."""
    out = {}
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        for argv in golden_argvs():
            report = run_command(argv)
            for fmt in FORMATS:
                out[f"{' '.join(argv)} | {fmt}"] = report.render(fmt)
    finally:
        os.chdir(cwd)
    return out


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps(render_all(), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")
