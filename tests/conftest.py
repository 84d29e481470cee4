"""Shared pytest setup: helper-module imports, the package path of CLI
subprocesses, and the acceptance summary.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook prints them after the run so the pass/fail line for
every criterion is visible regardless of output capturing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import ppst

sys.path.insert(0, str(Path(__file__).parent))

# the CLI tests run ``python -m ppst.cli`` in a subprocess, which must import
# the same package as this process
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(ppst.__file__).parent.parent),
                os.environ.get("PYTHONPATH")) if p)

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
