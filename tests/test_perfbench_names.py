"""Every name the benchmark's tracer wraps, and every public name, exists.

The tracer reports a missing name as ``absent:`` instead of failing, so a
rename would silently drop a span; here it fails.  The tracer module is
only read: no wrapper is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import ppst

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
TRACED = ([(name, module, attr) for name, (module, attr) in _T.SPANS.items()]
          + [(name, module, attr)
             for name, (module, attr, _) in _T.COUNTERS.items()])


@pytest.mark.parametrize("name, module, attr", TRACED,
                         ids=[name for name, _, _ in TRACED])
def test_traced_name_resolves(name, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_public_names_resolve():
    missing = [name for name in ppst.__all__ if not hasattr(ppst, name)]
    assert missing == []
