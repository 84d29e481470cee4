"""Every name the benchmark's tracer wraps, and every public name, exists,
and the public names take exactly the defaulted parameters listed here.

The tracer reports a missing name as ``absent:`` instead of failing, so a
rename would silently drop a span; here it fails.  The tracer module is
only read: no wrapper is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
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


# every defaulted parameter of a function, __init__, classmethod or public
# method reachable from ppst.__all__: a new option or knob fails here until
# it is added to this list on purpose
DEFAULTED = [
    "AxiomReport.__init__(eigen_dims)", "AxiomReport.__init__(inertia)",
    "ChartModel.__init__(constraints)",
    "CheckResult.__init__(witness)", "CheckResult.__init__(details)",
    "Classification.__init__(witnesses)",
    "DeformationReport.__init__(results)",
    "FrameModel.__init__(brackets)",
    "ParacontactStructure.__init__(eta)",
    "ParacontactStructure.__init__(declared_frame)",
    "ParacontactStructure.__init__(name)",
    "RationalExpr.__init__(den)", "RationalExpr.constant(variables)",
    "Report.__init__(checks)", "Report.__init__(data)", "Report.__init__(error)",
    "SpecFileError.__init__(field)", "SpecFileError.__init__(line)",
    "StructureError.__init__(report)",
    "TheoremReport.__init__(assertions)", "TheoremReport.__init__(reason)",
    "search_constant_negative_curvature(values)",
]


def _public_callables(name, obj):
    if not inspect.isclass(obj):
        return [(name, obj)] if inspect.isfunction(obj) else []
    found = {}
    for cls in reversed(obj.__mro__):
        if cls.__module__.startswith("ppst"):
            for attr, raw in vars(cls).items():
                if ((attr == "__init__" or not attr.startswith("_"))
                        and (inspect.isfunction(raw) or isinstance(raw, classmethod))):
                    found[attr] = getattr(obj, attr)
    return [(f"{name}.{attr}", fn) for attr, fn in sorted(found.items())]


def test_defaulted_parameters_on_public_names():
    defaulted = [f"{qual}({p.name})"
                 for name in ppst.__all__
                 for qual, fn in _public_callables(name, getattr(ppst, name))
                 for p in inspect.signature(fn).parameters.values()
                 if p.default is not p.empty]
    assert defaulted == DEFAULTED
