"""Tests for constant-curvature analysis, the catalog, and the search."""

from __future__ import annotations

import functools
import importlib.util
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from _models import (
    chart_corrected,
    chart_printed,
    flat_cosymplectic,
    frame_example,
    negative_curvature_frame,
)
from ppst import spaceforms, structures
from ppst.deformation import (
    DeformationParams,
    apply_deformation,
    proportionality_constant,
)
from ppst.models import ChartModel, FrameModel, GeometryError, TensorField
from ppst.spaceforms import (
    SearchHit,
    check_constant_curvature_theorem,
    constant_curvature_of,
    get_model,
    model_catalog,
    search_constant_negative_curvature,
)
from ppst.specfile import export_text
from ppst.structures import ParacontactStructure, StructureError

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.py"


# -- constant curvature -------------------------------------------------------

def test_constant_curvature_values():
    assert constant_curvature_of(negative_curvature_frame()) == -1
    assert constant_curvature_of(flat_cosymplectic()) == 0
    assert constant_curvature_of(frame_example()) is None
    assert constant_curvature_of(chart_corrected()) is None


def test_constant_curvature_of_deformed_example():
    assert constant_curvature_of(get_model("parasasakian-deformed")) is None


def _curvature_stub(model, metric_rows, K, extra=()):
    """A stand-in structure with R(e_i,e_j)e_k = K(g_jk e_i - g_ik e_j),
    plus the (i, j, k, l) -> value entries of ``extra``."""
    d = model.dim
    g = TensorField.from_rows(model, (0, 2), metric_rows)
    rows, K, extra = g.rows(), model.scalar(K), dict(extra)
    R = TensorField(model, (1, 3), [
        K * ((rows[j][k] if l == i else 0) - (rows[i][k] if l == j else 0))
        + model.scalar(extra.get((i, j, k, l), 0))
        for l, k, i, j in product(range(d), repeat=4)])
    return SimpleNamespace(model=model, g=g, curvature=R)


def test_constant_curvature_of_none_paths():
    frame = FrameModel(("e1", "e2", "xi"), (1, -1, 1))
    chart = ChartModel(("x", "y", "z"))
    g = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    assert constant_curvature_of(_curvature_stub(frame, g, -1)) == -1
    assert constant_curvature_of(_curvature_stub(chart, g, 3)) == 3
    # no nonzero coefficient to read K off
    assert constant_curvature_of(_curvature_stub(frame, [[0] * 3] * 3, 0)) is None
    # a ratio that is not constant
    assert constant_curvature_of(_curvature_stub(chart, g, "x")) is None
    # R(e1,e1)e1 has no coefficient, and comes before the first nonzero one
    assert constant_curvature_of(
        _curvature_stub(frame, g, -1, {(0, 0, 0, 0): 1})) is None
    # after K = -1 is read off (e1,e2,e1,e2), a later coefficient breaks it
    assert constant_curvature_of(
        _curvature_stub(frame, g, -1, {(2, 1, 1, 2): 5})) is None
    assert constant_curvature_of(
        _curvature_stub(frame, g, -1, {(2, 2, 2, 2): 5})) is None


# -- theorem ------------------------------------------------------------------

def test_theorem_negative_curvature_all_assertions():
    report = check_constant_curvature_theorem(negative_curvature_frame())
    assert report.status == "pass"
    assert report.K == -1
    names = [a.name for a in report.assertions]
    assert names == ["K_nonpositive", "A_proportional_to_phi",
                     "K_equals_minus_lambda_squared", "trace_phi_A",
                     "ricci_form", "star_ricci_form", "shape_phi_pairing",
                     "homothetic_origin_recovered"]
    assert all(a.passed for a in report.assertions)
    lam_assert = report.assertions[1]
    assert lam_assert.witness == "lambda = 1"


def test_theorem_flat_branch():
    report = check_constant_curvature_theorem(flat_cosymplectic())
    assert report.status == "pass"
    assert report.K == 0
    names = [a.name for a in report.assertions]
    assert names == ["K_nonpositive", "A_vanishes", "nabla_phi_vanishes",
                     "paracosymplectic"]
    assert all(a.passed for a in report.assertions)


def test_theorem_not_applicable_non_constant():
    report = check_constant_curvature_theorem(frame_example())
    assert report.status == "not-applicable"
    assert report.quasi_para_sasakian
    assert report.K is None
    assert report.reason == "hypotheses not met: not of constant curvature"
    assert report.assertions == []


def test_theorem_not_applicable_non_qps():
    model = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(1, 2): (0, 1, 0)})
    phi = TensorField.from_rows(model, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(model, (0, 0, 1))
    s = ParacontactStructure(model, phi, xi, model.orthonormal_metric())
    report = check_constant_curvature_theorem(s)
    assert report.status == "not-applicable"
    assert not report.quasi_para_sasakian
    assert "not quasi-para-Sasakian" in report.reason


def test_theorem_raises_on_axiom_failure():
    with pytest.raises(StructureError):
        check_constant_curvature_theorem(chart_printed())


def test_theorem_violation_branch(monkeypatch):
    # A positive constant K cannot coexist with the hypotheses, so the
    # violation branch is exercised by stubbing the curvature extraction.
    monkeypatch.setattr(spaceforms, "constant_curvature_of",
                        lambda s: Fraction(1))
    report = check_constant_curvature_theorem(frame_example())
    assert report.status == "violation"
    assert report.assertions[0].name == "K_nonpositive"
    assert not report.assertions[0].passed
    assert report.assertions[0].witness == "K = 1 > 0"


def test_theorem_residual_witnesses():
    s = negative_curvature_frame()
    S, r = s.ricci
    s.ricci = S + TensorField.from_rows(
        s.model, (0, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]]), r
    report = check_constant_curvature_theorem(s)
    assert report.status == "violation"
    failed = [(a.name, a.witness) for a in report.assertions if not a.passed]
    assert failed == [("ricci_form", "residual at (e1,e2): 1")]
    # the K = 0 branch reads the tensor residual A itself
    s = flat_cosymplectic()
    s.A = TensorField.from_rows(
        s.model, (1, 1), [[0, 0, 0], [0, 0, "y"], [0, 0, 0]])
    report = check_constant_curvature_theorem(s)
    failed = [(a.name, a.witness) for a in report.assertions if not a.passed]
    assert failed == [("A_vanishes", "residual at (d/dy,d/dz): y")]


# -- catalog ------------------------------------------------------------------

def test_catalog_names_and_order():
    names = [e.name for e in model_catalog()]
    assert names == ["flat-paracosymplectic", "example-frame",
                     "example-chart-printed", "example-chart-corrected",
                     "parasasakian-deformed", "constant-negative-curvature"]


def test_catalog_expected_classes():
    for entry in model_catalog():
        s = entry.build()
        if entry.known_inconsistent:
            assert not s.axiom_report().passed
            continue
        assert s.axiom_report().passed, entry.name
        assert s.classification().label == entry.expected_class, entry.name


def test_catalog_matches_reference_constructions():
    """Each shipped spec is, byte for byte, the export of an independent
    construction; the deformed entry is the deformation it describes."""
    deformed = apply_deformation(frame_example(), DeformationParams(-2, 4))
    deformed.name = "parasasakian-deformed"
    pairs = (
        ("flat-paracosymplectic", flat_cosymplectic()),
        ("example-frame", frame_example()),
        ("example-chart-printed", chart_printed()),
        ("example-chart-corrected", chart_corrected()),
        ("parasasakian-deformed", deformed),
        ("constant-negative-curvature", negative_curvature_frame()),
    )
    for name, ref in pairs:
        shipped = (spaceforms.CATALOG_DIR / f"{name}.spec").read_bytes()
        assert shipped == export_text(ref).encode("utf-8"), name


def test_catalog_files_are_shipped_and_read_on_demand():
    shipped = sorted(p.name for p in spaceforms.CATALOG_DIR.iterdir())
    assert shipped == sorted(f"{e.name}.spec" for e in model_catalog())
    if sys.version_info >= (3, 11):  # no tomllib on 3.10
        import tomllib
        config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml")
                               .read_text(encoding="utf-8"))
        package_data = config["tool"]["setuptools"]["package-data"]["ppst"]
        assert "catalog/*.spec" in package_data
    # importing the CLI opens no catalog file; listing the catalog opens
    # each shipped file
    probe = (
        "import sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open'"
        f" and str(args[0]).startswith({str(spaceforms.CATALOG_DIR)!r})"
        " and opened.append(args[0]))\n"
        "import ppst.cli\n"
        "print(len(opened))\n"
        "ppst.cli.run_command(['models', '--format', 'json'])\n"
        "print(len(opened))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0", str(len(model_catalog()))]


def test_get_model_unknown():
    with pytest.raises(KeyError) as err:
        get_model("nope")
    assert "available" in str(err.value)


def test_deformed_catalog_entry():
    s = get_model("parasasakian-deformed")
    assert s.name == "parasasakian-deformed"
    assert s.classification().label == "para-Sasakian"
    assert s.g.rows()[0][0] == 4


# -- search -------------------------------------------------------------------

def test_search_default_grid():
    hits = search_constant_negative_curvature()
    assert len(hits) == 6
    assert all(h.K == -1 for h in hits)
    assert all(h.lam in (1, -1) for h in hits)
    target = (((0, 1), (Fraction(0), Fraction(2), Fraction(2))),)
    assert any(h.brackets == target for h in hits)


@functools.cache
def _brute_force_search(vals) -> list[SearchHit]:
    """The search written out over every table of vals^9 (vals distinct):
    kept when the frame model accepts it (Jacobi) and its standard
    structure has dPhi = 0, N1 = 0, K < 0 and A = lambda phi."""
    hits = []
    for table in product(product(vals, repeat=3), repeat=3):
        brackets = {pair: vec for pair, vec in zip(((0, 1), (0, 2), (1, 2)), table)
                    if any(vec)}
        try:
            s = spaceforms._standard_frame_structure(brackets)
        except GeometryError:
            continue
        if not s.dPhi.is_zero or not structures.nijenhuis_N1(s).is_zero:
            continue
        K = constant_curvature_of(s)
        if K is None or K >= 0:
            continue
        lam = proportionality_constant(s)
        if lam is not None:
            hits.append(SearchHit(tuple(sorted(brackets.items())), K, lam))
    return hits


@pytest.mark.parametrize("values, count", [
    ((0, 2), 2),
    ((2, 0, -2), 6),
    ((1, 2), 0),  # no zero: every table with N1 = dPhi = 0 has zero entries
    ((-1, 0, 1, 2), 8),
    ((Fraction(1, 2), 0, Fraction(-1, 2)), 6),
    ((2, 0, 2, -2), 6),  # a repeated value adds no table
], ids=["0,2", "2,0,-2", "1,2", "-1,0,1,2", "halves", "repeated"])
def test_search_matches_the_brute_force_reference(values, count):
    hits = search_constant_negative_curvature(values)
    values = tuple(dict.fromkeys(map(FrameModel.scalar, values)))
    reference = _brute_force_search(values)
    assert repr(hits) == repr(reference)
    assert len(hits) == count


def test_search_builds_33_structures_and_finds_the_expected_hits(monkeypatch):
    """The default grid, against the hits perfbench/expected.py derives by
    hand; only the kernel's survivors reach the N1 check."""
    spec = importlib.util.spec_from_file_location("_perfbench_expected", EXPECTED)
    expected = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(expected)
    calls = []

    def counted(s):
        calls.append(s)
        return structures.nijenhuis_N1(s)

    monkeypatch.setattr(spaceforms, "nijenhuis_N1", counted)
    hits = search_constant_negative_curvature()
    assert len(calls) == 33
    assert len(hits) == len(expected.SEARCH_HITS)
    assert {(h.brackets, h.K, h.lam) for h in hits} == expected.SEARCH_HITS


def _count_standard_structures(monkeypatch) -> list:
    """Record every structure the search module builds."""
    built = []

    def counted(brackets, name=None, _fn=spaceforms._standard_frame_structure):
        built.append(brackets)
        return _fn(brackets, name)

    monkeypatch.setattr(spaceforms, "_standard_frame_structure", counted)
    return built


def test_search_refuses_a_float_grid_value_before_building(monkeypatch):
    """A float would be converted exactly (0.1 as 3602879701896397/2^55),
    so the grid goes through the frame scalar rule and is refused."""
    built = _count_standard_structures(monkeypatch)
    with pytest.raises(GeometryError,
                       match="^scalars are exact rationals, got 0.1$"):
        search_constant_negative_curvature((0.1, 0))
    assert built == []


def test_search_builds_the_qps_kernel_once(monkeypatch):
    """After a first search, another builds one structure per kernel point
    (3^4 for a 4-dim kernel over three values) and none for the kernel."""
    search_constant_negative_curvature()
    built = _count_standard_structures(monkeypatch)
    search_constant_negative_curvature()
    assert len(built) == 81
    kernel = spaceforms._qps_kernel()
    assert kernel is spaceforms._qps_kernel()
    assert type(kernel) is tuple and len(kernel) == 4
    assert all(type(v) is tuple and len(v) == 9 for v in kernel)


def test_qps_kernel_is_not_built_at_import():
    probe = ("import ppst, ppst.cli\n"
             "from ppst import spaceforms\n"
             "print(spaceforms._qps_kernel.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0"]


def test_search_hit_build_roundtrip():
    hits = search_constant_negative_curvature()
    s = hits[0].build()
    assert s.axiom_report().passed
    assert s.classification().flags["quasi_para_sasakian"]
    assert constant_curvature_of(s) == hits[0].K
    report = check_constant_curvature_theorem(s)
    assert report.status == "pass"


def _count_curvature_calls(monkeypatch) -> dict[str, int]:
    """Count the structure's calls of riemann, ricci_scalar, star_ricci_scalar."""
    calls = dict.fromkeys(("riemann", "ricci_scalar", "star_ricci_scalar"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(structures, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(structures, name, counted)
    return calls


def test_search_computes_K_from_the_riemann_table_only(monkeypatch):
    calls = _count_curvature_calls(monkeypatch)
    hits = search_constant_negative_curvature()
    assert calls == {"riemann": 33, "ricci_scalar": 0, "star_ricci_scalar": 0}
    assert [(h.brackets, h.K, h.lam) for h in hits] == [
        ((((0, 1), (0, -2, -2)),), -1, -1),
        ((((0, 1), (0, -2, 2)),), -1, 1),
        ((((0, 1), (0, 0, -2)), ((0, 2), (0, -2, 0)), ((1, 2), (-2, 0, 0))),
         -1, -1),
        ((((0, 1), (0, 0, 2)), ((0, 2), (0, 2, 0)), ((1, 2), (2, 0, 0))),
         -1, 1),
        ((((0, 1), (0, 2, -2)),), -1, -1),
        ((((0, 1), (0, 2, 2)),), -1, 1),
    ]


def test_theorem_builds_the_riemann_table_once(monkeypatch):
    calls = _count_curvature_calls(monkeypatch)
    s = negative_curvature_frame()
    for _ in range(2):
        assert check_constant_curvature_theorem(s).status == "pass"
    assert calls == {"riemann": 1, "ricci_scalar": 1, "star_ricci_scalar": 1}
