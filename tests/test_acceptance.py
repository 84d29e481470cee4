"""Acceptance gate: one test per criterion, one summary line each.

Each test runs a complete end-to-end scenario against exact expected
values and records an ``ACCEPT C<n>: pass/fail`` line that the conftest
terminal-summary hook prints after the run.  A final guard asserts the
whole module stays inside its wall-clock budget.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product

import jsonschema

import conftest
from ppst.cli import run_command
from ppst.deformation import (
    DeformationParams,
    apply_deformation,
    detect_homothetic_origin,
    verify_deformation_relations,
)
from ppst.expr import RationalExpr
from ppst.identities import IDENTITY_KEYS, run_suite
from ppst.models import exterior_derivative
from ppst.curvature import (
    covariant_derivative,
    curvature_antisymmetry_residual,
    first_bianchi_residual,
    torsion_residual,
)
from ppst.parser import parse_expr
from ppst.spaceforms import (
    check_constant_curvature_theorem,
    get_model,
    model_catalog,
    search_constant_negative_curvature,
)
from ppst.specfile import export_text, import_text

from _gen import VARS, random_expr

_T0 = time.monotonic()
_BUDGET_SECONDS = 60.0


@contextmanager
def _criterion(number: int, summary: str):
    tag = f"C{number}"
    try:
        yield
    except BaseException as exc:
        line = f"ACCEPT {tag}: fail - {summary}: {exc}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"ACCEPT {tag}: pass - {summary}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@lru_cache(maxsize=None)
def _model(name: str):
    return get_model(name)


# frozen exact tables for example-frame: nabla_{e_i} e_j and R(e_i,e_j)e_k
CONNECTION_TABLE = {
    (0, 0): (0, 0, 0), (0, 1): (0, 0, 2), (0, 2): (0, 2, 0),
    (1, 0): (0, 0, -2), (1, 1): (0, 0, 0), (1, 2): (2, 0, 0),
    (2, 0): (0, 2, 0), (2, 1): (2, 0, 0), (2, 2): (0, 0, 0),
}
CURVATURE_TABLE = {
    (0, 1, 0): (0, -12, 0), (0, 1, 1): (-12, 0, 0), (0, 1, 2): (0, 0, 0),
    (0, 2, 0): (0, 0, 4), (0, 2, 1): (0, 0, 0), (0, 2, 2): (-4, 0, 0),
    (1, 2, 0): (0, 0, 0), (1, 2, 1): (0, 0, -4), (1, 2, 2): (0, -4, 0),
}


def _traces(s) -> tuple[RationalExpr, RationalExpr]:
    d = s.model.dim
    a_rows = s.A.rows()
    phi_rows = s.phi.rows()
    tr_phi_a = 0
    tr_a_sq = 0
    for k, m in product(range(d), repeat=2):
        tr_phi_a = tr_phi_a + phi_rows[k][m] * a_rows[m][k]
        tr_a_sq = tr_a_sq + a_rows[k][m] * a_rows[m][k]
    return tr_phi_a, tr_a_sq


def test_criterion_01_connection_table():
    with _criterion(1, "all nine frame connection entries match exactly"):
        s = _model("example-frame")
        conn = s.connection
        for (i, j), expected in CONNECTION_TABLE.items():
            got = conn.vector_at(i, j)
            want = tuple(s.model.scalar(c) for c in expected)
            assert got == want, f"nabla entry {(i, j)}: {got}"


def test_criterion_02_curvature_table():
    with _criterion(2, "all nine frame curvature entries match exactly"):
        s = _model("example-frame")
        curv = s.curvature
        for (i, j, k), expected in CURVATURE_TABLE.items():
            got = curv.vector_at(k, i, j)
            want = tuple(s.model.scalar(c) for c in expected)
            assert got == want, f"curvature entry {(i, j, k)}: {got}"


def test_criterion_03_scalar_curvature_both_models():
    with _criterion(3, "scalar curvature r = 8 in frame and chart mode"):
        for name in ("example-frame", "example-chart-corrected"):
            r = _model(name).ricci[1]
            assert r == 8, f"{name}: r = {r}"


def test_criterion_04_ricci_and_star_traces():
    with _criterion(4, "S(xi,xi) = -8 = -tr A^2, S*(e1,e1) = -12, "
                       "r* = -24, tr(phi A) = 4, r* + r = -16"):
        s = _model("example-frame")
        (ricci, r), (star, r_star) = s.ricci, s.star_ricci
        ricci, star = ricci.rows(), star.rows()
        tr_phi_a, tr_a_sq = _traces(s)
        assert ricci[2][2] == -8
        assert tr_a_sq == 8
        assert star[0][0] == -12
        assert r_star == -24
        assert tr_phi_a == 4
        rsum = r_star + r
        assert rsum == -16
        assert rsum == -(tr_phi_a ** 2)


def test_criterion_05_identity_suite_on_four_models():
    with _criterion(5, "all 15 identities hold symbolically on four models"):
        names = ("example-frame", "example-chart-corrected",
                 "flat-paracosymplectic", "parasasakian-deformed")
        for name in names:
            report = run_suite(_model(name))
            assert set(report.results) == set(IDENTITY_KEYS)
            bad = [k for k, r in report.results.items() if not r.passed]
            assert not bad, f"{name}: failing identities {bad}"


def test_criterion_06_printed_chart_detected_with_witnesses():
    with _criterion(6, "inconsistent printed chart rejected with eta and "
                       "frame witnesses"):
        report = _model("example-chart-printed").axiom_report()
        assert not report.passed
        witnesses = " | ".join(c.witness or "" for c in report.failures())
        assert "eta != g(.,xi)" in witnesses
        assert "g(e1,e1) = 28*y^2 + 1" in witnesses


def test_criterion_07_deformation_laws_random_and_homothetic():
    with _criterion(7, "deformation laws hold for random parameters and "
                       "homothetic pairs leave the curvature unchanged"):
        s = _model("example-frame")
        rng = random.Random(11082025)
        pairs = []
        while len(pairs) < 3:
            alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            beta = Fraction(rng.randint(1, 8), rng.randint(1, 3))
            if alpha != 0 and alpha * alpha != beta:
                pairs.append(DeformationParams(alpha, beta))
        alpha = Fraction(rng.randint(1, 5), rng.randint(1, 2))
        pairs.append(DeformationParams(alpha, alpha * alpha))
        assert pairs[-1].homothetic
        for params in pairs:
            report = verify_deformation_relations(s, params)
            bad = [k for k, r in report.results.items() if not r.passed]
            assert not bad, f"{params}: failing relations {bad}"
        homothetic = apply_deformation(s, pairs[-1])
        assert homothetic.curvature.data == s.curvature.data


def test_criterion_08_homothetic_origin_detection():
    with _criterion(8, "lambda = 2 detected; recovered parameters yield a "
                       "para-Sasakian structure; flat model yields none"):
        found = detect_homothetic_origin(_model("example-frame"))
        assert found is not None
        lam, params = found
        assert lam == 2
        assert (params.alpha, params.beta) == (Fraction(-2), Fraction(4))
        recovered = apply_deformation(_model("example-frame"), params)
        assert recovered.classification().label == "para-Sasakian"
        assert detect_homothetic_origin(_model("flat-paracosymplectic")) is None


def test_criterion_09_constant_curvature_theorem_branches():
    with _criterion(9, "theorem branches: K = 0 forces paracosymplectic, "
                       "non-constant reported, searched K < 0 model passes "
                       "every assertion"):
        flat = check_constant_curvature_theorem(_model("flat-paracosymplectic"))
        assert flat.status == "pass" and flat.K == 0
        flat_names = {a.name for a in flat.assertions}
        assert {"A_vanishes", "nabla_phi_vanishes",
                "paracosymplectic"} <= flat_names

        frame = check_constant_curvature_theorem(_model("example-frame"))
        assert frame.status == "not-applicable"
        assert "hypotheses not met" in frame.reason
        assert "not of constant curvature" in frame.reason

        hits = search_constant_negative_curvature()
        assert hits, "search produced no constant negative curvature model"
        witness = hits[0].build()
        report = check_constant_curvature_theorem(witness)
        assert report.status == "pass" and report.K < 0
        names = {a.name for a in report.assertions if a.passed}
        assert {"A_proportional_to_phi", "K_equals_minus_lambda_squared",
                "trace_phi_A", "ricci_form", "star_ricci_form",
                "shape_phi_pairing", "homothetic_origin_recovered"} <= names


def test_criterion_10_property_suites():
    with _criterion(10, "1000-case expression sweep plus catalog-wide "
                        "connection, curvature, d^2 = 0 and classification "
                        "properties"):
        rng = random.Random(20260825)
        cases = 0
        for _ in range(400):
            a, b, c = (random_expr(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero
            cases += 1
        for _ in range(300):
            a, b = random_expr(rng), random_expr(rng)
            var = rng.choice(VARS)
            da, db = a.derivative(var), b.derivative(var)
            assert (a * b).derivative(var) == da * b + a * db
            cases += 1
        for _ in range(300):
            e = random_expr(rng)
            assert parse_expr(str(e), VARS) == e
            cases += 1
        assert cases == 1000

        for entry in model_catalog():
            s = _model(entry.name)
            conn = s.connection
            curv = s.curvature
            assert torsion_residual(conn).is_zero, entry.name
            assert covariant_derivative(s.g, conn).is_zero, entry.name
            assert curvature_antisymmetry_residual(curv).is_zero, entry.name
            assert first_bianchi_residual(curv).is_zero, entry.name
            assert exterior_derivative(exterior_derivative(s.eta)).is_zero
            if entry.known_inconsistent:
                continue
            flags = s.classification().flags
            assert s.classification().label == entry.expected_class
            if flags["para_sasakian"]:
                assert flags["normal"] and flags["paracontact_metric"]
                assert flags["K_paracontact"] and flags["quasi_para_sasakian"]
            if flags["paracosymplectic"]:
                assert flags["quasi_para_sasakian"]
                assert not flags["paracontact_metric"]
            if flags["proper_quasi_para_sasakian"]:
                assert flags["quasi_para_sasakian"]
                assert not flags["para_sasakian"]
                assert not flags["paracosymplectic"]


def test_criterion_11_cli_examples_and_round_trip(tmp_path):
    with _criterion(11, "CLI curvature/check/deform examples behave as "
                        "documented and catalog specs round-trip"):
        schema = json.loads(
            (resources.files("ppst") / "schema" / "report-v1.json").read_text())

        report = run_command(["curvature", "--model", "example-frame",
                              "--format", "json"])
        payload = json.loads(report.to_json())
        jsonschema.validate(payload, schema)
        assert payload["exit_code"] == 0
        assert payload["data"]["r"] == "8"
        assert payload["data"]["curvature"]["R(e1,e2)e2"] == "-12*e1"

        report = run_command(["check", "--model", "example-chart-printed"])
        assert report.exit_code == 1
        assert "eta != g(.,xi)" in report.to_text()

        out = tmp_path / "out.spec"
        report = run_command(["deform", "--model", "example-frame",
                              "--alpha", "-2", "--beta", "4", "-o", str(out)])
        assert report.exit_code == 0
        report = run_command(["classify", str(out)])
        assert report.exit_code == 0
        assert report.data["classification"] == "para-Sasakian"

        for entry in model_catalog():
            text = export_text(_model(entry.name))
            assert export_text(import_text(text)) == text, entry.name


def test_runtime_budget():
    elapsed = time.monotonic() - _T0
    line = (f"ACCEPT runtime: "
            f"{'pass' if elapsed < _BUDGET_SECONDS else 'fail'} - "
            f"acceptance module finished in {elapsed:.1f}s "
            f"(budget {_BUDGET_SECONDS:.0f}s)")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert elapsed < _BUDGET_SECONDS, line
