"""Model and differential-operator tests."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

import pytest
from sympy.polys.rings import PolyElement

from _models import (
    GOLDEN,
    GOLDEN_FIELDS,
    chart_corrected,
    feed,
    golden_structure,
    negative_curvature_frame,
)
from ppst import expr, linalg
from ppst.deformation import (
    DeformationParams,
    apply_deformation,
    verify_deformation_relations,
)
from ppst.expr import RationalExpr
from ppst.identities import run_suite
from ppst.models import (
    ChartModel,
    FrameModel,
    GeometryError,
    TensorField,
    _apply_vec,
    _bracket_comps,
    _derivation,
    constant_ratio,
    constant_value,
    exterior_derivative,
    lie_bracket,
    lie_derivative,
    realize_frame,
)
from ppst.parser import parse_expr
from ppst.report import first_nonzero
from ppst.spaceforms import (
    check_constant_curvature_theorem,
    get_model,
    model_catalog,
    search_constant_negative_curvature,
)
from ppst.specfile import import_text
from ppst.structures import ParacontactStructure

# sympy factorizations an import of chart-1+z2 and its pipeline make
FACTORIZATIONS = 1


def chart3() -> ChartModel:
    return ChartModel(("x", "y", "z"), constraints=("z",))


def example_frame() -> FrameModel:
    return FrameModel(("e1", "e2", "xi"), (1, -1, 1), {(0, 1): (0, 0, 4)})


# -- model construction ------------------------------------------------------

def test_dimension_must_be_odd():
    with pytest.raises(GeometryError):
        ChartModel(("x", "y"))
    with pytest.raises(GeometryError):
        FrameModel(("a", "b", "c", "d"), (1, 1, -1, -1), {})


def test_signature_counts_enforced():
    with pytest.raises(GeometryError):
        FrameModel(("a", "b", "c"), (1, 1, 1), {})


def test_bracket_antisymmetry_is_built_in():
    m = example_frame()
    assert m.bracket_vector(1, 0) == tuple(-c for c in m.bracket_vector(0, 1))
    assert all(c == 0 for c in m.bracket_vector(2, 2))


def test_jacobi_violation_rejected():
    # [a,b] = c, [a,c] = b is fine; adding [b,c] = b breaks Jacobi
    FrameModel(("a", "b", "c"), (1, 1, -1), {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0)})
    with pytest.raises(GeometryError):
        FrameModel(("a", "b", "c"), (1, 1, -1),
                   {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0), (1, 2): (0, 1, 0)})


def test_jacobi_violation_message_names_the_triple():
    # a dim-5 table that breaks Jacobi on (e2, e3, e4) and nowhere before it
    labels = ("e1", "e2", "e3", "e4", "xi")
    brackets = {(1, 2): (0, 0, 0, 1, 0), (1, 3): (0, 0, 1, 0, 0),
                (2, 3): (0, 0, 1, 0, 0)}
    with pytest.raises(GeometryError) as info:
        FrameModel(labels, (1, 1, -1, -1, 1), brackets)
    assert str(info.value) == ("bracket table violates the Jacobi identity "
                               "at (e2,e3,e4)")


def test_scalar_coercion():
    m = chart3()
    assert m.scalar("4*y/z") == m.scalar(4) * m.scalar("y") / m.scalar("z")
    f = FrameModel(("e1", "e2", "xi"), (1, -1, 1), {})
    assert f.scalar("-1/2") == Fraction(-1, 2)
    with pytest.raises(GeometryError):
        f.scalar(m.scalar("y"))


def _stored_rational(c) -> bool:
    """How a rational is stored, as a frame scalar or a chart coefficient: an
    int (not a bool) when integral, else a Fraction with denominator != 1;
    never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _is_int_zero(x) -> bool:
    return type(x) is int and x == 0


def test_frame_scalars_are_int_or_fraction():
    f = example_frame()
    for value in (3, "3", Fraction(3), RationalExpr.constant(3, ("x",))):
        assert type(f.scalar(value)) is int and f.scalar(value) == 3
    assert type(f.scalar(True)) is int and f.scalar(True) == 1
    for value in ("-1/2", Fraction(-1, 2),
                  RationalExpr.constant(Fraction(-1, 2), ("x",))):
        assert type(f.scalar(value)) is Fraction and f.scalar(value) == Fraction(-1, 2)
    with pytest.raises(GeometryError, match="exact rationals"):
        f.scalar(0.5)
    assert all(type(c) is int for c in f.bracket_vector(1, 0))
    assert all(type(c) is int for c in f.orthonormal_metric().data)


def test_chart_scalars_take_the_frame_rule_for_constants():
    """A chart stores a constant value (an int, a Fraction, a constant
    string or a constant RationalExpr) as a frame does, and keeps only a
    non-constant value as a RationalExpr on its coordinates.  Its
    constraints stay RationalExprs.  sign and defined_on_domain answer a
    plain number as a frame does."""
    m = ChartModel(("x", "y", "z"), constraints=("2", "x"))
    for value in (3, "3", "6/2", Fraction(3), RationalExpr.constant(3, ("x", "y", "z")),
                  parse_expr("(3*x)/x", ("x", "y", "z"))):
        assert type(m.scalar(value)) is int and m.scalar(value) == 3
    for value in ("-1/2", Fraction(-1, 2),
                  RationalExpr.constant(Fraction(-1, 2), ("x", "y", "z"))):
        assert type(m.scalar(value)) is Fraction and m.scalar(value) == Fraction(-1, 2)
    x = m.scalar("x/(1 + z^2)")
    assert isinstance(x, RationalExpr) and x.variables is m.coordinates
    with pytest.raises(GeometryError, match="wrong variables"):
        m.scalar(RationalExpr.constant(3, ("u", "v", "w")))
    assert all(isinstance(c, RationalExpr) and c.variables is m.coordinates
               for c in m.constraints)
    assert [str(c) for c in m.constraints] == ["2", "x"]
    assert [m.sign(v) for v in (3, Fraction(-1, 2))] == [1, -1]
    assert m.defined_on_domain(Fraction(1, 2)) and m.defined_on_domain(0)


def test_float_refused_on_both_fields():
    """A float would be rounded, so a chart and a frame both refuse it, as
    a scalar and as the entry of a tensor field, with one message."""
    chart, frame = ChartModel(("x", "y", "z")), example_frame()
    for model in (chart, frame):
        with pytest.raises(GeometryError,
                           match="^scalars are exact rationals, got 0.5$"):
            model.scalar(0.5)
        with pytest.raises(GeometryError,
                           match="^scalars are exact rationals, got 0.5$"):
            TensorField.vector(model, (0.5, 0, 1))
    with pytest.raises(GeometryError, match="exact rationals"):
        ChartModel(("x", "y", "z"), constraints=(0.5,))


def _count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Count calls of expr._canonical and expr._poly_gcd from now on."""
    calls = {"_canonical": 0, "_poly_gcd": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(expr, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(expr, name, counted)
    return calls


def _count_factorizations(monkeypatch) -> list[int]:
    """Count the factorizations sympy runs from now on."""
    count = [0]

    def factor_list(self, _fn=PolyElement.factor_list):
        count[0] += 1
        return _fn(self)
    monkeypatch.setattr(PolyElement, "factor_list", factor_list)
    return count


def _run_pipeline(s):
    """Connection, curvature, classification, identities, theorem,
    deformation; returns the scalar curvature r."""
    s.connection
    s.curvature
    assert s.classification().label == "proper quasi-para-Sasakian"
    assert run_suite(s).passed
    check_constant_curvature_theorem(s)
    assert verify_deformation_relations(s, DeformationParams(-2, 4)).passed
    return s.ricci[1]


def test_frame_pipeline_builds_no_rational_function(monkeypatch):
    """Past parsing, a frame structure never enters the RationalExpr kernel."""
    s = import_text((GOLDEN / "heisenberg5-c4.spec").read_text(encoding="utf-8"))
    calls = _count_kernel_calls(monkeypatch)
    r = _run_pipeline(s)
    assert calls["_canonical"] == 0
    assert type(r) is int and r == 16


def test_frame_pipeline_skips_zero_terms(monkeypatch):
    """Per-component formulas go through the contraction kernel, which skips
    zero terms, and integral scalars are ints: the heisenberg5-c4 pipeline
    makes 33 Fraction + - * calls (27,846 when every term of every formula
    was summed and every scalar was a Fraction).  Its phi-basis is the
    frame itself, so the identity suite makes none; all 33 are in the
    deformation laws, where xi / alpha = -xi/2 and alpha / beta are not
    integral."""
    s = golden_structure("heisenberg5-c4.spec")
    calls = [0]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        def counted(a, b, _fn=getattr(Fraction, name)):
            calls[0] += 1
            return _fn(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    _run_pipeline(s)
    assert calls[0] <= 33


def test_identity_suite_on_an_orthonormal_frame_builds_no_fraction(
        monkeypatch):
    """heisenberg5-c4's phi-basis is its frame, whose columns are int unit
    vectors, so every contraction of the identity suite is int work, and
    the axioms evaluate its int entries as stored: run_suite on a fresh
    structure, classification included, constructs no Fraction."""
    s = golden_structure("heisenberg5-c4.spec")
    built = [0]

    def counted(cls, *args, _new=Fraction.__new__, **kwargs):
        built[0] += 1
        return _new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert run_suite(s).passed
    assert built[0] == 0


def test_chart_arithmetic_skips_provable_gcds(monkeypatch):
    """Negation, adding a polynomial and squaring reuse the canonical form."""
    e = parse_expr("(x + y)/(1 + y^2 + z)", ("x", "y", "z"))
    p = parse_expr("x^2 - z", ("x", "y", "z"))
    calls = _count_kernel_calls(monkeypatch)
    -e, e + p, e * e, e - p
    assert calls == {"_canonical": 0, "_poly_gcd": 0}


def test_polynomial_derivative_skips_canonical(monkeypatch):
    """d(n/1) = n'/1 is canonical as it stands."""
    p = parse_expr("x^2*y - 3*z + 1/2", ("x", "y", "z"))
    q = parse_expr("5", ("x", "y", "z"))
    calls = _count_kernel_calls(monkeypatch)
    dx, dy, dz = (p.derivative(v) for v in ("x", "y", "z"))
    dq = q.derivative("x")
    assert calls == {"_canonical": 0, "_poly_gcd": 0}
    assert (str(dx), str(dy), str(dz), str(dq)) == ("2*x*y", "x^2", "-3", "0")
    assert dq.is_zero and dq == parse_expr("0", ("x", "y", "z"))


def test_chart_pipeline_sympy_factorization_count(monkeypatch):
    """Pinned counts on the chart-1+z2 pipeline: the GCD reductions past the
    import, and the denominator leftovers that the import and the pipeline
    send to sympy to be factored."""
    factorizations = _count_factorizations(monkeypatch)
    s = import_text((GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8"))
    calls = _count_kernel_calls(monkeypatch)
    _run_pipeline(s)
    assert calls["_poly_gcd"] == 45
    assert factorizations == [FACTORIZATIONS]


def test_chart_pipeline_canonical_count(monkeypatch):
    """Pinned count of _canonical calls the chart-1+z2 pipeline makes.

    5 of them decide the axioms over the field: 1 in the congruence
    diagonalization of g and 4 in the nullspaces of phi -+ Id."""
    s = golden_structure("chart-1+z2.spec")
    calls = _count_kernel_calls(monkeypatch)
    _run_pipeline(s)
    assert calls["_canonical"] == 201


def test_chart_pipeline_op_memo_misses():
    """Pinned count of the sums, products and partial derivatives of two
    RationalExprs the chart-1+z2 pipeline computes: each miss of the
    chart's op memo adds one entry, and every other operation is a hit.  A
    number operand takes a shortcut past the memo, and a constant is
    stored as a number.  A key that stopped hits (say one holding the
    operands themselves) would raise this count, and so would constants
    kept as RationalExprs (418 in a copy that keeps them).  The identity
    suite reads its phi-tables through the phi permutation instead of
    computing them at phi b_c (9 misses fewer), and a power starts from
    its first factor, not from the constant 1 (1 more): 307 before both."""
    s = golden_structure("chart-1+z2.spec")
    ops = s.model.coordinates.ops
    before = len(ops)
    _run_pipeline(s)
    assert len(ops) - before == 299


def test_chart_memo_is_per_chart(monkeypatch):
    """Each import of a chart computes, reduces and factors its values
    afresh: the second import's op memo holds only what its own import put
    there, and no process-wide reuse spares it any work.  A power's
    product starts from its first factor, not from the constant 1, so the
    import leaves 11 entries (14 with the products 1 * base)."""
    text = (GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8")
    calls = _count_kernel_calls(monkeypatch)
    factorizations = _count_factorizations(monkeypatch)
    counts, memos = [], []
    for _ in range(2):
        factorizations[0] = 0
        s = import_text(text)
        ops = s.model.coordinates.ops
        imported, before = len(ops), calls["_poly_gcd"]
        _run_pipeline(s)
        counts.append((imported, len(ops) - imported,
                       calls["_poly_gcd"] - before, factorizations[0]))
        memos.append(ops)
    assert counts == [(11, 299, 45, FACTORIZATIONS)] * 2
    assert memos[0] is not memos[1]


def test_coefficients_are_int_or_fraction_and_numbers_leave_as_fraction(
        monkeypatch):
    """An integral coefficient is stored as an int, any other as a Fraction
    with denominator != 1, and no coefficient is a float; constants and
    point values leave the kernel as Fraction.  A chart stores a constant
    as a frame does, by the same rule."""
    s = golden_structure("chart-1+z2.spec")
    built = []
    set_ = RationalExpr._set

    def recording(self, variables, num, den):
        built.append((num, den))
        set_(self, variables, num, den)
    monkeypatch.setattr(RationalExpr, "_set", recording)
    r = _run_pipeline(s)
    monkeypatch.undo()
    assert len(built) > 1000
    coefficients = [c for num, den in built for _, c in num + den]
    assert not [c for c in coefficients if not _stored_rational(c)]
    assert {int, Fraction} == set(map(type, coefficients))
    assert type(r) is int and r == 8
    assert type(s.g[(0, 2)].evaluate({"x": 1, "y": 3, "z": -2})) is Fraction
    assert type(s.g[(1, 1)]) is int and s.g[(1, 1)] == -1
    assert type(constant_value(s.g[(1, 1)])) is Fraction
    assert type(RationalExpr.constant(8, ("x",)).constant_value()) is Fraction
    assert type(RationalExpr.constant(0, ("x",)).constant_value()) is Fraction
    frame = golden_structure("heisenberg5-c4.spec").model
    assert all(_stored_rational(c) for c in frame.constants.data)
    assert type(constant_value(frame.scalar(1))) is Fraction


def test_no_frame_pipeline_stores_a_float_or_an_integral_fraction(monkeypatch):
    """Every component of every tensor field built on a frame pipeline
    (the metric inverse, connection and curvature tables among them), both
    scalar curvatures, and every entry of the eigendistribution bases the
    axioms compute, follows the int-or-Fraction rule: each division of two frame scalars is exact (``linalg.quotient``),
    so a bare / of two ints would show here as a float.  The pipelines are
    every frame the package ships or finds (the catalog frames, the dim-5
    goldens, the search hits), each also deformed."""
    seen = []

    def recording(cls, fields):
        init = cls.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if isinstance(self.model, FrameModel):
                seen.extend(fields(self))
        monkeypatch.setattr(cls, "__init__", recorded)
    recording(TensorField, lambda t: t.data)
    structures = [get_model(e.name) for e in model_catalog()]
    structures = [s for s in structures if isinstance(s.model, FrameModel)]
    structures += [golden_structure(f"heisenberg5-{c}.spec") for c in ("c4", "c-2")]
    hits = search_constant_negative_curvature()
    structures += [h.build() for h in hits]
    assert len(structures) == 3 + 2 + 6
    params = DeformationParams(-2, 4)
    for s in structures:
        for t in (s, apply_deformation(s, params)):
            t.classification()
            seen.extend(x for basis in t.eigenspaces for v in basis for x in v)
            t.phi_basis
            run_suite(t)
            check_constant_curvature_theorem(t)
            tables = (t.metric_inverse, t.connection, t.curvature)
            assert [T.valence for T in tables] == [(2, 0), (1, 2), (1, 3)]
            seen.extend((t.ricci[1], t.star_ricci[1]))
        assert verify_deformation_relations(s, params).passed
    seen.extend(c for h in hits for _, vec in h.brackets for c in vec)
    assert len(seen) > 20000
    assert not [c for c in seen if not _stored_rational(c)]
    assert {int, Fraction} == set(map(type, seen))


def test_chart_tensors_share_the_coordinates_memo(monkeypatch):
    """Every scalar of a chart's tensors is a non-constant RationalExpr on
    the model's Variables object, or a constant stored by the frame rule:
    an int, or a Fraction with denominator != 1.  This holds for every
    field the chart-1+z2 pipeline builds (the covariant derivatives of the
    identity suite, B and nabla B of the deformation laws, and the
    theorem's among them) and both scalar curvatures.  Arithmetic can
    return a constant RationalExpr, such as x * (1/x), and the contraction
    kernel returns the int 0 for an empty sum, so this rests on
    TensorField coercing every entry it stores."""
    built = []
    init = TensorField.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(TensorField, "__init__", recorded)
    s = import_text((GOLDEN / "chart-1+z2.spec").read_text(encoding="utf-8"))
    model = s.model
    _run_pipeline(s)
    deformed = apply_deformation(s, DeformationParams(-2, 4))
    # values parsed over an equal plain tuple must be re-homed, too
    foreign = TensorField.vector(model, [parse_expr(v, ("x", "y", "z"))
                                         for v in ("y/(1+z^2)", "3", "x")])
    tensors = [foreign]
    for t in (s, deformed):
        tensors += [t.phi, t.xi, t.g, t.eta, t.Phi, t.N1, t.A, t.h,
                    *t.phi_basis, t.metric_inverse, t.connection,
                    t.curvature, t.ricci[0], t.star_ricci[0]]
    tensors += s.declared_frame
    monkeypatch.undo()
    assert len(built) > 40
    scalars = [c for t in built + tensors for c in t.data]
    scalars += [t.ricci[1] for t in (s, deformed)]
    scalars += [t.star_ricci[1] for t in (s, deformed)]
    assert not [c for c in scalars if not (
        _stored_rational(c) if not isinstance(c, RationalExpr)
        else c.variables is model.coordinates and not c.is_constant)]
    assert {int, Fraction, RationalExpr} == set(map(type, scalars))


# -- tensor fields -----------------------------------------------------------

def test_tensor_indexing_and_rows():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2),
                              [["1", "0", "-4*y/z"],
                               ["0", "-1", "0"],
                               ["-4*y/z", "0", "(1 + 16*y^2)/(z^2)"]])
    assert g[(0, 2)] == m.scalar("-4*y/z")
    assert g.rows()[2][2] == m.scalar("(1+16*y^2)/z^2")
    assert (g - g).is_zero
    w = first_nonzero((2 * g).items())
    assert w == ((0, 0), m.scalar(2))


def test_tensor_valence_checks():
    m = chart3()
    v = TensorField.vector(m, ("1", "0", "0"))
    with pytest.raises(GeometryError):
        v.rows()
    with pytest.raises(GeometryError):
        TensorField(m, (0, 0), [])


# -- brackets ----------------------------------------------------------------

def test_lie_bracket_chart():
    m = chart3()
    e1 = TensorField.vector(m, ("4*y", "0", "z"))
    e2 = TensorField.vector(m, ("0", "1", "0"))
    b = lie_bracket(e1, e2)
    assert b.vec() == (m.scalar(-4), 0, 0)


def test_diff_of_a_plain_number_is_zero_on_both_models():
    """A plain number is a constant on both fields, so every basis field
    maps it to the int 0.  A chart's basis vectors are int tuples, and the
    bracket of a chart field with a coordinate field is -d/dx_j of its
    components, by lie_bracket and by the Lie derivative along it."""
    for m in (chart3(), example_frame()):
        for i in range(m.dim):
            for c in (0, 1, Fraction(-1, 2)):
                assert type(m.diff(i, c)) is int and m.diff(i, c) == 0
    m = chart3()
    assert m.delta(1) == (0, 1, 0) and all(type(c) is int for c in m.delta(1))
    X = TensorField.vector(m, ("x*y", "z/(1 + y^2)", "x^2 - z"))
    expected = {0: ("-y", "0", "-2*x"),
                1: ("-x", "2*y*z/(1 + y^2)^2", "0"),
                2: ("0", "-1/(1 + y^2)", "1")}
    for j, comps in expected.items():
        want = tuple(m.scalar(c) for c in comps)
        e_j = TensorField.vector(m, m.delta(j))
        assert lie_bracket(X, e_j).vec() == want
        assert lie_bracket(e_j, X).vec() == tuple(-c for c in want)
        assert lie_derivative(e_j, X).vec() == want


def test_lie_bracket_frame():
    m = example_frame()
    e1 = TensorField.vector(m, (1, 0, 0))
    e2 = TensorField.vector(m, (0, 1, 0))
    assert lie_bracket(e1, e2).vec() == (0, 0, m.scalar(4))
    assert lie_bracket(e2, e1).vec() == (0, 0, m.scalar(-4))


def test_lie_bracket_bilinear_seeded():
    rng = random.Random(777)
    m = chart3()

    def rand_vec():
        return TensorField.vector(
            m, [m.scalar(Fraction(rng.randint(-3, 3))) * m.scalar(rng.choice("xyz"))
                + m.scalar(rng.randint(-2, 2)) for _ in range(3)])

    for _ in range(25):
        X, Y, Z = rand_vec(), rand_vec(), rand_vec()
        assert lie_bracket(X, Y).vec() == tuple(
            -c for c in lie_bracket(Y, X).vec())
        lhs = lie_bracket(X, lie_bracket(Y, Z))
        mid = lie_bracket(lie_bracket(X, Y), Z)
        rhs = lie_bracket(Y, lie_bracket(X, Z))
        jac = lhs - mid - rhs  # Jacobi in Leibniz form
        assert jac.is_zero


# -- exterior derivative -----------------------------------------------------

def test_exterior_derivative_one_form_chart():
    m = chart3()
    # eta = dx - (4y/z) dz
    eta = TensorField.covector(m, ("1", "0", "-4*y/z"))
    deta = exterior_derivative(eta)
    # 2 deta(d/dy, d/dz) = d/dy(-4y/z) => deta = (2/z) dz^dy component form
    assert deta[(1, 2)] == m.scalar("-2/z")
    assert deta[(2, 1)] == m.scalar("2/z")
    assert _is_int_zero(deta[(0, 1)]) and _is_int_zero(deta[(0, 2)])


def test_exterior_derivative_frame():
    m = example_frame()
    eta = TensorField.covector(m, (0, 0, 1))
    deta = exterior_derivative(eta)
    # 2 deta(e1,e2) = -eta([e1,e2]) = -4
    assert deta[(0, 1)] == -2
    assert deta[(1, 0)] == 2


def test_d_squared_is_zero():
    m = chart3()
    rng = random.Random(31337)
    for _ in range(10):
        comps = []
        for _ in range(3):
            e = m.scalar(rng.randint(-3, 3))
            e = e * m.scalar(rng.choice("xyz")) + m.scalar(rng.randint(-2, 2))
            if rng.random() < 0.4:
                e = e / m.scalar("z")
            comps.append(e)
        omega = TensorField.covector(m, comps)
        assert exterior_derivative(exterior_derivative(omega)).is_zero


def test_d_squared_is_zero_frame():
    m = example_frame()
    omega = TensorField.covector(m, (3, Fraction(-1, 2), 1))
    assert exterior_derivative(exterior_derivative(omega)).is_zero


def _open_two_form(s, x) -> TensorField:
    """eta ^ g(x, .), a 2-form that is not closed on the golden inputs."""
    ev = s.eta.data
    w = linalg.mat_vec(s.g.rows(), x)
    return TensorField.from_rows(s.model, (0, 2), [
        [ev[i] * w[j] - ev[j] * w[i] for j in range(s.model.dim)]
        for i in range(s.model.dim)])


@pytest.mark.parametrize("spec, fields", GOLDEN_FIELDS,
                         ids=["chart-1+z2", "heisenberg5-c4"])
def test_exterior_derivative_matches_its_definition(spec, fields):
    """deta(X,Y) and dPhi(X,Y,Z), also for a 2-form that is not closed,
    against the invariant formula with lie_bracket."""
    s = golden_structure(spec)
    m = s.model
    X, Y, Z = (TensorField.vector(m, comps) for comps in fields)
    x, y, z = X.vec(), Y.vec(), Z.vec()

    def along(v, f):
        return linalg.dot(v, [m.diff(i, f) for i in range(m.dim)])

    xy, xz, yz = (lie_bracket(U, V).vec() for U, V in ((X, Y), (X, Z), (Y, Z)))

    def eta(u):
        return feed(s.eta, u)[0]

    (lhs,) = feed(exterior_derivative(s.eta), x, y)
    assert 2 * lhs == along(x, eta(y)) - along(y, eta(x)) - eta(xy) and lhs
    for omega in (s.Phi, _open_two_form(s, x)):
        def w(u, v, omega=omega):
            return feed(omega, u, v)[0]

        expected = (along(x, w(y, z)) - along(y, w(x, z)) + along(z, w(x, y))
                    - w(xy, z) + w(xz, y) - w(yz, x))
        assert feed(exterior_derivative(omega), x, y, z) == [expected / 3]
    assert expected


def test_exterior_derivative_requires_antisymmetry():
    m = chart3()
    sym = TensorField.from_rows(m, (0, 2), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(GeometryError):
        exterior_derivative(sym)


@pytest.mark.parametrize("spec, fields", GOLDEN_FIELDS,
                         ids=["chart-1+z2", "heisenberg5-c4"])
def test_d_squared_is_zero_on_a_two_form(spec, fields):
    """d(d Omega) = 0 for a 2-form that is not closed: the degree-3 case."""
    s = golden_structure(spec)
    d_omega = exterior_derivative(
        _open_two_form(s, [s.model.scalar(c) for c in fields[0]]))
    assert not d_omega.is_zero
    dd_omega = exterior_derivative(d_omega)
    assert dd_omega.valence == (0, 4) and dd_omega.is_zero


def test_exterior_derivative_rejects_what_is_not_a_form():
    m = example_frame()
    # antisymmetric in the first two slots only, then in the last two only
    for entries in ({(0, 1, 2): 1, (1, 0, 2): -1}, {(0, 1, 2): 1, (0, 2, 1): -1}):
        with pytest.raises(GeometryError, match="antisymmetric form"):
            exterior_derivative(TensorField.from_entries(m, (0, 3), entries))
    phi = TensorField.from_rows(m, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(GeometryError, match=r"unsupported form valence \(1, 1\)"):
        exterior_derivative(phi)


# -- Lie derivative ----------------------------------------------------------

def test_lie_derivative_metric_translation_killing():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    X = TensorField.vector(m, (1, 0, 0))
    assert lie_derivative(g, X).is_zero


def test_lie_derivative_metric_dilation():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    X = TensorField.vector(m, ("x", "0", "0"))
    lg = lie_derivative(g, X)
    assert lg[(0, 0)] == 2
    assert _is_int_zero(lg[(1, 1)])


def test_lie_derivative_one_form():
    m = chart3()
    w = TensorField.covector(m, ("y", "0", "0"))
    X = TensorField.vector(m, ("0", "1", "0"))
    lw = lie_derivative(w, X)
    assert lw[0] == 1
    assert _is_int_zero(lw[1]) and _is_int_zero(lw[2])


def test_lie_derivative_endomorphism_frame():
    m = example_frame()
    phi = TensorField.from_rows(m, (1, 1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    xi = TensorField.vector(m, (0, 0, 1))
    # [xi, phi e_j] = 0 and phi[xi, e_j] = 0 for this table
    assert lie_derivative(phi, xi).is_zero


def test_constant_ratio():
    F = Fraction
    assert constant_ratio([(F(0), F(0)), (F(6), F(3)), (F(-2), F(-1))]) == 2
    assert constant_ratio([(F(0), F(0))]) is None  # no nonzero b
    assert constant_ratio([(F(1), F(0)), (F(2), F(1))]) is None  # a before b
    assert constant_ratio([(F(2), F(1)), (F(1), F(0))]) is None  # a after b
    assert constant_ratio([(F(2), F(1)), (F(3), F(1))]) is None
    x = chart3().scalar("x")
    assert constant_ratio([(x * 3, x), (x - x, x)]) is None
    assert constant_ratio([(x * 3, x), (x * 6, x * 2)]) == 3
    assert constant_ratio([(x, chart3().scalar(1))]) is None  # not constant

    def pairs():  # the scan stops at the first pair that breaks the ratio
        yield F(1), F(1)
        yield F(2), F(1)
        raise AssertionError("read past the breaking pair")

    assert constant_ratio(pairs()) is None


@pytest.mark.parametrize("build, fields", [
    (chart_corrected, (("y", "x*z", "1/z"), ("z", "1", "x"), ("1", "y^2", "0"))),
    (negative_curvature_frame, (("1", "2", "-1"), ("0", "1", "3"), ("1/2", "0", "1"))),
], ids=["example-chart-corrected", "negative-curvature-frame"])
def test_lie_derivative_matches_its_definition(build, fields):
    """(L_X eta)Y, (L_X g)(Y,Z) and (L_X phi)Y against their definitions."""
    s = build()
    m = s.model
    X, V, W = (TensorField.vector(m, comps) for comps in fields)
    # non-basis arguments, each with a bracket term
    Y = lie_bracket(X, V) + V
    Z = lie_bracket(V, W) + W
    x, y, z = X.vec(), Y.vec(), Z.vec()

    def along_x(f):
        return linalg.dot(x, [m.diff(i, f) for i in range(m.dim)])

    def br(u, v):
        return lie_bracket(TensorField.vector(m, u), TensorField.vector(m, v)).vec()

    eta, g, phi = s.eta.data, s.g.rows(), s.phi.rows()
    xy, xz = br(x, y), br(x, z)

    l_eta = lie_derivative(s.eta, X).data
    assert linalg.dot(l_eta, y) == along_x(linalg.dot(eta, y)) - linalg.dot(eta, xy)

    l_g = lie_derivative(s.g, X).rows()
    assert (linalg.bilinear(l_g, y, z)
            == along_x(linalg.bilinear(g, y, z))
            - linalg.bilinear(g, xy, z) - linalg.bilinear(g, y, xz))

    l_phi = lie_derivative(s.phi, X).rows()
    expected = [a - b for a, b in zip(br(x, linalg.mat_vec(phi, y)),
                                      linalg.mat_vec(phi, xy))]
    assert list(linalg.mat_vec(l_phi, y)) == expected
    assert any(expected)
    # any valence: on a vector field the Lie derivative is the bracket
    assert lie_derivative(Y, X) == lie_bracket(X, Y)


def _gather_derivation(T, act, images):
    """D(T) as the Leibniz sum read at each output component: act, then
    the slots left to right, m ascending, + B_m^i on an upper slot and
    - B_j^m on a lower one, skipping zero terms."""
    d, r = T.model.dim, T.valence[0]
    out = []
    for idx, t in T.items():
        val = act(t)
        for q, i in enumerate(idx):
            for m in range(d):
                c = images[m][i] if q < r else images[i][m]
                other = T[idx[:q] + (m,) + idx[q + 1:]]
                if c and other:
                    val = val + c * other if q < r else val - c * other
        out.append(val)
    return out


@pytest.mark.parametrize("spec, fields", GOLDEN_FIELDS,
                         ids=[spec for spec, _ in GOLDEN_FIELDS])
def test_derivation_scatter_matches_the_gather(spec, fields):
    """models._derivation against the gather on seeded sparse tables of
    six valences, with the images of covariant derivatives (nabla_{e_k}
    e_m) and of Lie derivatives ([X, e_m]): equal values of equal types,
    a RationalExpr only on the chart's own Variables."""
    s = golden_structure(spec)
    m = s.model
    d = m.dim
    rng = random.Random(30)
    pool = [1, -2, Fraction(1, 2), Fraction(-3, 4)]
    if isinstance(m, ChartModel):
        pool += [m.scalar(e) for e in ("x*z", "1/(1+z^2)", "y^2 - x")]
    conn = s.connection
    cases = [(partial(m.diff, k), [conn.vector_at(k, j) for j in range(d)])
             for k in range(d)]
    for comps in fields:
        X = TensorField.vector(m, comps).vec()
        cases.append((partial(_apply_vec, m, X),
                      [_bracket_comps(m, X, m.delta(j)) for j in range(d)]))
    nonzero = set()  # the types of the nonzero results
    for valence in ((1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (1, 3)):
        T = TensorField(m, valence, [rng.choice(pool) if rng.random() < 0.2
                                     else 0 for _ in range(d ** sum(valence))])
        for act, images in cases:
            got = _derivation(T, act, images)
            want = _gather_derivation(T, act, images)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert got == want
            assert all(v.variables is m.coordinates for v in got
                       if isinstance(v, RationalExpr))
            nonzero.update(type(v) for v in got if v)
    assert nonzero == ({RationalExpr} if isinstance(m, ChartModel)
                       else {int, Fraction})


# -- chart <-> frame bridge --------------------------------------------------

def corrected_chart_data():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2),
                              [["1", "0", "-4*y/z"],
                               ["0", "-1", "0"],
                               ["-4*y/z", "0", "(1+16*y^2)/(z^2)"]])
    vectors = [TensorField.vector(m, ("4*y", "0", "z")),
               TensorField.vector(m, ("0", "1", "0")),
               TensorField.vector(m, ("1", "0", "0"))]
    return m, g, vectors


def test_realize_frame_corrected_chart():
    m, g, vectors = corrected_chart_data()
    frame, fg = realize_frame(m, vectors, g, ("e1", "e2", "xi"))
    assert frame.signature == (1, -1, 1)
    assert frame.bracket_vector(0, 1) == (0, 0, frame.scalar(-4))
    assert fg.rows()[0][0] == 1 and fg.rows()[1][1] == -1 and fg.rows()[2][2] == 1


def test_realize_frame_rejects_non_constant():
    m = chart3()
    g = TensorField.from_rows(m, (0, 2), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    vectors = [TensorField.vector(m, ("x", "0", "0")),
               TensorField.vector(m, ("0", "1", "0")),
               TensorField.vector(m, ("0", "0", "1"))]
    with pytest.raises(GeometryError):
        realize_frame(m, vectors, g, ("a", "b", "c"))


# every chart of the catalog and of the goldens: None where its frame
# realizes, else the message realize_frame refuses it with
CHART_FRAMES = {
    "flat-paracosymplectic": None,
    "example-chart-corrected": None,
    "chart-1+z2.spec": None,
    "example-chart-printed": "frame metric is not constant: g(0,0) = 28*y^2 + 1",
    "chart-1+y2+z.spec":
        "frame re-expression is not constant: (-2*y)/(y^2 + z + 1)",
}


def _chart_structure(name):
    return golden_structure(name) if name.endswith(".spec") else get_model(name)


def _realized_structure(s):
    """The structure re-expressed in the frame realize_frame builds from the
    declared frame, or from the coordinate fields where none is declared."""
    m = s.model
    d = m.dim
    vectors = s.declared_frame or [TensorField.vector(m, m.delta(i))
                                   for i in range(d)]
    labels = [f"e{i + 1}" for i in range(d - 1)] + ["xi"]
    frame, fg = realize_frame(m, vectors, s.g, labels)
    cols = [v.vec() for v in vectors]
    inv = linalg.invert_matrix(tuple(zip(*cols)))
    ph = s.phi.rows()
    phi_cols = [linalg.mat_vec(inv, linalg.mat_vec(ph, c)) for c in cols]
    return ParacontactStructure(
        frame, TensorField.from_rows(frame, (1, 1), list(zip(*phi_cols))),
        TensorField.vector(frame, linalg.mat_vec(inv, s.xi.vec())),
        fg, TensorField.covector(frame, [linalg.dot(s.eta.data, c) for c in cols]))


def test_chart_frames_cover_every_chart():
    names = {e.name for e in model_catalog()
             if isinstance(e.build().model, ChartModel)}
    names |= {p.name for p in GOLDEN.glob("*.spec")
              if isinstance(golden_structure(p.name).model, ChartModel)}
    assert names == set(CHART_FRAMES)


@pytest.mark.parametrize("name", [n for n, v in CHART_FRAMES.items() if v is None])
def test_realized_frame_matches_its_chart(name):
    """Class label, r, r*, theorem status and K agree between a chart and the
    frame it realizes (for example-chart-corrected [b1,b2] = -4 xi, not the
    +4 xi of example-frame)."""
    s = _chart_structure(name)
    fs = _realized_structure(s)
    assert fs.classification().label == s.classification().label
    for chart_value, frame_value in ((s.ricci[1], fs.ricci[1]),
                                     (s.star_ricci[1], fs.star_ricci[1])):
        assert constant_value(chart_value) == frame_value
    chart_theorem = check_constant_curvature_theorem(s)
    frame_theorem = check_constant_curvature_theorem(fs)
    assert (frame_theorem.status, frame_theorem.K) == (chart_theorem.status,
                                                       chart_theorem.K)


@pytest.mark.parametrize("name", [n for n, v in CHART_FRAMES.items() if v])
def test_realize_frame_refuses_a_chart_without_a_constant_frame(name):
    with pytest.raises(GeometryError) as info:
        _realized_structure(_chart_structure(name))
    assert str(info.value) == CHART_FRAMES[name]


