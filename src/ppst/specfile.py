"""Plain-text serialization of almost paracontact metric structures.

A structure spec is a line-based keyed text file.  Lines are either blank,
comments (everything from ``#`` to the end of the line), section headers
``[name]``, or ``key = value`` entries.  Expression values use the exact
rational-function grammar of :mod:`ppst.parser`; list values are comma
separated (the grammar contains no commas, so splitting is unambiguous).

Sections
--------
``[manifold]``
    ``mode = chart | frame`` and ``dim = N`` are required, ``name`` is
    optional.  Chart mode adds ``coordinates`` (comma list) and optional
    ``constraints`` (comma list of expressions that must be nonzero on the
    domain).  Frame mode adds ``labels`` and ``signature`` (comma list of
    ``+1``/``-1`` per frame index).

``[brackets]``
    Frame mode only, optional.  Each key is a comma pair of frame labels in
    frame order, each value a constant-coefficient linear combination of the
    labels, e.g. ``e1, e2 = 4*xi``.  Omitted pairs are zero brackets.

``[g]``, ``[phi]``
    Matrices as ``row1`` .. ``rowN``, each a comma list of N expressions.
    ``g`` holds the metric components g(b_i, b_j), ``phi`` the matrix whose
    columns are the images of the basis vectors.

``[xi]``
    ``components`` lists the Reeb vector field.

``[eta]``
    Either ``components`` for an explicit contact form or ``derived = true``
    to request eta = g(., xi).  Omitting the section means derived.

``[frame]``
    Optional declared phi-basis as ``field1`` .. ``fieldN`` component lists
    in the order (X_1..X_n, Y_1..Y_n, xi).  It is verified on use, never
    trusted.

``export_text`` emits a canonical form (fixed section order, canonical
expression printing), so export after import is the identity on canonical
files and a pure canonicalization otherwise.  Schema violations raise
:class:`SpecFileError` carrying the offending field path.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .expr import ExprError, RationalExpr, Variables
from .models import (
    ChartModel,
    FrameModel,
    GeometryError,
    ManifoldModel,
    TensorField,
    format_combination,
)
from .parser import ParseError, parse_expr
from .structures import ParacontactStructure

FORMAT_HEADER = "# ppst structure spec v1"

_SECTIONS = ("manifold", "brackets", "g", "phi", "xi", "eta", "frame")


class SpecFileError(Exception):
    """A structure spec that violates the file schema.

    ``field`` is the dotted path of the offending entry (for example
    ``g.row2`` or ``manifold.mode``); ``line`` is the 1-based source line
    when one is known.
    """

    def __init__(self, message: str, field: str | None = None,
                 line: int | None = None):
        loc = []
        if field is not None:
            loc.append(f"field {field}")
        if line is not None:
            loc.append(f"line {line}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.field = field
        self.line = line


# ---------------------------------------------------------------------------
# reading


class _Entry:
    __slots__ = ("value", "line", "used")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line
        self.used = False


def _split_sections(text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFileError("malformed section header", line=lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise SpecFileError(f"unknown section [{name}]", field=name,
                                    line=lineno)
            if name in sections:
                raise SpecFileError(f"duplicate section [{name}]", field=name,
                                    line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise SpecFileError("expected 'key = value'", line=lineno)
        if current is None:
            raise SpecFileError("entry outside any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise SpecFileError("empty key", line=lineno)
        if key in sections[current]:
            raise SpecFileError(f"duplicate key in [{current}]",
                                field=f"{current}.{key}", line=lineno)
        sections[current][key] = _Entry(value, lineno)
    return sections


class _Reader:
    """Typed access to the raw section map with field-path errors."""

    def __init__(self, text: str):
        self.sections = _split_sections(text)
        # (text, variables) -> value of each expression parsed so far: a spec
        # repeats its entries (most are 0, 1 or -1), parse_expr is pure, and
        # the reader lives for one import only
        self.parsed: dict[tuple[str, tuple[str, ...]], RationalExpr] = {}

    def require_section(self, name: str) -> None:
        if name not in self.sections:
            raise SpecFileError(f"missing section [{name}]", field=name)

    def entry(self, section: str, key: str, required: bool = True) -> _Entry | None:
        ent = self.sections.get(section, {}).get(key)
        if ent is None:
            if required:
                raise SpecFileError(f"missing key '{key}' in [{section}]",
                                    field=f"{section}.{key}")
            return None
        ent.used = True
        return ent

    def value(self, section: str, key: str, required: bool = True) -> str | None:
        ent = self.entry(section, key, required)
        return None if ent is None else ent.value

    def check_consumed(self) -> None:
        for section, entries in self.sections.items():
            for key, ent in entries.items():
                if not ent.used:
                    raise SpecFileError(f"unknown key '{key}' in [{section}]",
                                        field=f"{section}.{key}", line=ent.line)


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",")]


def _parse_components(reader: _Reader, value: str, variables: Sequence[str],
                      dim: int, field: str,
                      line: int | None) -> list[RationalExpr]:
    parts = _split_list(value)
    if len(parts) != dim:
        raise SpecFileError(f"expected {dim} components, got {len(parts)}",
                            field=field, line=line)
    comps = []
    for pos, part in enumerate(parts, start=1):
        if not part:
            raise SpecFileError("empty component", field=f"{field}[{pos}]",
                                line=line)
        key = (part, variables)
        try:
            expr = reader.parsed.get(key)
            if expr is None:
                expr = reader.parsed[key] = parse_expr(part, variables)
            comps.append(expr)
        except (ParseError, ExprError) as exc:
            raise SpecFileError(f"bad expression {part!r}: {exc}",
                                field=f"{field}[{pos}]", line=line) from exc
    return comps


def _parse_matrix(reader: _Reader, section: str, dim: int,
                  variables: Sequence[str]) -> list[list[RationalExpr]]:
    reader.require_section(section)
    keys = set(reader.sections[section])
    expected = {f"row{i}" for i in range(1, dim + 1)}
    if keys != expected:
        raise SpecFileError(
            f"{section} shape mismatch: expected rows row1..row{dim}, "
            f"got {sorted(keys)}", field=section)
    rows = []
    for i in range(1, dim + 1):
        ent = reader.entry(section, f"row{i}")
        parts = _split_list(ent.value)
        if len(parts) != dim:
            raise SpecFileError(
                f"{section} shape mismatch: row{i} has {len(parts)} entries, "
                f"expected {dim}", field=f"{section}.row{i}", line=ent.line)
        rows.append(_parse_components(reader, ent.value, variables, dim,
                                      f"{section}.row{i}", ent.line))
    return rows


def _linear_combination(value: str, labels: Sequence[str], field: str,
                        line: int | None) -> tuple[Fraction, ...]:
    try:
        expr = parse_expr(value, labels)
    except (ParseError, ExprError) as exc:
        raise SpecFileError(f"bad bracket value {value!r}: {exc}",
                            field=field, line=line) from exc
    comps = [Fraction(0)] * len(labels)
    if not expr.is_polynomial:
        raise SpecFileError("bracket value must be a constant-coefficient "
                            "linear combination of the frame labels",
                            field=field, line=line)
    for mono, coeff in expr.num:
        degree = sum(mono)
        if degree != 1:
            raise SpecFileError("bracket value must be a constant-coefficient "
                                "linear combination of the frame labels",
                                field=field, line=line)
        comps[mono.index(1)] = Fraction(coeff)
    return tuple(comps)


def _parse_int(value: str, field: str, line: int | None) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise SpecFileError(f"expected an integer, got {value!r}",
                            field=field, line=line) from exc


def _parse_names(value: str, field: str, line: int | None) -> tuple[str, ...]:
    names = tuple(_split_list(value))
    if any(not name.isidentifier() for name in names):
        raise SpecFileError(f"names must be identifiers, got {value!r}",
                            field=field, line=line)
    if len(set(names)) != len(names):
        raise SpecFileError("names must be distinct", field=field, line=line)
    return names


def _build_model(reader: _Reader) -> tuple[ManifoldModel, str | None]:
    reader.require_section("manifold")
    name = reader.value("manifold", "name", required=False)
    mode_ent = reader.entry("manifold", "mode")
    mode = mode_ent.value
    if mode not in ("chart", "frame"):
        raise SpecFileError(f"mode must be 'chart' or 'frame', got {mode!r}",
                            field="manifold.mode", line=mode_ent.line)
    dim_ent = reader.entry("manifold", "dim")
    dim = _parse_int(dim_ent.value, "manifold.dim", dim_ent.line)

    if mode == "chart":
        ent = reader.entry("manifold", "coordinates")
        # one Variables for the constraints and the chart they bound
        coords = Variables(_parse_names(ent.value, "manifold.coordinates",
                                        ent.line))
        if len(coords) != dim:
            raise SpecFileError(
                f"dim = {dim} but {len(coords)} coordinates listed",
                field="manifold.coordinates", line=ent.line)
        constraints: list[RationalExpr] = []
        cons_ent = reader.entry("manifold", "constraints", required=False)
        if cons_ent is not None:
            constraints = _parse_components(
                reader, cons_ent.value, coords,
                len(_split_list(cons_ent.value)), "manifold.constraints",
                cons_ent.line)
        if "brackets" in reader.sections:
            raise SpecFileError("section [brackets] requires frame mode",
                                field="brackets")
        try:
            return ChartModel(coords, constraints), name
        except GeometryError as exc:
            raise SpecFileError(str(exc), field="manifold") from exc

    ent = reader.entry("manifold", "labels")
    labels = _parse_names(ent.value, "manifold.labels", ent.line)
    if len(labels) != dim:
        raise SpecFileError(f"dim = {dim} but {len(labels)} labels listed",
                            field="manifold.labels", line=ent.line)
    sig_ent = reader.entry("manifold", "signature")
    sig_parts = _split_list(sig_ent.value)
    if any(part not in ("+1", "1", "-1") for part in sig_parts):
        raise SpecFileError("signature entries must be +1 or -1",
                            field="manifold.signature", line=sig_ent.line)
    if len(sig_parts) != dim:
        raise SpecFileError(f"dim = {dim} but {len(sig_parts)} signature "
                            f"entries listed", field="manifold.signature",
                            line=sig_ent.line)
    signature = tuple(int(part) for part in sig_parts)

    brackets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    index = {label: k for k, label in enumerate(labels)}
    for key, ent in reader.sections.get("brackets", {}).items():
        ent.used = True
        field = f"brackets.{key}"
        pair = _split_list(key)
        if len(pair) != 2 or any(part not in index for part in pair):
            raise SpecFileError("bracket key must name two frame labels, "
                                "e.g. 'e1, e2'", field=field, line=ent.line)
        i, j = index[pair[0]], index[pair[1]]
        if not i < j:
            raise SpecFileError("bracket key must list labels in frame order",
                                field=field, line=ent.line)
        brackets[(i, j)] = _linear_combination(ent.value, labels, field,
                                               ent.line)
    try:
        return FrameModel(labels, signature, brackets), name
    except GeometryError as exc:
        raise SpecFileError(str(exc), field="manifold") from exc


def import_text(text: str) -> ParacontactStructure:
    """Parse a structure spec from a string."""
    reader = _Reader(text)
    model, name = _build_model(reader)
    dim = model.dim
    variables = model.scalar_variables

    g_rows = _parse_matrix(reader, "g", dim, variables)
    phi_rows = _parse_matrix(reader, "phi", dim, variables)
    reader.require_section("xi")
    xi_ent = reader.entry("xi", "components")
    xi_comps = _parse_components(reader, xi_ent.value, variables, dim,
                                 "xi.components", xi_ent.line)

    eta = None
    if "eta" in reader.sections:
        derived_ent = reader.entry("eta", "derived", required=False)
        comp_ent = reader.entry("eta", "components", required=False)
        if derived_ent is not None and comp_ent is not None:
            raise SpecFileError("give either 'derived' or 'components', not both",
                                field="eta", line=comp_ent.line)
        if derived_ent is not None:
            if derived_ent.value != "true":
                raise SpecFileError("derived must be 'true'",
                                    field="eta.derived", line=derived_ent.line)
        elif comp_ent is not None:
            eta_comps = _parse_components(reader, comp_ent.value, variables,
                                          dim, "eta.components", comp_ent.line)
            eta = TensorField.covector(model, eta_comps)
        else:
            raise SpecFileError("section [eta] needs 'components' or "
                                "'derived = true'", field="eta")

    declared_frame = None
    if "frame" in reader.sections:
        keys = set(reader.sections["frame"])
        expected = {f"field{i}" for i in range(1, dim + 1)}
        if keys != expected:
            raise SpecFileError(
                f"frame shape mismatch: expected field1..field{dim}, "
                f"got {sorted(keys)}", field="frame")
        fields = []
        for i in range(1, dim + 1):
            ent = reader.entry("frame", f"field{i}")
            comps = _parse_components(reader, ent.value, variables, dim,
                                      f"frame.field{i}", ent.line)
            fields.append(TensorField.vector(model, comps))
        declared_frame = tuple(fields)

    reader.check_consumed()
    try:
        return ParacontactStructure(
            model,
            TensorField.from_rows(model, (1, 1), phi_rows),
            TensorField.vector(model, xi_comps),
            TensorField.from_rows(model, (0, 2), g_rows),
            eta=eta, declared_frame=declared_frame, name=name)
    except GeometryError as exc:
        raise SpecFileError(str(exc)) from exc


def import_spec(path: str | Path) -> ParacontactStructure:
    """Read a structure spec file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    return import_text(text)


# ---------------------------------------------------------------------------
# writing


def _row_str(comps: Sequence[RationalExpr]) -> str:
    return ", ".join(str(c) for c in comps)


def export_text(s: ParacontactStructure) -> str:
    """Serialize a structure to canonical spec text."""
    model = s.model
    lines = [FORMAT_HEADER, "", "[manifold]"]
    if s.name is not None:
        lines.append(f"name = {s.name}")
    if isinstance(model, ChartModel):
        lines.append("mode = chart")
        lines.append(f"dim = {model.dim}")
        lines.append(f"coordinates = {', '.join(model.coordinates)}")
        if model.constraints:
            cons = ", ".join(map(str, model.constraints))
            lines.append(f"constraints = {cons}")
    elif isinstance(model, FrameModel):
        lines.append("mode = frame")
        lines.append(f"dim = {model.dim}")
        lines.append(f"labels = {', '.join(model.labels)}")
        sig = ", ".join("+1" if e == 1 else "-1" for e in model.signature)
        lines.append(f"signature = {sig}")
        bracket_lines = []
        for i in range(model.dim):
            for j in range(i + 1, model.dim):
                vec = model.bracket_vector(i, j)
                if any(vec):
                    combo = format_combination(vec, model.labels)
                    bracket_lines.append(
                        f"{model.labels[i]}, {model.labels[j]} = {combo}")
        if bracket_lines:
            lines.extend(["", "[brackets]"])
            lines.extend(bracket_lines)
    else:
        raise GeometryError(f"cannot serialize model {model!r}")

    for section, tensor in (("g", s.g), ("phi", s.phi)):
        lines.extend(["", f"[{section}]"])
        for i, row in enumerate(tensor.rows(), start=1):
            lines.append(f"row{i} = {_row_str(row)}")

    lines.extend(["", "[xi]", f"components = {_row_str(s.xi.vec())}"])

    lines.extend(["", "[eta]"])
    if s.eta_derived:
        lines.append("derived = true")
    else:
        lines.append(f"components = {_row_str(s.eta.vec())}")

    if s.declared_frame is not None:
        lines.extend(["", "[frame]"])
        for i, field in enumerate(s.declared_frame, start=1):
            lines.append(f"field{i} = {_row_str(field.vec())}")

    return "\n".join(lines) + "\n"


def export_spec(s: ParacontactStructure, path: str | Path) -> None:
    """Write a structure spec file."""
    Path(path).write_text(export_text(s), encoding="utf-8")
