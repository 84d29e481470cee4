"""Command line interface.

Subcommands operate on one structure, given either as a spec file path or
as ``--model NAME`` from the bundled catalog, and emit a :class:`Report`
(``--format json`` or the default deterministic text).

``check``       run every structure axiom as an exact residual
``classify``    name the structure class, with witnesses for failed axioms
``curvature``   Levi-Civita data: verification residuals plus the
                connection, curvature, Ricci and star-Ricci tables
``identities``  the curvature identity suite (quasi-para-Sasakian input)
``deform``      verify the deformation laws for given parameters and
                optionally write the deformed structure spec (-o FILE)
``theorem``     the constant-curvature classification theorem
``models``      list the catalog, or export one entry (--export NAME -o FILE)

Exit codes: 0 every check passed, 1 a mathematical check failed (the report
carries witnesses), 2 the input could not be processed (parse, schema, or
usage error).  A mathematical failure never yields 2 and an input error
never yields 1.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from itertools import product
from typing import Sequence

from .curvature import (
    covariant_derivative,
    curvature_antisymmetry_residual,
    first_bianchi_residual,
    torsion_residual,
)
from .deformation import (
    DeformationParams,
    apply_deformation,
    verify_deformation_relations,
)
from .identities import run_suite
from .linalg import bilinear, trace_product
from .models import GeometryError, format_combination
from .report import _ZERO_DIGEST, CheckResult, Report, digest_text, error_report, residual_check
from .spaceforms import catalog_entry, check_constant_curvature_theorem, model_catalog
from .specfile import SpecFileError, export_spec, import_text
from .structures import StructureError


class _InputError(Exception):
    """An input that cannot be processed; maps to exit code 2."""

    def __init__(self, message: str, source: str = "none",
                 digest: str = _ZERO_DIGEST):
        super().__init__(message)
        self.source = source
        self.digest = digest


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppst", allow_abbrev=False,
        description="exact checks for almost paracontact metric structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, spec_input: bool = True):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--format", choices=("json", "text"), default="text",
                       help="report format (default: text)")
        if spec_input:
            p.add_argument("spec", nargs="?", default=None,
                           help="structure spec file")
            p.add_argument("--model", default=None,
                           help="bundled catalog model name")
        return p

    add("check", "verify the structure axioms")
    add("classify", "name the structure class")
    add("curvature", "connection and curvature tables with verification")
    add("identities", "run the curvature identity suite")
    p = add("deform", "verify the deformation laws for given parameters")
    p.add_argument("--alpha", required=True,
                   help="deformation parameter alpha (nonzero rational)")
    p.add_argument("--beta", required=True,
                   help="deformation parameter beta (positive rational)")
    p.add_argument("-o", "--output", default=None,
                   help="write the deformed structure spec to this file")
    add("theorem", "check the constant-curvature classification theorem")
    p = add("models", "list the bundled model catalog", spec_input=False)
    p.add_argument("--export", default=None, metavar="NAME",
                   help="export one catalog model as a structure spec")
    p.add_argument("-o", "--output", default=None,
                   help="target file for --export")
    return parser


def _catalog_entry(name: str):
    try:
        return catalog_entry(name)
    except KeyError as exc:  # args[0], as str() would quote the message
        raise _InputError(exc.args[0], source=f"catalog:{name}") from None


def _load(args):
    """Resolve the input structure; returns (structure, source, digest).

    A catalog model is its shipped spec file, so both sources take the same
    read, digest and import steps."""
    if args.spec is not None and args.model is not None:
        raise _InputError("give either a spec file or --model, not both")
    if args.model is not None:
        source = f"catalog:{args.model}"
        text = _catalog_entry(args.model).text()
    elif args.spec is not None:
        source = f"file:{args.spec}"
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise _InputError(f"cannot read {args.spec}: {exc}", source=source)
    else:
        raise _InputError("give a structure spec file or --model NAME")
    digest = digest_text(text)
    try:
        return import_text(text), source, digest
    except SpecFileError as exc:
        raise _InputError(str(exc), source=source, digest=digest)


# ---------------------------------------------------------------------------
# command bodies


def _cmd_check(args, s, source, digest) -> Report:
    rep = s.axiom_report()
    data = {}
    if rep.inertia is not None:
        data["metric_inertia"] = list(rep.inertia)
    if rep.eigen_dims is not None:
        data["phi_eigen_dims"] = list(rep.eigen_dims)
    return Report("check", source, digest, checks=rep.checks, data=data)


def _cmd_classify(args, s, source, digest) -> Report:
    cls = s.classification()
    data = {
        "classification": cls.label,
        "flags": dict(cls.flags),
        "witnesses": dict(cls.witnesses),
    }
    return Report("classify", source, digest,
                  checks=[CheckResult("axioms", True)], data=data)


def _cmd_curvature(args, s, source, digest) -> Report:
    conn, curv = s.connection, s.curvature
    (ricci, r), (star, r_star) = s.ricci, s.star_ricci
    labels = s.model.basis_labels
    d = s.model.dim
    checks = [
        residual_check(name, residual.items(), labels) for name, residual in (
            ("torsion_free", torsion_residual(conn)),
            ("metric_compatibility", covariant_derivative(s.g, conn)),
            ("curvature_antisymmetry", curvature_antisymmetry_residual(curv)),
            ("first_bianchi", first_bianchi_residual(curv)))
    ]
    connection_table = {
        f"nabla_{labels[i]} {labels[j]}":
            format_combination(conn.vector_at(i, j), labels)
        for i, j in product(range(d), repeat=2)
    }
    curvature_table = {
        f"R({labels[i]},{labels[j]}){labels[k]}":
            format_combination(curv.vector_at(k, i, j), labels)
        for i in range(d) for j in range(i + 1, d) for k in range(d)
    }
    ricci_rows, star_rows = ricci.rows(), star.rows()
    data = {
        "r": str(r),
        "r_star": str(r_star),
        "connection": connection_table,
        "curvature": curvature_table,
        "ricci": {f"S({labels[j]},{labels[k]})": str(ricci_rows[j][k])
                  for j in range(d) for k in range(j, d)},
        "star_ricci": {f"S*({labels[j]},{labels[k]})": str(star_rows[j][k])
                       for j, k in product(range(d), repeat=2)},
    }
    if s.axiom_report().passed:
        xv, a_rows = s.xi.vec(), s.A.rows()
        data["S(xi,xi)"] = str(bilinear(ricci_rows, xv, xv))
        data["trace_phi_A"] = str(trace_product(s.phi.rows(), a_rows))
        data["trace_A_squared"] = str(trace_product(a_rows, a_rows))
    return Report("curvature", source, digest, checks=checks, data=data)


def _cmd_identities(args, s, source, digest) -> Report:
    try:
        rep = run_suite(s)
    except StructureError as exc:
        if exc.report is not None:
            raise  # an axiom failure: _execute reports every axiom check
        check = CheckResult("hypothesis_quasi_para_sasakian", False,
                            witness=str(exc))
        return Report("identities", source, digest, checks=[check])
    return Report("identities", source, digest,
                  checks=list(rep.results.values()), data={})


def _cmd_deform(args, s, source, digest) -> Report:
    try:
        params = DeformationParams(Fraction(args.alpha), Fraction(args.beta))
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"bad deformation parameters: {exc}",
                          source=source, digest=digest)
    axioms = s.axiom_report()
    if not axioms.passed:
        return Report("deform", source, digest, checks=axioms.checks)
    rep = verify_deformation_relations(s, params)
    checks = [CheckResult("axioms", True), *rep.results.values()]
    deformed = apply_deformation(s, params)
    data = {
        "alpha": str(params.alpha),
        "beta": str(params.beta),
        "homothetic": params.homothetic,
        "deformed_name": deformed.name,
    }
    try:
        data["deformed_classification"] = deformed.classification().label
    except StructureError as exc:
        data["deformed_classification"] = f"invalid: {exc}"
    if args.output is not None:
        try:
            export_spec(deformed, args.output)
        except OSError as exc:
            raise _InputError(f"cannot write {args.output}: {exc}",
                              source=source, digest=digest)
        data["output"] = args.output
    return Report("deform", source, digest, checks=checks, data=data)


def _cmd_theorem(args, s, source, digest) -> Report:
    rep = check_constant_curvature_theorem(s)
    checks = rep.assertions
    data = {
        "theorem_status": rep.status,
        "applicable": rep.applicable,
        "quasi_para_sasakian": rep.quasi_para_sasakian,
    }
    if rep.K is not None:
        data["K"] = str(rep.K)
    if rep.reason is not None:
        data["reason"] = rep.reason
    return Report("theorem", source, digest, checks=checks, data=data)


def _cmd_models(args) -> Report:
    if args.export is None and args.output is not None:
        raise _InputError("-o FILE needs --export NAME", source="catalog")
    if args.export is not None:
        if args.output is None:
            raise _InputError("--export needs -o FILE",
                              source=f"catalog:{args.export}")
        text = _catalog_entry(args.export).text()
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write {args.output}: {exc}",
                              source=f"catalog:{args.export}")
        data = {"exported": args.export, "output": args.output}
        return Report("models", f"catalog:{args.export}", digest_text(text),
                      data=data)
    listing = {}
    texts = []
    for entry in model_catalog():
        listing[entry.name] = {
            "description": entry.description,
            "class": entry.expected_class,
            "known_inconsistent": entry.known_inconsistent,
        }
        texts.append(entry.text())
    return Report("models", "catalog", digest_text("".join(texts)),
                  data={"models": listing})


# ---------------------------------------------------------------------------
# entry points

_COMMANDS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "curvature": _cmd_curvature,
    "identities": _cmd_identities,
    "deform": _cmd_deform,
    "theorem": _cmd_theorem,
}


def _execute(args: argparse.Namespace) -> Report:
    command = args.command
    try:
        if command == "models":
            return _cmd_models(args)
        s, source, digest = _load(args)
    except _InputError as exc:
        return error_report(command, exc.source, str(exc), digest=exc.digest)
    try:
        return _COMMANDS[command](args, s, source, digest)
    except _InputError as exc:
        return error_report(command, source, str(exc), digest=digest)
    except (StructureError, GeometryError) as exc:
        axioms = exc.report if isinstance(exc, StructureError) else None
        checks = (axioms.checks if axioms is not None
                  else [CheckResult("computable", False, witness=str(exc))])
        return Report(command, source, digest, checks=checks)


def run_command(argv: Sequence[str]) -> Report:
    """Parse ``argv`` (without the program name) and produce the report.

    Side effects (writing spec files for deform/models) still happen; the
    report itself is returned unprinted.
    """
    parser = _build_parser()
    return _execute(parser.parse_args(list(argv)))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = _execute(args)
    sys.stdout.write(report.render(args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
