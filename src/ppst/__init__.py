"""Exact symbolic tensor calculus for almost paracontact metric structures.

The package computes with exact scalars only: no floating point, no
simplification heuristics.  Chart-mode structures carry coordinate
expressions (rational functions, RationalExpr), frame-mode structures
constant structure tables over the rationals, each stored as an int when
integral and as a fractions.Fraction otherwise.
Every geometric claim is verified as an identically zero residual, or, for
the metric signature and the eigendistributions of phi, as a sign or a
nonvanishing certified on the whole declared domain; no scalar is ever
evaluated at a point.  Every failure carries a witness: the first offending
component and its value.  Every verifier returns its checks as
:class:`ppst.report.CheckResult`.

Layers, bottom up:

- :mod:`ppst.expr` / :mod:`ppst.parser`: canonical multivariate rational
  expressions and their grammar.
- :mod:`ppst.linalg`: exact matrices (one row reduction for nullspace
  and inverse; inertia) and the contraction kernel (dot, mat_vec,
  bilinear, trace_product, and block_bilinear over the last two slots of
  a flat table).  The ints 0 and 1 are the zero and the unit of both
  fields: an empty sum is 0 and an identity matrix holds 0 and 1.
- :mod:`ppst.models`: chart and frame manifold models, tensor fields,
  brackets, the exterior derivative of any degree, and the one derivation
  rule behind the Lie and covariant derivatives.  A plain number is a
  constant on both models, so ``diff`` maps it to 0.  ``TensorField`` is the
  one container of component tables, flat with upper slots first: a
  frame's structure constants and every table below are TensorFields.
- :mod:`ppst.curvature`: the metric inverse, the Levi-Civita connection
  Gamma[(k, i, j)] and the Riemann tensor R[(l, k, i, j)] as TensorFields,
  the (tensor, scalar) pairs of Ricci and star-Ricci, and their
  verification residuals.
- :mod:`ppst.structures`: almost paracontact metric structures, axiom
  validation, phi-bases, classification.
- :mod:`ppst.identities`: the curvature identity suite for
  quasi-para-Sasakian structures.
- :mod:`ppst.deformation`: the two-parameter deformation family, its
  transformation laws, and homothetic-origin detection.
- :mod:`ppst.spaceforms`: the constant-curvature classification theorem,
  the bundled model catalog (shipped as spec files under ``catalog/`` and
  loaded by :func:`ppst.specfile.import_text`), and the bracket-table
  search harness.
- :mod:`ppst.specfile` / :mod:`ppst.report` / :mod:`ppst.cli`: structure
  spec files, the check-result type and witness rule, schema-stable
  reports, and the command line.
"""

from __future__ import annotations

from .curvature import (
    levi_civita,
    metric_inverse,
    riemann,
    ricci_scalar,
    star_ricci_scalar,
)
from .deformation import (
    DEFORMATION_KEYS,
    DeformationParams,
    DeformationReport,
    apply_deformation,
    detect_homothetic_origin,
    proportionality_constant,
    verify_deformation_relations,
)
from .expr import RationalExpr
from .identities import IDENTITY_KEYS, IdentityReport, run_suite
from .models import (
    ChartModel,
    FrameModel,
    GeometryError,
    TensorField,
    exterior_derivative,
    lie_bracket,
    lie_derivative,
)
from .parser import ParseError, parse_expr
from .report import TOOL_VERSION as __version__
from .report import CheckResult, Report
from .spaceforms import (
    TheoremReport,
    check_constant_curvature_theorem,
    constant_curvature_of,
    get_model,
    model_catalog,
    search_constant_negative_curvature,
)
from .specfile import SpecFileError, export_spec, export_text, import_spec, import_text
from .structures import (
    AxiomReport,
    Classification,
    ParacontactStructure,
    StructureError,
    classify,
    validate_structure,
)

__all__ = [
    "AxiomReport",
    "ChartModel",
    "CheckResult",
    "Classification",
    "DEFORMATION_KEYS",
    "DeformationParams",
    "DeformationReport",
    "FrameModel",
    "GeometryError",
    "IDENTITY_KEYS",
    "IdentityReport",
    "ParacontactStructure",
    "ParseError",
    "RationalExpr",
    "Report",
    "SpecFileError",
    "StructureError",
    "TensorField",
    "TheoremReport",
    "apply_deformation",
    "check_constant_curvature_theorem",
    "classify",
    "constant_curvature_of",
    "detect_homothetic_origin",
    "export_spec",
    "export_text",
    "exterior_derivative",
    "get_model",
    "import_spec",
    "import_text",
    "levi_civita",
    "lie_bracket",
    "lie_derivative",
    "metric_inverse",
    "model_catalog",
    "parse_expr",
    "proportionality_constant",
    "ricci_scalar",
    "riemann",
    "run_suite",
    "search_constant_negative_curvature",
    "star_ricci_scalar",
    "validate_structure",
    "verify_deformation_relations",
    "__version__",
]
