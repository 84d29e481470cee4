"""Exact symbolic tensor calculus for almost paracontact metric structures.

The package computes with exact scalars only: no floating point, no
simplification heuristics.  Chart-mode structures carry coordinate
expressions (rational functions, RationalExpr), frame-mode structures
constant structure tables over plain fractions.Fraction.
Every geometric claim is verified as an identically zero residual (or as an
exact evaluation at rational sample points) and every failure carries a
witness: the first offending component and its value.

Layers, bottom up:

- :mod:`ppst.expr` / :mod:`ppst.parser`: canonical multivariate rational
  expressions and their grammar.
- :mod:`ppst.linalg`: exact matrices (inverse, determinant, nullspace,
  inertia) and the contraction kernel (dot, mat_vec, bilinear,
  trace_product).
- :mod:`ppst.models`: chart and frame manifold models, tensor fields,
  brackets, Lie and exterior derivatives.
- :mod:`ppst.curvature`: Levi-Civita connection, Riemann/Ricci/star-Ricci
  data and their verification residuals.
- :mod:`ppst.structures`: almost paracontact metric structures, axiom
  validation, phi-bases, classification.
- :mod:`ppst.identities`: the curvature identity suite for
  quasi-para-Sasakian structures.
- :mod:`ppst.deformation`: the two-parameter deformation family, its
  transformation laws, and homothetic-origin detection.
- :mod:`ppst.spaceforms`: the constant-curvature classification theorem,
  the bundled model catalog, and the bracket-table search harness.
- :mod:`ppst.specfile` / :mod:`ppst.report` / :mod:`ppst.cli`: structure
  spec files, schema-stable reports, and the command line.
"""

from __future__ import annotations

from .curvature import (
    ConnectionData,
    CurvatureData,
    levi_civita,
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
from .expr import DomainConstraint, RationalExpr
from .identities import IDENTITY_KEYS, IdentityReport, check_single, run_suite
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
    "ConnectionData",
    "CurvatureData",
    "DEFORMATION_KEYS",
    "DeformationParams",
    "DeformationReport",
    "DomainConstraint",
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
    "check_single",
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
