"""fanoci: exact classification and auditing of Fano complete intersections.

The package never uses floating point on a verdict path: certificates,
inequality audits, and codimension decisions are computed with
arbitrary-precision integers and rationals, over exact coefficient fields
(the rationals or GF(p)).
"""

from .dimension import (
    CodimResult,
    RegularSequenceResult,
    codim_probabilistic,
    is_regular_sequence,
    projective_codim,
)
from .errors import InputError, ResourceBudgetError, UnsupportedModeError
from .families import (
    DegreeTuple,
    FamilyCertificate,
    d_plus,
    degree_tuple,
    enumerate_families,
    fano_dimension,
    hypertangent_ratio,
    max_M_for_bound,
    new_families_vs,
    remark_families,
    theorem_applicability,
)
from .fields import FieldSpec
from .groebner import GroebnerBasis, groebner_basis, staircase_dimension
from .polynomials import MultiPoly, random_poly
from .proof_audit import (
    AuditReport,
    audit_range,
    check_quadratic_margin,
    check_small_degree_codim,
    check_tail_bounds,
    check_threshold_equivalences,
    optimize_square_sum,
    reduction_constants,
    weight_sequence,
)
from .rationals import Rational, binomial, format_rational, parse_rational
from .regularity import (
    IndexSet,
    PointedCI,
    RegularityReport,
    SampledRegularityReport,
    index_set,
    random_complete_intersection,
    regularity_check,
    sampled_regularity_check,
    tangent_space,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CodimResult",
    "DegreeTuple",
    "FamilyCertificate",
    "FieldSpec",
    "GroebnerBasis",
    "IndexSet",
    "InputError",
    "MultiPoly",
    "PointedCI",
    "Rational",
    "RegularSequenceResult",
    "RegularityReport",
    "ResourceBudgetError",
    "SampledRegularityReport",
    "UnsupportedModeError",
    "audit_range",
    "binomial",
    "check_quadratic_margin",
    "check_small_degree_codim",
    "check_tail_bounds",
    "check_threshold_equivalences",
    "codim_probabilistic",
    "d_plus",
    "degree_tuple",
    "enumerate_families",
    "fano_dimension",
    "format_rational",
    "groebner_basis",
    "hypertangent_ratio",
    "index_set",
    "is_regular_sequence",
    "max_M_for_bound",
    "new_families_vs",
    "optimize_square_sum",
    "parse_rational",
    "projective_codim",
    "random_complete_intersection",
    "random_poly",
    "reduction_constants",
    "regularity_check",
    "remark_families",
    "sampled_regularity_check",
    "staircase_dimension",
    "tangent_space",
    "theorem_applicability",
    "weight_sequence",
]
