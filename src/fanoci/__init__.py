"""fanoci: exact classification and auditing of Fano complete intersections.

The package never uses floating point on a verdict path: certificates,
inequality audits, and codimension decisions are computed with
arbitrary-precision integers and rationals, over exact coefficient fields
(the rationals or GF(p)).

Importing the package loads none of its modules (PEP 562): each public
name below is looked up in the module that defines it when it is first
read, so a process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_PUBLIC = {
    "dimension": (
        "CodimResult",
        "RegularSequenceResult",
        "codim_probabilistic",
        "is_regular_sequence",
        "projective_codim",
    ),
    "errors": ("InputError", "ResourceBudgetError"),
    "families": (
        "DegreeTuple",
        "FamilyCertificate",
        "enumerate_families",
        "hypertangent_ratio",
        "max_M_for_bound",
        "remark_families",
        "theorem_applicability",
    ),
    "fields": ("FieldSpec",),
    "groebner": ("GroebnerBasis", "groebner_basis", "staircase_dimension"),
    "polynomials": ("MultiPoly", "random_poly"),
    "proof_audit": (
        "AuditReport",
        "audit_range",
        "check_quadratic_margin",
        "check_small_degree_codim",
        "check_tail_bounds",
        "check_threshold_equivalences",
        "optimize_square_sum",
        "reduction_constants",
    ),
    "rationals": ("binomial", "format_rational", "parse_rational"),
    "regularity": (
        "IndexSet",
        "PointedCI",
        "RegularityReport",
        "SampledRegularityReport",
        "index_set",
        "random_complete_intersection",
        "regularity_check",
        "sampled_regularity_check",
        "tangent_space",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Nothing is cached here: the name is read from its module each time,
    # so it is always the object that module holds.  Any other name is an
    # AttributeError, which lets ``from fanoci import cli`` import the
    # submodule.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
