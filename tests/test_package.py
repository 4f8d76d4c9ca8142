"""The package namespace, the modules an import loads, and the value types.

``import fanoci`` loads no module of the package: each public name is read
from the module that defines it on first access.  The value types are
immutable, compare and hash by their fields, and print as they always have.
"""

import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import fanoci
from fanoci.dimension import CodimResult, RegularSequenceResult
from fanoci.families import DegreeTuple, theorem_applicability
from fanoci.fields import FieldSpec
from fanoci.groebner import groebner_basis
from fanoci.polynomials import MultiPoly
from fanoci.proof_audit import (
    AuditReport,
    CheckRecord,
    ReductionConstants,
    optimize_square_sum,
)
from fanoci.regularity import (
    IndexSet,
    PointedCI,
    RegularityReport,
    SampledRegularityReport,
    TangentSpace,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names, by the module that defines them.
PUBLIC = {
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


def _loaded_after(statement: str) -> set:
    """The modules a fresh ``python -S`` holds after ``statement``.

    ``-S`` skips ``site``, so nothing but the interpreter and the statement
    imports anything.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "statement, absent",
    [
        ("import fanoci", {"fanoci.errors", "fanoci.fields", "fanoci.cli", "dataclasses"}),
        (
            "import fanoci.regularity",
            {"fanoci.proof_audit", "fanoci.cli", "dataclasses", "inspect"},
        ),
        ("import fanoci.cli", {"dataclasses", "inspect"}),
    ],
)
def test_import_loads_only_what_it_needs(statement, absent):
    loaded = _loaded_after(statement)
    assert statement.split()[-1] in loaded
    assert not absent & loaded


def test_submodules_still_import_through_the_package():
    loaded = _loaded_after("from fanoci import dimension, cli")
    assert {"fanoci.dimension", "fanoci.cli"} <= loaded


def test_public_names_are_read_from_their_defining_modules():
    assert fanoci.__all__ == sorted(name for names in PUBLIC.values() for name in names)
    listed = dir(fanoci)
    for module, names in PUBLIC.items():
        defining = import_module(f"fanoci.{module}")
        for name in names:
            assert getattr(fanoci, name) is getattr(defining, name)
            assert name in listed
    assert "__version__" in listed and fanoci.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'TermOrder'"):
        fanoci.TermOrder
    assert not hasattr(fanoci, "GroebnerEngine")  # public in its module only
    with pytest.raises(ImportError):
        exec("from fanoci import no_such_name", {})


GF5 = FieldSpec.prime(5)


def _poly():
    return MultiPoly.from_terms(GF5, ("x", "y"), {(2, 0): 1, (1, 1): 3, (0, 2): 2})


def _pointed():
    gf2, names = FieldSpec.prime(2), ("a", "b", "c", "d")
    equations = (
        MultiPoly.from_terms(gf2, names, {(1, 0, 0, 0): 1, (0, 1, 1, 0): 1}),
        MultiPoly.from_terms(gf2, names, {(0, 0, 0, 1): 1, (0, 0, 2, 0): 1}),
    )
    return PointedCI(DegreeTuple((2, 2)), gf2, equations)


def _report():
    return RegularityReport("regular", (1, 2), None, target_codimension=2)


# (type name, a fresh instance, a field, hashable, the repr it has always
# printed); a type is unhashable where a field holds a dict
VALUE_TYPES = [
    ("FieldSpec", FieldSpec, "characteristic", True, "FieldSpec(characteristic=0)"),
    ("_Rationals", FieldSpec.rationals, "characteristic", True, "_Rationals(characteristic=0)"),
    (
        "_PrimeField",
        lambda: FieldSpec.prime(5),
        "characteristic",
        True,
        "_PrimeField(characteristic=5)",
    ),
    (
        "_QuadraticField",
        lambda: FieldSpec.quadratic(3),
        "characteristic",
        True,
        "_QuadraticField(characteristic=3)",
    ),
    (
        "MultiPoly",
        _poly,
        "terms",
        False,
        "MultiPoly(field=_PrimeField(characteristic=5), variables=('x', 'y'),"
        " terms={(2, 0): 1, (1, 1): 3, (0, 2): 2})",
    ),
    ("DegreeTuple", lambda: DegreeTuple((2, 3)), "degrees", True, "DegreeTuple(degrees=(2, 3))"),
    (
        "FamilyCertificate",
        lambda: theorem_applicability(DegreeTuple((2, 3))),
        "t3",
        True,
        "FamilyCertificate(degrees=DegreeTuple(degrees=(2, 3)), t3=False, t4_case='none',"
        " t5=False, t6_case='none', ct_conclusion='none', hypertangent_ratio=Fraction(9, 4),"
        " ke_metric='unknown', direct_factor='unknown')",
    ),
    (
        "CodimResult",
        lambda: CodimResult(2, "exact-groebner", Fraction(1)),
        "codimension",
        True,
        "CodimResult(codimension=2, method='exact-groebner', confidence=Fraction(1, 1),"
        " note='')",
    ),
    (
        "RegularSequenceResult",
        lambda: RegularSequenceResult(False, (1, 1), 2, "x"),
        "trace",
        True,
        "RegularSequenceResult(is_regular=False, trace=(1, 1), failing_prefix=2, note='x')",
    ),
    (
        "GroebnerBasis",
        lambda: groebner_basis([_poly()]),
        "generators",
        False,
        "GroebnerBasis(generators=(MultiPoly(field=_PrimeField(characteristic=5),"
        " variables=('x', 'y'), terms={(2, 0): 1, (1, 1): 3, (0, 2): 2}),),"
        " field=_PrimeField(characteristic=5), variables=('x', 'y'))",
    ),
    (
        "IndexSet",
        lambda: IndexSet(frozenset({(1, 1)}), ((2, 2), (1, 2))),
        "pairs",
        True,
        "IndexSet(pairs=frozenset({(1, 1)}), excluded=((2, 2), (1, 2)))",
    ),
    (
        "TangentSpace",
        lambda: TangentSpace((0,), {1: (0,), 2: (4,)}, False),
        "images",
        False,
        "TangentSpace(kept=(0,), images={1: (0,), 2: (4,)}, is_singular=False)",
    ),
    (
        "PointedCI",
        _pointed,
        "equations",
        False,
        "PointedCI(degrees=DegreeTuple(degrees=(2, 2)), field=_PrimeField(characteristic=2),"
        " equations=(MultiPoly(field=_PrimeField(characteristic=2),"
        " variables=('a', 'b', 'c', 'd'), terms={(0, 1, 1, 0): 1, (1, 0, 0, 0): 1}),"
        " MultiPoly(field=_PrimeField(characteristic=2), variables=('a', 'b', 'c', 'd'),"
        " terms={(0, 0, 2, 0): 1, (0, 0, 0, 1): 1})))",
    ),
    (
        "RegularityReport",
        _report,
        "verdict",
        True,
        "RegularityReport(verdict='regular', trace=(1, 2), linear_form=None,"
        " failing_prefix=None, target_codimension=2, reduced=False, note='')",
    ),
    (
        "SampledRegularityReport",
        lambda: SampledRegularityReport((_report(),), 1),
        "samples",
        True,
        "SampledRegularityReport(reports=(RegularityReport(verdict='regular', trace=(1, 2),"
        " linear_form=None, failing_prefix=None, target_codimension=2, reduced=False,"
        " note=''),), samples=1)",
    ),
    (
        "ReductionConstants",
        lambda: ReductionConstants(2, 10),
        "M",
        True,
        "ReductionConstants(k=2, M=10)",
    ),
    (
        "SquareSumResult",
        lambda: optimize_square_sum(2, 10, 2),
        "integer_min",
        True,
        "SquareSumResult(k=2, M=10, shift=2, integer_min=50, relaxation_bound=Fraction(50, 1),"
        " witnesses=(DegreeTuple(degrees=(5, 7)),))",
    ),
    (
        "AuditReport",
        lambda: AuditReport((CheckRecord("c", {"k": 2}, 1, Fraction(1, 2), "pass"),)),
        "records",
        False,
        "AuditReport(records=(CheckRecord(check='c', params={'k': 2}, lhs=1,"
        " rhs=Fraction(1, 2), verdict='pass', note=''),))",
    ),
]


@pytest.mark.parametrize(
    "name, make, field, hashable, text", VALUE_TYPES, ids=[row[0] for row in VALUE_TYPES]
)
def test_value_types(name, make, field, hashable, text):
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_value_types_of_a_different_kind_differ():
    for p in (2, 3, 5, 101):
        assert FieldSpec.prime(p) != FieldSpec.quadratic(p)
        assert not FieldSpec.prime(p) == FieldSpec.quadratic(p)
    assert FieldSpec.prime(5) != FieldSpec.prime(7)
    assert FieldSpec.rationals() == FieldSpec.rationals() != FieldSpec()
    assert DegreeTuple((2, 3)) != DegreeTuple((3, 3))
    poly = _poly()
    assert poly != MultiPoly(FieldSpec.prime(7), poly.variables, dict(poly.terms))
    assert poly != MultiPoly(GF5, ("x", "z"), dict(poly.terms))
    assert poly != poly + 1
