import hashlib
import itertools
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanoci import dimension
from fanoci.dimension import (
    EXACT,
    PROBABILISTIC,
    RegularSequenceResult,
    _certified_on_cut,
    _poly_vanishes_on_subspace,
    _prefix_trace,
    codim_probabilistic,
    is_regular_sequence,
    projective_codim,
)
from fanoci.errors import InputError, ResourceBudgetError
from fanoci.fields import FieldSpec
from fanoci.families import DegreeTuple
from fanoci.groebner import (
    GroebnerEngine,
    groebner_basis,
    leading_term,
    staircase_dimension,
)
from fanoci.polynomials import (
    MultiPoly,
    _descending,
    hyperplane_graph,
    linear_graph,
    monomials_of_degree,
    random_poly,
    restrict_to_graph,
)
from fanoci.regularity import random_complete_intersection, regularity_check

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)

V3 = ("x", "y", "z")


def fv(names=V3, field=F5):
    return tuple(MultiPoly.variable(field, names, n) for n in names)


# ---------------------------------------------------------------------------
# projective_codim
# ---------------------------------------------------------------------------


def test_codim_hyperplane():
    x, y, z = fv()
    assert projective_codim([x]).codimension == 1


def test_codim_min_over_components():
    # V(xy, xz) = {x = 0} union {y = z = 0}: the hyperplane component governs
    x, y, z = fv()
    result = projective_codim([x * y, x * z])
    assert result.codimension == 1
    assert result.method == "exact-groebner"
    assert result.confidence == 1


def test_codim_against_brute_force_oracle():
    # enumerate all of GF(5)^3: the cone of (x^2+y^2, xy) is exactly the z-axis
    x, y, z = fv()
    cone = [
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if (a * a + b * b) % 5 == 0 and (a * b) % 5 == 0
    ]
    assert all(a == 0 and b == 0 for a, b, _ in cone)
    assert len(cone) == 5
    assert projective_codim([x * x + y * y, x * y]).codimension == 2


def test_codim_empty_list_is_whole_space():
    assert projective_codim([]).codimension == 0


def test_codim_empty_projective_locus():
    x, y, z = fv()
    result = projective_codim([x, y, z])
    assert result.codimension == 3
    assert result.note == "empty projective locus"


def test_codim_krull_bound():
    x, y, z = fv()
    for gens in ([x], [x, y], [x * y, x * z], [x * x + y * y, x * y]):
        result = projective_codim(gens)
        assert 0 <= result.codimension <= len(gens)


def test_codim_rejects_inhomogeneous():
    x, y, z = fv()
    with pytest.raises(InputError):
        projective_codim([x + x * y])


def test_codim_rejects_all_zero():
    with pytest.raises(InputError):
        projective_codim([MultiPoly.zero(F5, V3)])


def test_codim_budget_refuses_oversized_input():
    names = tuple(f"x{i}" for i in range(9))
    x0 = MultiPoly.variable(F5, names, "x0")
    with pytest.raises(ResourceBudgetError):
        projective_codim([x0])
    # override admits it
    assert projective_codim([x0], max_variables=9).codimension == 1


def test_a_long_sequence_meets_only_the_variable_budget(monkeypatch):
    # the budget counts variables, not forms: a sequence longer than its
    # variables fails at prefix n + 1, decided by the rank of its linear
    # rows with no engine, and every form counts towards a codimension
    def build(*args, **kwargs):
        raise AssertionError("an engine was built")

    def thirteen_linear_forms(n):
        names = tuple(f"x{i}" for i in range(n))
        forms = [MultiPoly.variable(F5, names, name) for name in names]
        return forms + [forms[0] + forms[i] for i in range(1, 14 - n)]

    monkeypatch.setattr(dimension, "GroebnerEngine", build)
    assert is_regular_sequence(thirteen_linear_forms(12), max_variables=12) == (
        RegularSequenceResult(
            False, (*range(1, 13), 12), 13, "sequence longer than the 12 variables"
        )
    )
    monkeypatch.undo()
    assert projective_codim(thirteen_linear_forms(8)).codimension == 8


@pytest.mark.parametrize("field", [F5, FieldSpec.prime(101), Q], ids=["gf5", "gf101", "q"])
def test_codim_matches_the_reduced_basis_staircase(field):
    # reference: the staircase of the leading terms of the reduced basis
    rng = Random(97)
    for _ in range(12):
        n = rng.choice([3, 4])
        names = tuple(f"x{i}" for i in range(1, n + 1))
        gens = [
            random_poly(rng.choice([1, 2, 3]), names, field, True, rng.getrandbits(63))
            for _ in range(rng.choice([1, 2, 3]))
        ]
        if rng.random() < 0.4:  # a common factor: the forms are no longer generic
            factor = random_poly(1, names, field, True, rng.getrandbits(63))
            gens = [factor * g for g in gens]
        gens = [g for g in gens if not g.is_zero()]
        basis = groebner_basis(gens)
        leads = [leading_term(g)[0] for g in basis.generators]
        expected = n - staircase_dimension(leads, n)
        assert projective_codim(gens).codimension == expected


# ---------------------------------------------------------------------------
# is_regular_sequence
# ---------------------------------------------------------------------------


def test_regular_sequence_coordinates():
    x, y, z = fv()
    result = is_regular_sequence([x, y])
    assert result.is_regular and result.trace == (1, 2)


def test_regular_sequence_shared_component_fails():
    x, y, z = fv()
    result = is_regular_sequence([x * y, x * z])
    assert not result.is_regular
    assert result.trace == (1, 1)
    assert result.failing_prefix == 2


def test_regular_sequence_gf5_example():
    x, y, z = fv()
    result = is_regular_sequence([x * x + y * y, x * y])
    assert result.is_regular and result.trace == (1, 2)


def test_regular_sequence_zero_polynomial_fails_at_its_prefix():
    x, y, z = fv()
    result = is_regular_sequence([x, MultiPoly.zero(F5, V3), y])
    assert not result.is_regular
    assert result.failing_prefix == 2
    assert result.trace == (1, 1)
    assert "zero polynomial" in result.note


def test_sequence_longer_than_variables_is_irregular():
    x, y, z = fv()
    result = is_regular_sequence([x, y, z, x + y])
    assert not result.is_regular
    assert result.failing_prefix == 4
    assert result.trace == (1, 2, 3, 3)


def test_empty_sequence_is_regular():
    assert is_regular_sequence([]).is_regular


def test_prefix_monotonicity():
    # codim of prefix j+1 is codim of prefix j plus 0 or 1
    rng = Random(4)
    for _ in range(12):
        gens = []
        for i in range(3):
            g = random_poly(
                rng.choice([1, 2]), V3, F5, homogeneous=True, seed=rng.getrandbits(32)
            )
            if not g.is_zero():
                gens.append(g)
        codims = [projective_codim(gens[: j + 1]).codimension for j in range(len(gens))]
        for a, b in zip([0] + codims, codims):
            assert b - a in (0, 1)


def test_permutation_invariance_of_verdict():
    rng = Random(11)
    cases = 0
    while cases < 8:
        gens = [
            random_poly(2, V3, F5, homogeneous=True, seed=rng.getrandbits(32))
            for _ in range(3)
        ]
        if any(g.is_zero() for g in gens):
            continue
        cases += 1
        verdicts = {
            is_regular_sequence(list(perm)).is_regular
            for perm in itertools.permutations(gens)
        }
        assert len(verdicts) == 1


# ---------------------------------------------------------------------------
# The certificate on the hyperplane x_n = 0 and its fallback
# ---------------------------------------------------------------------------

CUT_FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), F5, FieldSpec.prime(101), Q]


@st.composite
def homogeneous_sequences(draw):
    """Short sequences of homogeneous forms, regular and irregular.

    A form gets a random coefficient on each monomial of its degree (and is
    one monomial if they all vanish).  The sequence is then left as drawn
    (mostly regular over the larger fields) or made irregular: by a common
    linear factor, by a common zero at (1, 0, ..., 0), by repeating a form,
    by inserting the zero form or by inserting a member of the ideal of the
    linear ones among the first two forms (the first is linear): a linear
    form proportional to the first or in the span of both, or a multiple of
    one by a form of degree 1 or 2.
    Two more kinds put linear forms on the cut: every form linear, and
    n - 1 linear forms, which leave no point but the origin on x_n = 0 when
    they are independent there, with or without one more nonlinear form.
    """
    field = draw(st.sampled_from(CUT_FIELDS))
    n = draw(st.integers(2, 4))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    kind = draw(
        st.sampled_from(
            [
                "drawn", "factor", "zero-point", "repeat", "zero-form",
                "linear-ideal", "all-linear", "no-survivor",
            ]
        )
    )
    grows = kind in ("repeat", "zero-form", "linear-ideal")
    r = n - 1 if kind == "no-survivor" else draw(st.integers(1, n - 1 if grows else n))

    def form(degree, common_zero=False):
        monomials = list(monomials_of_degree(n, degree))
        if common_zero:
            monomials = monomials[1:]  # no x1^degree: (1, 0, ..., 0) is a zero
        size = len(monomials)
        values = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        poly = MultiPoly.from_terms(field, names, zip(monomials, values))
        return poly or MultiPoly.from_terms(field, names, {monomials[-1]: 1})

    def degree(i):
        if kind in ("all-linear", "no-survivor") or (kind == "linear-ideal" and i == 0):
            return 1
        return draw(st.integers(1, 3))

    forms = [form(degree(i), common_zero=kind == "zero-point") for i in range(r)]
    if kind == "factor":
        h = form(1)
        forms = [h * f for f in forms]
    elif kind == "repeat":
        forms.insert(draw(st.integers(1, r)), forms[draw(st.integers(0, r - 1))])
    elif kind == "zero-form":
        forms.insert(draw(st.integers(0, r)), MultiPoly.zero(field, names))
    elif kind == "linear-ideal":
        linear = [f for f in forms[:2] if f.total_degree() == 1]
        combination = sum(
            (draw(st.integers(-3, 3)) * f for f in linear), MultiPoly.zero(field, names)
        )
        forms.insert(draw(st.integers(1, r)), combination * form(draw(st.integers(0, 2))))
    elif kind == "no-survivor" and draw(st.booleans()):
        forms.insert(draw(st.integers(0, r)), form(draw(st.integers(2, 3))))
    return forms


def _cut(forms):
    """The forms on x_n = 0, restricted through the graph of the unit row e_n."""
    field, n = forms[0].field, len(forms[0].variables)
    unit_row = [field.zero()] * (n - 1) + [field.one()]
    return restrict_to_graph(forms, *hyperplane_graph(unit_row, field))


def _drop_last_variable(form):
    """Reference cut: the terms that hold the last variable are dropped, and
    then the variable; the kept terms stay in stored order."""
    terms = {e[:-1]: c for e, c in form.terms.items() if not e[-1]}
    return MultiPoly(form.field, form.variables[:-1], terms)


def _terms_in_order(forms):
    return [(f.variables, list(f.terms.items())) for f in forms]


@given(homogeneous_sequences())
@settings(max_examples=400, deadline=None)
def test_cut_then_fallback_matches_the_uncut_loop(forms):
    variables = forms[0].variables
    uncut = _prefix_trace(forms, variables, EXACT)
    assert is_regular_sequence(forms) == uncut
    cut = _cut(forms)
    assert _terms_in_order(cut) == _terms_in_order(map(_drop_last_variable, forms))
    for f in cut:
        assert f.variables == variables[:-1]
        assert list(f.terms) == _descending(f.terms)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(2), FieldSpec.prime(101)])
def test_the_cut_drops_the_terms_that_hold_the_last_variable(monkeypatch, field):
    # the certificate's cut, seen by a spy, gives the reference's variables
    # and term order, a zero form included where every term holds x_n
    x, y, z = fv(field=field)
    rng = Random(field.characteristic)
    forms = [x * z] + [
        random_poly(d, V3, field, homogeneous=True, seed=rng.getrandbits(32))
        for d in (1, 2, 2, 3, 3, 4)
    ]
    expected = _terms_in_order(map(_drop_last_variable, forms))
    seen = []

    def spy(polys, kept, images):
        seen.append(restrict_to_graph(polys, kept, images))
        return seen[-1]

    monkeypatch.setattr(dimension, "restrict_to_graph", spy)
    for form in forms:
        _certified_on_cut([form])
    assert [_terms_in_order(cut) for cut in seen] == [[e] for e in expected]
    assert _terms_in_order(_cut(forms)) == expected
    assert seen[0][0].is_zero()


@pytest.fixture
def engine_sizes(monkeypatch):
    """The variable counts of the engines that ``dimension`` builds, in order."""
    sizes = []

    class CountingEngine(GroebnerEngine):
        def __init__(self, field, variables, **budgets):
            sizes.append(len(variables))
            super().__init__(field, variables, **budgets)

    monkeypatch.setattr(dimension, "GroebnerEngine", CountingEngine)
    return sizes


def test_regular_form_whose_cut_vanishes_falls_back(engine_sizes):
    # x*z, y^2 is regular in (x, y, z), but x*z vanishes on z = 0; the zero
    # cut form is seen before any engine is built, and the uncut loop builds
    # its one engine at prefix 2, the first that is not forced
    x, y, z = fv()
    assert _cut([x * z])[0].is_zero()
    assert is_regular_sequence([x * z, y * y]) == RegularSequenceResult(True, (1, 2))
    assert engine_sizes == [3]


def test_budget_error_on_the_cut_falls_back(monkeypatch):
    class CutOverBudget(GroebnerEngine):
        def add(self, poly):
            if len(self.variables) < 3:
                raise ResourceBudgetError("the cut exceeds the pair budget")
            super().add(poly)

    monkeypatch.setattr(dimension, "GroebnerEngine", CutOverBudget)
    x, y, z = fv()
    regular = [x * x + y * z, y * y + x * z]  # [x^2, y^2] on z = 0
    assert is_regular_sequence(regular) == RegularSequenceResult(True, (1, 2))
    result = is_regular_sequence([x * y, x * z])
    assert (result.trace, result.failing_prefix) == ((1, 1), 2)


def test_regular_reduced_m8_system_is_decided_on_the_cut(engine_sizes):
    # the M = 8 rung of the reach ladder: 6 forms in 7 variables, regular,
    # so no engine in all 7 variables is ever built
    degrees = DegreeTuple((5, 5))
    field = FieldSpec.prime(32003)
    ci = random_complete_intersection(degrees, field, seed=1)
    form = MultiPoly.linear(field, ci.variables, range(1, degrees.ambient + 1))
    report = regularity_check(ci, form, reduce=True)
    assert report.is_regular and report.trace == (1, 2, 3, 4, 5, 6)
    assert engine_sizes == [6]


def test_unreduced_check_is_certified_with_its_linear_members_eliminated(engine_sizes):
    # (3,3): M = 4, and the sequence is 5 forms in M + k = 6 variables, 3 of
    # them linear; the check eliminates the linear ones exactly and decides
    # the reduced sequence of 2 forms on its cut, so the one engine has
    # M - 2 = 2 variables, as in the reduced check
    degrees = DegreeTuple((3, 3))
    field = FieldSpec.prime(101)
    ci = random_complete_intersection(degrees, field, seed=1)
    form = MultiPoly.linear(field, ci.variables, range(1, degrees.ambient + 1))
    report = regularity_check(ci, form)
    assert report.is_regular and report.trace == (1, 2, 3, 4, 5)
    assert engine_sizes == [degrees.M - 2]


# ---------------------------------------------------------------------------
# Forced prefixes
# ---------------------------------------------------------------------------

FORCED_FIELDS = [FieldSpec.prime(2), FieldSpec.prime(101), Q]


def reference_trace(forms, variables):
    """The prefix loop with an engine on every prefix, forced or not."""
    n = len(variables)
    engine = GroebnerEngine(forms[0].field, variables)
    trace = []
    codim = 0
    for j, g in enumerate(forms, start=1):
        if j > n:
            trace.append(codim)
            note = f"sequence longer than the {n} variables"
            return RegularSequenceResult(False, tuple(trace), j, note)
        if g.is_zero():
            trace.append(codim)
            return RegularSequenceResult(False, tuple(trace), j, f"zero polynomial at position {j}")
        engine.add(g)
        codim = n - staircase_dimension(engine.leading_exponents(), n)
        trace.append(codim)
        if codim != j:
            return RegularSequenceResult(False, tuple(trace), j)
    return RegularSequenceResult(True, tuple(trace))


@st.composite
def mixed_sequences(draw, fields=FORCED_FIELDS, max_n=4):
    """Sequences of zero, linear and nonlinear forms, up to two longer than n.

    Linear forms lead more often than not, and their coefficients are
    small, so dependent linear prefixes are common.
    """
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_n))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    linear_run = draw(st.integers(0, n + 1))
    length = draw(st.integers(max(1, linear_run), n + 2))
    forms = []
    for i in range(length):
        if i < linear_run:
            kind = draw(st.sampled_from(["linear"] * 6 + ["zero"]))
        else:
            kind = draw(st.sampled_from(["linear", "nonlinear", "nonlinear", "zero"]))
        if kind == "zero":
            forms.append(MultiPoly.zero(field, names))
            continue
        degree = 1 if kind == "linear" else draw(st.integers(2, 3))
        monomials = list(monomials_of_degree(n, degree))
        values = draw(st.lists(st.integers(-2, 2), min_size=len(monomials), max_size=len(monomials)))
        poly = MultiPoly.from_terms(field, names, zip(monomials, values))
        forms.append(poly or MultiPoly.from_terms(field, names, {monomials[-1]: 1}))
    return forms


@given(mixed_sequences())
@settings(max_examples=300, deadline=None)
def test_forced_prefixes_match_the_engine_on_every_prefix(forms):
    variables = forms[0].variables
    assert _prefix_trace(forms, variables, EXACT) == reference_trace(forms, variables)


def _forced(forms, j):
    return j == 1 or all(f.total_degree() == 1 for f in forms[:j])


@given(
    mixed_sequences(fields=[FieldSpec.prime(2), FieldSpec.prime(3)], max_n=3),
    st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_forced_prefixes_are_exact_under_the_probabilistic_kernel(forms, shift):
    # the oracle is asked for the unforced prefixes only, so its draws,
    # here shifted to any seed, cannot change a forced prefix's codimension
    def oracle(prefix, seed):
        assert not _forced(forms, len(prefix))
        return codim_probabilistic(prefix, seed=seed + shift)

    variables = forms[0].variables
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "codim_probabilistic", oracle)
        result = _prefix_trace(forms, variables, PROBABILISTIC)
    exact = reference_trace(forms, variables)
    forced = [j for j in range(1, len(result.trace) + 1) if _forced(forms, j)]
    assert [result.trace[j - 1] for j in forced] == [exact.trace[j - 1] for j in forced]
    if result.failing_prefix in forced:
        assert result == exact


def test_lone_form_builds_no_engine(engine_sizes):
    x, y, z = fv()
    for forms in ([x * x + y * z], [x, y, z], [x, x + y, z]):
        expected = reference_trace(forms, V3)
        assert is_regular_sequence(forms) == expected
        assert is_regular_sequence(forms, kernel=PROBABILISTIC) == expected
    # a reduced (2,3) check is one quadratic in M - 1 = 2 variables, and the
    # unreduced exact check is decided by it
    degrees = DegreeTuple((2, 3))
    field = FieldSpec.prime(101)
    ci = random_complete_intersection(degrees, field, seed=1)
    form = MultiPoly.linear(field, ci.variables, range(1, degrees.ambient + 1))
    assert regularity_check(ci, form, reduce=True).trace == (1,)
    assert regularity_check(ci, form).trace == (1, 2, 3, 4)
    assert engine_sizes == []


@pytest.mark.parametrize(
    "make",
    [lambda x, y: [x], lambda x, y: [x * y], lambda x, y: [x, y], lambda x, y: [x, x * y]],
    ids=["linear", "lone-quadratic", "all-linear", "unforced"],
)
def test_probabilistic_kernel_refuses_the_rationals_even_when_forced(make):
    x, y, z = fv(field=Q)
    with pytest.raises(InputError, match="requires a prime field"):
        is_regular_sequence(make(x, y), kernel=PROBABILISTIC)


def test_probabilistic_kernel_over_the_rationals_stops_at_a_zero_first_form():
    # the loop ends at prefix 1 before any codimension is asked for, as it
    # did when the oracle made the refusal
    x, y, z = fv(field=Q)
    result = is_regular_sequence([MultiPoly.zero(Q, V3), x], kernel=PROBABILISTIC)
    assert (result.is_regular, result.trace, result.failing_prefix) == (False, (0,), 1)


# ---------------------------------------------------------------------------
# codim_probabilistic
# ---------------------------------------------------------------------------


def test_probabilistic_single_form():
    x, y, z = fv()
    result = codim_probabilistic([x * x + y * y], trials=5, seed=0)
    assert result.codimension == 1
    assert result.method == "probabilistic-slicing"
    assert result.confidence == Fraction(31, 32)


def test_probabilistic_empty_list():
    result = codim_probabilistic([], trials=3, seed=0)
    assert result.codimension == 0


def test_probabilistic_rejects_rationals():
    x = MultiPoly.variable(Q, V3, "x")
    with pytest.raises(InputError, match="requires a prime field"):
        codim_probabilistic([x], trials=2, seed=0)


def test_probabilistic_budget_error_names_size():
    names = tuple(f"x{i}" for i in range(4))
    x0 = MultiPoly.variable(FieldSpec.prime(101), names, "x0")
    with pytest.raises(ResourceBudgetError) as err:
        codim_probabilistic([x0 * x0], trials=2, seed=0, enumeration_budget=100)
    assert "exceeds the budget" in str(err.value)


def test_probabilistic_budget_is_checked_before_listing_the_field(monkeypatch):
    # GF(32003^2) has about 1.02e9 elements: listing them first would exhaust
    # memory, so an oversized scan must be refused from the field size alone
    def refuse(self):
        raise AssertionError("elements listed before the budget check")

    ext_type = type(FieldSpec.quadratic(32003))
    monkeypatch.setattr(ext_type, "elements", refuse)
    names = tuple(f"x{i}" for i in range(4))
    x0 = MultiPoly.variable(FieldSpec.prime(32003), names, "x0")
    with pytest.raises(ResourceBudgetError) as err:
        codim_probabilistic([x0 * x0], trials=1, seed=0)
    assert "exceeds the budget" in str(err.value)


def _projective_points(field, m):
    """One representative of each point of P^(m-1) over ``field``: zeros, a 1,
    then any coordinates."""
    for lead in range(m):
        for tail in itertools.product(field.elements(), repeat=m - lead - 1):
            yield (field.zero(),) * lead + (field.one(),) + tail


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("extension_degree", [1, 2])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cutting_by_the_linear_members_keeps_the_common_zeros(p, extension_degree, data):
    # the reference evaluates every form, uncomposed, at the points of the
    # slice, the graph of the slicing rows alone (whose points
    # test_polynomials checks against brute force); the oracle instead adds
    # the linear forms' rows to the slicing rows and scans the other forms
    # restricted to the common zeros of both
    field = FieldSpec.prime(p)
    ext = FieldSpec.quadratic(p) if extension_degree == 2 else field
    n = data.draw(st.integers(min_value=2, max_value=4), label="n")
    names = tuple(f"x{i}" for i in range(n))
    specs = data.draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 2**32)), min_size=1, max_size=3
        ),
        label="forms",
    )
    forms = [
        MultiPoly(ext, names, f.terms)  # a GF(p) residue is its own GF(p^2) element
        for f in (random_poly(d, names, field, homogeneous=True, seed=s) for d, s in specs)
        if not f.is_zero()
    ]
    assume(forms)
    element = st.integers(min_value=0, max_value=ext.size - 1)
    rows = data.draw(
        st.lists(st.lists(element, min_size=n, max_size=n), max_size=n - 1), label="rows"
    )
    linear = [f for f in forms if f.total_degree() == 1]
    nonlinear = [f for f in forms if f.total_degree() > 1]
    if linear and data.draw(st.booleans(), label="dependent"):
        # a slicing row in the span of a linear member and another slicing row
        scale = data.draw(element, label="scale")
        row = [ext.mul(scale, c) for c in linear[0].linear_row()]
        if rows:
            row = [ext.add(a, b) for a, b in zip(row, rows[0])]
        rows.append(row)

    kept, images = linear_graph(rows, ext, n)

    def common_zero(t):
        x = [ext.zero()] * n
        for j, tj in zip(kept, t):
            x[j] = tj
        for i, image in images.items():
            for tj, c in zip(t, image):
                x[i] = ext.add(x[i], ext.mul(tj, c))
        return not any(f.evaluate(x) for f in forms)

    expected = any(map(common_zero, _projective_points(ext, len(kept))))
    cut = rows + [f.linear_row() for f in linear]
    assert _poly_vanishes_on_subspace(nonlinear, cut, ext, n, 10**6) == expected


def test_probabilistic_linear_forms_need_no_scan():
    # GF(32003^2)^4 is far over the enumeration budget, but linear forms are
    # intersected exactly, so their rank comes back without a point scan
    field = FieldSpec.prime(32003)
    names = tuple(f"x{i}" for i in range(4))
    x0, x1, x2, x3 = (MultiPoly.variable(field, names, v) for v in names)
    forms = [x0 + x1, x1 - 3 * x2, x0 + 3 * x2, 7 * x3]  # rank 3
    for extension_degree in (1, 2):
        result = codim_probabilistic(forms, seed=0, extension_degree=extension_degree)
        assert result.codimension == 3
        assert result.note == ""


def test_probabilistic_deterministic_in_seed():
    x, y, z = fv()
    gens = [x * y + z * z]
    a = codim_probabilistic(gens, trials=4, seed=9)
    b = codim_probabilistic(gens, trials=4, seed=9)
    assert a == b


# sha256 of the estimates over extension degrees 1, 2 and seeds 0-5 with one
# trial each; any change to how the oracle draws its slices changes them.
PINNED_ESTIMATES = {
    (5, (2, 2)): "17ed0fc657d7434d6f6f2acb2a5f70a82f79ab38ba7e25461920c976c03675dc",
    (2, (2, 3)): "c5a66647b38fed5239c10d6643edeb8eb51c331d244a3d2e28e2804048440f67",
    (2, (2,)): "768d8cfce8e810576a4d493d082cfc77632712899586e480a3efd540caaf0dc1",
}


@pytest.mark.parametrize("p, degrees", list(PINNED_ESTIMATES))
def test_probabilistic_estimates_pinned(p, degrees):
    field = FieldSpec.prime(p)
    names = ("x", "y", "z", "w")
    forms = [
        random_poly(d, names, field, homogeneous=True, seed=10 * p + i)
        for i, d in enumerate(degrees)
    ]
    rows = []
    for extension_degree in (1, 2):
        for seed in range(6):
            result = codim_probabilistic(
                forms, trials=1, seed=seed, extension_degree=extension_degree
            )
            rows.append([extension_degree, seed, result.codimension, result.note])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == PINNED_ESTIMATES[(p, degrees)]


def _random_systems(master_seed, count):
    rng = Random(master_seed)
    for case in range(count):
        n_vars = rng.choice([3, 4])
        n_gens = rng.choice([1, 2, 3])
        variables = tuple(f"x{i}" for i in range(1, n_vars + 1))
        gens = []
        for _ in range(n_gens):
            poly = random_poly(
                rng.choice([1, 2, 3]),
                variables,
                F5,
                homogeneous=True,
                seed=rng.getrandbits(63),
            )
            while poly.is_zero():
                poly = random_poly(
                    rng.choice([1, 2, 3]),
                    variables,
                    F5,
                    homogeneous=True,
                    seed=rng.getrandbits(63),
                )
            gens.append(poly)
        yield case, gens


def test_exact_probabilistic_cross_validation():
    # smaller sibling of the acceptance experiment, on a different seed family
    agree = 0
    total = 20
    for case, gens in _random_systems(1234, total):
        exact = projective_codim(gens).codimension
        prob = codim_probabilistic(gens, trials=3, seed=case, extension_degree=1)
        if prob.codimension == exact:
            agree += 1
        else:
            enlarged = codim_probabilistic(gens, trials=3, seed=case, extension_degree=2)
            assert enlarged.codimension == exact
    assert agree >= int(0.9 * total)
