import itertools
import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from fanoci import groebner
from fanoci.dimension import is_regular_sequence
from fanoci.errors import InputError, ResourceBudgetError
from fanoci.families import DegreeTuple
from fanoci.fields import FieldSpec
from fanoci.groebner import (
    GroebnerEngine,
    _Ring,
    groebner_basis,
    leading_term,
    normal_form,
    s_polynomial,
    staircase_dimension,
)
from fanoci.polynomials import (
    MultiPoly,
    _descending,
    grevlex_key,
    hyperplane_graph,
    linear_graph,
    random_poly,
    restrict_to_graph,
)
from fanoci.regularity import (
    _random_admissible_form,
    index_set,
    random_complete_intersection,
)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def qv(names):
    return tuple(MultiPoly.variable(Q, names, n) for n in names)


def test_monomial_generators_are_self_reduced():
    x, y = qv(("x", "y"))
    basis = groebner_basis([x, y])
    assert [g.terms for g in basis.generators] == [x.terms, y.terms]


def test_single_generator_made_monic():
    x, y = qv(("x", "y"))
    basis = groebner_basis([3 * x**2 + 6 * y**2])
    (g,) = basis.generators
    assert g.terms == (x**2 + 2 * y**2).terms


def test_zero_ideal_yields_empty_basis():
    zero = MultiPoly.zero(Q, ("x", "y"))
    basis = groebner_basis([zero])
    assert basis.generators == ()


def test_basis_is_reduced_and_monic_on_random_inputs():
    for seed in range(15):
        gens = [
            random_poly(d, ("x", "y", "z"), F5, homogeneous=True, seed=seed * 3 + i)
            for i, d in enumerate((2, 2, 3))
        ]
        basis = groebner_basis(gens)
        lts = [leading_term(g) for g in basis.generators]
        for i, (lt_exps, lt_coeff) in enumerate(lts):
            assert lt_coeff == 1
            for j, g in enumerate(basis.generators):
                if i == j:
                    continue
                # no leading term divides any term of another generator
                for exps in g.terms:
                    assert not all(a <= b for a, b in zip(lt_exps, exps))


def test_every_s_polynomial_reduces_to_zero():
    for seed in range(10):
        gens = [
            random_poly(2, ("x", "y", "z"), F5, homogeneous=True, seed=seed * 7 + i)
            for i in range(2)
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_basis(gens)
        for i in range(len(basis.generators)):
            for j in range(i):
                s = s_polynomial(basis.generators[i], basis.generators[j])
                assert normal_form(s, list(basis.generators)).is_zero()


def test_input_generators_reduce_to_zero():
    for seed in range(10):
        gens = [
            random_poly(d, ("x", "y", "z"), F5, homogeneous=True, seed=seed * 11 + i)
            for i, d in enumerate((1, 2, 3))
        ]
        nonzero = [g for g in gens if not g.is_zero()]
        if not nonzero:
            continue
        basis = groebner_basis(nonzero)
        for g in nonzero:
            assert normal_form(g, basis.generators).is_zero()


def test_mixed_rings_rejected():
    x, _ = qv(("x", "y"))
    other = MultiPoly.variable(Q, ("a", "b"), "a")
    with pytest.raises(InputError):
        groebner_basis([x, other])


def test_normal_form_and_s_polynomial_refuse_mixed_rings():
    # c's exponents do not fit x*y's two slots, and GF(5) is not Q
    x, y = qv(("x", "y"))
    a, b, c = qv(("a", "b", "c"))
    u, v = (MultiPoly.variable(F5, ("x", "y"), n) for n in ("x", "y"))
    for call in (
        lambda: normal_form(x * y, [c]),
        lambda: s_polynomial(x * y, a * b),
        lambda: normal_form(x * y, [u]),
        lambda: s_polynomial(x * y, u * v),
    ):
        with pytest.raises(InputError, match="generators live in different rings"):
            call()


def test_engine_refuses_a_form_that_is_not_homogeneous():
    x, y = qv(("x", "y"))
    engine = GroebnerEngine(Q, ("x", "y"))
    engine.add(x * y)
    before = (engine.pairs_reduced, len(engine.elements), engine.max_degree)
    with pytest.raises(InputError, match="homogeneous forms only"):
        engine.add(x**2 + y)
    assert (engine.pairs_reduced, len(engine.elements), engine.max_degree) == before
    assert engine.leading_exponents() == [(1, 1)]
    engine.add(x**2 - y**2)
    assert engine.reduced().generators == (y**3, x**2 - y**2, x * y)
    with pytest.raises(InputError, match="homogeneous forms only"):
        groebner_basis([x * y, x**2 + y])
    # the regularity check refuses it first, with its own message
    with pytest.raises(
        InputError, match="generators must be homogeneous of positive degree"
    ):
        is_regular_sequence([x * y, x**2 + y])


def dense_quadrics():
    return [
        random_poly(2, ("x", "y", "z", "w"), F5, homogeneous=True, seed=i)
        for i in range(4)
    ]


def test_groebner_pair_budget(monkeypatch):
    # dense quadrics exceed a tiny pair budget immediately
    monkeypatch.setattr(groebner, "MAX_PAIRS", 1)
    with pytest.raises(ResourceBudgetError) as info:
        groebner_basis(dense_quadrics())
    # the message says how far the run got
    assert re.fullmatch(
        r"Groebner computation exceeded the pair budget \(1\) after 1 pairs,"
        r" with \d+ basis elements and largest degree \d+",
        str(info.value),
    )


def test_groebner_basis_size_budget(monkeypatch):
    monkeypatch.setattr(groebner, "MAX_BASIS", 2)
    with pytest.raises(ResourceBudgetError) as info:
        groebner_basis(dense_quadrics())
    assert re.fullmatch(
        r"Groebner basis exceeded the size budget \(2\) after \d+ pairs,"
        r" with 2 basis elements and largest degree \d+",
        str(info.value),
    )


def test_staircase_dimension_rules():
    # zero ideal: the whole space
    assert staircase_dimension([], 4) == 4
    # coordinate subspace: LT = x in k[x,y,z] leaves {y, z}
    assert staircase_dimension([(1, 0, 0)], 3) == 2
    # artinian staircase: all variables blocked
    assert staircase_dimension([(2, 0), (0, 3)], 2) == 0
    # the (x^2+y^2, xy, y^3) staircase over 3 variables keeps only {z}
    assert staircase_dimension([(2, 0, 0), (1, 1, 0), (0, 3, 0)], 3) == 1
    with pytest.raises(InputError):
        staircase_dimension([(0, 0)], 2)  # unit leading term


def test_unit_ideal_has_no_dimension():
    # a nonzero constant makes the ideal the whole ring: its Hilbert series
    # numerator is 0, which has no order at t = 1
    engine = GroebnerEngine(Q, ("x", "y"))
    engine.add(MultiPoly.constant(Q, ("x", "y"), 3))
    assert engine.staircase.numerator == {}
    assert [engine.staircase.count(d) for d in range(4)] == [0, 0, 0, 0]
    with pytest.raises(InputError, match="whole ring"):
        engine.staircase.dimension()


# ---------------------------------------------------------------------------
# The Hilbert series numerator against the standard monomials themselves
# ---------------------------------------------------------------------------


class SetStaircase:
    """Reference: the standard monomials of a monomial ideal, degree by degree.

    A monomial of degree D is standard iff it is no generator and each of
    its quotients by one variable is standard, so each degree is built from
    the one below; ``count(D)`` is the Hilbert function at D.
    """

    def __init__(self, ring):
        self.ring = ring
        self.units = [1 << shift for shift in ring.shifts]
        self.generators = {}  # degree -> exponent packings
        self.sets = {0: {0}}

    def count(self, degree):
        if degree < 0:
            return 0
        guard, units = self.ring.guard, self.units
        top = max(self.sets)
        while top < degree:
            below = self.sets[top]
            top += 1
            generators = self.generators.get(top, ())
            self.sets[top] = {
                u
                for u in {m + unit for m in below for unit in units}
                if u not in generators
                and all(u - v in below for v in units if not (u - v) & guard)
            }
        return len(self.sets[degree])

    def insert(self, exps):
        degree = self.ring.degree(self.ring.key_of(exps))
        self.generators.setdefault(degree, set()).add(exps)
        for d in [d for d in self.sets if d >= degree]:
            if d == degree:
                self.sets[d].discard(exps)
            else:
                del self.sets[d]


def subset_dimension(leading_exponents, n):
    """Reference: the size of the largest variable subset that contains the
    support of no leading term (the Krull dimension of the quotient)."""
    supports = [{i for i, e in enumerate(exps) if e} for exps in leading_exponents]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(s <= set(subset) for s in supports):
                return size
    return None  # a unit leading term: no subset qualifies


@st.composite
def monomial_insertions(draw):
    """Up to 7 monomials in n <= 5 variables, exponents <= 4, in random order,
    with repeats and multiples of others among them."""
    n = draw(st.integers(1, 5))
    vector = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
    base = draw(st.lists(vector, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(base), max_size=1))
    multiples = [
        tuple(min(4, a + b) for a, b in zip(g, draw(vector)))
        for g in draw(st.lists(st.sampled_from(base), max_size=1))
    ]
    return n, draw(st.permutations(base + repeats + multiples))


@given(monomial_insertions())
@settings(max_examples=200, deadline=None)
def test_numerator_counts_and_dimension_match_the_references(case):
    n, monomials = case
    ring = _Ring(Q, n)
    staircase, reference = groebner._Staircase(ring), SetStaircase(ring)
    for j, exponents in enumerate(monomials, 1):
        exps = ring.exps_of(ring.key(exponents))
        staircase.insert(exps)
        reference.insert(exps)
        assert [staircase.count(d) for d in range(13)] == [
            reference.count(d) for d in range(13)
        ]
        expected = subset_dimension(monomials[:j], n)
        if expected is None:
            with pytest.raises(InputError):
                staircase.dimension()
            with pytest.raises(InputError):
                staircase_dimension(monomials[:j], n)
        else:
            assert staircase.dimension() == expected
            assert staircase_dimension(monomials[:j], n) == expected


# ---------------------------------------------------------------------------
# Incremental extension
# ---------------------------------------------------------------------------


def reduced_m6_sequence():
    """The forms a reduced regularity check feeds the kernel: (4,4), M = 6."""
    ci = random_complete_intersection(DegreeTuple((4, 4)), FieldSpec.prime(32003), seed=0)
    form, _ = _random_admissible_form(ci, Random(0), ci.tangent)
    tail = [ci.part(i, j) for i, j in sorted(index_set(ci.degrees).pairs) if j >= 2]
    rows = [g.linear_row() for g in (form, ci.part(1, 1), ci.part(2, 1))]
    return restrict_to_graph(tail, *linear_graph(rows, ci.field, len(ci.variables)))


def irregular_sequence():
    """q4 lies in the ideal of q1, q2, q3, so the sequence fails at prefix 4."""
    names = ("v", "w", "x", "y", "z")
    q1, q2, q3 = (
        random_poly(d, names, F5, homogeneous=True, seed=s)
        for d, s in ((2, 11), (2, 12), (3, 13))
    )
    v, w, x, y, z = (MultiPoly.variable(F5, names, n) for n in names)
    return [q1, q2, q3, x * z * q1 + y * y * q2 + w * q3, v * w * w + z**3]


def rung_m7_cut_sequence():
    """The forms the engine takes in the reduced check of the seeded M = 7
    rung, (4,5) over GF(32003) with sampling seed 0: the reduced sequence,
    cut by x_n = 0 and sorted by degree, as the cut certificate feeds it."""
    degrees = (4, 5)
    ci = random_complete_intersection(
        DegreeTuple(degrees), FieldSpec.prime(32003),
        seed=Random(f"1/{degrees}").getrandbits(32),
    )
    _, row = _random_admissible_form(ci, Random(0), ci.tangent)
    forms = ci.reduced_sequence(row)
    unit_row = [0] * (len(forms[0].variables) - 1) + [1]
    cut = restrict_to_graph(forms, *hyperplane_graph(unit_row, ci.field))
    return sorted(cut, key=MultiPoly.total_degree)


def small_sequences():
    names = ("x", "y", "z", "w")
    for field in (Q, F5):
        for seed in range(3):
            yield [
                random_poly(d, names, field, homogeneous=True, seed=seed * 10 + i)
                for i, d in enumerate((2, 2, 3))
            ]


@pytest.mark.parametrize(
    "sequence",
    [reduced_m6_sequence(), irregular_sequence(), *small_sequences()],
    ids=["reduced-m6-gf32003", "irregular-gf5"]
    + [f"small-{f}-{s}" for f in ("q", "gf5") for s in range(3)],
)
def test_incremental_prefixes_equal_bases_from_scratch(sequence):
    first = sequence[0]
    engine = GroebnerEngine(first.field, first.variables)
    for j in range(1, len(sequence) + 1):
        engine.add(sequence[j - 1])
        scratch = groebner_basis(sequence[:j])
        assert sorted(engine.leading_exponents()) == sorted(
            leading_term(g)[0] for g in scratch.generators
        )
        assert engine.reduced().generators == scratch.generators


@pytest.mark.parametrize(
    "sequence, regular, counters",
    [
        (reduced_m6_sequence(), True, [(0, 1, 2), (1, 3, 4), (6, 9, 5), (17, 21, 7)]),
        (irregular_sequence(), False, [(0, 1, 2), (1, 3, 3), (4, 7, 5), (4, 7, 5), (15, 18, 6)]),
        (
            rung_m7_cut_sequence(),
            True,
            [(0, 1, 2), (1, 3, 3), (4, 7, 5), (15, 19, 7), (49, 54, 10)],
        ),
    ],
    ids=["reduced-m6-gf32003", "irregular-gf5", "rung-m7-cut-gf32003"],
)
def test_engine_counters_pinned(sequence, regular, counters):
    # (pairs reduced, elements, largest degree) after each prefix: a change to
    # the pair order or to the criteria that drop pairs shows here
    engine = GroebnerEngine(sequence[0].field, sequence[0].variables)
    for j, (form, expected) in enumerate(zip(sequence, counters), 1):
        engine.add(form)
        assert (engine.pairs_reduced, len(engine.elements), engine.max_degree) == expected
        if regular:
            # the Hilbert-driven skip leaves no pair that reduces to zero, so
            # each form and each reduced pair adds one element
            assert len(engine.elements) - engine.pairs_reduced == j
    assert j == len(sequence)


def product_numerator(degrees):
    """The coefficients of the product of the (1 - t^d) over ``degrees``."""
    numerator = {0: 1}
    for d in degrees:
        shifted = {j + d: -h for j, h in numerator.items()}
        numerator = {
            j: c
            for j in numerator.keys() | shifted.keys()
            if (c := numerator.get(j, 0) + shifted.get(j, 0))
        }
    return numerator


def seeded_reduced_sequences():
    """The reduced sequences of seeded smooth instances, one form each, as
    params: 26 regular, and (2,2,2) over GF(2) with seed 0 irregular."""
    boxes = [
        (p, degrees, seed)
        for p in (2, 3)
        for degrees in ((2, 3), (3, 3), (2, 2, 2))
        for seed in range(4)
    ] + [(32003, degrees, 0) for degrees in ((4, 4), (3, 5), (2, 6))]
    for p, degrees, seed in boxes:
        ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(p), seed=seed)
        if ci.is_smooth_at_origin:
            _, row = _random_admissible_form(ci, Random(seed), ci.tangent)
            name = f"seeded-gf{p}-{'-'.join(map(str, degrees))}-{seed}"
            yield pytest.param(ci.reduced_sequence(row), id=name)


@pytest.mark.parametrize(
    "sequence",
    [
        pytest.param(reduced_m6_sequence(), id="reduced-m6-gf32003"),
        pytest.param(irregular_sequence(), id="irregular-gf5"),
        *(
            pytest.param(sequence, id=f"small-{f}-{s}")
            for sequence, (f, s) in zip(
                small_sequences(), itertools.product(("q", "gf5"), range(3))
            )
        ),
        pytest.param(rung_m7_cut_sequence(), id="rung-m7-cut-gf32003"),
        *seeded_reduced_sequences(),
    ],
)
def test_numerator_is_the_product_exactly_when_regular(sequence):
    # HN = prod (1 - t^d_i) characterises a regular sequence of forms
    engine = GroebnerEngine(sequence[0].field, sequence[0].variables)
    for form in sequence:
        engine.add(form)
    product = product_numerator(g.total_degree() for g in sequence)
    assert (engine.staircase.numerator == product) == is_regular_sequence(sequence).is_regular


def test_irregular_sequence_trace_pinned():
    # trace and failing prefix as computed before the incremental kernel
    result = is_regular_sequence(irregular_sequence())
    assert (result.is_regular, result.trace, result.failing_prefix) == (
        False, (1, 2, 3, 3), 4,
    )


# ---------------------------------------------------------------------------
# Packed monomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xy_first", [True, False], ids=["xy-first", "xy-last"])
def test_exponent_beyond_a_small_slot_is_exact(xy_first):
    # 70000 needs more than 16 bits; by hand, the S-polynomial of the two
    # generators is -y^70001, and it adds the only new element, in either order
    x, y = qv(("x", "y"))
    generators = [x * y, x**70000 - y**70000]
    basis = groebner_basis(generators if xy_first else generators[::-1])
    assert [str(g) for g in basis.generators] == [
        "y^70001", "x^70000 + -1*y^70000", "x*y",
    ]


def test_exponent_beyond_the_packed_range_is_a_budget_error():
    x, y = qv(("x", "y"))
    with pytest.raises(ResourceBudgetError, match="packed"):
        groebner_basis([x ** (2**31) - y ** (2**31), x * y])
    with pytest.raises(ResourceBudgetError, match="packed"):
        normal_form(x ** (2**31), [x * y])


def test_normal_form_by_a_non_monic_basis():
    x, y = qv(("x", "y"))
    remainder = normal_form(x**3 + y**3 + x * y, [2 * x**2 - y, 3 * x * y])
    # x^3 -> x*y/2 by the first divisor, then both x*y terms by the second
    assert remainder.terms == (y**3).terms


# ---------------------------------------------------------------------------
# One monomial order: the packed keys order terms as MultiPoly stores them
# ---------------------------------------------------------------------------

NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")


def monomial_sets(n):
    """Distinct exponent vectors in n variables, each of degree at most 8."""
    vector = st.lists(st.integers(0, n - 1), max_size=8).map(
        lambda picks: tuple(picks.count(i) for i in range(n))
    )
    return st.lists(vector, min_size=1, max_size=20, unique=True)


@given(st.integers(1, 6).flatmap(monomial_sets))
@settings(max_examples=150, deadline=None)
def test_packed_keys_order_monomials_as_multipoly_stores_them(exponents):
    n = len(exponents[0])
    ring = _Ring(F5, n)
    assert sorted(exponents, key=ring.key, reverse=True) == _descending(exponents)
    assert [ring.exponents(ring.key(e)) for e in exponents] == exponents
    poly = MultiPoly.from_terms(F5, NAMES[:n], {e: 1 for e in exponents})
    assert leading_term(poly) == (max(exponents, key=grevlex_key), 1)


@given(
    n=st.integers(1, 4),
    degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_engine_results_are_stored_in_canonical_order(n, degrees, seed):
    # needs no sympy, unlike the oracle, and covers normal_form and s_polynomial
    gens = [
        random_poly(d, NAMES[:n], F5, homogeneous=True, seed=seed + i)
        for i, d in enumerate(degrees)
    ]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    basis = groebner_basis(gens)
    # reduced by part of the basis, the generators leave nonzero remainders;
    # division takes any polynomial, so their sum of mixed degrees goes too
    results = list(basis.generators) + [
        normal_form(g, basis.generators[1:]) for g in [*gens, sum(gens[1:], gens[0])]
    ]
    if len(gens) > 1:
        results.append(s_polynomial(gens[0], gens[1]))
    for g in results:
        assert list(g.terms) == _descending(g.terms)


def test_hand_built_polynomial_in_another_order():
    # the plain constructor keeps terms as given: y^2 before x*y here
    names = ("x", "y")
    x, y = (MultiPoly.variable(F5, names, n) for n in names)
    poly = MultiPoly(F5, names, {(0, 2): 1, (1, 1): 1})
    assert list(poly.terms) != _descending(poly.terms)
    assert leading_term(poly) == ((1, 1), 1)
    # x^2*y -> -x*y^2 -> y^3, each step by the leading term x*y
    assert normal_form(x * x * y, [poly]) == y**3
    assert groebner_basis([poly]).generators == (x * y + y * y,)
