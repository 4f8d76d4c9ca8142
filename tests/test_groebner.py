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
    random_poly,
    restrict_to_common_zeros,
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


# ---------------------------------------------------------------------------
# Incremental extension
# ---------------------------------------------------------------------------


def reduced_m6_sequence():
    """The forms a reduced regularity check feeds the kernel: (4,4), M = 6."""
    ci = random_complete_intersection(DegreeTuple((4, 4)), FieldSpec.prime(32003), seed=0)
    form, _ = _random_admissible_form(ci, Random(0), ci.tangent())
    tail = [ci.part(i, j) for i, j in index_set(ci.degrees).sorted_pairs if j >= 2]
    return restrict_to_common_zeros(tail, [form, ci.part(1, 1), ci.part(2, 1)])


def irregular_sequence():
    """q4 lies in the ideal of q1, q2, q3, so the sequence fails at prefix 4."""
    names = ("v", "w", "x", "y", "z")
    q1, q2, q3 = (
        random_poly(d, names, F5, homogeneous=True, seed=s)
        for d, s in ((2, 11), (2, 12), (3, 13))
    )
    v, w, x, y, z = (MultiPoly.variable(F5, names, n) for n in names)
    return [q1, q2, q3, x * z * q1 + y * y * q2 + w * q3, v * w * w + z**3]


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
    ],
    ids=["reduced-m6-gf32003", "irregular-gf5"],
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


def test_irregular_sequence_trace_pinned():
    # trace and failing prefix as computed before the incremental kernel
    result = is_regular_sequence(irregular_sequence())
    assert (result.is_regular, result.trace, result.failing_prefix) == (
        False, (1, 2, 3, 3), 4,
    )


# ---------------------------------------------------------------------------
# Packed monomials
# ---------------------------------------------------------------------------


def test_exponent_beyond_a_small_slot_is_exact():
    # 70000 needs more than 16 bits; by hand, the S-polynomial of the two
    # generators is -y^70001, and it adds the only new element.  x*y goes
    # first: its staircase has two monomials per degree, so the Hilbert
    # bound counts them up to degree 70001 in well under a second
    x, y = qv(("x", "y"))
    basis = groebner_basis([x * y, x**70000 - y**70000])
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
