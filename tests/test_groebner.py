import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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
    basis = groebner_basis([3 * x**2 + 6 * y])
    (g,) = basis.generators
    assert g.terms == (x**2 + 2 * y).terms


def test_zero_ideal_yields_empty_basis():
    zero = MultiPoly.zero(Q, ("x", "y"))
    basis = groebner_basis([zero])
    assert basis.generators == ()


def test_basis_is_reduced_and_monic_on_random_inputs():
    for seed in range(15):
        gens = [
            random_poly(2, ("x", "y", "z"), F5, homogeneous=False, seed=seed * 3 + i)
            for i in range(3)
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
            random_poly(3, ("x", "y"), F5, homogeneous=False, seed=seed * 11 + i)
            for i in range(3)
        ]
        nonzero = [g for g in gens if not g.is_zero()]
        if not nonzero:
            continue
        basis = groebner_basis(nonzero)
        for g in nonzero:
            assert basis.contains(g)


def test_mixed_rings_rejected():
    x, _ = qv(("x", "y"))
    other = MultiPoly.variable(Q, ("a", "b"), "a")
    with pytest.raises(InputError):
        groebner_basis([x, other])


def test_groebner_pair_budget():
    # katsura-like dense quadrics exceed a tiny pair budget immediately
    gens = [
        random_poly(2, ("x", "y", "z", "w"), F5, homogeneous=False, seed=i)
        for i in range(4)
    ]
    with pytest.raises(ResourceBudgetError) as info:
        groebner_basis(gens, max_pairs=1)
    # the message says how far the run got
    assert re.fullmatch(
        r"Groebner computation exceeded the pair budget \(1\) after 1 pairs,"
        r" with \d+ basis elements and largest degree \d+",
        str(info.value),
    )


def test_groebner_basis_size_budget():
    gens = [
        random_poly(2, ("x", "y", "z", "w"), F5, homogeneous=False, seed=i)
        for i in range(4)
    ]
    with pytest.raises(ResourceBudgetError) as info:
        groebner_basis(gens, max_basis=2)
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
        assert sorted(engine.leading_exponents()) == sorted(scratch.leading_exponents())
        assert engine.reduced().generators == scratch.generators


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
    # 70000 needs more than 16 bits; the basis is the one computed before
    # monomials were packed
    x, y = qv(("x", "y"))
    basis = groebner_basis([x**70000 - y, x * y])
    assert [str(g) for g in basis.generators] == ["x^70000 + -1*y", "x*y", "y^2"]


def test_exponent_beyond_the_packed_range_is_a_budget_error():
    x, y = qv(("x", "y"))
    with pytest.raises(ResourceBudgetError, match="packed"):
        groebner_basis([x ** (2**31) - y, x * y])
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
    homogeneous=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_engine_results_are_stored_in_canonical_order(n, degrees, homogeneous, seed):
    # needs no sympy, unlike the oracle, and covers normal_form and s_polynomial
    gens = [
        random_poly(d, NAMES[:n], F5, homogeneous=homogeneous, seed=seed + i)
        for i, d in enumerate(degrees)
    ]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    basis = groebner_basis(gens)
    # reduced by part of the basis, the generators leave nonzero remainders
    results = list(basis.generators) + [normal_form(g, basis.generators[1:]) for g in gens]
    if len(gens) > 1:
        results.append(s_polynomial(gens[0], gens[1]))
    for g in results:
        assert list(g.terms) == _descending(g.terms)


def test_hand_built_polynomial_in_another_order():
    # the plain constructor keeps terms as given: x before y^2 here
    names = ("x", "y")
    x, y = (MultiPoly.variable(F5, names, n) for n in names)
    poly = MultiPoly(F5, names, {(1, 0): 1, (0, 2): 1})
    assert list(poly.terms) != _descending(poly.terms)
    assert leading_term(poly) == ((0, 2), 1)
    assert normal_form(y**3, [poly]) == 4 * x * y
    assert groebner_basis([poly]).generators == (y * y + x,)
