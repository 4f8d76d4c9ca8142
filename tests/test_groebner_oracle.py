"""Differential check of ``groebner_basis`` against sympy's reduced bases.

sympy is a test-only reference: the module is skipped where it is missing.
Small homogeneous ideals (at most 3 variables, degree 3 and 3 generators),
the only input the engine takes, are drawn by hypothesis and compared
generator by generator, over GF(p) and over Q, in grevlex, and once more
over GF(p) with all forms of one degree; each generator
is compared as its list of terms, so the order in which the terms are
stored is checked too.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoci.fields import FieldSpec
from fanoci.groebner import groebner_basis
from fanoci.polynomials import MultiPoly

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")


@st.composite
def ideals(draw, one_degree=False):
    """(variables, forms), each form a map exponents -> coefficient."""
    n = draw(st.integers(1, 3))
    generators = []
    common = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 3))):
        top = common if one_degree else draw(st.integers(1, 3))
        exponents = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) == top)
        generators.append(
            draw(
                st.dictionaries(
                    exponents, st.integers(-4, 4).filter(bool), min_size=1, max_size=3
                )
            )
        )
    return NAMES[:n], generators


def ours(variables, generators, field):
    polys = [MultiPoly.from_terms(field, variables, g) for g in generators]
    basis = groebner_basis(polys)
    return [list(g.terms.items()) for g in basis.generators]


def theirs(variables, generators, field):
    """sympy's reduced basis as monic term lists, descending, with our coefficients."""
    gens = sympy.symbols(variables)
    exprs = []
    for g in generators:
        expr = sympy.Integer(0)
        for exps, coeff in g.items():
            monomial = sympy.Integer(coeff)
            for symbol, e in zip(gens, exps):
                monomial *= symbol**e
            expr += monomial
        exprs.append(expr)
    if field.is_prime_field:
        p = field.characteristic
        result = sympy.groebner(exprs, *gens, order="grevlex", modulus=p)
    else:
        result = sympy.groebner(exprs, *gens, order="grevlex", domain=sympy.QQ)
    basis = []
    for expr in result.exprs:
        poly = sympy.Poly(expr, *gens, domain=sympy.QQ)
        terms = {}
        for exps, coeff in poly.terms(order="grevlex"):
            value = Fraction(int(coeff.p), int(coeff.q))
            terms[tuple(exps)] = value
        basis.append(terms)
    out = []
    for terms in basis:
        lead = next(iter(terms.values()))  # sympy lists the leading term first
        monic = {}
        for exps, value in terms.items():
            value = value / lead
            if field.is_prime_field:
                # symmetric residues mod p, and a rational lead inverse
                value = value.numerator * pow(value.denominator, -1, p) % p
            monic[exps] = value
        out.append(list(monic.items()))
    return out


def assert_matches(ideal, field):
    variables, generators = ideal
    polys = [MultiPoly.from_terms(field, variables, g) for g in generators]
    if all(g.is_zero() for g in polys):
        return
    assert ours(variables, generators, field) == theirs(variables, generators, field)


@settings(max_examples=40, deadline=None)
@given(ideal=ideals(), p=st.sampled_from([5, 7, 32003]))
def test_matches_sympy_over_gf_p(ideal, p):
    assert_matches(ideal, FieldSpec.prime(p))


@settings(max_examples=40, deadline=None)
@given(ideal=ideals())
def test_matches_sympy_over_q(ideal):
    assert_matches(ideal, FieldSpec.rationals())


@settings(max_examples=40, deadline=None)
@given(ideal=ideals(one_degree=True), p=st.sampled_from([5, 32003]))
def test_matches_sympy_on_homogeneous_ideals(ideal, p):
    # forms of one degree are where the engine skips degrees its leading
    # terms already span soonest
    assert_matches(ideal, FieldSpec.prime(p))
