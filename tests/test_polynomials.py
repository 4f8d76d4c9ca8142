import itertools
import json
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoci.errors import InputError
from fanoci.fields import FieldSpec, rref
from fanoci.polynomials import (
    MultiPoly,
    _descending,
    grevlex_key,
    hyperplane_graph,
    monomials_of_degree,
    linear_graph,
    random_poly,
    restrict_row,
    restrict_to_graph,
)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def qvars(*names):
    return tuple(MultiPoly.variable(Q, names, n) for n in names)


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(InputError):
        FieldSpec.prime(6)
    with pytest.raises(InputError):
        FieldSpec.prime(1)
    FieldSpec.prime(2)
    FieldSpec.prime(101)


def test_eval_examples():
    x, y = qvars("x", "y")
    assert (x**2 + y).evaluate([2, 3]) == Fraction(7)
    assert MultiPoly.zero(Q, ("x", "y")).evaluate([5, 11]) == 0
    xf = MultiPoly.variable(F5, ("x", "y"), "x")
    yf = MultiPoly.variable(F5, ("x", "y"), "y")
    assert (xf * yf).evaluate([3, 4]) == 2  # 12 mod 5


def test_eval_dimension_mismatch():
    x, _ = qvars("x", "y")
    with pytest.raises(InputError):
        x.evaluate([1])


def test_homogeneous_components_examples():
    V = ("z1", "z2", "z3", "z4")
    z1 = MultiPoly.variable(Q, V, "z1")
    z4 = MultiPoly.variable(Q, V, "z4")
    comps = (z4 + z1**2).homogeneous_components()
    assert set(comps) == {1, 2}
    assert comps[1].terms == z4.terms
    assert comps[2].terms == (z1**2).terms

    cubic = z1**2 * z4
    assert list((cubic).homogeneous_components()) == [3]
    assert MultiPoly.zero(Q, V).homogeneous_components() == {}


def _bucketed_components(f):
    """Reference split: each term into its degree's bucket, in term order."""
    buckets = {}
    for exps, coeff in f.terms.items():
        buckets.setdefault(sum(exps), {})[exps] = coeff
    return {d: list(terms.items()) for d, terms in sorted(buckets.items())}


@given(
    terms=st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
        st.integers(min_value=1, max_value=4),
        max_size=12,
    )
)
@example(terms={(1, 0, 0): 1, (2, 0, 0): 3, (0, 1, 0): 2})  # degree 1 in two runs
@settings(max_examples=200, deadline=None)
def test_homogeneous_components_of_a_hand_built_polynomial_out_of_order(terms):
    # stored as given, in any order: a degree may come in two runs
    f = MultiPoly(F5, ("x", "y", "z"), terms)
    components = f.homogeneous_components()
    assert list(components) == sorted(components)
    assert {d: list(g.terms.items()) for d, g in components.items()} == (
        _bucketed_components(f)
    )


def test_restriction_examples():
    V = ("z1", "z2", "z3")
    z1, z2, z3 = (MultiPoly.variable(Q, V, n) for n in V)
    r1 = (z1**2 + z3).restrict_to_hyperplane(z3)
    assert r1.variables == ("z1", "z2")
    assert r1.terms == {(2, 0): Fraction(1)}

    r2 = (z1 + z2).restrict_to_hyperplane(z1 + z2)
    assert r2.is_zero()
    assert r2.variables == ("z1", "z3")  # z2 is the highest-index variable in l

    r3 = (z1 * z2).restrict_to_hyperplane(z2 - z1)
    assert r3.variables == ("z1", "z3")
    assert r3.terms == {(2, 0): Fraction(1)}  # z1^2 after eliminating z2


def test_restriction_rejects_bad_forms():
    V = ("x", "y")
    x, y = qvars("x", "y")
    with pytest.raises(InputError):
        x.restrict_to_hyperplane(MultiPoly.zero(Q, V))
    with pytest.raises(InputError):
        x.restrict_to_hyperplane(y**2)
    with pytest.raises(InputError):
        x.restrict_to_hyperplane(y + 1)


def test_random_poly_deterministic():
    a = random_poly(2, ("x", "y"), F5, homogeneous=True, seed=42)
    b = random_poly(2, ("x", "y"), F5, homogeneous=True, seed=42)
    assert a.terms == b.terms
    c = random_poly(2, ("x", "y"), F5, homogeneous=True, seed=43)
    assert a.terms != c.terms or a is not c  # at minimum, same-seed contract holds


def test_random_poly_degree_zero_is_constant():
    p = random_poly(0, ("x", "y"), Q, homogeneous=False, seed=1)
    assert p.total_degree() <= 0


def test_random_poly_homogeneous_flag():
    p = random_poly(3, ("x", "y", "z"), F5, homogeneous=True, seed=9)
    assert p.is_homogeneous() and p.total_degree() in (-1, 3)
    q = random_poly(3, ("x", "y", "z"), F5, homogeneous=False, seed=9)
    degrees = {sum(e) for e in q.terms}
    assert degrees <= set(range(4))


def test_random_linear_zero_frequency_gf101():
    # homogeneous degree 1 in 3 variables over GF(101): the zero draw has
    # probability 101^-3, so its count over 1000 seeds stays within 5 sigma
    # of the binomial expectation, which pins it to exactly 0
    zeros = sum(
        1
        for seed in range(1000)
        if random_poly(1, ("x", "y", "z"), FieldSpec.prime(101), True, seed).is_zero()
    )
    p = Fraction(1, 101**3)
    mean = 1000 * p
    five_sigma_sq = Fraction(25) * 1000 * p * (1 - p)
    assert (zeros - mean) ** 2 <= five_sigma_sq
    assert zeros == 0


def test_random_linear_zero_frequency_gf5():
    # same check over GF(5), where zeros genuinely occur: p = 1/125
    zeros = sum(
        1
        for seed in range(1000)
        if random_poly(1, ("x", "y", "z"), F5, True, seed).is_zero()
    )
    p = Fraction(1, 125)
    mean = 1000 * p
    five_sigma_sq = Fraction(25) * 1000 * p * (1 - p)
    assert (zeros - mean) ** 2 <= five_sigma_sq


def test_monomials_of_degree_counts():
    assert len(list(monomials_of_degree(3, 2))) == 6  # C(4,2)
    assert list(monomials_of_degree(2, 0)) == [(0, 0)]
    assert list(monomials_of_degree(0, 0)) == [()]
    assert list(monomials_of_degree(0, 2)) == []
    # every monomial once, grevlex-descending, as random_poly draws them
    for n in range(1, 7):
        for d in range(7):
            monomials = list(monomials_of_degree(n, d))
            assert len(monomials) == len(set(monomials)) == comb(n + d - 1, d)
            assert all(len(e) == n and sum(e) == d and min(e) >= 0 for e in monomials)
            assert monomials == sorted(monomials, key=grevlex_key, reverse=True)


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.sets(st.tuples(*[st.integers(min_value=0, max_value=4)] * n))
    )
)
@settings(max_examples=60, deadline=None)
def test_descending_key_orders_as_grevlex_descending(exponents):
    assert _descending(exponents) == sorted(exponents, key=grevlex_key, reverse=True)


@pytest.mark.parametrize("field", [F5, FieldSpec.prime(32003), Q], ids=["gf5", "gf32003", "q"])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_random_poly_terms_are_built_in_canonical_order(field, homogeneous):
    for seed in range(8):
        p = random_poly(seed % 4 + 1, ("x", "y", "z", "w"), field, homogeneous, seed)
        normalized = MultiPoly.from_terms(p.field, p.variables, p.terms)
        assert list(p.terms.items()) == list(normalized.terms.items())


def test_random_poly_rejects_duplicate_variables():
    with pytest.raises(InputError):
        random_poly(2, ("x", "x"), F5)


def _substitute_by_power_tables(f, images):
    """Reference composition: each term is a product of cached image powers."""
    field, variables = images[0].field, images[0].variables
    one = MultiPoly.constant(field, variables, 1)
    powers = [[one] for _ in images]  # powers[i][e] = images[i]^e
    total = MultiPoly.zero(field, variables)
    for exps, coeff in f.terms.items():
        term = one * coeff
        for image, table, e in zip(images, powers, exps):
            while len(table) <= e:
                table.append(table[-1] * image)
            term = term * table[e]
        total = total + term
    return total


# --- algebraic properties on seeded random polynomials ----------------------


def _random_pair(seed):
    V = ("x", "y", "z")
    f = random_poly(3, V, F5, homogeneous=False, seed=seed)
    g = random_poly(2, V, F5, homogeneous=False, seed=seed + 10_000)
    return f, g


@pytest.mark.parametrize("seed", range(25))
def test_reassembly_of_homogeneous_components(seed):
    f, _ = _random_pair(seed)
    total = MultiPoly.zero(F5, f.variables)
    for part in f.homogeneous_components().values():
        assert part.is_homogeneous()
        total = total + part
    assert total.terms == f.terms


@pytest.mark.parametrize("seed", range(25))
def test_restriction_is_a_ring_map(seed):
    f, g = _random_pair(seed)
    ell = random_poly(1, f.variables, F5, homogeneous=True, seed=seed + 77)
    if ell.is_zero():
        pytest.skip("zero form drawn")
    assert (f * g).restrict_to_hyperplane(ell).terms == (
        f.restrict_to_hyperplane(ell) * g.restrict_to_hyperplane(ell)
    ).terms
    assert (f + g).restrict_to_hyperplane(ell).terms == (
        f.restrict_to_hyperplane(ell) + g.restrict_to_hyperplane(ell)
    ).terms


@pytest.mark.parametrize("seed", range(25))
def test_evaluation_commutes_with_restriction(seed):
    f, _ = _random_pair(seed)
    ell = random_poly(1, f.variables, F5, homogeneous=True, seed=seed + 301)
    if ell.is_zero():
        pytest.skip("zero form drawn")
    coeffs = ell.linear_row()
    pivot = max(i for i, c in enumerate(coeffs) if c)
    restricted = f.restrict_to_hyperplane(ell)
    from random import Random

    rng = Random(seed)
    reduced_point = [rng.randrange(5) for _ in range(len(f.variables) - 1)]
    # lift: solve the form for the eliminated coordinate
    partial = list(reduced_point)
    others = sum(
        c * v
        for i, (c, v) in enumerate(
            zip(coeffs[:pivot] + coeffs[pivot + 1 :], partial)
        )
    )
    lifted_value = (-others * pow(coeffs[pivot], 3, 5)) % 5  # inverse mod 5
    lifted = partial[:pivot] + [lifted_value] + partial[pivot:]
    assert ell.evaluate(lifted) == 0
    assert restricted.evaluate(reduced_point) == f.evaluate(lifted)


def _restrict_one_hyperplane_at_a_time(polys, forms):
    forms = list(forms)
    while forms:
        form = forms.pop(0)
        if form.is_zero():  # dependent on the forms before it: no new hyperplane
            continue
        forms = [g.restrict_to_hyperplane(form) for g in forms]
        polys = [g.restrict_to_hyperplane(form) for g in polys]
    return polys


@pytest.mark.parametrize("seed", range(30))
def test_one_shot_restriction_equals_the_hyperplane_chain(seed):
    from random import Random

    rng = Random(seed)
    field = rng.choice([F5, FieldSpec.prime(101)])
    V = tuple(f"z{i}" for i in range(1, rng.choice([4, 5, 6]) + 1))
    forms = []
    for i in range(rng.choice([1, 2, 3])):
        row = random_poly(1, V, field, homogeneous=True, seed=seed + 500 * i).linear_row()
        # sparse rows too, so that the eliminated variables are not all last
        forms.append(MultiPoly.linear(field, V, [c if rng.random() < 0.6 else 0 for c in row]))
    polys = [
        random_poly(d, V, field, homogeneous=False, seed=seed + 7 * d) for d in (1, 2, 3)
    ]
    expected = _restrict_one_hyperplane_at_a_time(polys, forms)
    rows = [form.linear_row() for form in forms]
    got = restrict_to_graph(polys, *linear_graph(rows, field, len(V)))
    assert [g.variables for g in got] == [g.variables for g in expected]
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in expected]


def _solved_graph(field, variables, forms):
    """The survivors' names and the image of every variable, a linear form in
    the survivors, on the common zeros of ``forms``, solved directly.

    The eliminated variables are the pivots of the rows reduced from the last
    column backwards.  A survivor's image is itself, and an eliminated
    variable's is minus its reduced row at the survivors.
    """
    n = len(variables)
    work, pivots = rref([form.linear_row()[::-1] for form in forms], field)
    eliminated = {n - 1 - c: row[::-1] for c, row in zip(pivots, work)}
    kept = [i for i in range(n) if i not in eliminated]
    survivors = tuple(variables[j] for j in kept)
    rows = [
        [field.neg(eliminated[i][j]) for j in kept]
        if i in eliminated
        else [field.one() if j == i else field.zero() for j in kept]
        for i in range(n)
    ]
    return survivors, [MultiPoly.linear(field, survivors, row) for row in rows]


@given(
    field=st.sampled_from([F5, FieldSpec.prime(101), Q]),
    n=st.integers(min_value=1, max_value=5),
    rows=st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
        min_size=1,
        max_size=5,
    ),
    degrees=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    homogeneous=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_restriction_matches_substitution_and_the_hyperplane_chain(
    field, n, rows, degrees, homogeneous, seed
):
    # the forms may be dependent, or zero: the rows are drawn freely
    V = tuple(f"z{i}" for i in range(1, n + 1))
    forms = [MultiPoly.linear(field, V, row[:n]) for row in rows]
    polys = [
        random_poly(d, V, field, homogeneous, seed + i) for i, d in enumerate(degrees)
    ]
    rows = [form.linear_row() for form in forms]
    got = restrict_to_graph(polys, *linear_graph(rows, field, n))

    survivors, substitution = _solved_graph(field, V, forms)
    by_substitution = [_substitute_by_power_tables(f, substitution) for f in polys]
    by_hyperplanes = _restrict_one_hyperplane_at_a_time(polys, forms)
    # two stages: the graph of the first forms, then the common zeros of the
    # others, restricted to that graph
    split = len(forms) // 2
    graph = linear_graph(rows[:split], field, n)
    rest = [form.linear_row() for form in restrict_to_graph(forms[split:], *graph)]
    by_stages = restrict_to_graph(
        restrict_to_graph(polys, *graph), *linear_graph(rest, field, len(graph[0]))
    )
    for expected in (by_substitution, by_hyperplanes, by_stages):
        assert [g.variables for g in got] == [g.variables for g in expected]
        assert [list(g.terms.items()) for g in got] == [
            list(g.terms.items()) for g in expected
        ]
    assert all(g.variables == survivors for g in got)


def test_restriction_to_no_forms_is_the_identity():
    V = ("x", "y", "z")
    polys = [random_poly(d, V, F5, seed=d) for d in (0, 1, 3)]
    restricted = restrict_to_graph(polys, *linear_graph([], F5, 3))
    assert [(g.variables, list(g.terms.items())) for g in restricted] == [
        (g.variables, list(g.terms.items())) for g in polys
    ]
    assert restrict_to_graph([], *linear_graph([], F5, 3)) == []
    whole_space = linear_graph([[0, 0, 0]], F5, 3)
    assert whole_space[0] == (0, 1, 2)
    assert restrict_to_graph(polys, *whole_space) == polys


@pytest.mark.parametrize("field", [F5, FieldSpec.prime(101), Q])
@pytest.mark.parametrize("graph", ["whole space", "no survivors", "one hyperplane"])
def test_restriction_to_a_graph_edge_cases_match_substitution(field, graph):
    V = ("z1", "z2", "z3")
    rows = {
        "whole space": [[0, 0, 0]],
        "no survivors": [[1, 2, 0], [0, 1, 3], [1, 0, 1]],  # determinant 7
        "one hyperplane": [[2, 0, 3]],
    }[graph]
    forms = [MultiPoly.linear(field, V, row) for row in rows]
    # a zero polynomial among the inputs, and one with a constant term
    polys = [
        random_poly(3, V, field, seed=4),
        MultiPoly.zero(field, V),
        random_poly(2, V, field, homogeneous=True, seed=5),
    ]
    kept, images = linear_graph([form.linear_row() for form in forms], field, 3)
    got = restrict_to_graph(polys, kept, images)

    survivors, substitution = _solved_graph(field, V, forms)
    assert tuple(V[j] for j in kept) == survivors
    # each eliminated variable's image, in increasing order, is its solved
    # linear form over the survivors
    assert list(images) == sorted(images) == [i for i in range(3) if i not in kept]
    assert {i: MultiPoly.linear(field, survivors, row) for i, row in images.items()} == {
        i: substitution[i] for i in images
    }
    expected = [_substitute_by_power_tables(f, substitution) for f in polys]
    assert [g.variables for g in got] == [survivors] * 3
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in expected]
    assert got[1].is_zero()
    if graph == "no survivors":  # only the constant term is left
        assert survivors == () and got[0].terms == {
            (): c for e, c in polys[0].terms.items() if not any(e)
        }


@pytest.mark.parametrize("field", [FieldSpec.prime(2), F5, FieldSpec.prime(32003), Q])
@pytest.mark.parametrize(
    "rows, zero_images, live_images",
    [
        ([[0, 0, 0, 0, 1]], 1, 0),  # the cut z5 = 0
        ([[0, 0, 0, 0, 1], [0, 3, 0, 0, 0]], 2, 0),  # only zero images, not all last
        ([[0, 0, 0, 0, 1], [1, 0, 3, 0, 0], [0, 0, 0, 3, 0]], 2, 1),
        ([[1, 1, 1, 1, 1]], 0, 1),
    ],
    ids=["cut", "all-zero", "mixed", "live"],
)
def test_zero_images_restrict_as_substitution(field, rows, zero_images, live_images):
    V = tuple(f"z{i}" for i in range(1, 6))
    forms = [MultiPoly.linear(field, V, row) for row in rows]
    polys = [
        random_poly(3, V, field, seed=11),
        MultiPoly.zero(field, V),
        random_poly(4, V, field, homogeneous=True, seed=12),
        MultiPoly.constant(field, V, 3),
    ]
    kept, images = linear_graph([form.linear_row() for form in forms], field, 5)
    zero = {i for i, image in images.items() if not any(image)}
    assert (len(zero), len(images) - len(zero)) == (zero_images, live_images)
    got = restrict_to_graph(polys, kept, images)

    survivors, substitution = _solved_graph(field, V, forms)
    expected = [_substitute_by_power_tables(f, substitution) for f in polys]
    assert [g.variables for g in got] == [survivors] * len(polys)
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in expected]
    if len(zero) == len(images):
        # only zero images: the restriction drops the terms that hold them
        assert [g.terms for g in got] == [
            {tuple(e[j] for j in kept): c for e, c in f.terms.items()
             if not any(e[i] for i in zero)}
            for f in polys
        ]


@st.composite
def _field_and_row(draw):
    """A field and a row of its elements, often with zeros, sometimes all zero."""
    field = draw(
        st.sampled_from(
            [FieldSpec.prime(2), FieldSpec.prime(101), FieldSpec.prime(32003), Q]
        )
    )
    if field.characteristic:
        top = field.characteristic - 1
        element = st.one_of(st.just(0), st.integers(0, top), st.just(top))
    else:
        element = st.one_of(
            st.just(0),
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
        )
    row = draw(st.lists(element, min_size=1, max_size=7))
    return field, [field.coerce(c) for c in row]


@given(_field_and_row())
@settings(max_examples=300, deadline=None)
def test_hyperplane_graph_is_the_one_row_linear_graph(field_and_row):
    field, row = field_and_row
    kept, images = hyperplane_graph(row, field)
    assert (kept, images) == linear_graph([row], field, len(row))
    nonzero = [i for i, c in enumerate(row) if c]
    # the last nonzero entry is eliminated, and only that one
    assert kept == tuple(i for i in range(len(row)) if not nonzero or i != nonzero[-1])


def test_hyperplane_graph_eliminates_the_last_nonzero_entry():
    row = [Fraction(c) for c in (3, 0, 5, 7, 0)]
    kept, images = hyperplane_graph(row, Q)
    assert kept == (0, 1, 2, 4)
    # the eliminated index 3 is -row[j] / row[3] at each survivor j
    assert images == {3: (Fraction(-3, 7), 0, Fraction(-5, 7), 0)}
    assert hyperplane_graph([Fraction(0)] * 3, Q) == ((0, 1, 2), {})


def _dot(field, row, point):
    total = field.zero()
    for a, b in zip(row, point):
        total = field.add(total, field.mul(a, b))
    return total


SMALL_FIELDS = [
    FieldSpec.prime(2),
    FieldSpec.prime(3),
    FieldSpec.quadratic(2),
    FieldSpec.quadratic(3),
    FieldSpec.quadratic(5),
]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"GF({f.size})")
def test_linear_graph_points_are_the_common_zeros(field):
    # brute force over field^n, n <= 3: the points of the graph, any values
    # at the survivors and its image at each eliminated variable, are
    # exactly the points where every row vanishes
    rng, elements = Random(field.size), field.elements()
    for _ in range(12):
        n = rng.randint(1, 3)
        rows = [field.random_elements(rng, n) for _ in range(rng.randint(0, n))]
        if rows and rng.random() < 0.5:  # a dependent row
            scale = field.random_element(rng)
            rows.insert(rng.randint(0, len(rows)), [field.mul(scale, c) for c in rows[0]])
        kept, images = linear_graph(rows, field, n)
        assert list(kept) == sorted(kept) and list(images) == sorted(images)
        assert sorted([*kept, *images]) == list(range(n))
        assert all(len(image) == len(kept) for image in images.values())
        points = set()
        for values in itertools.product(elements, repeat=len(kept)):
            point = [None] * n
            for j, value in zip(kept, values):
                point[j] = value
            for i, image in images.items():
                point[i] = _dot(field, image, values)
            points.add(tuple(point))
        zeros = {
            point
            for point in itertools.product(elements, repeat=n)
            if not any(_dot(field, row, point) for row in rows)
        }
        assert points == zeros


@given(
    field=st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5), Q]),
    n=st.integers(min_value=1, max_value=6),
    rows=st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
        max_size=4,
    ),
    row=st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_restrict_row_is_the_dot_product_with_each_graph_basis_vector(field, n, rows, row):
    # dependent, zero and no rows too: the graph may be the whole space or
    # leave no survivor
    rows = [[field.coerce(c) for c in r[:n]] for r in rows]
    row = [field.coerce(c) for c in row[:n]]
    kept, images = linear_graph(rows, field, n)
    expected = []
    for j, survivor in enumerate(kept):
        # the point of the graph that is 1 at this survivor, 0 at the others
        vec = [field.zero()] * n
        vec[survivor] = field.one()
        for i, image in images.items():
            vec[i] = image[j]
        expected.append(_dot(field, row, vec))
    assert restrict_row(row, kept, images, field) == expected


def test_linear_form_row_roundtrip():
    V = ("x", "y", "z")
    ell = MultiPoly.linear(F5, V, [3, 0, 7])
    assert ell.terms == {(1, 0, 0): 3, (0, 0, 1): 2}
    assert ell.linear_row() == [3, 0, 2]
    assert MultiPoly.linear(F5, V, [0, 0, 0]).linear_row() == [0, 0, 0]
    with pytest.raises(InputError):
        MultiPoly.linear(F5, V, [1, 2])
    with pytest.raises(InputError):
        (ell * ell).linear_row()


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_poly_ring_laws(seed_a, seed_b):
    V = ("x", "y")
    f = random_poly(2, V, F5, homogeneous=False, seed=seed_a)
    g = random_poly(2, V, F5, homogeneous=False, seed=seed_b)
    assert (f + g).terms == (g + f).terms
    assert (f * g).terms == (g * f).terms
    assert (f * (g + g)).terms == (f * g + f * g).terms
    assert (f - f).is_zero()


def test_json_roundtrip():
    x, y = qvars("x", "y")
    f = x**2 * y + Fraction(3, 2) * y - 7
    data = f.to_json()
    assert data["field"] == "rational"
    assert MultiPoly.from_json(data).terms == f.terms

    g = random_poly(3, ("a", "b"), F5, homogeneous=False, seed=5)
    assert MultiPoly.from_json(g.to_json()).terms == g.terms
    # each term holds its stored exponent tuple, not a copy
    for p in (f, g):
        terms = p.to_json()["terms"]
        assert len(terms) == len(p.terms)
        assert all(t["exponents"] is e for t, e in zip(terms, p.terms))


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        MultiPoly.from_json({"field": "rational", "variables": ["x"]})
    for terms in (5, None, 2.5, True):  # a TypeError escaped for these
        with pytest.raises(InputError):
            MultiPoly.from_json({"field": "gf:5", "variables": ["x"], "terms": terms})
    with pytest.raises(InputError):
        MultiPoly.from_json(
            {
                "field": "rational",
                "variables": ["x"],
                "terms": [{"coeff": "1", "exponents": [1, 2]}],
            }
        )


def test_json_rejects_duplicate_terms():
    # the last duplicate used to win silently: this loaded as 2*x
    data = {
        "field": "gf:5",
        "variables": ["x", "y"],
        "terms": [{"coeff": "1", "exponents": [1, 0]}, {"coeff": "2", "exponents": [1, 0]}],
    }
    with pytest.raises(InputError, match=r"duplicate term with exponents \[1, 0\]"):
        MultiPoly.from_json(data)
    # a zero coefficient is still a term
    data["terms"][0]["coeff"] = "0"
    with pytest.raises(InputError, match="duplicate term"):
        MultiPoly.from_json(data)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"coeff": "1", "exponents": [1, True]}, "list of integers"),
        ({"coeff": "1", "exponents": (1, True)}, "list of integers"),
        ({"coeff": "1", "exponents": [1, 0, 0]}, "has length 3, expected 2"),
        ({"coeff": "1", "exponents": [2, -1]}, "negative exponent"),
        ({"coeff": True, "exponents": [1, 0]}, "coefficient"),
        ({"coeff": "x", "exponents": [1, 0]}, "element"),
        ({"exponents": [1, 0]}, "malformed polynomial term"),
        ([1, 0], "malformed polynomial term"),
    ],
)
@pytest.mark.parametrize("tag", ["gf:5", "rational"])
def test_json_names_the_offending_term(entry, message, tag):
    if tag == "rational" and message == "element":
        message = "rational literal"
    good = {"coeff": "1", "exponents": [0, 1]}
    data = {"field": tag, "variables": ["x", "y"], "terms": [good, entry, good]}
    with pytest.raises(InputError, match=message):
        MultiPoly.from_json(data)


# --- one input contract: the in-memory constructors check what from_json does


@pytest.mark.parametrize(
    "build",
    [
        lambda names: MultiPoly.from_terms(F5, names, {}),
        lambda names: MultiPoly.linear(F5, names, [1, 2]),
        lambda names: random_poly(2, names, F5),
    ],
    ids=["from_terms", "linear", "random_poly"],
)
def test_constructors_refuse_a_name_that_is_not_a_string(build):
    with pytest.raises(InputError, match="variables must be a list of names"):
        build(("x", 1))
    with pytest.raises(InputError, match="duplicate variable names"):
        build(("x", "x"))


@pytest.mark.parametrize("exps", [(1.5,), (1.0,), (True,)])
def test_from_terms_refuses_an_exponent_that_is_not_an_integer(exps):
    with pytest.raises(InputError, match="list of integers"):
        MultiPoly.from_terms(F5, ("x",), {exps: 1})


def test_the_rationals_refuse_a_bool():
    with pytest.raises(InputError):
        FieldSpec.rationals().coerce(True)
    with pytest.raises(InputError):
        MultiPoly.constant(Q, ("x",), False)


@st.composite
def _from_terms_input(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    name = st.one_of(st.text(max_size=2), st.integers(0, 2))
    names = draw(st.lists(name, min_size=n, max_size=n))
    entry = st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([1.5, 2.0]))
    field = draw(st.sampled_from([F5, Q]))
    coeff = st.one_of(st.integers(-7, 7), st.booleans(), st.fractions(max_denominator=5))
    terms = draw(
        st.dictionaries(st.lists(entry, min_size=n, max_size=n + 1).map(tuple), coeff, max_size=4)
    )
    return field, names, terms


@given(_from_terms_input())
@example((F5, ["x", 1], {}))
@example((F5, ["x"], {(1.5,): 1}))
@example((Q, ["x"], {(True,): 1}))
@settings(max_examples=150, deadline=None)
def test_what_from_terms_accepts_survives_the_json_round_trip(case):
    field, names, terms = case
    try:
        p = MultiPoly.from_terms(field, names, terms)
    except InputError:
        return
    assert MultiPoly.from_json(json.loads(json.dumps(p.to_json()))) == p


def test_json_tuple_exponents_load_as_their_list_form():
    # a ``to_json`` value holds tuples, decoded JSON holds lists: both load
    as_lists = {
        "field": "gf:5",
        "variables": ["x", "y"],
        "terms": [{"coeff": "2", "exponents": [1, 1]}, {"coeff": "3", "exponents": [0, 2]}],
    }
    as_tuples = {
        **as_lists,
        "terms": [{**t, "exponents": tuple(t["exponents"])} for t in as_lists["terms"]],
    }
    mixed = {**as_lists, "terms": [as_tuples["terms"][0], as_lists["terms"][1]]}
    expected = MultiPoly.from_json(as_lists)
    assert expected.terms == {(1, 1): 2, (0, 2): 3}
    assert MultiPoly.from_json(as_tuples) == expected
    assert MultiPoly.from_json(mixed) == expected


@pytest.mark.parametrize(
    "exponents, message",
    [
        ((1, True), "exponents must be a list of integers, got (1, True)"),
        ((2, -1), "negative exponent in (2, -1)"),
        ((1, 0, 0), "exponent vector (1, 0, 0) has length 3, expected 2"),
    ],
)
def test_json_refuses_a_bad_tuple_with_the_list_messages(exponents, message):
    # a tuple gets the entry checks a list gets, and the same message
    terms = [{"coeff": "1", "exponents": [0, 1]}, {"coeff": "1", "exponents": exponents}]
    with pytest.raises(InputError) as info:
        MultiPoly.from_json({"field": "gf:5", "variables": ["x", "y"], "terms": terms})
    assert str(info.value) == message


def test_json_rational_dump_text_is_unchanged():
    # the text a list-per-term writer gave: ``json.dumps`` writes a tuple as
    # the same array
    x, y, z = qvars("x", "y", "z")
    f = x**2 * y - Fraction(3, 2) * y * z**2 + Fraction(-7, 5) * z**3 + 4
    assert json.dumps(f.to_json()) == (
        '{"field": "rational", "variables": ["x", "y", "z"], "terms": ['
        '{"coeff": "1", "exponents": [2, 1, 0]}, '
        '{"coeff": "-3/2", "exponents": [0, 1, 2]}, '
        '{"coeff": "-7/5", "exponents": [0, 0, 3]}, '
        '{"coeff": "4", "exponents": [0, 0, 0]}]}'
    )


@pytest.mark.parametrize(
    "exponents, message",
    [
        ([0, False], "list of integers"),
        ([False, 0], "list of integers"),
        ([1.0, 0], "list of integers"),
        ([0, -1], "negative exponent"),
    ],
)
def test_json_refuses_each_bad_exponent_entry_after_good_terms(exponents, message):
    # the entries of all terms are screened in one walk; a falsy offender
    # such as False or 0.0 must fail the screen as much as any other
    good = [{"coeff": "1", "exponents": [1, 1]}, {"coeff": "1", "exponents": [0, 1]}]
    terms = [*good, {"coeff": "1", "exponents": exponents}]
    data = {"field": "gf:5", "variables": ["x", "y"], "terms": terms}
    with pytest.raises(InputError, match=message):
        MultiPoly.from_json(data)


def test_json_names_the_first_malformed_term_whichever_field_it_lacks():
    # the second term lacks its exponents, the first only its coefficient
    terms = [{"exponents": [1, 0]}, {"coeff": "1"}]
    data = {"field": "gf:5", "variables": ["x", "y"], "terms": terms}
    with pytest.raises(InputError, match=r"malformed polynomial term: \{'exponents'") as info:
        MultiPoly.from_json(data)
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("field", [F5, Q], ids=["gf5", "q"])
def test_json_load_puts_terms_in_canonical_order(field):
    f = random_poly(3, ("x", "y", "z"), field, homogeneous=True, seed=4)
    data = f.to_json()
    data["terms"].reverse()
    data["terms"].append({"coeff": "0", "exponents": [0, 0, 0]})
    assert list(MultiPoly.from_json(data).terms.items()) == list(f.terms.items())


@pytest.mark.parametrize("field", [F5, Q], ids=["gf5", "q"])
def test_json_load_drops_a_zero_term_from_canonical_input(field):
    # terms in canonical order, as dumped, are kept as they come, but not a
    # zero coefficient among them
    f = random_poly(3, ("x", "y", "z"), field, seed=4)
    data = f.to_json()
    zeroed = data["terms"][len(data["terms"]) // 2]
    zeroed["coeff"] = "0"
    expected = [(e, c) for e, c in f.terms.items() if e != tuple(zeroed["exponents"])]
    assert list(MultiPoly.from_json(data).terms.items()) == expected


def test_terms_stored_in_grevlex_descending_order():
    x, y = qvars("x", "y")
    f = y + x**2 + x * y + 1
    keys = list(f.terms)
    assert keys == [(2, 0), (1, 1), (0, 1), (0, 0)]
