import hashlib
import json
from random import Random

import pytest

import fanoci.dimension as dimension
import fanoci.polynomials as polynomials
from fanoci.dimension import PROBABILISTIC, is_regular_sequence
from fanoci.errors import InputError, ResourceBudgetError
from fanoci.families import DegreeTuple
from fanoci.fields import FieldSpec
from fanoci.polynomials import MultiPoly, linear_graph, restrict_row, restrict_to_graph
from fanoci.regularity import (
    PointedCI,
    RegularityReport,
    ambient_variables,
    assemble_sequence,
    index_set,
    random_complete_intersection,
    regularity_check,
    sampled_regularity_check,
    tangent_space,
)

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)


def variables_of(n, field=Q):
    names = ambient_variables(n)
    return names, {name: MultiPoly.variable(field, names, name) for name in names}


# ---------------------------------------------------------------------------
# index_set
# ---------------------------------------------------------------------------


def test_index_set_equal_top_degrees():
    idx = index_set(DegreeTuple((2, 2)))
    assert set(idx.excluded) == {(2, 2), (1, 2)}
    assert sorted(idx.pairs) == [(1, 1), (2, 1)]


def test_index_set_distinct_top_degrees():
    idx = index_set(DegreeTuple((2, 3)))
    assert set(idx.excluded) == {(2, 3), (2, 2)}
    assert sorted(idx.pairs) == [(1, 1), (1, 2), (2, 1)]


def test_index_set_cardinality_formula():
    dt = DegreeTuple((2, 5, 5, 5, 7))
    idx = index_set(dt)
    assert len(idx.pairs) == 22 == dt.M + dt.k - 2


def test_index_set_invariants_over_boxes():
    from fanoci.families import nondecreasing_degree_tuples

    for total in range(4, 16):
        for k in range(2, total // 2 + 1):
            for degrees in nondecreasing_degree_tuples(k, total):
                dt = DegreeTuple(degrees)
                idx = index_set(dt)
                assert len(idx.pairs) == dt.M + dt.k - 2
                # the degree >= 2 members number M - 2
                assert sum(1 for _, j in idx.pairs if j >= 2) == dt.M - 2
                # excluded pairs always have degree >= 2
                assert all(j >= 2 for _, j in idx.excluded)


# ---------------------------------------------------------------------------
# tangent_space
# ---------------------------------------------------------------------------


def test_tangent_space_coordinate_forms():
    names, v = variables_of(5)
    result = tangent_space([v["z4"], v["z5"]])
    assert result.codimension == 2 and not result.is_singular
    assert result.kept == (0, 1, 2)
    # both forms vanish on every point of the graph: z4 and z5 are zero there
    assert result.images == {3: (0, 0, 0), 4: (0, 0, 0)}


def test_tangent_space_repeated_form_is_singular():
    names, v = variables_of(3)
    result = tangent_space([v["z1"], v["z1"]])
    assert result.is_singular and result.codimension == 1


def test_tangent_space_rank_two_system():
    names, v = variables_of(4)
    result = tangent_space([v["z1"] + v["z2"], v["z2"] + v["z3"]])
    assert not result.is_singular
    assert result.codimension == 2 and len(result.kept) == 2


# ---------------------------------------------------------------------------
# regularity_check worked instances
# ---------------------------------------------------------------------------


def _instance_1():
    # degrees (2,2) in its 4-dimensional ambient space: coordinate split
    names, v = variables_of(4)
    ci = PointedCI(
        DegreeTuple((2, 2)),
        Q,
        (v["z3"] + v["z1"] ** 2, v["z4"] + v["z2"] ** 2),
    )
    return ci, v["z1"]


def _instance_2():
    names, v = variables_of(5)
    ci = PointedCI(
        DegreeTuple((2, 3)),
        Q,
        (v["z4"] + v["z1"] ** 2, v["z5"] + v["z2"] ** 3),
    )
    return ci, v["z1"], v


def _instance_3():
    names, v = variables_of(5)
    ci = PointedCI(
        DegreeTuple((2, 3)),
        Q,
        (v["z4"] + v["z2"] ** 2, v["z5"] + v["z2"] ** 3),
    )
    return ci, v["z1"]


def test_worked_instance_regular_coordinates():
    ci, ell = _instance_1()
    report = regularity_check(ci, ell)
    assert report.verdict == "regular"
    assert report.trace == (1, 2, 3)
    assert report.target_codimension == 3


def test_worked_instance_repeated_support_irregular():
    ci, ell, v = _instance_2()
    seq = assemble_sequence(ci, ell)
    assert [str(g) for g in seq] == ["z1", "z4", "z1^2", "z5"]
    report = regularity_check(ci, ell)
    assert report.verdict == "irregular"
    assert report.failing_prefix == 3
    assert report.trace == (1, 2, 2)


def test_worked_instance_independent_supports_regular():
    ci, ell = _instance_3()
    report = regularity_check(ci, ell)
    assert report.verdict == "regular"
    assert report.trace == (1, 2, 3, 4)
    assert report.target_codimension == 4  # = #I + 1


def test_form_on_tangent_span_rejected():
    ci, _, v = _instance_2()
    with pytest.raises(InputError):
        regularity_check(ci, v["z4"])  # z4 is a linear part: vanishes on T_oV
    with pytest.raises(InputError):
        regularity_check(ci, v["z4"] + 2 * v["z5"])


def test_singular_instance_reported():
    names, v = variables_of(4)
    # both linear parts equal: dependent
    ci = PointedCI(
        DegreeTuple((2, 2)),
        Q,
        (v["z3"] + v["z1"] ** 2, v["z3"] + v["z2"] ** 2),
    )
    report = regularity_check(ci, v["z1"])
    assert report.verdict == "singular-at-point"


def test_reduced_mode_verdict_equivalence_worked_instances():
    ci1, l1 = _instance_1()
    ci2, l2, _ = _instance_2()
    ci3, l3 = _instance_3()
    for ci, ell in ((ci1, l1), (ci2, l2), (ci3, l3)):
        full = regularity_check(ci, ell)
        reduced = regularity_check(ci, ell, reduce=True)
        assert full.is_regular == reduced.is_regular
        assert reduced.reduced


@pytest.mark.parametrize(
    "second_quadric, verdict, reduced_trace",
    [("z2^2", "irregular", (1, 1)), ("z4^2", "regular", (1, 2))],
)
def test_reduced_trace_on_a_sparse_instance(second_quadric, verdict, reduced_trace):
    # l = z1 and the linear parts z5, z6 are coordinates, so the reduction
    # only drops those variables: the reduced trace is the unreduced
    # kernel's trace past the k+1 linear members, shifted down by k+1
    names, v = variables_of(6)
    q = {"z2^2": v["z2"] ** 2, "z4^2": v["z4"] ** 2}[second_quadric]
    ci = PointedCI(
        DegreeTuple((3, 3)),
        Q,
        (v["z5"] + v["z2"] * v["z3"] + v["z1"] ** 3, v["z6"] + q + v["z4"] ** 3),
    )
    ell = v["z1"]
    full = regularity_check(ci, ell)
    reduced = regularity_check(ci, ell, reduce=True)
    assert full.verdict == reduced.verdict == verdict
    assert reduced.trace == reduced_trace
    linear_first = is_regular_sequence(
        [ell, ci.part(1, 1), ci.part(2, 1), ci.part(1, 2), ci.part(2, 2)]
    )
    assert linear_first.trace[:3] == (1, 2, 3)
    assert reduced.trace == tuple(c - 3 for c in linear_first.trace[3:])


def test_reduced_mode_equivalence_random_instances():
    for seed in range(12):
        ci = random_complete_intersection(DegreeTuple((2, 3)), F101, seed=seed)
        if not ci.is_smooth_at_origin:
            continue
        rng = Random(seed)
        rep = sampled_regularity_check(ci, samples=2, seed=seed)
        red = sampled_regularity_check(ci, samples=2, seed=seed, reduce=True)
        assert rep.is_regular == red.is_regular


def _admissible_forms(ci, count, seed):
    """``count`` random linear forms that do not vanish on T_oV, with their rows there."""
    rng, tangent, forms = Random(seed), ci.tangent, []
    while len(forms) < count:
        coeffs = [ci.field.random_element(rng) for _ in ci.variables]
        row = restrict_row(coeffs, tangent.kept, tangent.images, ci.field)
        if any(row):
            forms.append((MultiPoly.linear(ci.field, ci.variables, coeffs), row))
    return forms


def _smooth_instances(degrees, p, count):
    field, seed, found = FieldSpec.prime(p), 0, []
    while len(found) < count:
        ci = random_complete_intersection(DegreeTuple(degrees), field, seed=seed)
        seed += 1
        if ci.is_smooth_at_origin:
            found.append(ci)
    return found


KINDS = [(2, 3), (3, 3), (2, 2, 2), (2, 4), (3, 4), (2, 2, 3)]


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("degrees", KINDS)
def test_reduced_sequence_equals_the_one_shot_restriction(degrees, p):
    # the tail restricted to T_oV, then to the hyperplane of l's row there,
    # against one restriction to the common zeros of l and the linear parts
    for ci in _smooth_instances(degrees, p, 2):
        tail = [ci.part(i, j) for i, j in ci.index_pairs if j >= 2]
        for form, row in _admissible_forms(ci, 3, seed=p):
            chained = ci.reduced_sequence(row)
            linear_parts = [ci.part(i, 1) for i in range(1, ci.degrees.k + 1)]
            rows = [g.linear_row() for g in [form] + linear_parts]
            one_shot = restrict_to_graph(
                tail, *linear_graph(rows, ci.field, len(ci.variables))
            )
            assert len(chained) == len(one_shot) == ci.degrees.M - 2
            for a, b in zip(chained, one_shot):
                assert a.variables == b.variables
                assert len(a.variables) == ci.degrees.M - 1
                assert list(a.terms.items()) == list(b.terms.items())


def _uncut_report(ci, form):
    result = is_regular_sequence(assemble_sequence(ci, form))
    return RegularityReport(
        "regular" if result.is_regular else "irregular",
        result.trace,
        form,
        result.failing_prefix,
        len(index_set(ci.degrees).pairs) + 1,
        False,
        result.note,
    )


# seeded instances whose sampled forms are often irregular, and regular ones
UNREDUCED_CASES = [
    (2, (2, 4), (0, 1, 6)),
    (2, (3, 3), (8, 10)),
    (3, (2, 3), (9,)),
    (3, (2, 2, 2), (0, 1)),
    (101, (2, 4), (0,)),
]


def test_unreduced_exact_report_equals_the_uncut_decision():
    verdicts = []
    for p, degrees, seeds in UNREDUCED_CASES:
        for seed in seeds:
            ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(p), seed=seed)
            for form, _ in _admissible_forms(ci, 4, seed=1):
                report = regularity_check(ci, form)
                assert report == _uncut_report(ci, form)
                verdicts.append(report.verdict)
    ci, ell, _ = _instance_2()  # over Q, irregular at prefix 3
    assert regularity_check(ci, ell) == _uncut_report(ci, ell)
    assert verdicts.count("regular") >= 5 and verdicts.count("irregular") >= 5


def test_an_irregular_unreduced_report_is_traced_without_the_cut(monkeypatch):
    # the cut cannot certify an irregular sequence, so none is tried in the
    # M + k ambient variables: only the reduced sequences, in M - 1, are cut,
    # and the reports are those of ``is_regular_sequence`` on the sequence
    ci = random_complete_intersection(DegreeTuple((2, 4)), FieldSpec.prime(2), seed=0)
    forms = [form for form, _ in _admissible_forms(ci, 4, seed=1)]
    expected = [_uncut_report(ci, form) for form in forms]
    certified_on_cut, cut_sizes = dimension._certified_on_cut, []

    def spy(generators):
        cut_sizes.append(len(generators[0].variables))
        return certified_on_cut(generators)

    monkeypatch.setattr(dimension, "_certified_on_cut", spy)
    reports = [regularity_check(ci, form) for form in forms]
    assert reports == expected
    assert {r.verdict for r in reports} == {"regular", "irregular"}
    assert set(cut_sizes) == {ci.degrees.M - 1}


@pytest.mark.parametrize(
    "reduce, max_variables, n_vars", [(False, 4, 5), (True, 1, 2)], ids=["unreduced", "reduce"]
)
def test_exact_budget_refused_before_any_restriction(monkeypatch, reduce, max_variables, n_vars):
    # (2,3): unreduced, 4 forms in the 5 ambient variables; reduced, 1 form
    # in 2.  Either check is refused once, with the message that
    # is_regular_sequence gives its sequence, before any restriction
    import fanoci.regularity as regularity

    (drawn,) = _smooth_instances((2, 3), 101, 1)
    ((form, row),) = _admissible_forms(drawn, 1, seed=0)
    sequence = drawn.reduced_sequence(row) if reduce else assemble_sequence(drawn, form)
    with pytest.raises(ResourceBudgetError) as expected:
        is_regular_sequence(sequence, max_variables=max_variables)
    assert str(expected.value).startswith(f"{n_vars} variables exceed")

    def no_restriction(*args):
        raise AssertionError("restricted before the budget check")

    monkeypatch.setattr(regularity, "restrict_to_graph", no_restriction)
    ci = PointedCI.from_json(drawn.to_json())  # nothing restricted yet
    with pytest.raises(ResourceBudgetError) as raised:
        regularity_check(ci, form, reduce=reduce, max_variables=max_variables)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(ResourceBudgetError) as raised:
        sampled_regularity_check(ci, samples=8, reduce=reduce, max_variables=max_variables)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("reduce", [False, True])
def test_sampled_check_restricts_by_the_linear_parts_once(monkeypatch, reduce):
    # one graph of the k linear parts per instance, row-reduced, and one
    # hyperplane per form, whose graph is written down directly
    import fanoci.regularity as regularity

    (drawn,) = _smooth_instances((3, 3), 101, 1)
    ci = PointedCI.from_json(drawn.to_json())  # nothing cached yet
    rows_per_graph = []
    rref, hyperplane_graph = polynomials.rref, regularity.hyperplane_graph

    def spy(rows, field):
        rows_per_graph.append(len(rows))
        return rref(rows, field)

    def hyperplane_spy(row, field):
        rows_per_graph.append(1)
        return hyperplane_graph(row, field)

    monkeypatch.setattr(polynomials, "rref", spy)
    monkeypatch.setattr(regularity, "hyperplane_graph", hyperplane_spy)
    report = sampled_regularity_check(ci, samples=8, reduce=reduce)
    assert report.is_regular
    assert rows_per_graph == [2] + [1] * 8


@pytest.mark.parametrize("reduce", [False, True])
def test_sampled_check_takes_each_form_row_from_its_draw(monkeypatch, reduce):
    # the row on the tangent space is computed once per drawn form, and the
    # reports are those of the public check, which computes it from l itself
    import fanoci.regularity as regularity

    (ci,) = _smooth_instances((3, 3), 5, 1)
    rows = []

    def spy(row, kept, images, field):
        rows.append(tuple(row))
        return restrict_row(row, kept, images, field)

    monkeypatch.setattr(regularity, "restrict_row", spy)
    report = sampled_regularity_check(ci, samples=6, seed=2, reduce=reduce)
    drawn = [tuple(r.linear_form.linear_row()) for r in report.reports]
    assert [rows.count(row) for row in drawn] == [1] * len(drawn)
    assert report.reports == tuple(
        regularity_check(ci, r.linear_form, reduce=reduce) for r in report.reports
    )


def test_probabilistic_kernel_agrees_on_small_instance():
    F5 = FieldSpec.prime(5)
    ci = random_complete_intersection(DegreeTuple((2, 3)), F5, seed=3)
    assert ci.is_smooth_at_origin
    exact = sampled_regularity_check(ci, samples=2, seed=5)
    prob = sampled_regularity_check(ci, samples=2, seed=5, kernel=PROBABILISTIC)
    assert exact.verdict == prob.verdict


def test_tangent_shift_preserves_regular_verdict():
    # if l works, so does l + t for any t in the span of the linear parts
    ci, ell = _instance_3()
    base = regularity_check(ci, ell)
    assert base.is_regular
    parts = [ci.part(1, 1), ci.part(2, 1)]
    rng = Random(0)
    for _ in range(4):
        shift = parts[0] * rng.randrange(1, 7) + parts[1] * rng.randrange(7)
        report = regularity_check(ci, ell + shift)
        assert report.is_regular


def test_coordinate_change_invariance_spot_check():
    # an invertible substitution fixing the origin and {l = 0} keeps the verdict
    names, v = variables_of(4)
    dt = DegreeTuple((2, 2))
    f1 = v["z3"] + v["z1"] ** 2
    f2 = v["z4"] + v["z2"] ** 2
    ell = v["z1"]
    base = regularity_check(PointedCI(dt, Q, (f1, f2)), ell).is_regular

    # substitute z2 -> z2 + 3 z1 (preserves {z1 = 0} and the origin)
    def sub(p):
        images = {
            "z1": v["z1"],
            "z2": v["z2"] + 3 * v["z1"],
            "z3": v["z3"],
            "z4": v["z4"],
        }
        out = MultiPoly.zero(Q, names)
        for exps, coeff in p.terms.items():
            term = MultiPoly.constant(Q, names, coeff)
            for nm, e in zip(names, exps):
                if e:
                    term = term * images[nm] ** e
            out = out + term
        return out

    changed = regularity_check(PointedCI(dt, Q, (sub(f1), sub(f2))), ell).is_regular
    assert changed == base


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def test_random_ci_deterministic():
    a = random_complete_intersection(DegreeTuple((2, 2)), F101, seed=11)
    b = random_complete_intersection(DegreeTuple((2, 2)), F101, seed=11)
    assert [f.terms for f in a.equations] == [f.terms for f in b.equations]


def test_random_ci_degrees_and_origin():
    ci = random_complete_intersection(DegreeTuple((2, 3)), F101, seed=0)
    assert [f.total_degree() for f in ci.equations] == [2, 3]
    for f in ci.equations:
        assert f.evaluate([0] * 5) == 0


def test_random_ci_genericity_statistics():
    # over 100 seeds at degrees (2,3), nearly all instances are smooth and
    # pass a single-form regularity check (the acceptance suite runs the
    # full sampled version)
    passes = 0
    for seed in range(100):
        ci = random_complete_intersection(DegreeTuple((2, 3)), F101, seed=seed)
        if not ci.is_smooth_at_origin:
            continue
        report = sampled_regularity_check(ci, samples=1, seed=seed)
        passes += report.is_regular
    assert passes >= 95


def test_random_ci_small_field_singular_flags_occur(monkeypatch):
    import fanoci.regularity as regularity

    F2 = FieldSpec.prime(2)
    monkeypatch.setattr(regularity, "MAX_ATTEMPTS", 1)
    flags = sum(
        not random_complete_intersection(DegreeTuple((2, 2)), F2, seed=seed).is_smooth_at_origin
        for seed in range(60)
    )
    # observed frequency is logged, no fixed threshold asserted beyond existence
    assert flags > 0


@pytest.mark.parametrize("zero_top_draws, raises", [(3, False), (4, True)])
def test_random_ci_top_part_redraw_budget(monkeypatch, zero_top_draws, raises):
    import fanoci.regularity as regularity

    draws = []

    def fake_draw_terms(monomials, field, seed):
        degree = sum(monomials[0])
        draws.append((degree, seed))
        if degree == 2 and len(draws) <= zero_top_draws + 1:
            return {}
        return {monomials[0]: 1}  # z1^degree

    monkeypatch.setattr(regularity, "_draw_terms", fake_draw_terms)
    monkeypatch.setattr(regularity, "MAX_PART_REDRAWS", 3)
    # the first part of f_1 is linear, then up to 1 + 3 top-degree draws
    if raises:
        with pytest.raises(ResourceBudgetError, match="in 3 redraws"):
            random_complete_intersection(DegreeTuple((2, 2)), F101)
        assert [d for d, _ in draws] == [1, 2, 2, 2, 2]
    else:
        monkeypatch.setattr(regularity, "MAX_ATTEMPTS", 1)
        random_complete_intersection(DegreeTuple((2, 2)), F101)
        assert [d for d, _ in draws] == [1, 2, 2, 2, 2, 1, 2]
    master = Random(0)
    assert [seed for _, seed in draws] == [master.getrandbits(63) for _ in draws]


def test_pointed_ci_json_roundtrip():
    ci = random_complete_intersection(DegreeTuple((2, 3)), F101, seed=2)
    data = ci.to_json()
    back = PointedCI.from_json(data)
    assert [f.terms for f in back.equations] == [f.terms for f in ci.equations]
    assert back.degrees == ci.degrees


def test_pointed_ci_validation():
    names, v = variables_of(4)
    with pytest.raises(InputError, match="equation degree 1 does not match 2"):
        PointedCI(DegreeTuple((2, 2)), Q, (v["z3"], v["z4"] + v["z2"] ** 2))
    with pytest.raises(InputError, match="must vanish at the origin"):
        PointedCI(
            DegreeTuple((2, 2)),
            Q,
            (v["z3"] + v["z1"] ** 2 + 1, v["z4"] + v["z2"] ** 2),
        )
    with pytest.raises(InputError, match="expected 2 equations, got 1"):
        PointedCI(DegreeTuple((2, 2)), Q, (v["z3"] + v["z1"] ** 2,))


def _refused_equations(case):
    """Equations for a (2, 2) instance over Q in z1..z4, wrong as ``case`` says."""
    names, v = variables_of(4)
    good = (v["z3"] + v["z1"] ** 2, v["z4"] + v["z2"] ** 2)
    over_f101 = MultiPoly(F101, names, good[1].terms)
    _, w = variables_of(5)
    if case == "field":
        return (good[0], over_f101)
    if case == "ambient size":
        return (w["z3"] + w["z5"] ** 2, w["z4"] + w["z2"] ** 2)
    if case == "constant term":
        return (good[0], good[1] + 3)
    if case == "degree too high":
        return (good[0], v["z4"] + v["z2"] ** 3)
    if case == "zero equation":
        return (good[0], MultiPoly.zero(Q, names))
    # two faults: the first equation's is met first, then the checks of one
    # equation run in the order field, variables, size, constant, degree
    if case == "constant before a later field":
        return (good[0] + 1, over_f101)
    if case == "size before constant":
        return (w["z3"] + w["z5"] ** 2 + 1, w["z4"] + w["z2"] ** 2)
    if case == "constant before degree":
        return (good[0], v["z2"] ** 3 + 1)
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case, message",
    [
        ("field", "equation field does not match"),
        ("ambient size", "equations must use 4 ambient variables, got 5"),
        ("constant term", "equations must vanish at the origin"),
        ("degree too high", "equation degree 3 does not match 2"),
        ("zero equation", "equation degree -1 does not match 2"),
        ("constant before a later field", "equations must vanish at the origin"),
        ("size before constant", "equations must use 4 ambient variables, got 5"),
        ("constant before degree", "equations must vanish at the origin"),
    ],
)
def test_pointed_ci_refusals_and_their_order(case, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        PointedCI(DegreeTuple((2, 2)), Q, _refused_equations(case))


def test_pointed_ci_takes_valid_equations_out_of_term_order():
    # a hand-built equation need not list its terms in canonical order; the
    # parts are its degree slices all the same
    names, v = variables_of(4)
    canonical = v["z3"] + v["z1"] ** 2 + v["z1"] * v["z2"]
    shuffled = MultiPoly(Q, names, dict(reversed(canonical.terms.items())))
    assert list(shuffled.terms) != list(canonical.terms)
    second = v["z4"] + v["z2"] ** 2
    ci = PointedCI(DegreeTuple((2, 2)), Q, (shuffled, second))
    expected = PointedCI(DegreeTuple((2, 2)), Q, (canonical, second))
    assert ci == expected and ci.equations[0] is shuffled
    assert [ci.part(1, j) for j in range(4)] == [expected.part(1, j) for j in range(4)]
    ell = MultiPoly.linear(Q, names, [1, 2, 0, 0])
    assert regularity_check(ci, ell) == regularity_check(expected, ell)


@pytest.mark.parametrize("tag", ["gf:2", "gf:101", "gf:32003"])
@pytest.mark.parametrize("degrees", [(2, 3), (3, 3), (2, 2, 2), (2, 6)])
def test_drawn_parts_are_the_split_of_the_equations(degrees, tag):
    # a drawn instance keeps the parts it was drawn from instead of splitting
    # its equations; they must be that split, canonical order included
    for seed in range(3):
        ci = random_complete_intersection(
            DegreeTuple(degrees), FieldSpec.from_json_tag(tag), seed=seed
        )
        assert len(ci._parts) == len(ci.equations)
        for parts, f in zip(ci._parts, ci.equations):
            split = f.homogeneous_components()
            assert list(parts) == list(split)
            for j, part in parts.items():
                assert list(part.terms.items()) == list(split[j].terms.items())
                assert part.variables == f.variables and part.field == f.field


@pytest.mark.parametrize("tag", ["gf:5", "gf:101", "gf:32003"])
@pytest.mark.parametrize("degrees", [(2, 3), (3, 3), (2, 2, 2)])
def test_a_loaded_instance_equals_the_drawn_one(degrees, tag):
    # the drawn instance validates from its drawn parts, the loaded one from
    # the split of its equations: the two must agree on everything
    ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.from_json_tag(tag), seed=4)
    loaded = PointedCI.from_json(json.loads(json.dumps(ci.to_json())))
    assert loaded == ci and loaded.to_json() == ci.to_json()
    for reduce in (False, True):
        drawn = sampled_regularity_check(ci, samples=2, seed=9, reduce=reduce)
        again = sampled_regularity_check(loaded, samples=2, seed=9, reduce=reduce)
        assert drawn.to_json() == again.to_json()


@pytest.mark.parametrize("degrees", [(2, 3), (3, 3), (2, 4)])
def test_pointed_ci_parts_are_the_degree_slices_of_each_equation(degrees):
    ci = random_complete_intersection(DegreeTuple(degrees), F101, seed=5)
    loaded = PointedCI.from_json(ci.to_json())
    for i, f in enumerate(loaded.equations, start=1):
        for j in range(degrees[i - 1] + 2):
            part = loaded.part(i, j)
            expected = [(e, c) for e, c in f.terms.items() if sum(e) == j]
            assert part.variables == f.variables and part.field == f.field
            assert list(part.terms.items()) == expected  # canonical order kept
    assert loaded.part(1, 0).is_zero()  # the equations vanish at the origin


@pytest.mark.parametrize("other", [("z1", "z2", "z4", "z3"), ("a", "b", "c", "d")])
def test_pointed_ci_rejects_equations_over_different_variables(other):
    names, v = variables_of(4)
    w = {name: MultiPoly.variable(Q, other, name) for name in other}
    second = w[other[2]] + w[other[1]] ** 2
    with pytest.raises(InputError, match="share one variable list"):
        PointedCI(DegreeTuple((2, 2)), Q, (v["z3"] + v["z1"] ** 2, second))


@pytest.mark.parametrize(
    "degrees, tag, seed, digest",
    [
        ((2, 3), "gf:101", 0, "43c43ae8a8a10da1d1b44e8593e9cbbb6d507a6ecc1ddff9eda91092bd8f7510"),
        ((4, 4), "gf:32003", 7, "0b8d663edaa5663451ae43537bfa19927fc55c05708d66d3bab3777fcdbcbdbd"),
        ((2, 6), "gf:32003", 3, "5db4712f1a303bf0786b9a114f3723bd364e52fe25ef118ab0950a09b565da0a"),
        ((3, 3), "gf:7", 11, "99f9e02343cc2f62ef0de718076677cc6b40a4a5f401cf772b8e97659a7fee7d"),
        # the largest instance the benchmark draws, at its seed 0
        (
            (6, 6),
            "gf:32003",
            Random("0/(6, 6)").getrandbits(32),
            "addeddfc669263bc4b48ccc2255fbfbbc3cf685a737cce2a72bcdbbc2ad238a0",
        ),
        # the largest rung of the reach ladder, at M = 10
        ((6, 6), "gf:32003", 7, "f9d9224750411f5e9fe701d1a44df5e56d2a49642406f4d66d67d01a5287dc65"),
    ],
)
def test_seeded_instance_bytes_are_pinned(degrees, tag, seed, digest):
    # freezes the draw stream and the canonical term order that every
    # seeded regcheck reads
    ci = random_complete_intersection(
        DegreeTuple(degrees), FieldSpec.from_json_tag(tag), seed=seed
    )
    assert hashlib.sha256(json.dumps(ci.to_json()).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "degrees, tag, seed", [((2, 3), "gf:101", 0), ((4, 4), "gf:32003", 7), ((6, 6), "gf:32003", 7)]
)
def test_instance_json_value_holds_the_stored_exponent_tuples(degrees, tag, seed):
    # the JSON value copies no exponent vector, and still loads in memory
    ci = random_complete_intersection(
        DegreeTuple(degrees), FieldSpec.from_json_tag(tag), seed=seed
    )
    data = ci.to_json()
    for written, f in zip(data["equations"], ci.equations, strict=True):
        keys = list(f.terms)
        assert len(written["terms"]) == len(keys)
        assert all(t["exponents"] is e for t, e in zip(written["terms"], keys))
    assert PointedCI.from_json(data) == ci


# sha256 of the concatenated JSON dumps of the seeded instances over one
# field, for each degree tuple below and the instance seeds the benchmark
# draws, Random(f"{s}/{degrees}").getrandbits(32) for s = 0, 1, 2
_PINNED_FIELD_DIGESTS = {
    "gf:2": "ef22e100514ca431e15224ca51a6c92ac473dbbf5024fcd1465b820b87a46de2",
    "gf:101": "744d8ce7d86d3a53d0a1d1c291d69b932a59a72ad096c1b66ce8fc72d3d55333",
    "gf:32003": "88bf3ecea832ad3d6a889e3156940a645e2295761d36555efb23dbd27ac8f9ab",
    "gf:4294967291": "2f768d06a94603512be95717d1933f8dffde6afd2561d73527f2e82940981be0",
    "gf:18446744073709551557": (
        "8a27b44f85f3354f2eef657c56a0f6c582989a0d0b6fb2feb1e6d7fe77222855"
    ),
}


@pytest.mark.parametrize("tag", sorted(_PINNED_FIELD_DIGESTS))
def test_benchmark_seeded_instance_bytes_are_pinned(tag):
    # every part of every equation and redraw is drawn from its own stream,
    # in one fixed order: a change to how the draws are made cannot change
    # an instance unnoticed, over small, medium and 64-bit characteristics
    field, digest = FieldSpec.from_json_tag(tag), hashlib.sha256()
    for degrees in [(2, 3), (3, 3), (2, 2, 2), (2, 6), (5, 6)]:
        for s in range(3):
            seed = Random(f"{s}/{degrees}").getrandbits(32)
            ci = random_complete_intersection(DegreeTuple(degrees), field, seed=seed)
            digest.update(json.dumps(ci.to_json()).encode())
    assert digest.hexdigest() == _PINNED_FIELD_DIGESTS[tag]
