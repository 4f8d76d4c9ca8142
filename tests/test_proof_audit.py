import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

import pytest

from fanoci.errors import InputError
from fanoci.families import DegreeTuple, nondecreasing_degree_tuples
from fanoci.proof_audit import (
    FAIL,
    OUT_OF_HYPOTHESIS,
    PASS,
    VACUOUS,
    AuditReport,
    AuditSummary,
    CheckRecord,
    _bracket_m3,
    _bracket_m4,
    _exact,
    _tail_block_passes,
    _tail_cases,
    _tuple_count,
    audit_range,
    audit_records,
    check_quadratic_margin,
    check_small_degree_codim,
    check_tail_bounds,
    check_threshold_equivalences,
    iter_json,
    optimize_square_sum,
    reduction_constants,
)
from fanoci.rationals import binomial


# ---------------------------------------------------------------------------
# weight sequences: the oracle of the tail cases
# ---------------------------------------------------------------------------


class WeightSequence(NamedTuple):
    """Degrees >= 2 of the homogeneous parts, with the counting function k_d."""

    degrees: DegreeTuple
    weights: Tuple[int, ...]
    k_d: Dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.weights)


def weight_sequence(degrees: DegreeTuple) -> WeightSequence:
    """Every weight listed: degree x contributes 2..x, sorted."""
    d = degrees.degrees
    weights = tuple(sorted(j for deg in d for j in range(2, deg + 1)))
    k_d = {value: sum(1 for deg in d if deg >= value) for value in range(2, d[-1] + 1)}
    return WeightSequence(degrees, weights, k_d)


def test_weight_sequence_2_3():
    ws = weight_sequence(DegreeTuple((2, 3)))
    assert ws.weights == (2, 2, 3)
    assert ws.total == 7 == 3 + 6 - 2
    assert ws.k_d == {2: 2, 3: 1}


def test_weight_sequence_6_6():
    ws = weight_sequence(DegreeTuple((6, 6)))
    assert len(ws.weights) == 10
    assert ws.total == 40 == 21 + 21 - 2


def test_weight_sequence_2_2():
    ws = weight_sequence(DegreeTuple((2, 2)))
    assert ws.weights == (2, 2)
    assert ws.k_d == {2: 2}


def test_weight_sum_identity_over_box():
    for total in range(4, 26):
        for k in range(2, total // 2 + 1):
            for degrees in nondecreasing_degree_tuples(k, total):
                dt = DegreeTuple(degrees)
                ws = weight_sequence(dt)
                assert len(ws.weights) == dt.M
                assert ws.total == sum(d * (d + 1) // 2 for d in degrees) - k
                # k_d is nonincreasing with k_2 = k
                values = [ws.k_d[d] for d in range(2, degrees[-1] + 1)]
                assert values[0] == k
                assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# reduction constants
# ---------------------------------------------------------------------------


def test_reduction_constants_k2_m10():
    rc = reduction_constants(2, 10)
    assert rc.fiber_dim == 22
    assert rc.codim_target == 21
    assert rc.grassmann_dim(0) == 0
    assert rc.wj_dim(1) == binomial(10, 2) == 45
    assert rc.pencil_dim(3, 2) == (10 - 2 - 2) * 3 + 1


def test_reduction_constants_range_checks():
    rc = reduction_constants(2, 10)
    with pytest.raises(InputError):
        rc.grassmann_dim(8)  # b > M - 3
    with pytest.raises(InputError):
        rc.wj_dim(0)
    with pytest.raises(InputError):
        rc.wj_dim(9)  # j > M - 2
    with pytest.raises(InputError):
        rc.pencil_dim(1, 0)
    with pytest.raises(InputError):
        reduction_constants(1, 10)


# ---------------------------------------------------------------------------
# small-degree staircase bound
# ---------------------------------------------------------------------------


def test_small_degree_codim_examples():
    chain, main = check_small_degree_codim(2, 10)
    assert (main.lhs, main.rhs, main.verdict) == (36, 21, PASS)
    assert chain.verdict == PASS

    _, main = check_small_degree_codim(5, 19)
    assert (main.lhs, main.rhs, main.verdict) == (105, 39, PASS)

    _, main = check_small_degree_codim(2, 9)
    assert main.verdict == OUT_OF_HYPOTHESIS
    assert main.lhs == 28 and main.rhs == 19  # still evaluates, informationally


def test_small_degree_codim_sweep():
    for k in range(2, 31):
        for M in range(3 * k + 4, 201):
            chain, main = check_small_degree_codim(k, M)
            assert main.verdict == PASS
            assert chain.verdict == PASS


# ---------------------------------------------------------------------------
# quadratic margin
# ---------------------------------------------------------------------------


def test_quadratic_margin_m7():
    identity, margin = check_quadratic_margin(7)
    # values at b = 0, 1, 2 are 1, 2, 1
    assert margin.lhs == 1 and margin.verdict == PASS
    assert identity.verdict == PASS


def test_quadratic_margin_m19():
    _, margin = check_quadratic_margin(19)
    g = lambda b: -b * b + 14 * b + 13
    assert g(0) == 13 and g(14) == 13
    assert margin.lhs == 13 and margin.verdict == PASS


def test_quadratic_margin_m6_out_of_hypothesis():
    _, margin = check_quadratic_margin(6)
    assert margin.verdict == OUT_OF_HYPOTHESIS
    assert margin.lhs == 0  # g(0) = g(1) = 0 at the boundary


def test_quadratic_margin_sweep():
    for M in range(7, 501):
        identity, margin = check_quadratic_margin(M)
        assert margin.verdict == PASS
        assert identity.verdict == PASS


# ---------------------------------------------------------------------------
# square-sum optimization
# ---------------------------------------------------------------------------


def test_square_sum_k2_m10_shift3():
    result = optimize_square_sum(2, 10, 3)
    assert result.integer_min == 41
    assert sorted(w.degrees for w in result.witnesses) == [(4, 8), (5, 7)]
    assert result.relaxation_bound == Fraction(81, 2)
    assert result.holds


def test_square_sum_k2_m10_shift2_tight_equality():
    result = optimize_square_sum(2, 10, 2)
    assert result.integer_min == 50
    assert [w.degrees for w in result.witnesses] == [(5, 7)]
    assert result.relaxation_bound == Fraction(50)
    assert result.integer_min == result.relaxation_bound  # met with equality
    assert result.holds


def test_square_sum_single_feasible_tuple():
    result = optimize_square_sum(2, 3, 3)
    assert [w.degrees for w in result.witnesses] == [(2, 3)]
    assert result.integer_min == 4
    assert result.relaxation_bound == Fraction(4, 2)
    assert result.holds


def test_square_sum_validation():
    with pytest.raises(InputError):
        optimize_square_sum(2, 10, 4)
    with pytest.raises(InputError):
        optimize_square_sum(2, 1, 2)  # no tuple sums to 3


def _brute_force_square_sum(k, M, shift):
    """The enumeration that optimize_square_sum replaces: every tuple, in order."""
    best, witnesses = None, []
    for degrees in nondecreasing_degree_tuples(k, M + k, 2, M + k):
        value = sum(x * x for x in degrees[:-1]) + (degrees[-1] - shift) ** 2
        if best is None or value < best:
            best, witnesses = value, [degrees]
        elif value == best:
            witnesses.append(degrees)
    return best, witnesses


def test_square_sum_exact_minimum_matches_the_brute_force():
    for k in range(2, 7):
        for M in range(0, 61):
            for shift in (2, 3):
                best, witnesses = _brute_force_square_sum(k, M, shift)
                if best is None:
                    with pytest.raises(InputError):
                        optimize_square_sum(k, M, shift)
                    continue
                result = optimize_square_sum(k, M, shift)
                assert result.integer_min == best, (k, M, shift)
                assert [w.degrees for w in result.witnesses] == witnesses, (k, M, shift)


def test_square_sum_lists_no_tuples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("optimize_square_sum enumerated degree tuples")

    monkeypatch.setattr("fanoci.proof_audit.nondecreasing_degree_tuples", refuse)
    monkeypatch.setattr("fanoci.families.nondecreasing_degree_tuples", refuse)
    assert optimize_square_sum(30, 200, 3).integer_min > 0


def test_square_sum_relaxation_is_true_lower_bound():
    for k in range(2, 6):
        for M in range(k, 41):
            try:
                for shift in (2, 3):
                    result = optimize_square_sum(k, M, shift)
                    assert result.integer_min >= result.relaxation_bound
            except InputError:
                continue  # empty feasible set for tiny M


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


class TailCase(NamedTuple):
    """One tail case of ``_tail_cases``, its fields named."""

    b: int
    sum_weights: int
    paper_subtraction: int
    paper_bound: int
    independent_subtraction: int
    independent_bound: int
    printed_closed_form: int
    test_lhs: int
    test_rhs: int

    @property
    def holds(self) -> bool:
        return self.test_lhs >= self.test_rhs


def tail_cases(degrees):
    """The m3 case, then the m4 case, of a degree tuple."""
    dt = DegreeTuple(degrees)
    return tuple(TailCase._make(case) for case in _tail_cases(dt.degrees, dt.k, dt.M))


def tail_bounds_hold(degrees):
    return all(r.verdict == PASS for r in check_tail_bounds(DegreeTuple(degrees)))


def test_tail_bounds_6_6():
    m3, m4 = tail_cases((6, 6))
    assert m3.b == 7 and m3.sum_weights == 40
    assert m3.paper_bound == 28  # 40 - 2*6
    assert m3.test_lhs == (28 - 7) * 1 == 21 and m3.test_rhs == 20
    assert m3.holds

    assert m4.b == 6
    assert m4.paper_bound == 40 - 12 - 5 == 23
    assert m4.test_lhs == (23 - 6) * 2 == 34 and m4.holds
    assert tail_bounds_hold((6, 6))


def test_tail_bounds_remark_family():
    assert tail_bounds_hold((2, 5, 5, 5, 7))
    m3, m4 = tail_cases((2, 5, 5, 5, 7))
    # margins recorded exactly
    assert m3.test_lhs == 41 and m3.test_rhs == 38
    assert m4.test_lhs == 72 and m4.test_rhs == 38


def test_tail_bounds_3_9_every_field():
    # every field of both cases: the printed subtractions exceed the
    # worst-case ones (18 > 17, 26 > 24), and the printed closed forms exceed
    # the direct bounds by 2 and 4
    assert tail_cases((3, 9)) == (
        TailCase(7, 49, 18, 31, 17, 32, 33, 24, 20),
        TailCase(6, 49, 26, 23, 24, 25, 27, 34, 20),
    )
    m3, m4 = check_tail_bounds(DegreeTuple((3, 9)))
    assert (m3.check, m3.lhs, m3.rhs, m3.verdict) == ("tail-bound-m3", 24, 20, PASS)
    assert (m4.check, m4.lhs, m4.rhs, m4.verdict) == ("tail-bound-m4", 34, 20, PASS)
    assert m3.params == {"k": 2, "M": 10, "degrees": [3, 9], "b": 7}
    assert m4.params == {"k": 2, "M": 10, "degrees": [3, 9], "b": 6}


def test_tail_bounds_closed_form_discrepancies_flagged():
    # the printed closed forms exceed the direct subtraction bounds by 4 and 2
    m3, m4 = tail_cases((6, 6))
    assert m4.printed_closed_form - m4.paper_bound == 4
    assert m3.printed_closed_form - m3.paper_bound == 2
    records = check_tail_bounds(DegreeTuple((6, 6)))
    assert any("differs" in r.note for r in records)


def test_tail_bounds_triple_top_degree_worst_case_note():
    # with three equal top degrees the actual worst-case subtraction exceeds
    # the printed one; the note must surface it without failing the check
    _, m4 = tail_cases((7, 7, 7))
    assert m4.independent_subtraction == 21 > m4.paper_subtraction == 20
    rec = check_tail_bounds(DegreeTuple((7, 7, 7)))[1]
    assert rec.check == "tail-bound-m4"
    assert "worst-case weight subtraction" in rec.note
    assert tail_bounds_hold((7, 7, 7))


def test_tail_cases_match_the_weight_sequence():
    # every field recomputed from the sorted weight list and Fraction forms
    for k in range(2, 6):
        for M in range(3 * k + 4, 31):
            for degrees in nondecreasing_degree_tuples(k, M + k):
                dt = DegreeTuple(degrees)
                ws = weight_sequence(dt)
                dk = degrees[-1]
                partial = sum(Fraction(d * (d + 1), 2) for d in degrees[:-1])
                expected = []
                for b, paper_sub, closed_form, top in (
                    (M - 3, 2 * dk, partial + Fraction((dk - 2) * (dk - 1), 2) + 1 - k, 2),
                    (M - 4, 3 * dk - 1, partial + Fraction((dk - 3) * (dk - 2), 2) + 2 - k, 3),
                ):
                    indep_sub = sum(ws.weights[-top:])
                    expected.append(
                        TailCase(
                            b=b,
                            sum_weights=ws.total,
                            paper_subtraction=paper_sub,
                            paper_bound=ws.total - paper_sub,
                            independent_subtraction=indep_sub,
                            independent_bound=ws.total - indep_sub,
                            printed_closed_form=closed_form,
                            test_lhs=(ws.total - paper_sub - b) * (M - b - 2),
                            test_rhs=2 * M,
                        )
                    )
                cases = tail_cases(degrees)
                assert cases == tuple(expected), degrees
                assert all(type(case.printed_closed_form) is int for case in cases)
                # the records set the test's sides against each other
                records = check_tail_bounds(dt)
                assert [(r.lhs, r.rhs) for r in records] == [
                    (case.test_lhs, case.test_rhs) for case in cases
                ]


def test_tail_bounds_requires_m_at_least_4():
    with pytest.raises(InputError):
        check_tail_bounds(DegreeTuple((2, 2)))  # M = 2


def test_tail_bounds_tight_cases():
    # (5,7) at M = 10 and (4,4,4,5,7) at M = 19 meet the m3 case with equality
    m3, _ = tail_cases((5, 7))
    assert m3.test_lhs == 20 == m3.test_rhs
    m3, _ = tail_cases((4, 4, 4, 5, 7))
    assert m3.test_lhs == 38 == m3.test_rhs


def test_tail_bounds_all_tuples_in_hypothesis_box():
    for k in range(2, 6):
        for M in range(3 * k + 4, 61):
            for degrees in nondecreasing_degree_tuples(k, M + k):
                assert tail_bounds_hold(degrees)


# ---------------------------------------------------------------------------
# a (k, M) tail block as a whole: the identities that the text audit counts by
# ---------------------------------------------------------------------------


def _square_sum(degrees, shift):
    """SQ_shift = sum_{l<k} d_l^2 + (d_k - shift)^2."""
    return sum(d * d for d in degrees[:-1]) + (degrees[-1] - shift) ** 2


def test_tail_block_identities_by_brute_force():
    # every tuple of every block with k <= 5, 4 <= M <= 40, inside the
    # hypothesis range and outside it, where blocks fail
    failing_blocks = 0
    for k in range(2, 6):
        for M in range(max(k, 4), 41):
            block = list(nondecreasing_degree_tuples(k, M + k, 2, M + k))
            assert _tuple_count(k, M) == len(block), (k, M)
            two, three = (optimize_square_sum(k, M, shift) for shift in (2, 3))
            passes = True
            for degrees in block:
                m3, m4 = tail_cases(degrees)
                assert 2 * m3.test_lhs == _square_sum(degrees, 2) - M - k + 2, degrees
                assert m4.test_lhs == _square_sum(degrees, 3) - M - k + 1, degrees
                assert m3.test_rhs == m4.test_rhs == 2 * M
                assert m3.printed_closed_form - m3.paper_bound == 2
                assert m4.printed_closed_form - m4.paper_bound == 4
                passes = passes and m3.holds and m4.holds
                # the block test, read at this tuple's square sums, one case at a time
                at_tuple = [
                    result._replace(integer_min=_square_sum(degrees, result.shift))
                    for result in (two, three)
                ]
                assert _tail_block_passes(at_tuple[0], three._replace(integer_min=10**9)) == (
                    m3.holds
                )
                assert _tail_block_passes(two._replace(integer_min=10**9), at_tuple[1]) == (
                    m4.holds
                )
            assert two.integer_min == min(_square_sum(d, 2) for d in block)
            assert three.integer_min == min(_square_sum(d, 3) for d in block)
            assert _tail_block_passes(two, three) == passes, (k, M)
            failing_blocks += not passes
    assert failing_blocks > 0  # so both sides of the equivalence are seen


def test_tuple_count_is_the_partition_count():
    # p(n, <= k) for small n and k, and the tuple counts of the default box's
    # discrepancy notes: 99,442 tuples with k <= 5, 3k+4 <= M <= 60
    assert [_tuple_count(k, k + n) for k, n in ((2, 0), (2, 5), (3, 6), (4, 8))] == [
        1, 3, 7, 15
    ]
    assert sum(_tuple_count(k, M) for k in range(2, 6) for M in range(3 * k + 4, 61)) == 99442


# ---------------------------------------------------------------------------
# threshold equivalences
# ---------------------------------------------------------------------------


def threshold_sides(k, M):
    """The (lhs, rhs) of each record of ``check_threshold_equivalences``, by check."""
    return {r.check: (r.lhs, r.rhs) for r in check_threshold_equivalences(k, M)}


def thresholds_hold(k, M):
    return all(r.verdict == PASS for r in check_threshold_equivalences(k, M))


def test_thresholds_k2_m10():
    sides = threshold_sides(2, 10)
    assert sides["threshold-m4-claimed"] == (2, Fraction(49, 10))
    assert sides["threshold-m3-claimed"] == (2, Fraction(64, 28))
    assert thresholds_hold(2, 10)


def test_thresholds_k2_m10_every_side():
    # the six records in report order, with the sides the threshold report
    # once printed: printed brackets, claimed bounds, derived and claimed caps
    records = check_threshold_equivalences(2, 10)
    assert [(r.check, r.lhs, r.rhs, r.verdict) for r in records] == [
        ("threshold-m3-annotation", 2, 2, PASS),
        ("threshold-m3-claimed", 2, Fraction(16, 7), PASS),
        ("threshold-m3-printed", 21, 20, PASS),
        ("threshold-m4-annotation", 7, 4, PASS),
        ("threshold-m4-claimed", 2, Fraction(49, 10), PASS),
        ("threshold-m4-printed", Fraction(75, 2), 20, PASS),
    ]
    assert all(r.params == {"k": 2, "M": 10} for r in records)


def test_thresholds_k5_m19():
    sides = threshold_sides(5, 19)
    assert sides["threshold-m4-claimed"] == (5, Fraction(256, 19))
    assert sides["threshold-m3-claimed"] == (5, Fraction(289, 55))
    assert thresholds_hold(5, 19)
    # boundary proximity of the m3 claim: 5 <= 289/55 = 5.254...
    assert sides["threshold-m3-claimed"][1] - 5 < Fraction(1, 3)


def test_thresholds_on_hypothesis_boundary():
    for k in range(2, 31):
        assert thresholds_hold(k, 3 * k + 4)


def test_thresholds_out_of_hypothesis_are_marked():
    # M = 10 < 3k+4 for k = 3: only the annotations keep their pass
    verdicts = {r.check: r.verdict for r in check_threshold_equivalences(3, 10)}
    assert verdicts == {
        "threshold-m3-annotation": PASS,
        "threshold-m3-claimed": OUT_OF_HYPOTHESIS,
        "threshold-m3-printed": OUT_OF_HYPOTHESIS,
        "threshold-m4-annotation": PASS,
        "threshold-m4-claimed": OUT_OF_HYPOTHESIS,
        "threshold-m4-printed": OUT_OF_HYPOTHESIS,
    }
    with pytest.raises(InputError):
        check_threshold_equivalences(2, 6)
    with pytest.raises(InputError):
        check_threshold_equivalences(1, 10)


def test_threshold_derived_caps():
    # the printed m4 bracket simplifies to k <= M-3, strictly weaker than the
    # claimed (M-3)^2/M; the printed m3 bracket to k <= (M-2)^2/(3M), strictly
    # stronger than the claimed (M-2)^2/(3M-2): the audit records both caps
    for M in (10, 19, 47, 100):
        sides = threshold_sides(2, M)
        derived_m4, claimed_m4 = sides["threshold-m4-annotation"]
        derived_m3, claimed_m3 = sides["threshold-m3-annotation"]
        assert derived_m4 == M - 3
        assert claimed_m4 == int(sides["threshold-m4-claimed"][1])
        assert derived_m4 >= claimed_m4
        assert derived_m3 == int(Fraction((M - 2) ** 2, 3 * M))
        assert claimed_m3 == int(sides["threshold-m3-claimed"][1])
        assert derived_m3 <= claimed_m3


def test_threshold_derived_caps_are_the_largest_k_on_the_printed_brackets():
    # evaluated on the printed brackets themselves, not their simplifications;
    # both decrease in k, so holding at cap and failing at cap + 1 pins it
    for M in range(7, 301):
        sides = threshold_sides(2, M)
        for bracket, (cap, _) in (
            (_bracket_m4, sides["threshold-m4-annotation"]),
            (_bracket_m3, sides["threshold-m3-annotation"]),
        ):
            assert cap >= 1
            assert _exact(bracket(cap, M), 2 * cap) >= 2 * M
            assert _exact(bracket(cap + 1, M), 2 * (cap + 1)) < 2 * M


def test_printed_brackets_are_the_printed_expressions():
    # term by term as printed, in Fraction arithmetic; ints where integral
    for k in range(2, 31):
        for M in range(7, 201):
            s4, s3 = M - 3 + k, M - 2 + k
            m4 = (Fraction(s4 * s4, 2 * k) + Fraction(s4, 2) - k - M + 6) * 2
            m3 = Fraction(s3 * s3, 2 * k) + Fraction(s3, 2) - k - M + 3
            for value, expected in (
                (_exact(_bracket_m4(k, M), 2 * k), m4),
                (_exact(_bracket_m3(k, M), 2 * k), m3),
            ):
                assert value == expected
                assert type(value) is (int if expected.denominator == 1 else Fraction)


def test_threshold_monotonicity_in_m():
    previous_c = previous_d = Fraction(0)
    for M in range(7, 301):
        c = Fraction((M - 3) ** 2, M)
        d = Fraction((M - 2) ** 2, 3 * M - 2)
        assert c >= previous_c and d >= previous_d
        previous_c, previous_d = c, d


# ---------------------------------------------------------------------------
# the per-(k, M) checks against a Fraction-only oracle
# ---------------------------------------------------------------------------


def _oracle_side(value):
    # a side is written as an int where it is one
    return value.numerator if value.denominator == 1 else value


def _oracle_record(check, params, lhs, rhs, ok, in_hyp, note):
    if in_hyp:
        return CheckRecord(check, params, lhs, rhs, PASS if ok else FAIL, note)
    outside = f"evaluates to {PASS if ok else FAIL} outside the hypothesis range"
    note = (note + "; " if note else "") + outside
    return CheckRecord(check, params, lhs, rhs, OUT_OF_HYPOTHESIS, note)


def oracle_small_degree_codim(k, M):
    """``check_small_degree_codim``: every binomial of the chain, per (k, M)."""
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    params, in_hyp = {"k": k, "M": M}, M >= 3 * k + 4
    target = binomial(M - k + 1, 2)
    chain_lhs = min(binomial(M - j + 1, 2) for j in range(1, k + 1))
    note = "min over j = 1..k of C(M-j+1, 2) against C(M-k+1, 2)"
    return [
        _oracle_record(
            "small-degree-chain", params, chain_lhs, target, chain_lhs >= target, in_hyp, note
        ),
        _oracle_record(
            "small-degree-codim", params, target, 2 * M + 1, target >= 2 * M + 1, in_hyp, ""
        ),
    ]


def oracle_threshold_equivalences(k, M):
    """``check_threshold_equivalences`` with every side a Fraction, compared as one."""
    if k < 2 or M < 7:
        raise InputError(f"need k >= 2 and M >= 7, got ({k}, {M})")
    params, in_hyp = {"k": k, "M": M}, M >= 3 * k + 4
    records = []
    for case, s, constant, factor, cap, claimed, claimed_note, printed_note in (
        (
            "m3", M - 2 + k, 3, 1,
            Fraction((M - 2) ** 2, 3 * M),
            Fraction((M - 2) ** 2, 3 * M - 2),
            "claimed equivalent k <= (M-2)^2/(3M-2)",
            "[(M-2+k)^2/2k + (M-2+k)/2 - k - M + 3] * 1 >= 2M as printed",
        ),
        (
            "m4", M - 3 + k, 6, 2,
            Fraction(M - 3),
            Fraction((M - 3) ** 2, M),
            "claimed equivalent k <= (M-3)^2/M",
            "[(M-3+k)^2/2k + (M-3+k)/2 - k - M + 6] * 2 >= 2M as printed",
        ),
    ):
        printed = (Fraction(s * s, 2 * k) + Fraction(s, 2) - k - M + constant) * factor
        note = (
            f"largest k satisfying the printed {case} bracket vs the claimed"
            " equivalent; a difference means the printed inequality and"
            " its claimed simplification are not equivalent"
            " (recorded, not adjudicated)"
        )
        name = f"threshold-{case}-"
        records += [
            _oracle_record(
                name + "annotation", params, math.floor(cap), math.floor(claimed), True, True, note
            ),
            _oracle_record(
                name + "claimed", params, k, _oracle_side(claimed), k <= claimed, in_hyp,
                claimed_note,
            ),
            _oracle_record(
                name + "printed", params, _oracle_side(printed), 2 * M, printed >= 2 * M,
                in_hyp, printed_note,
            ),
        ]
    return records


def _fields(records):
    # NamedTuple equality would take 2 == Fraction(2): compare the types too
    return [
        (r.check, r.params, r.lhs, type(r.lhs), r.rhs, type(r.rhs), r.verdict, r.note)
        for r in records
    ]


def _outcome(check, k, M):
    try:
        return _fields(check(k, M))
    except InputError as exc:
        return f"InputError: {exc}"


_PER_KM_CHECKS = (
    (check_small_degree_codim, oracle_small_degree_codim),
    (check_threshold_equivalences, oracle_threshold_equivalences),
)


@pytest.mark.parametrize("descending", [False, True], ids=["ascending-M", "descending-M"])
def test_per_km_checks_match_the_fraction_oracle(descending):
    # k 2..30 and M 7..200, inside and outside the hypothesis M >= 3k+4
    # (and, for the small-degree chain, where C(M-k+1, 2) is refused)
    Ms = range(200, 6, -1) if descending else range(7, 201)
    verdicts = Counter()
    for M in Ms:
        for k in range(2, 31):
            for check, oracle in _PER_KM_CHECKS:
                expected = _outcome(oracle, k, M)
                assert _outcome(check, k, M) == expected, (check.__name__, k, M)
                if not isinstance(expected, str):
                    verdicts.update(field[6] for field in expected)
    assert verdicts[PASS] and verdicts[OUT_OF_HYPOTHESIS]


def test_audit_per_km_records_match_the_fraction_oracle():
    per_km = {"small-degree-chain", "small-degree-codim"}
    per_km |= {f"threshold-{case}-{kind}" for case in ("m3", "m4")
               for kind in ("annotation", "claimed", "printed")}
    audited = [r for r in audit_records(30, 200, tuple_k_max=1) if r.check in per_km]
    expected = [
        r
        for k in range(2, 31)
        for M in range(3 * k + 4, 201)
        for _, oracle in _PER_KM_CHECKS
        for r in oracle(k, M)
    ]
    assert len(audited) == 8 * 4321
    assert _fields(audited) == _fields(expected)


def test_threshold_comparisons_at_their_equality_points():
    # k <= num/den is compared as k*den <= num, and a bracket B/2k >= 2M as
    # B >= 2M*2k; where the two sides are equal, each must still hold
    equal = {}
    for k in range(2, 31):
        for M in range(7, 201):
            for r in check_threshold_equivalences(k, M):
                if r.lhs == r.rhs and not r.check.endswith("annotation"):
                    equal.setdefault(r.check, set()).add((k, M))
                    assert r.verdict == PASS or r.note.endswith(
                        "evaluates to pass outside the hypothesis range"
                    )
    # the m4 bracket is 2M at k = M-3, the claimed m4 bound is k at (4, 9),
    # and the m3 comparisons have no equality point in the box
    assert equal == {
        "threshold-m4-printed": {(M - 3, M) for M in range(7, 34)},
        "threshold-m4-claimed": {(4, 9)},
    }
    for k, M in ((4, 7), (7, 10), (9, 12)):
        printed = threshold_sides(k, M)["threshold-m4-printed"]
        assert printed == (2 * M, 2 * M) and type(printed[0]) is int
    claimed = [r for r in check_threshold_equivalences(4, 9) if r.check == "threshold-m4-claimed"]
    assert _fields(claimed) == [(
        "threshold-m4-claimed", {"k": 4, "M": 9}, 4, int, 4, int, OUT_OF_HYPOTHESIS,
        "claimed equivalent k <= (M-3)^2/M; evaluates to pass outside the hypothesis range",
    )]


# ---------------------------------------------------------------------------
# audit_range
# ---------------------------------------------------------------------------


def test_audit_smoke_box():
    report = audit_range(2, 12)
    assert report.aggregate_pass
    assert any(r.check == "square-sum" for r in report.records)
    assert any(r.check == "tail-bound-m3" for r in report.records)
    assert report.discrepancy_notes  # the closed-form annotations are present


def test_audit_checks_the_quadratic_margin_once_per_m(monkeypatch):
    import fanoci.proof_audit as proof_audit

    seen = []

    def counting(M):
        seen.append(M)
        return check_quadratic_margin(M)

    monkeypatch.setattr(proof_audit, "check_quadratic_margin", counting)
    report = audit_range(16, 100, tuple_k_max=4, tuple_M_max=40)
    assert sorted(seen) == list(range(10, 101))  # 91 distinct M, each once
    # every (k, M) pair still carries both quadratic records
    quadratic = [r for r in report.records if r.check.startswith("quadratic")]
    pairs = sum(max(0, 100 - (3 * k + 4) + 1) for k in range(2, 17))
    assert len(quadratic) == 2 * pairs


def test_audit_builds_no_per_tuple_objects(monkeypatch):
    import fanoci.proof_audit as proof_audit

    built = []

    def counting(degrees):
        built.append(degrees)
        return DegreeTuple(degrees)

    def refuse(*args, **kwargs):
        raise AssertionError("audit_range built a tail report per tuple")

    monkeypatch.setattr(proof_audit, "DegreeTuple", counting)
    monkeypatch.setattr(proof_audit, "check_tail_bounds", refuse)
    report = audit_range(4, 24, tuple_k_max=4, tuple_M_max=24)
    tails = sum(r.check == "tail-bound-m3" for r in report.records)
    # only the square-sum witnesses are DegreeTuples
    witnesses = sum(
        r.note.count("(") for r in report.records if r.check == "square-sum"
    )
    assert tails > 100 and len(built) == witnesses


def test_audit_vacuous_range_is_noted():
    report = audit_range(2, 9)
    assert report.aggregate_pass
    assert [r.verdict for r in report.records] == [VACUOUS]
    assert "no M with 3k+4" in report.records[0].note


def _public_check_records(k_max, M_max, tuple_k_max, tuple_M_max):
    """The records of audit_range's box, made by the public checks."""
    records = []
    for k in range(2, k_max + 1):
        lo = 3 * k + 4
        if lo > M_max:
            note = f"no M with 3k+4 = {lo} <= M <= {M_max} for k = {k}"
            records.append(
                CheckRecord("sweep-range", {"k": k, "M": 0}, lo, M_max, VACUOUS, note)
            )
        for M in range(lo, M_max + 1):
            records += check_small_degree_codim(k, M)
            records += check_quadratic_margin(M)
            records += check_threshold_equivalences(k, M)
            if k <= tuple_k_max and M <= tuple_M_max:
                for shift in (2, 3):
                    records += optimize_square_sum(k, M, shift).records()
                for d in nondecreasing_degree_tuples(k, M + k, 2, M + k):
                    records += check_tail_bounds(DegreeTuple(d))
    return records


@pytest.mark.parametrize(
    "box",
    [
        (2, 9, 5, 60),  # vacuous
        (5, 15, 5, 60),  # vacuous and live k mix
        (3, 30, 6, 12),  # the tuple box is wider in k and narrower in M
        (4, 20, 2, 5),  # the tuple box is empty
        (4, 24, 4, 24),
    ],
    ids=["vacuous", "mixed", "tuples-wide-k", "no-tuples", "k4"],
)
def test_audit_order_is_the_params_text_order(box):
    # the report's order: k, M, check, then the text of the sorted params,
    # stable; (3, M = 20) puts (2,10,11) before (2,2,19)
    k_max, M_max, tuple_k_max, tuple_M_max = box
    report = audit_range(k_max, M_max, tuple_k_max=tuple_k_max, tuple_M_max=tuple_M_max)

    def params_text_key(record):
        return (
            record.params.get("k", 0),
            record.params.get("M", 0),
            record.check,
            str(sorted(record.params.items())),
        )

    expected = sorted(_public_check_records(*box), key=params_text_key)
    assert list(report.records) == expected
    tails = [
        r.params["degrees"]
        for r in report.records
        if r.check == "tail-bound-m3" and r.params["M"] == 20 and r.params["k"] == 3
    ]
    if tails:
        assert tails.index([2, 10, 11]) < tails.index([2, 2, 19])


@pytest.mark.parametrize(
    "report",
    [
        audit_range(2, 9),  # only the vacuous sweep-range record
        audit_range(3, 18, tuple_k_max=3, tuple_M_max=18),  # (7,7,7): worst-case notes
        audit_range(4, 20, tuple_k_max=4, tuple_M_max=20),
        AuditReport(()),
        AuditReport(
            (
                CheckRecord(
                    "odd \"check\"",
                    {"z": [], "a": True, "m": {"y": [1, [2]], "x": None}, "s": "\u2265"},
                    Fraction(-1, 2),
                    -3,
                    PASS,
                    "note with \\ and \u00e9",
                ),
            )
        ),
    ],
    ids=["vacuous", "triple-7", "k4", "empty", "odd-params"],
)
def test_iter_json_is_the_indented_sorted_dump(report):
    expected = json.dumps(report.to_json(), indent=2, sort_keys=True)
    assert "".join(iter_json(report.records)) == expected
    # any iterable will do, read once
    assert "".join(iter_json(iter(report.records))) == expected


@pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 512, 513])
def test_iter_json_across_the_batch_boundaries(size):
    record = CheckRecord("c", {"k": 2, "degrees": [2, 3]}, 1, Fraction(1, 2), PASS, "n")
    expected = json.dumps([record.to_json()] * size, indent=2, sort_keys=True)
    assert "".join(iter_json([record] * size)) == expected


def test_summary_folds_what_the_report_holds():
    report = audit_range(3, 18, tuple_k_max=3, tuple_M_max=18)
    summary = AuditSummary()
    passed = list(summary.watch(iter(report.records)))
    assert all(a is b for a, b in zip(passed, report.records))
    assert len(passed) == len(report.records)
    assert summary.verdicts == Counter(r.verdict for r in report.records)
    assert summary.discrepancy_notes == report.discrepancy_notes
    # the notes as the records of one tail check and one annotation check give them
    assert [note.split(":")[0] for note in report.discrepancy_notes] == [
        "tail-bound-m3",
        "tail-bound-m4",
        "threshold-m4-annotation",
    ]


def test_summary_counts_annotations_and_keeps_the_first():
    records = [
        CheckRecord("threshold-m4-annotation", {"k": 2, "M": M}, M - 3, cap, PASS)
        for M, cap in ((10, 4), (11, 8), (12, 6))
    ]
    summary = AuditSummary()
    assert list(summary.watch(records)) == records
    assert summary.discrepancy_notes == [
        "threshold-m4-annotation: derived k-cap differs from the claimed equivalent on"
        " 2 (k, M) pairs; e.g. M=10: printed bracket holds up to k = 7, claimed form"
        " up to k = 4 (recorded, not adjudicated)"
    ]


def test_tail_differences_are_ordered_by_value():
    def tail(diff):
        note = f"printed closed form 1 differs from the direct bound 0 by {diff}; more"
        return CheckRecord("tail-bound-m4", {}, 0, 0, PASS, note)

    summary = AuditSummary()
    list(summary.watch([tail(10), tail(-3), tail(9), tail(10)]))
    assert [note.split(" by ")[1] for note in summary.discrepancy_notes] == [
        "-3 (1 tuples)",
        "9 (1 tuples)",
        "10 (2 tuples)",
    ]


def test_summary_picks_records_by_check_name():
    # a difference note counts only on a tail check, a cap only on an annotation check
    note = "printed closed form 1 differs from the direct bound 0 by 1"
    records = [
        CheckRecord("tail-bound-m3", {}, 0, 0, PASS, note),
        CheckRecord("tail-bound-m5", {}, 0, 0, PASS, note),
        CheckRecord("square-sum", {}, 0, 0, PASS, note),
        CheckRecord("threshold-m4-claimed", {"k": 2, "M": 10}, 2, 3, PASS, note),
        CheckRecord("threshold-m5-annotation", {"k": 2, "M": 10}, 7, 4, PASS),
        CheckRecord("annotation", {"k": 2, "M": 10}, 7, 4, PASS),
    ]
    summary = AuditSummary()
    list(summary.watch(records))
    assert summary.verdicts == {PASS: 6}
    assert summary.discrepancy_notes == [
        "tail-bound-m3: printed closed-form constant exceeds the direct bound by 1 (1 tuples)"
    ]


@pytest.mark.parametrize("box", [(1, 12), (2, 0), (0, 0)])
def test_audit_records_checks_the_box_before_it_returns(box):
    with pytest.raises(InputError):
        audit_records(*box)
    with pytest.raises(InputError):
        audit_range(*box)


def test_audit_records_sorted_and_json_schema():
    report = audit_range(2, 11)
    keys = [
        (r.params.get("k", 0), r.params.get("M", 0), r.check) for r in report.records
    ]
    assert keys == sorted(keys)
    for record in report.to_json():
        assert set(record) == {"check", "params", "lhs", "rhs", "verdict", "note"}
        assert isinstance(record["lhs"], str) and isinstance(record["rhs"], str)
        assert record["verdict"] in (PASS, FAIL, OUT_OF_HYPOTHESIS, VACUOUS)


# ---------------------------------------------------------------------------
# the records outside the audit's box
# ---------------------------------------------------------------------------


def _each_check_in_report_order(records):
    # each check's records come by check name, the order of the report
    names = [r.check for r in records]
    assert names == sorted(names)
    return records


def _records_digest(records):
    lines = sorted(json.dumps(r.to_json(), sort_keys=True) for r in records)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_records_outside_the_audit_box_are_pinned():
    # the audit sweeps M >= 3k+4 only, so its bytes never hold the
    # out-of-hypothesis records; these digests pin them, with the
    # in-hypothesis ones beside them for the thresholds and the quadratics
    thresholds = [
        r
        for k in range(2, 11)
        for M in range(7, 41)
        for r in _each_check_in_report_order(check_threshold_equivalences(k, M))
    ]
    assert _records_digest(thresholds) == (
        1836,
        "cbf074e02b3f56e4c2ab3288b50fffdf73fe105a1292a74b91aa8713ad94ce8f",
    )
    tails = [
        r
        for k in range(2, 6)
        for M in range(4, 3 * k + 4)
        for d in nondecreasing_degree_tuples(k, M + k, 2, M + k)
        for r in _each_check_in_report_order(check_tail_bounds(DegreeTuple(d)))
    ]
    assert _records_digest(tails) == (
        890,
        "5bf84de1c7f32f09201f675e64067c0cb0d330e486be852181073557cee1c406",
    )
    per_m = [
        r
        for k in range(2, 11)
        for M in range(k + 1, 41)
        for r in _each_check_in_report_order(check_small_degree_codim(k, M))
    ]
    per_m += [
        r for M in range(5, 41) for r in _each_check_in_report_order(check_quadratic_margin(M))
    ]
    assert _records_digest(per_m) == (
        684,
        "773c190878c4f05e9f4f02cf26ab818df07288e45ba87d5717071a16c5635689",
    )
