from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from fanoci.errors import InputError
from fanoci.families import (
    CT_EQUALS_ONE,
    CT_EXCEEDS,
    CT_NONE,
    DegreeTuple,
    enumerate_families,
    hypertangent_ratio,
    max_M_for_bound,
    nondecreasing_degree_tuples,
    parse_family_filter,
    remark_families,
    theorem_applicability,
)

REMARK_TUPLES = [
    (2, 3, 6, 6, 7),
    (2, 4, 5, 6, 7),
    (2, 5, 5, 5, 7),
    (3, 3, 5, 6, 7),
    (3, 4, 4, 6, 7),
    (3, 4, 5, 5, 7),
    (4, 4, 4, 5, 7),
]


# ---------------------------------------------------------------------------
# DegreeTuple
# ---------------------------------------------------------------------------


def test_degree_tuple_invariants():
    dt = DegreeTuple((2, 5, 5, 5, 7))
    assert dt.k == 5 and dt.M == 19 and dt.ambient == 24
    assert dt.ambient == dt.M + dt.k


def test_degree_tuple_validation():
    with pytest.raises(InputError):
        DegreeTuple((2,))  # k = 1 excluded everywhere
    with pytest.raises(InputError):
        DegreeTuple((1, 2))
    with pytest.raises(InputError):
        DegreeTuple((3, 2))


def test_fano_dimension_examples():
    assert DegreeTuple((6, 6)).M == 10
    assert DegreeTuple((2, 5, 5, 5, 7)).M == 19
    assert DegreeTuple((2, 2)).M == 2


def test_d_plus_examples():
    assert DegreeTuple((2, 7, 7)).d_plus == 7
    assert DegreeTuple((2, 6, 7)).d_plus == 6
    assert DegreeTuple((8, 8)).d_plus == 8


# ---------------------------------------------------------------------------
# hypertangent ratio and M caps
# ---------------------------------------------------------------------------


def test_hypertangent_ratio_examples():
    assert hypertangent_ratio(DegreeTuple((2, 7, 7))) == Fraction(49, 48)
    assert hypertangent_ratio(DegreeTuple((2, 6, 7))) == Fraction(21, 20)
    assert hypertangent_ratio(DegreeTuple((2, 7, 8))) == Fraction(1)


def test_hypertangent_threshold_scan():
    # ratio > 1 exactly when d_k <= 7; the inner product hits exactly 1 only
    # at (d_k, d_plus) = (8, 7) across the scanned range
    exact_ones = []
    for dk in range(2, 101):
        for tup in ((2, dk, dk), (2, dk - 1, dk) if dk >= 3 else None):
            if tup is None or tup[1] < 2:
                continue
            dt = DegreeTuple(tuple(sorted(tup)))
            if dt.degrees[-1] != dk:
                continue
            ratio = hypertangent_ratio(dt)
            product = (
                Fraction(3, 4)
                * Fraction(dk, dk - 1)
                * Fraction(dt.d_plus, dt.d_plus - 1)
            )
            assert (ratio > 1) == (dk <= 7)
            if product == 1:
                exact_ones.append((dk, dt.d_plus))
    assert exact_ones == [(8, 7)]


def test_max_M_for_bound_examples():
    assert max_M_for_bound(Fraction(49, 48)) == 47
    assert max_M_for_bound(Fraction(21, 20)) == 19
    assert max_M_for_bound(Fraction(27, 25)) == 12


def test_max_M_for_bound_unbounded_and_errors():
    assert max_M_for_bound(Fraction(1)) is None
    with pytest.raises(InputError):
        max_M_for_bound(Fraction(9, 10))


def test_m_caps_consistent_with_cases():
    # the case M-caps match the hypertangent rederivation
    assert max_M_for_bound(hypertangent_ratio(DegreeTuple((2, 7, 7)))) == 47
    assert max_M_for_bound(hypertangent_ratio(DegreeTuple((2, 6, 7)))) == 19
    # case (iii): ratio for (6,6) bounds M = 10 within its cap
    cap = max_M_for_bound(hypertangent_ratio(DegreeTuple((6, 6))))
    assert cap == 12 and DegreeTuple((6, 6)).M == 10 <= cap


# ---------------------------------------------------------------------------
# theorem applicability
# ---------------------------------------------------------------------------


def test_applicability_4_8():
    cert = theorem_applicability(DegreeTuple((4, 8)))
    # M = 10 satisfies both 4k+1 = 9 and 3k+4 = 10 with d_k = 8
    assert cert.t3 and cert.t5
    assert cert.ct_conclusion == CT_EQUALS_ONE
    assert cert.ke_metric == "yes" and cert.direct_factor == "yes"


def test_applicability_remark_family():
    cert = theorem_applicability(DegreeTuple((2, 5, 5, 5, 7)))
    assert cert.t6_case == "ii" and cert.t4_case == "none"
    assert not cert.t3 and not cert.t5
    assert cert.ct_conclusion == CT_EXCEEDS
    assert cert.ke_metric == "yes" and cert.direct_factor == "unknown"


def test_applicability_small_tuple():
    cert = theorem_applicability(DegreeTuple((2, 2)))
    assert cert.ct_conclusion == CT_NONE
    assert cert.ke_metric == "unknown" and cert.direct_factor == "unknown"


def test_applicability_case_iii():
    cert = theorem_applicability(DegreeTuple((6, 6)))
    assert cert.t4_case == "iii" and cert.t6_case == "iii"
    assert cert.ct_conclusion == CT_EXCEEDS


def test_hypothesis_sets_disjoint():
    # d_k >= 8 criteria never overlap the d_k in {6, 7} cases
    for degrees in nondecreasing_degree_tuples(2, 16):
        cert = theorem_applicability(DegreeTuple(degrees))
        if cert.t5 or cert.t3:
            assert cert.t4_case == "none" and cert.t6_case == "none"


def test_t3_bound_implies_t5_bound_for_k_at_least_3():
    for k in range(3, 51):
        assert 4 * k + 1 >= 3 * k + 4


def test_certificate_logic_over_box():
    for ambient in range(4, 26):
        for t in enumerate_families(ambient):
            cert = theorem_applicability(t)
            assert t.ambient == t.M + t.k
            assert (cert.ct_conclusion == CT_EQUALS_ONE) == (cert.t5 or cert.t3)
            exceeds_possible = (
                cert.t6_case != "none" or cert.t4_case != "none"
            ) and not (cert.t3 or cert.t5)
            assert (cert.ct_conclusion == CT_EXCEEDS) == exceeds_possible
            assert (cert.ke_metric == "yes") == (cert.ct_conclusion != CT_NONE)
            assert (cert.direct_factor == "yes") == (
                cert.ct_conclusion == CT_EQUALS_ONE
            )


def test_certificate_json_schema():
    data = theorem_applicability(DegreeTuple((2, 5, 5, 5, 7))).to_json()
    assert data == {
        "degrees": [2, 5, 5, 5, 7],
        "k": 5,
        "M": 19,
        "ambient": 24,
        "theorems": {"t3": False, "t4": "none", "t5": False, "t6": "ii"},
        "ct": "gt_M_over_M+1",
        "hypertangent_ratio": "21/20",
        "ke_metric": "yes",
        "direct_factor": "unknown",
    }


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_partitions_of_12_into_two_parts():
    tuples = enumerate_families(12, k=2)
    assert [t.degrees for t in tuples] == [(2, 10), (3, 9), (4, 8), (5, 7), (6, 6)]


def test_enumerate_small_box():
    tuples = [t for ambient in range(4, 6) for t in enumerate_families(ambient, k=2)]
    assert [t.degrees for t in tuples] == [(2, 2), (2, 3)]


def count_nondecreasing_tuples(k: int, total: int, d_min: int = 2) -> int:
    """Independent partition-count oracle (dynamic programming, no listing)."""
    # partitions of `total` into exactly k parts, each >= d_min, equals
    # partitions of total - k*(d_min-1) into exactly k parts >= 1
    shifted = total - k * (d_min - 1)
    if shifted < k:
        return 0
    # p(n, k): partitions of n into exactly k parts
    table = [[0] * (k + 1) for _ in range(shifted + 1)]
    table[0][0] = 1
    for n in range(1, shifted + 1):
        for parts in range(1, k + 1):
            table[n][parts] = table[n - 1][parts - 1]
            if n - parts >= 0:
                table[n][parts] += table[n - parts][parts]
    return table[shifted][k]


def test_enumeration_complete_against_counting_oracle():
    for total in range(4, 30):
        for k in range(2, total // 2 + 1):
            listed = list(nondecreasing_degree_tuples(k, total))
            assert len(listed) == len(set(listed))
            assert len(listed) == count_nondecreasing_tuples(k, total)
            assert all(sum(t) == total for t in listed)
            assert listed == sorted(listed)


def test_enumeration_matches_sorted_combinations_with_caps():
    # combinations_with_replacement lists the nondecreasing tuples of a range
    # in lexicographic order; filtering by the sum is the reference listing
    for k in range(0, 6):
        for total in range(-1, 24):
            for d_min in range(0, 5):
                for d_max in (None, 1, 3, 4, 7, 12):
                    top = total if d_max is None else d_max
                    expected = [
                        combo
                        for combo in combinations_with_replacement(range(d_min, top + 1), k)
                        if sum(combo) == total
                    ]
                    listed = list(nondecreasing_degree_tuples(k, total, d_min, d_max))
                    assert listed == expected, (k, total, d_min, d_max)


def test_remark_catalogue():
    assert [t.degrees for t in remark_families()] == REMARK_TUPLES


def test_filter_token_matches_catalogue():
    tuples = enumerate_families(24, filter_spec="t6-not-t4")
    assert [t.degrees for t in tuples] == REMARK_TUPLES


def test_unrestricted_comparison_is_larger():
    # the literal "t6 applies and t4 does not" additionally admits the
    # case-(i) tuples at ambient 24; this is the derived arithmetic fact the
    # catalogued filter deliberately excludes
    full = enumerate_families(24, filter_spec="t6:any-not-t4")
    assert len(full) == 11
    extra = {t.degrees for t in full} - set(REMARK_TUPLES)
    assert extra == {
        (2, 2, 6, 7, 7),
        (2, 3, 5, 7, 7),
        (2, 4, 4, 7, 7),
        (3, 3, 4, 7, 7),
    }
    for degrees in extra:
        assert theorem_applicability(DegreeTuple(degrees)).t6_case == "i"


def test_case_iii_gives_nothing_new():
    for ambient in range(4, 31):
        assert enumerate_families(ambient, filter_spec="t6:iii-not-t4:iii") == []


def test_t5_vs_t3_comparisons():
    for ambient in range(4, 13):
        assert enumerate_families(ambient, k=2, filter_spec="t5-not-t3") == []
    reverse = [
        t
        for ambient in range(4, 13)
        for t in enumerate_families(ambient, k=2, filter_spec="t3-not-t5")
    ]
    assert [t.degrees for t in reverse] == [(2, 9), (3, 8)]
    assert all(t.M == 9 for t in reverse)


def test_theorem_applies_parsing():
    cert = theorem_applicability(DegreeTuple((2, 5, 5, 5, 7)))
    assert parse_family_filter("t6")(cert)
    assert parse_family_filter("t6:ii")(cert)
    assert not parse_family_filter("t6:i")(cert)
    assert not parse_family_filter("t4")(cert)
    with pytest.raises(InputError):
        parse_family_filter("t9")
    with pytest.raises(InputError):
        parse_family_filter("t3:i")
