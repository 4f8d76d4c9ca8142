"""Exact audit of the inequality chain behind the regularity genericity bound.

Setting: k >= 2 forms of degrees d_1 <= ... <= d_k, M = sum(d) - k, and the
weight sequence m_1 <= ... <= m_M listing the degrees >= 2 of all homogeneous
parts q_{i,j} with j >= 2 (degree d occurs k_d = #{l : d_l >= d} times, and
sum(m) = sum d_l(d_l+1)/2 - k).  The chain to audit, with everything exact:

  * degree-2 staircase bound:  C(M-k+1, 2) >= 2M+1, granted M >= 3k+4,
    after the chain C(M-j+1, 2) >= C(M-k+1, 2) for j = 1..k;
  * quadratic margin: g(b) = -b^2 + (M-5)b + M - 6 >= 0 for b in [0, M-5],
    where g(b) = (b+3)(M-2-b) - 2M (identity verified at sample points);
  * tail cases b = M-4 and b = M-3: lower-bound sum_{i<=b} m_i + m_j by
    sum(m) - 2*dk - (dk-1) resp. sum(m) - 2*dk, then test
    (bound - b) * (M - b - 2) >= 2M;
  * square-sum relaxation: the integer minimum of
    sum_{l<k} d_l^2 + (d_k - shift)^2 over tuples with sum(d) = M + k is at
    least the unconstrained bound (M + k - shift)^2 / k (shift in {2, 3});
  * threshold predicates: the two printed bracket inequalities for the tail
    cases and their claimed closed-form equivalents k <= (M-3)^2/M and
    k <= (M-2)^2/(3M-2).

The printed inequalities are normative: where an independent recomputation
of a constant or a threshold disagrees with a printed simplification, the
report carries both and flags the difference without overriding either.
What the audit must establish is only that every variant follows from
M >= 3k+4 across the sweep box.

Each check returns its ``CheckRecord``s in report order, by check name within
a (k, M); the square sums come as ``SquareSumResult``, the optimum with its
witnesses, whose ``records()`` is the one record.  The json and csv audits
write each record as ``audit_records`` makes it, folding the summary as they
go (``AuditSummary``); ``audit_range`` collects the records instead.

The text audit only counts records, so ``audit_summary`` counts each (k, M)
block of tail records whole: with SQ_s = sum_{l<k} d_l^2 + (d_k - s)^2, the
m3 test reads 2*lhs = SQ_2 - M - k + 2 and the m4 test lhs = SQ_3 - M - k + 1,
each against 2M, and every tuple's printed closed form exceeds its direct
bound by 2 (m3) and 4 (m4).  So where the block's square-sum minima reach
5M + k - 2 (shift 2) and 3M + k - 1 (shift 3), every tail record of the block
passes with the same note key, and the two records of one witness, weighted
by the block's tuple count p(M - k, <= k), fold into the same summary.  A
block whose minima fall short is enumerated.  The records and the summary
come from one walk of the box, ``_report_groups``.

The per-(k, M) checks share what depends on M alone.  For the thresholds
that is the claimed bounds (M-2)^2/(3M-2) and (M-3)^2/M, the derived caps
and the largest integers on the claimed bounds; per k come only the two
printed brackets, and each comparison is made in integers, k <= num/den as
k*den <= num and a bracket B/2k >= 2M as B >= 2M*2k.  For the small-degree
chain, min over j <= k of C(M-j+1, 2) is a running minimum over k, so each
binomial is computed once per (j, M).  The walk makes the parts of each M
once; a public check called alone makes those of its own M.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .errors import InputError
from .families import DegreeTuple, nondecreasing_degree_tuples
from .rationals import binomial, format_rational

PASS = "pass"
FAIL = "fail"
OUT_OF_HYPOTHESIS = "out-of-hypothesis"
VACUOUS = "vacuous"

# records per piece of text that iter_json yields
_JSON_BATCH = 256


# An exact side of a check: a Fraction, or an int where integer arithmetic
# produced it; ``str`` of either is the "num/den" serialization.
Exact = Union[int, Fraction]


class CheckRecord(NamedTuple):
    """One audited comparison: exact sides, verdict, and optional note."""

    check: str
    params: Dict[str, object]
    lhs: Exact
    rhs: Exact
    verdict: str
    note: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "verdict": self.verdict,
            "note": self.note,
        }


def _record(
    check: str,
    params: Dict[str, object],
    lhs: Exact,
    rhs: Exact,
    ok: bool,
    *,
    in_hypothesis: bool = True,
    note: str = "",
) -> CheckRecord:
    verdict = (PASS if ok else FAIL) if in_hypothesis else OUT_OF_HYPOTHESIS
    if not in_hypothesis:
        note = (note + "; " if note else "") + (
            "evaluates to " + (PASS if ok else FAIL) + " outside the hypothesis range"
        )
    return CheckRecord(check, params, lhs, rhs, verdict, note)


# ---------------------------------------------------------------------------
# Reduction constants
# ---------------------------------------------------------------------------


class ReductionConstants(NamedTuple):
    """The dimension counts entering the incidence-variety reduction."""

    k: int
    M: int

    @property
    def fiber_dim(self) -> int:
        """Dimension of a generic fiber: (M + k) + M."""
        return 2 * self.M + self.k

    @property
    def codim_target(self) -> int:
        """The codimension every bad locus must reach: (2M+k) - k + 1."""
        return 2 * self.M + 1

    def grassmann_dim(self, b: int) -> int:
        """dim of the Grassmannian of codimension-b subspaces: b(M-1-b)."""
        if not 0 <= b <= self.M - 3:
            raise InputError(f"b = {b} outside [0, {self.M - 3}]")
        return b * (self.M - 1 - b)

    def wj_dim(self, j: int) -> int:
        """dim of pulled-back quadrics after a general projection: C(M+1-j, 2)."""
        if not 1 <= j <= self.M - 2:
            raise InputError(f"j = {j} outside [1, {self.M - 2}]")
        return binomial(self.M + 1 - j, 2)

    def pencil_dim(self, m: int, b: int) -> int:
        """dim of degree-m products of linear forms off a codim-b span."""
        if m < 2:
            raise InputError(f"m = {m} must be >= 2")
        if not 0 <= b <= self.M - 3:
            raise InputError(f"b = {b} outside [0, {self.M - 3}]")
        return (self.M - b - 2) * m + 1


def reduction_constants(k: int, M: int) -> ReductionConstants:
    if k < 2 or M < 1:
        raise InputError(f"need k >= 2 and M >= 1, got ({k}, {M})")
    return ReductionConstants(k, M)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_small_degree_codim(k: int, M: int) -> List[CheckRecord]:
    """The chain C(M-j+1, 2) >= C(M-k+1, 2), j <= k, then C(M-k+1, 2) >= 2M+1."""
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    target = binomial(M - k + 1, 2)
    chain_lhs = min(binomial(M - j + 1, 2) for j in range(1, k + 1))
    return _small_degree_records(k, M, chain_lhs, target)


def _small_degree_records(k: int, M: int, chain_lhs: int, target: int) -> List[CheckRecord]:
    """The records of ``check_small_degree_codim``, given the chain's minimum
    and its target C(M-k+1, 2)."""
    params, in_hyp = {"k": k, "M": M}, M >= 3 * k + 4
    return [
        _record(
            "small-degree-chain",
            params,
            chain_lhs,
            target,
            chain_lhs >= target,
            in_hypothesis=in_hyp,
            note="min over j = 1..k of C(M-j+1, 2) against C(M-k+1, 2)",
        ),
        _record(
            "small-degree-codim",
            params,
            target,
            2 * M + 1,
            target >= 2 * M + 1,
            in_hypothesis=in_hyp,
        ),
    ]


def check_quadratic_margin(M: int) -> List[CheckRecord]:
    """g(b) = -b^2 + (M-5)b + M-6 >= 0 on the integer range [0, M-5].

    Verified three ways: endpoints plus concavity (leading coefficient -1),
    an exhaustive scan of the range, and the defining identity
    (b+3)(M-2-b) - 2M = g(b) at three sample points (enough for quadratics).
    The records are the identity's, then the margin's.
    """
    if M < 5:
        raise InputError(f"need M >= 5 so that the b-range [0, M-5] exists, got {M}")
    in_hyp = M >= 7

    def g(b: int) -> int:
        return -b * b + (M - 5) * b + M - 6

    endpoints_min = min(g(0), g(M - 5))
    scan_min = min(g(b) for b in range(0, M - 4))
    assert scan_min >= endpoints_min  # concavity: interior never below endpoints
    identity_ok = all((b + 3) * (M - 2 - b) - 2 * M == g(b) for b in (0, 1, 2))
    identity = _record(
        "quadratic-identity",
        {"M": M},
        1 if identity_ok else 0,
        1,
        identity_ok,
        in_hypothesis=in_hyp,
        note="(b+3)(M-2-b) - 2M = -b^2 + (M-5)b + M - 6 at b = 0, 1, 2",
    )
    margin = _record(
        "quadratic-margin",
        {"M": M},
        scan_min,
        0,
        scan_min >= 0,
        in_hypothesis=in_hyp,
        note=f"min over b in [0, {M - 5}]; endpoints g(0) = g(M-5) = {M - 6}",
    )
    return [identity, margin]


class SquareSumResult(NamedTuple):
    """Exact integer minimum, with its witnesses, against the relaxation bound."""

    k: int
    M: int
    shift: int
    integer_min: int
    relaxation_bound: Fraction
    witnesses: Tuple[DegreeTuple, ...]

    @property
    def holds(self) -> bool:
        return self.integer_min >= self.relaxation_bound

    def records(self) -> List[CheckRecord]:
        return [
            _record(
                "square-sum",
                {"k": self.k, "M": self.M, "shift": self.shift},
                self.integer_min,
                self.relaxation_bound,
                self.holds,
                note="integer minimum at " + ", ".join(str(w) for w in self.witnesses),
            )
        ]


def optimize_square_sum(k: int, M: int, shift: int) -> SquareSumResult:
    """Minimize sum_{l<k} d_l^2 + (d_k - shift)^2 over tuples with sum = M+k.

    The integer minimum is exact and respects the family constraints
    (2 <= d_1 <= ... <= d_k), while the relaxation bound (M+k-shift)^2 / k
    is the unconstrained continuous minimum, so integer_min >=
    relaxation_bound must always hold.

    No tuple is listed.  Once the last degree c is fixed, the other k-1
    degrees sum to M+k-c, and as x^2 is strictly convex the balanced prefix
    (parts q and q+1) is the one prefix of least square sum; it is feasible
    whenever some prefix is, i.e. for ceil((M+k)/k) <= c <= M+k-2(k-1).  So
    one scan over c gives the minimum and all of its witnesses.  The
    balanced prefix grows lexicographically with its sum, so scanning c
    downwards lists the witnesses in lexicographic order, the order of
    ``nondecreasing_degree_tuples``; the tests keep that brute-force
    enumeration as the oracle.
    """
    if shift not in (2, 3):
        raise InputError(f"shift must be 2 or 3, got {shift}")
    if k < 2:
        raise InputError(f"need k >= 2, got {k}")
    total, parts = M + k, k - 1
    best: Optional[int] = None
    witnesses: List[Tuple[int, ...]] = []
    for c in range(total - 2 * parts, -(-total // k) - 1, -1):
        q, r = divmod(total - c, parts)
        value = parts * q * q + r * (2 * q + 1) + (c - shift) ** 2
        if best is None or value <= best:
            prefix = (q,) * (parts - r) + (q + 1,) * r
            if best is None or value < best:
                best, witnesses = value, []
            witnesses.append(prefix + (c,))
    if best is None:
        raise InputError(f"no degree tuple with k = {k} sums to {total}")
    bound = Fraction((M + k - shift) ** 2, k)
    return SquareSumResult(
        k, M, shift, best, bound, tuple(DegreeTuple(w) for w in witnesses)
    )


_TAIL_CHECKS = ("tail-bound-m3", "tail-bound-m4")


def check_tail_bounds(degrees: DegreeTuple) -> List[CheckRecord]:
    """The two tail cases of the bracket test for one degree tuple.

    For b = M-4 the printed lower bound for sum_{i<=b} m_i + m_j subtracts
    2*dk + (dk - 1) from sum(m); for b = M-3 it subtracts 2*dk.  Each case
    then requires (bound - b) * (M - b - 2) >= 2M.  The independent
    recomputation subtracts the actual largest weights instead (three for
    b = M-4, two for b = M-3) and re-derives the printed closed forms
    sum_{l<k} d_l(d_l+1)/2 + (dk-3)(dk-2)/2 + 2 - k   (b = M-4)
    sum_{l<k} d_l(d_l+1)/2 + (dk-2)(dk-1)/2 + 1 - k   (b = M-3)
    from the subtraction form, flagging constant differences.  The records
    are the m3 case's, then the m4 case's, as the audit makes them.
    """
    M, k = degrees.M, degrees.k
    if M < 4:
        raise InputError(f"tail cases need M >= 4, got M = {M}")
    return _tail_records(degrees.degrees, k, M)


def _tail_cases(d: Tuple[int, ...], k: int, M: int) -> Tuple[tuple, tuple]:
    """The two tail cases of ``check_tail_bounds``, b = M-3 then b = M-4.

    Each is the integer tuple (b, sum(m), printed subtraction, printed
    bound, worst-case subtraction, worst-case bound, printed closed form,
    test lhs, test rhs).  Everything is integer arithmetic on the last three
    degrees and one sum, without listing the weights: degree x has the
    weights 2..x, so every weight is dominated by the three weights x, x-1,
    x-2 (those >= 2) of each of the last three degrees, and the largest
    weights are among them; sum(m) = sum d_l(d_l+1)/2 - k; and (dk-3)(dk-2)
    and (dk-2)(dk-1) are products of consecutive integers, hence even.
    """
    dk, dk1 = d[-1], d[-2]
    dk2 = d[-3] if k > 2 else 0  # a missing degree contributes no weight >= 2
    # top weights: dk, then dk-1 or dk1 = dk, then the best of what remains
    top2 = dk + max(dk - 1, dk1)
    top3 = top2 + (max(dk - 1, dk2) if dk1 == dk else max(dk - 2, dk1))
    partial = sum(x * (x + 1) for x in d[:-1]) // 2
    total = partial + dk * (dk + 1) // 2 - k
    b3, bound3 = M - 3, total - 2 * dk
    b4, bound4 = M - 4, total - (3 * dk - 1)
    return (
        (b3, total, 2 * dk, bound3, top2, total - top2,
         partial + (dk - 2) * (dk - 1) // 2 + 1 - k,
         (bound3 - b3) * (M - b3 - 2), 2 * M),
        (b4, total, 3 * dk - 1, bound4, top3, total - top3,
         partial + (dk - 3) * (dk - 2) // 2 + 2 - k,
         (bound4 - b4) * (M - b4 - 2), 2 * M),
    )


def _tail_records(d: Tuple[int, ...], k: int, M: int) -> List[CheckRecord]:
    """The records of the two tail cases of one tuple, in ``_tail_cases`` order."""
    in_hyp = M >= 3 * k + 4
    degrees = _DegreeList(d)
    out = []
    for name, (b, _, paper_sub, paper_bound, indep_sub, indep_bound, closed_form,
               lhs, rhs) in zip(_TAIL_CHECKS, _tail_cases(d, k, M)):
        notes = []
        if closed_form != paper_bound:
            notes.append(
                f"printed closed form {closed_form} differs from the"
                f" direct bound {paper_bound} by {closed_form - paper_bound}"
            )
        if indep_sub > paper_sub:
            # the printed subtraction understates the worst case, so the
            # printed lower bound overstates; rerun the test with the
            # recomputed bound and record the outcome alongside
            indep_lhs = (indep_bound - b) * (M - b - 2)
            notes.append(
                f"worst-case weight subtraction is {indep_sub} (printed {paper_sub});"
                f" with it the test reads {indep_lhs} >= {rhs}"
                f" ({'pass' if indep_lhs >= rhs else 'fail'})"
            )
        out.append(
            _record(
                name,
                {"k": k, "M": M, "degrees": degrees, "b": b},
                lhs,
                rhs,
                lhs >= rhs,
                in_hypothesis=in_hyp,
                note="; ".join(notes),
            )
        )
    return out


def _exact(num: int, den: int) -> Exact:
    """num/den as an int where it is one, else as a Fraction."""
    quotient, remainder = divmod(num, den)
    return Fraction(num, den) if remainder else quotient


def _bracket_m4(k: int, M: int) -> int:
    # [(M-3+k)^2/2k + (M-3+k)/2 - k - M + 6] * 2, times the denominator 2k
    s = M - 3 + k
    return (s * s + k * s + 2 * k * (6 - k - M)) * 2


def _bracket_m3(k: int, M: int) -> int:
    # [(M-2+k)^2/2k + (M-2+k)/2 - k - M + 3] * 1, times the denominator 2k
    s = M - 2 + k
    return s * s + k * s + 2 * k * (3 - k - M)


# per case of the threshold checks: the check names of its annotation,
# claimed and printed records, then their notes
_THRESHOLD_CASES = tuple(
    (
        f"threshold-{case}-annotation",
        f"threshold-{case}-claimed",
        f"threshold-{case}-printed",
        f"largest k satisfying the printed {case} bracket vs the claimed"
        " equivalent; a difference means the printed inequality and"
        " its claimed simplification are not equivalent"
        " (recorded, not adjudicated)",
        claimed_note,
        printed_note,
    )
    for case, claimed_note, printed_note in (
        (
            "m3",
            "claimed equivalent k <= (M-2)^2/(3M-2)",
            "[(M-2+k)^2/2k + (M-2+k)/2 - k - M + 3] * 1 >= 2M as printed",
        ),
        (
            "m4",
            "claimed equivalent k <= (M-3)^2/M",
            "[(M-3+k)^2/2k + (M-3+k)/2 - k - M + 6] * 2 >= 2M as printed",
        ),
    )
)
_ANNOTATION_CHECKS = tuple(case[0] for case in _THRESHOLD_CASES)


def _threshold_parts(M: int) -> Tuple[Tuple[int, int, Exact, int, int], ...]:
    """What the threshold checks of one M share across its k, by case: the
    derived cap, the largest integer on the claimed bound num/den, that
    bound exact, num and den."""
    return tuple(
        (cap, num // den, _exact(num, den), num, den)
        for cap, num, den in (
            ((M - 2) ** 2 // (3 * M), (M - 2) ** 2, 3 * M - 2),
            (M - 3, (M - 3) ** 2, M),
        )
    )


def check_threshold_equivalences(k: int, M: int) -> List[CheckRecord]:
    """The printed bracket tests, their claimed closed forms, and derived caps.

    The printed m4 bracket simplifies to (M-3)^2/k + M + 3, which is >= 2M
    iff k <= M-3; the printed m3 bracket to (M-2)^2/(2k) + M/2, which is
    >= 2M iff k <= (M-2)^2/(3M).  The derived caps are those bounds.

    The records are the m3 case's, then the m4 case's, each as annotation,
    claimed and printed.  An annotation sets the derived cap against the
    largest integer k on the claimed equivalent, and passes either way; a
    claimed record sets k against the claimed bound; a printed record sets
    the bracket against 2M.
    """
    if k < 2 or M < 7:
        raise InputError(f"need k >= 2 and M >= 7, got ({k}, {M})")
    return _threshold_records(k, M, _threshold_parts(M))


def _threshold_records(
    k: int, M: int, parts: Tuple[Tuple[int, int, Exact, int, int], ...]
) -> List[CheckRecord]:
    """The records of ``check_threshold_equivalences``, given the
    ``_threshold_parts`` of M.  Each side is compared in integers: k <= num/den
    as k*den <= num, and a bracket, B/2k, against 2M as B >= 2M*2k."""
    params, in_hyp, two_m = {"k": k, "M": M}, M >= 3 * k + 4, 2 * M
    records = []
    for (annotation, claimed_check, printed_check, note, claimed_note, printed_note), (
        cap, cap_claimed, claimed, num, den
    ), bracket in zip(_THRESHOLD_CASES, parts, (_bracket_m3(k, M), _bracket_m4(k, M))):
        records += (
            _record(annotation, params, cap, cap_claimed, True, note=note),
            _record(
                claimed_check,
                params,
                k,
                claimed,
                k * den <= num,
                in_hypothesis=in_hyp,
                note=claimed_note,
            ),
            _record(
                printed_check,
                params,
                _exact(bracket, 2 * k),
                two_m,
                bracket >= two_m * 2 * k,
                in_hypothesis=in_hyp,
                note=printed_note,
            ),
        )
    return records


# ---------------------------------------------------------------------------
# The aggregate audit
# ---------------------------------------------------------------------------


class AuditSummary:
    """Verdict counts and discrepancy notes, folded over records as they pass."""

    def __init__(self) -> None:
        self.verdicts: Dict[str, int] = {}
        self._tail_diffs: Dict[Tuple[str, str], int] = {}  # by check, difference text
        self._annotations: Dict[str, list] = {}  # by check: [count, first record]

    def watch(self, records: Iterable[CheckRecord]) -> Iterator[CheckRecord]:
        """Yield each record unchanged, folding it into the summary."""
        fold = self._fold
        for record in records:
            fold(record, 1)
            yield record

    def _fold(self, record: CheckRecord, weight: int) -> None:
        """Count ``record`` as ``weight`` records of its verdict and note."""
        verdicts = self.verdicts
        verdicts[record.verdict] = verdicts.get(record.verdict, 0) + weight
        check = record.check
        if check in _TAIL_CHECKS:
            if "differs" in record.note:
                # "printed closed form A differs from the direct bound B by D; ..."
                key = (check, record.note.partition(" by ")[2].partition(";")[0])
                self._tail_diffs[key] = self._tail_diffs.get(key, 0) + weight
        elif check in _ANNOTATION_CHECKS and record.lhs != record.rhs:
            self._annotations.setdefault(check, [0, record])[0] += weight

    @property
    def discrepancy_notes(self) -> List[str]:
        """Deduplicated summary of printed-vs-recomputed disagreements."""
        tail = sorted(self._tail_diffs.items(), key=lambda kv: (kv[0][0], Fraction(kv[0][1])))
        notes = [
            f"{check}: printed closed-form constant exceeds the direct bound by"
            f" {diff} ({count} tuples)"
            for (check, diff), count in tail
        ]
        for check, (count, first) in sorted(self._annotations.items()):
            notes.append(
                f"{check}: derived k-cap differs from the claimed equivalent on"
                f" {count} (k, M) pairs; e.g. M={first.params.get('M', 0)}: printed"
                f" bracket holds up to k = {format_rational(first.lhs)}, claimed form"
                f" up to k = {format_rational(first.rhs)} (recorded, not adjudicated)"
            )
        return notes


class AuditReport(NamedTuple):
    """Every check record of a sweep, with the aggregate verdict."""

    records: Tuple[CheckRecord, ...]

    @property
    def aggregate_pass(self) -> bool:
        return not any(r.verdict == FAIL for r in self.records)

    @property
    def failures(self) -> List[CheckRecord]:
        return [r for r in self.records if r.verdict == FAIL]

    @property
    def discrepancy_notes(self) -> List[str]:
        """Deduplicated summary of printed-vs-recomputed disagreements."""
        summary = AuditSummary()
        for _ in summary.watch(self.records):
            pass
        return summary.discrepancy_notes

    def to_json(self) -> list:
        return [r.to_json() for r in self.records]


def iter_json(records: Iterable[CheckRecord]) -> Iterator[str]:
    """The text of ``json.dumps([r.to_json() for r in records], indent=2, sort_keys=True)``.

    It comes in pieces of ``_JSON_BATCH`` records as they are read, each record
    written straight to its text: neither a list of dicts nor the document is held.
    """
    records, opening = iter(records), "[\n"
    while batch := ",\n".join(map(_record_json, islice(records, _JSON_BATCH))):
        yield opening + batch
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n]"


def _record_json(record: CheckRecord) -> str:
    """``record.to_json()`` as an element of the indented, key-sorted array."""
    return (
        f"  {{\n    \"check\": {encode_basestring_ascii(record.check)},"
        f"\n    \"lhs\": \"{str(record.lhs)}\","
        f"\n    \"note\": {encode_basestring_ascii(record.note)},"
        f"\n    \"params\": {_params_json(record.params)},"
        f"\n    \"rhs\": \"{str(record.rhs)}\","
        f"\n    \"verdict\": {encode_basestring_ascii(record.verdict)}\n  }}"
    )


def _params_json(params: Dict[str, object]) -> str:
    """``params`` as the indented, key-sorted encoder writes it two levels deep."""
    if not params:
        return "{}"
    items = []
    for key, prefix in _param_prefixes(tuple(params)):
        value = params[key]
        if type(value) is int:
            items.append(prefix + str(value))
        elif type(value) is _DegreeList:
            items.append(prefix + value.json_text())
        else:
            text = json.dumps(value, indent=2, sort_keys=True)
            items.append(prefix + text.replace("\n", "\n      "))
    return "{\n" + ",\n".join(items) + "\n    }"


class _DegreeList(list):
    """The degree list of a tuple's two tail records, which share it.

    Its text in the JSON audit is made once, when the first of the two
    records is written, and kept for the second.  Records are not changed
    after they are made, so the text stays that of the list.
    """

    __slots__ = ("_text",)

    def json_text(self) -> str:
        """The list as the encoder writes it as a params value."""
        try:
            return self._text
        except AttributeError:
            self._text = "[\n        " + ",\n        ".join(map(str, self)) + "\n      ]"
            return self._text


@lru_cache(maxsize=64)
def _param_prefixes(keys: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
    """Params keys in sorted order, each with the text that precedes its value."""
    return tuple((key, f"      {encode_basestring_ascii(key)}: ") for key in sorted(keys))


def audit_records(
    k_max: int,
    M_max: int,
    *,
    tuple_k_max: int = 5,
    tuple_M_max: int = 60,
) -> Iterator[CheckRecord]:
    """Every check over 2 <= k <= k_max, 3k+4 <= M <= M_max, made one by one.

    The per-(k, M) checks (staircase bound, quadratic margin, thresholds)
    sweep the full box; the per-tuple checks (square sums, tail bounds)
    sweep every degree tuple with k <= tuple_k_max and 3k+4 <= M <= tuple_M_max
    (capped by the outer box).  Empty hypothesis ranges are reported as
    vacuous rather than silently skipped.

    The records come in report order: first the quadratic checks, which
    carry no k, by M (each once per k with 3k+4 <= M); then by k, either
    one vacuous sweep-range record or, by M and within each (k, M) by check
    name, the square sums by shift and the tail bounds by the degree list as
    text.  The box is checked here, before any record is made; at most the
    tail records of one (k, M) are held at a time.
    """
    _check_box(k_max, M_max)
    return _report_records(
        _report_groups(k_max, M_max, tuple_k_max, tuple_M_max, whole_blocks=False)
    )


def audit_summary(
    k_max: int,
    M_max: int,
    *,
    tuple_k_max: int = 5,
    tuple_M_max: int = 60,
) -> AuditSummary:
    """The summary that ``AuditSummary.watch`` folds over ``audit_records``.

    It is the same summary, made without the records of a (k, M) tail block
    whose square-sum minima show that all of them pass (module docstring):
    the two records of the block's first shift-2 witness are folded instead,
    each weighted by the block's tuple count.  The quadratic records are
    folded once per M, weighted by their copies.
    """
    _check_box(k_max, M_max)
    summary = AuditSummary()
    fold = summary._fold
    for records, weight in _report_groups(
        k_max, M_max, tuple_k_max, tuple_M_max, whole_blocks=True
    ):
        for record in records:
            fold(record, weight)
    return summary


def audit_range(k_max: int, M_max: int, **tuple_box: int) -> AuditReport:
    """``audit_records(k_max, M_max, **tuple_box)``, collected in one report."""
    # a list, then one copy: a tuple grown from the iterator would re-enter
    # the youngest GC generation at each resize, and be scanned there
    return AuditReport(tuple(list(audit_records(k_max, M_max, **tuple_box))))


def _check_box(k_max: int, M_max: int) -> None:
    if k_max < 2 or M_max < 1:
        raise InputError(f"need k_max >= 2 and M_max >= 1, got ({k_max}, {M_max})")


def _report_records(groups: Iterable[Tuple[List[CheckRecord], int]]) -> Iterator[CheckRecord]:
    """The records of ``_report_groups``, each repeated as its group's weight."""
    for records, copies in groups:
        if copies == 1:
            yield from records
        else:
            for record in records:
                yield from repeat(record, copies)


def _tail_block_passes(two: SquareSumResult, three: SquareSumResult) -> bool:
    """Whether every tail record of a (k, M) block passes, read off the
    block's square-sum minima at shifts 2 and 3.

    As sum(d) = M + k, the test lhs of ``_tail_cases`` is (SQ_2 - M - k + 2)/2
    for b = M-3 and SQ_3 - M - k + 1 for b = M-4, each against 2M.
    """
    k, M = two.k, two.M
    return two.integer_min >= 5 * M + k - 2 and three.integer_min >= 3 * M + k - 1


def _tuple_count(k: int, M: int) -> int:
    """The number of degree tuples of a (k, M) block: p(M - k, <= k).

    Less 2 each, the k degrees, which sum to M + k, are a partition of M - k
    into at most k parts; p(n, <= j) = p(n, <= j-1) + p(n - j, <= j), row by
    row in j, in place.
    """
    n = M - k
    row = [1] + [0] * n  # p(m, <= 0)
    for parts in range(1, k + 1):
        for m in range(parts, n + 1):
            row[m] += row[m - parts]
    return row[n]


def _report_groups(
    k_max: int, M_max: int, tuple_k_max: int, tuple_M_max: int, *, whole_blocks: bool
) -> Iterator[Tuple[List[CheckRecord], int]]:
    """The records of ``audit_records``, for a box it has checked, in groups
    (records, weight): in report order, each record of a group stands for
    ``weight`` copies of itself.

    With ``whole_blocks``, a (k, M) tail block that ``_tail_block_passes`` is
    one group instead: the two records of its first shift-2 witness,
    weighted by ``_tuple_count``.  They stand for the block's records in
    verdict and note key, not in order, so such groups are for
    ``AuditSummary`` alone.
    """
    # the quadratic checks depend on M alone: one run per M, its records
    # repeated once per k in [2, k_max] with 3k+4 <= M
    for M in range(3 * 2 + 4, M_max + 1):
        yield check_quadratic_margin(M), min(k_max, (M - 4) // 3) - 1
    # what depends on M alone is made once per M: the threshold parts, and
    # the small-degree chain's minimum over j <= k, kept running over k (an M
    # of the walk at k is in it at every smaller k); C(M, 2) is its j = 1 term
    per_m = range(3 * 2 + 4, M_max + 1)
    thresholds = {M: _threshold_parts(M) for M in per_m}
    chain_min = {M: binomial(M, 2) for M in per_m}
    for k in range(2, k_max + 1):
        lo = 3 * k + 4
        if lo > M_max:
            note = f"no M with 3k+4 = {lo} <= M <= {M_max} for k = {k}"
            yield [CheckRecord("sweep-range", {"k": k, "M": 0}, lo, M_max, VACUOUS, note)], 1
        for M in range(lo, M_max + 1):
            target = binomial(M - k + 1, 2)
            chain_min[M] = low = min(chain_min[M], target)
            yield _small_degree_records(k, M, low, target), 1
            if k <= tuple_k_max and M <= tuple_M_max:
                two, three = (optimize_square_sum(k, M, shift) for shift in (2, 3))
                yield two.records() + three.records(), 1
                if whole_blocks and _tail_block_passes(two, three):
                    yield _tail_records(two.witnesses[0].degrees, k, M), _tuple_count(k, M)
                else:
                    # the tuples come valid and in range (M >= 3k+4), so their
                    # tail records are made as check_tail_bounds makes them,
                    # with no DegreeTuple and no refusal.  They go by the text
                    # of the degree list, "[2, 10, 11]" before "[2, 2, 19]"; a
                    # tuple's own text sorts alike, since its brackets would
                    # meet a digit only for two tuples that differ in the last
                    # degree alone, and all of these sum to M + k
                    tuples = nondecreasing_degree_tuples(k, M + k, 2, M + k)
                    tails = [_tail_records(d, k, M) for d in sorted(tuples, key=str)]
                    yield [m3 for m3, _ in tails], 1
                    yield [m4 for _, m4 in tails], 1
            yield _threshold_records(k, M, thresholds[M]), 1
