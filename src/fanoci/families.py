"""Degree tuples of Fano complete intersections and their classification.

A family is indexed by a nondecreasing tuple (d_1, ..., d_k) with k >= 2
and d_1 >= 2; the variety dimension is M = sum(d_i) - k and the ambient
projective dimension is M + k = sum(d_i) (index 1).

Four classification criteria are evaluated, identified throughout as
t3/t4/t5/t6.  Writing dk = d_k and dk1 = d_{k-1}:

    t3: M >= 4k+1 and dk >= 8                  -> ct = 1
    t5: M >= 3k+4 and dk >= 8                  -> ct = 1
    t4: M >= 4k+1 and one of the cases below   -> ct > M/(M+1)
    t6: M >= 3k+4 and one of the cases below   -> ct > M/(M+1)

    case i:   dk = dk1 = 7 and M <= 47
    case ii:  dk = 7, dk1 <= 6 and M <= 19
    case iii: k = 2, d = (6, 6), M = 10

The conclusions hold for generic members of the family (the fixed
``GENERICITY_CAVEAT``, printed under every certificate in text): ct = 1
yields a Kaehler-Einstein metric and direct-factor eligibility;
ct > M/(M+1) yields the metric only.

The M-caps in cases (i) and (ii) are where the hypertangent ratio
    max(1, 3/4 * dk/(dk-1) * d+/(d+-1)),
with d+ = dk if dk1 = dk and d+ = dk - 1 otherwise, stays below (M+1)/M;
``max_M_for_bound`` rederives them exactly.

Families are listed one ambient dimension at a time by
``enumerate_families``, optionally with a fixed k and a cap on every
degree.  Its one filter is a token of ``parse_family_filter``: a theorem
id ("t3", "t6:ii", ...), "ke", or "STRONG-not-WEAK".  The token
"t6-not-t4" is the Remark 1 catalogue of case-(ii) t6 families outside t4
(``remark_families``); the literal comparison is "t6:any-not-t4".

Notes:
  * t4/t6 carry three cases even though their source phrasing announces
    "two"; all three are evaluated.
  * k = 1 (hypersurfaces) is excluded everywhere: DegreeTuple requires
    k >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from ._value import Value
from .errors import InputError
from .rationals import format_rational

GENERICITY_CAVEAT = (
    "conclusions hold for generic members of the family"
    " (regularity in the sense of the genericity condition)"
)


class DegreeTuple(Value):
    """Nondecreasing degrees (d_1, ..., d_k), k >= 2, d_1 >= 2.

    An immutable value: equal degrees make equal, equally hashed tuples.
    """

    _fields = ("degrees",)

    def __init__(self, degrees: Tuple[int, ...]) -> None:
        self._set("degrees", degrees)
        d = degrees
        if len(d) < 2:
            raise InputError(f"need k >= 2 degrees, got {d}")
        if any(not isinstance(x, int) or x < 2 for x in d):
            raise InputError(f"degrees must be integers >= 2, got {d}")
        if any(d[i] > d[i + 1] for i in range(len(d) - 1)):
            raise InputError(f"degrees must be nondecreasing, got {d}")

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def M(self) -> int:
        return sum(self.degrees) - len(self.degrees)

    @property
    def ambient(self) -> int:
        return sum(self.degrees)

    @property
    def d_plus(self) -> int:
        d = self.degrees
        return d[-1] if d[-2] == d[-1] else d[-1] - 1

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.degrees) + ")"


def hypertangent_ratio(degrees: DegreeTuple) -> Fraction:
    """max(1, 3/4 * dk/(dk-1) * d+/(d+-1)), exactly."""
    dk = degrees.degrees[-1]
    dp = degrees.d_plus
    product = Fraction(3, 4) * Fraction(dk, dk - 1) * Fraction(dp, dp - 1)
    return max(Fraction(1), product)


def max_M_for_bound(ratio: Fraction) -> Optional[int]:
    """Largest M with ratio < (M+1)/M; None when every M qualifies.

    ratio < (M+1)/M  <=>  M < 1/(ratio - 1), so for ratio = 1 the bound is
    unbounded and otherwise the cap is the largest integer strictly below
    1/(ratio - 1).
    """
    ratio = Fraction(ratio)
    if ratio < 1:
        raise InputError(f"ratio must be >= 1, got {ratio}")
    if ratio == 1:
        return None
    c = 1 / (ratio - 1)
    return int(c) - 1 if c.denominator == 1 else int(c)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

CT_EQUALS_ONE = "eq1"
CT_EXCEEDS = "gt_M_over_M+1"
CT_NONE = "none"


class FamilyCertificate(NamedTuple):
    """Which criteria apply to a degree tuple and what follows from them."""

    degrees: DegreeTuple
    t3: bool
    t4_case: str  # "none" | "i" | "ii" | "iii"
    t5: bool
    t6_case: str
    ct_conclusion: str  # eq1 | gt_M_over_M+1 | none
    hypertangent_ratio: Fraction
    ke_metric: str  # yes | unknown
    direct_factor: str  # yes | unknown

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees.degrees),
            "k": self.degrees.k,
            "M": self.degrees.M,
            "ambient": self.degrees.ambient,
            "theorems": {
                "t3": self.t3,
                "t4": self.t4_case,
                "t5": self.t5,
                "t6": self.t6_case,
            },
            "ct": self.ct_conclusion,
            "hypertangent_ratio": format_rational(self.hypertangent_ratio),
            "ke_metric": self.ke_metric,
            "direct_factor": self.direct_factor,
        }

    CSV_HEADER = (
        "degrees,k,M,ambient,t3,t4,t5,t6,ct,hypertangent_ratio,"
        "ke_metric,direct_factor"
    )

    def to_csv_row(self) -> str:
        return ",".join(
            [
                '"' + " ".join(str(d) for d in self.degrees.degrees) + '"',
                str(self.degrees.k),
                str(self.degrees.M),
                str(self.degrees.ambient),
                str(self.t3).lower(),
                self.t4_case,
                str(self.t5).lower(),
                self.t6_case,
                self.ct_conclusion,
                format_rational(self.hypertangent_ratio),
                self.ke_metric,
                self.direct_factor,
            ]
        )


def _seven_six_case(degrees: DegreeTuple) -> str:
    d = degrees.degrees
    M = degrees.M
    if d[-1] == 7 and d[-2] == 7 and M <= 47:
        return "i"
    if d[-1] == 7 and d[-2] <= 6 and M <= 19:
        return "ii"
    if degrees.k == 2 and d == (6, 6) and M == 10:
        return "iii"
    return "none"


def theorem_applicability(degrees: DegreeTuple) -> FamilyCertificate:
    """Evaluate every criterion hypothesis exactly and fill the certificate."""
    d = degrees.degrees
    k, M = degrees.k, degrees.M
    high_degree = d[-1] >= 8
    t3 = M >= 4 * k + 1 and high_degree
    t5 = M >= 3 * k + 4 and high_degree
    case = _seven_six_case(degrees)
    t4_case = case if M >= 4 * k + 1 else "none"
    t6_case = case if M >= 3 * k + 4 else "none"
    if t5 or t3:
        ct = CT_EQUALS_ONE
    elif t6_case != "none" or t4_case != "none":
        ct = CT_EXCEEDS
    else:
        ct = CT_NONE
    return FamilyCertificate(
        degrees=degrees,
        t3=t3,
        t4_case=t4_case,
        t5=t5,
        t6_case=t6_case,
        ct_conclusion=ct,
        hypertangent_ratio=hypertangent_ratio(degrees),
        ke_metric="yes" if ct != CT_NONE else "unknown",
        direct_factor="yes" if ct == CT_EQUALS_ONE else "unknown",
    )


def _theorem_test(theorem_id: str) -> FilterPredicate:
    """The certificate test for an id like "t3", "t4" or "t6:ii"; a bad id raises here."""
    name, _, case = theorem_id.partition(":")
    if name not in ("t3", "t4", "t5", "t6"):
        raise InputError(f"unknown theorem id: {theorem_id!r}")
    if case and name in ("t3", "t5"):
        raise InputError(f"{name} has no cases ({theorem_id!r})")
    if case not in ("", "i", "ii", "iii"):
        raise InputError(f"unknown case in {theorem_id!r}")
    field = name if name in ("t3", "t5") else name + "_case"  # a bool, or a case or "none"
    if case:
        return lambda cert: getattr(cert, field) == case
    return lambda cert: getattr(cert, field) not in (False, "none")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def nondecreasing_degree_tuples(
    k: int, total: int, d_min: int = 2, d_max: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """All nondecreasing k-tuples with entries in [d_min, d_max] summing to total.

    They come in lexicographic order, each made from the one before: the
    rightmost entry that can grow by one grows, and the entries after it
    are refilled as the smallest tuple that still reaches the total.
    """
    if d_max is None:
        d_max = total
    if k == 0:
        if total == 0:
            yield ()
        return
    current = _smallest_completion(k, d_min, total, d_max)
    if current is None:
        return
    while True:
        yield tuple(current)
        suffix = current[-1]
        for i in range(k - 2, -1, -1):
            suffix += current[i]
            if (k - i) * (current[i] + 1) <= suffix:
                current[i:] = _smallest_completion(k - i, current[i] + 1, suffix, d_max)
                break
        else:
            return


def _smallest_completion(m: int, low: int, total: int, high: int) -> Optional[List[int]]:
    """The lexicographically first nondecreasing m-list in [low, high] summing to total.

    Entries stay at ``low`` from the front while the ones behind them can
    still take up the rest at ``high``; None when no such list exists.
    """
    extra = total - m * low
    if m < 1 or extra < 0 or total > m * high:
        return None
    if extra == 0:
        return [low] * m
    full, rest = divmod(extra, high - low)
    if full == m:
        return [high] * m
    return [low] * (m - full - 1) + [low + rest] + [high] * full


FilterPredicate = Callable[[FamilyCertificate], bool]


def _applies_not(strong: str, weak: str) -> FilterPredicate:
    """The test that ``strong`` applies and ``weak`` does not; a bad id raises here."""
    applies, excluded = _theorem_test(strong), _theorem_test(weak)
    return lambda cert: applies(cert) and not excluded(cert)


def parse_family_filter(spec: Optional[str]) -> Optional[FilterPredicate]:
    """Parse a filter token into a predicate on certificates.

    Tokens: "none", a theorem id ("t3", "t6:ii", ...), "ke", or
    "STRONG-not-WEAK" for theorem ids STRONG/WEAK.  The token "t6-not-t4"
    is the catalogued novelty filter: it compares case (ii) of t6 against
    t4, which is the comparison whose result is a fixed finite list; the
    unrestricted comparison is available as "t6:any-not-t4".  Every theorem
    id and case is checked here, so a bad token fails even on an empty box.
    """
    if spec is None or spec == "none":
        return None
    if spec == "ke":
        return lambda cert: cert.ke_metric == "yes"
    if spec == "t6-not-t4":
        return _applies_not("t6:ii", "t4")
    if "-not-" in spec:
        strong, weak = spec.split("-not-", 1)
        return _applies_not("t6" if strong == "t6:any" else strong, weak)
    return _theorem_test(spec)


def enumerate_families(
    ambient: int,
    *,
    k: Optional[int] = None,
    d_max: Optional[int] = None,
    filter_spec: Optional[str] = None,
) -> List[DegreeTuple]:
    """All degree tuples of one ambient dimension, lexicographically sorted.

    A given k is at least 2 and a given ``d_max`` caps every degree;
    ``filter_spec``, a token of ``parse_family_filter``, keeps the tuples
    whose certificates pass it.
    """
    predicate = parse_family_filter(filter_spec)
    if k is not None and k < 2:
        raise InputError(f"need k >= 2 degrees, got k = {k}")
    results: List[DegreeTuple] = []
    cap = d_max if d_max is not None else ambient
    for parts in [k] if k is not None else range(2, ambient // 2 + 1):
        for degrees in nondecreasing_degree_tuples(parts, ambient, 2, cap):
            tup = DegreeTuple(degrees)
            if predicate is None or predicate(theorem_applicability(tup)):
                results.append(tup)
    results.sort(key=lambda t: t.degrees)
    return results


def remark_families() -> List[DegreeTuple]:
    """The catalogued novelty list: case-(ii) t6 families outside t4.

    These all live in ambient projective dimension 24; the computation
    re-derives the fixed list instead of hard-coding it.
    """
    return enumerate_families(24, filter_spec="t6-not-t4")
