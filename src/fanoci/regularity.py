"""Regularity of a pointed complete intersection at the origin.

Given affine equations f_1..f_k (vanishing at the origin o) of degrees
d_1..d_k in ambient coordinates z_1..z_{M+k}, each f_i decomposes into
homogeneous parts q_{i,1} + ... + q_{i,d_i}.  The index set I labels all
parts except two top-degree ones:

    d_{k-1} = d_k:  exclude (k, d_k) and (k-1, d_{k-1})
    otherwise:      exclude (k, d_k) and (k, d_k - 1)

so #I = (sum of d_i) - 2 = M + k - 2.  The variety is regular at o when,
for a linear form l not vanishing identically on the tangent space T_oV,
the sequence {l} together with {q_{i,j} : (i,j) in I} cuts the origin's
local ring down by codimension #I + 1, i.e. forms a regular sequence.
This module assembles that sequence (pairs ordered by (i, j), l first)
and delegates the prefix codimension decisions to the dimension kernel.
A form l is admissible when it does not vanish on T_oV, i.e. l . v != 0
for some vector v of the tangent basis.

The reduced check removes the k+1 independent linear members (l and the
q_{i,1}) at once: their common zeros are the graph of a linear map over the
M-1 surviving variables, so the other members are composed with the images
of the k+1 eliminated variables only (``polynomials.restrict_to_common_zeros``),
leaving M-2 forms in M-1 variables.

A full check over all admissible l is impossible; ``sampled_regularity_check``
draws a fixed number of random forms and reports the conjunction, labelled
as sampled evidence.  Failure of regularity is a closed condition on the
k-dimensional family of forms with a common restriction to T_oV, which is
what makes random sampling meaningful.

Notes:
  * The index ranges are 1 <= i <= k and 1 <= j <= d_i throughout.
  * The default of 8 sampled forms is a tool choice, not a derived value;
    pass ``samples`` explicitly where the evidence level matters.
  * ``kernel`` and ``max_variables`` are the only settings passed on to
    ``dimension.is_regular_sequence``; the generator budget and the
    probabilistic oracle's trials and seeds are fixed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from .dimension import DEFAULT_MAX_VARIABLES, EXACT, is_regular_sequence
from .errors import InputError, ResourceBudgetError
from .families import DegreeTuple
from .fields import Element, FieldSpec, nullspace
from .polynomials import MultiPoly, random_poly, restrict_to_common_zeros

REGULAR = "regular"
IRREGULAR = "irregular"
SINGULAR = "singular-at-point"


# ---------------------------------------------------------------------------
# Index set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSet:
    """Labels (i, j) of the homogeneous parts entering the regularity test."""

    pairs: frozenset
    excluded: Tuple[Tuple[int, int], Tuple[int, int]]

    @property
    def sorted_pairs(self) -> List[Tuple[int, int]]:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def index_set(degrees: DegreeTuple) -> IndexSet:
    """The index set I for a degree tuple (k >= 2 enforced by the tuple)."""
    d = degrees.degrees
    k = degrees.k
    if d[k - 2] == d[k - 1]:
        excluded = ((k, d[k - 1]), (k - 1, d[k - 2]))
    else:
        excluded = ((k, d[k - 1]), (k, d[k - 1] - 1))
    pairs = frozenset(
        (i, j)
        for i in range(1, k + 1)
        for j in range(1, d[i - 1] + 1)
        if (i, j) not in excluded
    )
    assert len(pairs) == degrees.M + k - 2
    return IndexSet(pairs, excluded)


# ---------------------------------------------------------------------------
# Tangent space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentSpace:
    """Common kernel of the linear parts: a basis plus a dependence flag."""

    basis: Tuple[Tuple[Element, ...], ...]
    codimension: int
    is_singular: bool  # the forms were dependent (kernel larger than expected)

    def is_annihilated_by(self, row: Sequence[Element], field: FieldSpec) -> bool:
        """Whether the linear form with coefficient ``row`` vanishes on the space.

        The annihilator of the kernel of the linear parts is their span, so
        this is membership of ``row`` in that span.
        """
        for vec in self.basis:
            total = field.zero()
            for a, b in zip(row, vec):
                total = field.add(total, field.mul(a, b))
            if total:
                return False
        return True


def tangent_space(linear_parts: Sequence[MultiPoly]) -> TangentSpace:
    """Kernel of the linear parts; singular when they are dependent."""
    if not linear_parts:
        raise InputError("need at least one linear form")
    n = len(linear_parts[0].variables)
    basis = nullspace(
        [form.linear_row() for form in linear_parts], linear_parts[0].field, n
    )
    rank = n - len(basis)
    return TangentSpace(
        basis=tuple(basis),
        codimension=rank,
        is_singular=rank < len(linear_parts),
    )


# ---------------------------------------------------------------------------
# Pointed complete intersections
# ---------------------------------------------------------------------------


def ambient_variables(n: int) -> Tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class PointedCI:
    """Affine equations of a complete intersection, based at the origin."""

    degrees: DegreeTuple
    field: FieldSpec
    equations: Tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        d = self.degrees.degrees
        n = self.degrees.ambient
        if len(self.equations) != self.degrees.k:
            raise InputError(
                f"expected {self.degrees.k} equations, got {len(self.equations)}"
            )
        for f, degree in zip(self.equations, d):
            if f.field != self.field:
                raise InputError("equation field does not match")
            if f.variables != self.equations[0].variables:
                raise InputError(
                    f"equations must share one variable list, got"
                    f" {list(self.equations[0].variables)} and {list(f.variables)}"
                )
            if len(f.variables) != n:
                raise InputError(
                    f"equations must use {n} ambient variables, got {len(f.variables)}"
                )
            if f.coefficient((0,) * n):
                raise InputError("equations must vanish at the origin")
            if f.total_degree() != degree:
                raise InputError(
                    f"equation degree {f.total_degree()} does not match {degree}"
                )

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.equations[0].variables

    # The parts and the tangent space depend only on the instance, so each is
    # computed once, when first asked for.  A check asks for nearly every
    # part, so the first part asked for splits every equation in one scan.
    # The tangent space reads the linear parts off a scan of its own, so an
    # instance that is only tested for smoothness keeps no parts.  Neither
    # is a field, so equality is unchanged.
    @cached_property
    def _parts(self) -> Tuple[Dict[int, MultiPoly], ...]:
        return tuple(f.homogeneous_components() for f in self.equations)

    @cached_property
    def _tangent(self) -> TangentSpace:
        return tangent_space([f.homogeneous_part(1) for f in self.equations])

    def part(self, i: int, j: int) -> MultiPoly:
        """Homogeneous degree-j part of f_i (1-based i); may be zero."""
        parts = self._parts[i - 1]
        return parts[j] if j in parts else MultiPoly(self.field, self.variables)

    def linear_parts(self) -> List[MultiPoly]:
        return [self.part(i, 1) for i in range(1, self.degrees.k + 1)]

    def tangent(self) -> TangentSpace:
        return self._tangent

    @property
    def is_smooth_at_origin(self) -> bool:
        return not self.tangent().is_singular

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees.degrees),
            "field": self.field.json_tag,
            "equations": [f.to_json() for f in self.equations],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointedCI":
        try:
            degrees = DegreeTuple(tuple(data["degrees"]))
            field = FieldSpec.from_json_tag(data["field"])
            equations = tuple(MultiPoly.from_json(e) for e in data["equations"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed complete-intersection JSON: {exc}") from exc
        return cls(degrees, field, equations)


# ---------------------------------------------------------------------------
# The regularity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Verdict of one regularity check, with the prefix codimension trace."""

    verdict: str  # regular | irregular | singular-at-point
    trace: Tuple[int, ...]
    linear_form: Optional[MultiPoly]
    failing_prefix: Optional[int] = None
    target_codimension: int = 0
    reduced: bool = False
    note: str = ""

    @property
    def is_regular(self) -> bool:
        return self.verdict == REGULAR

    def to_json(self) -> dict:
        data = {
            "verdict": self.verdict,
            "trace": list(self.trace),
            "target_codim": self.target_codimension,
            "reduced": self.reduced,
        }
        if self.linear_form is not None:
            data["l"] = self.linear_form.to_json()
        if self.failing_prefix is not None:
            data["failing_prefix"] = self.failing_prefix
        if self.note:
            data["note"] = self.note
        return data


def assemble_sequence(ci: PointedCI, linear_form: MultiPoly) -> List[MultiPoly]:
    """The test sequence: l first, then the indexed parts ordered by (i, j)."""
    return [linear_form] + [
        ci.part(i, j) for i, j in index_set(ci.degrees).sorted_pairs
    ]


def _singular_report(ci: PointedCI, linear_form: Optional[MultiPoly]) -> RegularityReport:
    return RegularityReport(
        SINGULAR,
        (),
        linear_form,
        target_codimension=len(index_set(ci.degrees)) + 1,
        note="dependent linear parts: the intersection is singular at the origin",
    )


def _validate_linear_form(
    ci: PointedCI, linear_form: MultiPoly, tangent: TangentSpace
) -> None:
    if linear_form.field != ci.field or linear_form.variables != ci.variables:
        raise InputError("linear form must live in the ambient ring")
    if linear_form.is_zero() or linear_form.total_degree() != 1 or not linear_form.is_homogeneous():
        raise InputError("l must be a nonzero homogeneous linear form")
    if tangent.is_annihilated_by(linear_form.linear_row(), ci.field):
        raise InputError(
            "l vanishes identically on the tangent space at the origin; "
            "the regularity condition only quantifies over forms that do not"
        )


def regularity_check(
    ci: PointedCI,
    linear_form: MultiPoly,
    *,
    reduce: bool = False,
    kernel: str = EXACT,
    max_variables: int = DEFAULT_MAX_VARIABLES,
) -> RegularityReport:
    """Decide regularity of ``ci`` at the origin for one linear form.

    With ``reduce=True`` the k+1 independent linear members (l and the
    tangent parts q_{i,1}) are eliminated first: the other members are
    restricted in one pass to the common zeros of those k+1 forms,
    a subspace parametrized by the M-1 surviving variables, and only the
    remaining M-2 forms are fed to the dimension kernel.  The verdict is
    the same either way; the trace then refers to the shortened sequence.
    ``kernel`` picks the exact or the probabilistic kernel and
    ``max_variables`` is the exact kernel's variable budget.
    """
    tangent = ci.tangent()
    if tangent.is_singular:
        return _singular_report(ci, linear_form)
    _validate_linear_form(ci, linear_form, tangent)
    pairs = index_set(ci.degrees)
    if reduce:
        tail = [ci.part(i, j) for i, j in pairs.sorted_pairs if j >= 2]
        sequence = restrict_to_common_zeros(tail, [linear_form] + ci.linear_parts())
    else:
        sequence = assemble_sequence(ci, linear_form)
    result = is_regular_sequence(sequence, kernel=kernel, max_variables=max_variables)
    return RegularityReport(
        REGULAR if result.is_regular else IRREGULAR,
        result.trace,
        linear_form,
        result.failing_prefix,
        len(pairs) + 1,
        reduce,
        result.note,
    )


# ---------------------------------------------------------------------------
# Sampled check and random instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledRegularityReport:
    """Conjunction of regularity checks over randomly sampled linear forms."""

    reports: Tuple[RegularityReport, ...]
    samples: int

    @property
    def verdict(self) -> str:
        if any(r.verdict == SINGULAR for r in self.reports):
            return SINGULAR
        if all(r.is_regular for r in self.reports):
            return REGULAR
        return IRREGULAR

    @property
    def is_regular(self) -> bool:
        return self.verdict == REGULAR

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "samples": self.samples,
            "note": (
                "sampled evidence: the conjunction over randomly drawn linear"
                " forms, not a proof over all of them"
            ),
            "reports": [r.to_json() for r in self.reports],
        }


def _random_admissible_form(
    ci: PointedCI, rng: Random, tangent: TangentSpace, max_tries: int = 200
) -> MultiPoly:
    field = ci.field
    n = ci.degrees.ambient
    for _ in range(max_tries):
        coeffs = [field.random_element(rng) for _ in range(n)]
        if not any(coeffs):
            continue
        if tangent.is_annihilated_by(coeffs, field):
            continue
        return MultiPoly.linear(field, ci.variables, coeffs)
    raise ResourceBudgetError(
        f"failed to sample a linear form off the tangent span in {max_tries} tries"
    )


def sampled_regularity_check(
    ci: PointedCI,
    samples: int = 8,
    seed: int = 0,
    *,
    reduce: bool = False,
    kernel: str = EXACT,
    max_variables: int = DEFAULT_MAX_VARIABLES,
) -> SampledRegularityReport:
    """Run ``regularity_check`` against ``samples`` random admissible forms."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    tangent = ci.tangent()
    if tangent.is_singular:
        return SampledRegularityReport((_singular_report(ci, None),), samples)
    rng = Random(seed)
    reports = []
    for _ in range(samples):
        form = _random_admissible_form(ci, rng, tangent)
        reports.append(
            regularity_check(
                ci, form, reduce=reduce, kernel=kernel, max_variables=max_variables
            )
        )
    return SampledRegularityReport(tuple(reports), samples)


def random_complete_intersection(
    degrees: DegreeTuple,
    field: FieldSpec,
    seed: int = 0,
    *,
    max_attempts: int = 10,
    max_part_redraws: int = 100,
) -> PointedCI:
    """Seed-deterministic random equations of the prescribed degrees.

    Retries up to ``max_attempts`` times until the linear parts are
    independent; when every attempt is degenerate the last (singular)
    instance is returned and callers inspect ``is_smooth_at_origin``.
    Only the inner redraw of a vanishing top-degree part can raise, and
    then only after ``max_part_redraws`` failures.
    """
    if not field.is_prime_field:
        raise InputError("random complete intersections are drawn over GF(p)")
    variables = ambient_variables(degrees.ambient)
    master = Random(seed)
    instance = None
    for _ in range(max_attempts):
        equations = []
        for d in degrees.degrees:
            parts = []
            for j in range(1, d + 1):
                # only the top-degree part must be nonzero; it is redrawn
                for _ in range(1 + max_part_redraws):
                    part = random_poly(
                        j, variables, field, homogeneous=True, seed=master.getrandbits(63)
                    )
                    if j < d or not part.is_zero():
                        break
                else:
                    raise ResourceBudgetError(
                        "could not draw a nonzero top-degree part"
                        f" in {max_part_redraws} redraws"
                    )
                parts.append(part.terms)
            # each part is canonical and of its own degree, so the parts from
            # the top degree down make the canonical term order
            terms = {}
            for part in reversed(parts):
                terms.update(part)
            equations.append(MultiPoly(field, variables, terms))
        instance = PointedCI(degrees, field, tuple(equations))
        if instance.is_smooth_at_origin:
            return instance
    return instance
