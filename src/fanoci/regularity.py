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

An instance is split into its parts q_{i,j} once, and every use reads that
split: validation (no part of degree 0, a top part of degree d_i), the
tangent space and the members.  A loaded instance splits each equation
when it is validated; a random one (``random_complete_intersection``) keeps
the parts it was drawn from, so its equations are never split.

The k+1 independent linear members (l and the q_{i,1}) are eliminated in
two stages.  T_oV, the common zeros of the q_{i,1}, depends only on the
instance: it is kept as the graph of a linear map over M surviving
variables (``polynomials.linear_graph``), and the members of degree >= 2
are restricted to it once per instance (``polynomials.restrict_to_graph``).
Only l changes from one sample to the next.  Its row on T_oV, l restricted
to the graph (``polynomials.restrict_row``), is computed once per check;
it is nonzero iff l does not vanish on T_oV, i.e. iff l is admissible, and
the restricted members are then restricted once more, to the hyperplane
where that row vanishes, leaving M-2 forms in M-1 variables.  The graph
of a linear subspace is unique, so the two stages give the same
polynomials, in the same surviving variables and term order, as one
restriction to the graph of the common zeros of all k+1 forms
(``polynomials.linear_graph``, then ``polynomials.restrict_to_graph``).
Only the members up to and including the first zero one are restricted:
the prefix loop stops at a zero form, so no later member is read.

The reduced check feeds those M-2 forms to the dimension kernel.  The
unreduced exact check is decided by them as well: forms of positive
degree are regular iff their ideal has height r, in any order, and the
quotient by r' independent linear forms is a polynomial ring with every
height lower by r' (Matsumura, *Commutative Ring Theory*, Thm 16.3;
Bruns-Herzog, Prop. 1.5.12).  So the unreduced sequence is regular, with
trace (1, ..., M+k-1), exactly when the reduced one is; when it is not,
the uncut prefix loop (``dimension._prefix_trace``) traces the unreduced
sequence for its trace and failing prefix, with no certificate on the cut
first: that one is one-sided, so it cannot pass.  The probabilistic
kernel checks the unreduced sequence as it stands.

An exact check is refused once, by ``check_budget``, before anything is
restricted or drawn: its kernel sees M+k variables, or M-1 with
``reduce``, and the refusal is the one ``is_regular_sequence`` would give
that sequence.  ``fanoci randomci`` applies the same rule before it draws
an instance.  The probabilistic kernel has no variable budget.

The check samples: ``sampled_regularity_check`` draws a fixed number of
random admissible forms and reports the conjunction, labelled as sampled
evidence.  Failure of regularity is a closed condition on the
k-dimensional family of forms with a common restriction to T_oV, which is
what makes random sampling meaningful.

Notes:
  * The index ranges are 1 <= i <= k and 1 <= j <= d_i throughout.
  * The default of 8 sampled forms is a tool choice, not a derived value;
    pass ``samples`` explicitly where the evidence level matters.
  * ``kernel`` and ``max_variables`` are the only settings passed on to
    ``dimension``; the probabilistic oracle's trials and seeds are fixed
    there.
"""

from __future__ import annotations

from functools import cached_property
from random import Random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._value import Value
from .dimension import (
    DEFAULT_MAX_VARIABLES,
    EXACT,
    RegularSequenceResult,
    _prefix_trace,
    check_exact_budget,
    is_regular_sequence,
)
from .errors import InputError, ResourceBudgetError
from .families import DegreeTuple
from .fields import Element, FieldSpec
from .polynomials import (
    MultiPoly,
    _draw_terms,
    hyperplane_graph,
    linear_graph,
    monomials_of_degree,
    restrict_row,
    restrict_to_graph,
)

REGULAR = "regular"
IRREGULAR = "irregular"
SINGULAR = "singular-at-point"

# draws of an instance until its linear parts are independent, redraws of
# a vanishing top-degree part, and draws of a form until one is admissible
MAX_ATTEMPTS = 10
MAX_PART_REDRAWS = 100
_MAX_FORM_DRAWS = 200


# ---------------------------------------------------------------------------
# Index set
# ---------------------------------------------------------------------------


class IndexSet(NamedTuple):
    """Labels (i, j) of the homogeneous parts entering the regularity test."""

    pairs: frozenset
    excluded: Tuple[Tuple[int, int], Tuple[int, int]]


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


class TangentSpace(NamedTuple):
    """Common kernel of the linear parts, plus a dependence flag.

    The kernel is kept as the graph (kept, images) of a linear map over the
    surviving variables (``polynomials.linear_graph``).
    """

    kept: Tuple[int, ...]
    images: Dict[int, Tuple[Element, ...]]
    is_singular: bool  # the forms were dependent (kernel larger than expected)

    @property
    def codimension(self) -> int:
        # one eliminated variable per independent linear part
        return len(self.images)


def tangent_space(linear_parts: Sequence[MultiPoly]) -> TangentSpace:
    """Kernel of the linear parts; singular when they are dependent."""
    if not linear_parts:
        raise InputError("need at least one linear form")
    n = len(linear_parts[0].variables)
    kept, images = linear_graph(
        [form.linear_row() for form in linear_parts], linear_parts[0].field, n
    )
    return TangentSpace(kept, images, len(images) < len(linear_parts))


# ---------------------------------------------------------------------------
# Pointed complete intersections
# ---------------------------------------------------------------------------


def ambient_variables(n: int) -> Tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, n + 1))


class PointedCI(Value):
    """Affine equations of a complete intersection, based at the origin.

    An immutable value: two instances are equal when their degrees, field
    and equations are.
    """

    _fields = ("degrees", "field", "equations")

    def __init__(
        self, degrees: DegreeTuple, field: FieldSpec, equations: Tuple[MultiPoly, ...]
    ) -> None:
        self._set("degrees", degrees)
        self._set("field", field)
        self._set("equations", equations)
        d = self.degrees.degrees
        n = self.degrees.ambient
        if len(self.equations) != self.degrees.k:
            raise InputError(
                f"expected {self.degrees.k} equations, got {len(self.equations)}"
            )
        # the degrees are read off the split, which the tangent space and
        # the tail read as well
        for f, parts, degree in zip(self.equations, self._parts, d):
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
            if 0 in parts:
                raise InputError("equations must vanish at the origin")
            top = max(parts, default=-1)
            if top != degree:
                raise InputError(f"equation degree {top} does not match {degree}")

    @classmethod
    def _with_parts(
        cls,
        degrees: DegreeTuple,
        field: FieldSpec,
        equations: Tuple[MultiPoly, ...],
        parts: Tuple[Dict[int, MultiPoly], ...],
    ) -> "PointedCI":
        """``PointedCI(degrees, field, equations)``, given the split of each
        equation that ``_parts`` would compute: its nonzero homogeneous
        parts by ascending degree, each canonical."""
        ci = cls.__new__(cls)
        ci._set("_parts", parts)
        ci.__init__(degrees, field, equations)
        return ci

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.equations[0].variables

    # The parts, the tangent space, the index pairs and the tail restricted
    # to the tangent space depend only on the instance, so each is computed
    # once, when first asked for.  The parts come first: validation splits
    # every equation, one slice per degree, unless the instance was drawn,
    # and then it keeps the parts it was drawn from (``_with_parts``).  The
    # tangent space reads the linear parts off that split.  None is in
    # ``_fields``, so equality is unchanged.
    @cached_property
    def _parts(self) -> Tuple[Dict[int, MultiPoly], ...]:
        return tuple(f.homogeneous_components() for f in self.equations)

    @cached_property
    def tangent(self) -> TangentSpace:
        return tangent_space([self.part(i, 1) for i in range(1, self.degrees.k + 1)])

    @cached_property
    def index_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The pairs (i, j) of the index set I, in (i, j) order."""
        return tuple(sorted(index_set(self.degrees).pairs))

    @cached_property
    def _tail_on_tangent(self) -> Tuple[MultiPoly, ...]:
        # the members q_{i,j}, j >= 2, in (i, j) order, on the graph of T_oV,
        # up to and including the first zero one: the prefix loop stops there
        tangent = self.tangent
        tail = [self.part(i, j) for i, j in self.index_pairs if j >= 2]
        zero = next((t for t, g in enumerate(tail) if g.is_zero()), len(tail))
        return tuple(restrict_to_graph(tail[: zero + 1], tangent.kept, tangent.images))

    def part(self, i: int, j: int) -> MultiPoly:
        """Homogeneous degree-j part of f_i (1-based i); may be zero."""
        parts = self._parts[i - 1]
        return parts[j] if j in parts else MultiPoly(self.field, self.variables)

    def reduced_sequence(self, tangent_row: Sequence[Element]) -> List[MultiPoly]:
        """The members of degree >= 2 restricted to T_oV ∩ {l = 0}, up to
        and including the first zero member.

        ``tangent_row`` is l's row on the tangent space
        (``polynomials.restrict_row``), nonzero for an admissible l.  The
        members restricted to T_oV are cached, so each l costs one
        hyperplane: the one where l restricted to T_oV vanishes, whose graph
        is written down without row reduction
        (``polynomials.hyperplane_graph``).  The graph of a linear subspace
        is unique, so this gives the same polynomials, in the same surviving
        variables, as one restriction to the graph of the common zeros of l
        and the q_{i,1} (``polynomials.linear_graph``, then
        ``polynomials.restrict_to_graph``).  The members after a zero one
        are left out: the prefix loop stops at the zero form, and the cut
        certificate refuses a sequence that holds one, so they change no
        verdict, trace or failing prefix.
        """
        kept, images = hyperplane_graph(tangent_row, self.field)
        return restrict_to_graph(self._tail_on_tangent, kept, images)

    @property
    def is_smooth_at_origin(self) -> bool:
        return not self.tangent.is_singular

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


class RegularityReport(NamedTuple):
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
    return [linear_form] + [ci.part(i, j) for i, j in ci.index_pairs]


def _singular_report(ci: PointedCI, linear_form: Optional[MultiPoly]) -> RegularityReport:
    return RegularityReport(
        SINGULAR,
        (),
        linear_form,
        target_codimension=len(ci.index_pairs) + 1,
        note="dependent linear parts: the intersection is singular at the origin",
    )


def _validate_linear_form(
    ci: PointedCI, linear_form: MultiPoly, tangent: TangentSpace
) -> List[Element]:
    """Check l and return its row on the tangent space."""
    if linear_form.field != ci.field or linear_form.variables != ci.variables:
        raise InputError("linear form must live in the ambient ring")
    row = linear_form.linear_row()
    if not any(row):
        raise InputError("l must be a nonzero homogeneous linear form")
    tangent_row = restrict_row(row, tangent.kept, tangent.images, ci.field)
    if not any(tangent_row):
        raise InputError(
            "l vanishes identically on the tangent space at the origin; "
            "the regularity condition only quantifies over forms that do not"
        )
    return tangent_row


def check_budget(
    degrees: DegreeTuple, reduce: bool, *, max_variables: int = DEFAULT_MAX_VARIABLES
) -> None:
    """Refuse, as the exact kernel would, a check of an instance of
    ``degrees`` beyond the budget, before anything is restricted or drawn.

    The kernel sees the M + k - 1 members in the M + k ambient variables,
    or with ``reduce`` the M - 2 restricted members in M - 1 variables.
    """
    n = degrees.M - 1 if reduce else degrees.ambient
    check_exact_budget(n, max_variables=max_variables)


def regularity_check(
    ci: PointedCI,
    linear_form: MultiPoly,
    *,
    reduce: bool = False,
    max_variables: int = DEFAULT_MAX_VARIABLES,
) -> RegularityReport:
    """Decide regularity of ``ci`` at the origin for one linear form.

    With ``reduce=True`` the k+1 independent linear members (l and the
    tangent parts q_{i,1}) are eliminated first, in two stages: the other
    members are restricted once per instance to T_oV, the common zeros of
    the q_{i,1}, a graph over M surviving variables, and then, for this l,
    to the hyperplane where l restricted to T_oV vanishes
    (``PointedCI.reduced_sequence``), which leaves M-2 forms in M-1
    variables for the dimension kernel.  The graph is unique, so the two
    stages give the same polynomials as one restriction to the common zeros
    of all k+1 forms.  The verdict is the same either way; the trace then
    refers to the shortened sequence.

    The exact kernel decides the check (``sampled_regularity_check`` also
    runs the probabilistic one), and first refuses a check beyond
    ``max_variables`` (``check_budget``).  Without ``reduce`` it then
    decides the reduced sequence: forms of positive degree are regular iff
    their ideal has height r, and the quotient by the k+1 independent
    linear members is a polynomial ring with every height lower by k+1, so
    the two verdicts agree.  A regular one gives the trace
    (1, ..., M + k - 1); an irregular one is traced by the uncut prefix
    loop on ``assemble_sequence(ci, l)`` for the trace and the failing
    prefix, since the cut certificate cannot pass on it.
    """
    tangent = ci.tangent
    if tangent.is_singular:
        return _singular_report(ci, linear_form)
    tangent_row = _validate_linear_form(ci, linear_form, tangent)
    check_budget(ci.degrees, reduce, max_variables=max_variables)
    return _checked_form_report(ci, linear_form, tangent_row, reduce, EXACT, max_variables)


def _checked_form_report(
    ci: PointedCI,
    linear_form: MultiPoly,
    tangent_row: Sequence[Element],
    reduce: bool,
    kernel: str,
    max_variables: int,
) -> RegularityReport:
    """``regularity_check`` of a smooth ``ci`` for an admissible l whose row
    on the tangent space, ``tangent_row``, is already computed from l, once
    the budget is checked."""
    length = len(ci.index_pairs) + 1
    if reduce:
        result = is_regular_sequence(
            ci.reduced_sequence(tangent_row), kernel=kernel, max_variables=max_variables
        )
    elif kernel != EXACT:
        result = is_regular_sequence(
            assemble_sequence(ci, linear_form), kernel=kernel, max_variables=max_variables
        )
    elif is_regular_sequence(
        ci.reduced_sequence(tangent_row), max_variables=max_variables
    ).is_regular:
        # the reduced sequence decides the unreduced one (module docstring)
        result = RegularSequenceResult(True, tuple(range(1, length + 1)))
    else:
        # an irregular one, for its trace: the cut cannot certify it, so the
        # uncut loop runs on it directly
        result = _prefix_trace(assemble_sequence(ci, linear_form), ci.variables, EXACT)
    return RegularityReport(
        REGULAR if result.is_regular else IRREGULAR,
        result.trace,
        linear_form,
        result.failing_prefix,
        length,
        reduce,
        result.note,
    )


# ---------------------------------------------------------------------------
# Sampled check and random instances
# ---------------------------------------------------------------------------


class SampledRegularityReport(NamedTuple):
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
    ci: PointedCI, rng: Random, tangent: TangentSpace
) -> Tuple[MultiPoly, List[Element]]:
    """A random linear form that does not vanish on T_oV, and its row there."""
    field = ci.field
    n = ci.degrees.ambient
    for _ in range(_MAX_FORM_DRAWS):
        coeffs = field.random_elements(rng, n)
        if not any(coeffs):
            continue
        tangent_row = restrict_row(coeffs, tangent.kept, tangent.images, field)
        if any(tangent_row):
            return MultiPoly.linear(field, ci.variables, coeffs), tangent_row
    raise ResourceBudgetError(
        f"failed to sample a linear form off the tangent span in {_MAX_FORM_DRAWS} tries"
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
    """Run ``regularity_check`` against ``samples`` random admissible forms.

    A drawn form is admissible by construction, so each check takes the
    row on the tangent space that the draw computed.  The exact kernel's
    budget is checked once, before the first draw.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    tangent = ci.tangent
    if tangent.is_singular:
        return SampledRegularityReport((_singular_report(ci, None),), samples)
    if kernel == EXACT:
        check_budget(ci.degrees, reduce, max_variables=max_variables)
    rng = Random(seed)
    reports = []
    for _ in range(samples):
        form, tangent_row = _random_admissible_form(ci, rng, tangent)
        reports.append(
            _checked_form_report(ci, form, tangent_row, reduce, kernel, max_variables)
        )
    return SampledRegularityReport(tuple(reports), samples)


def random_complete_intersection(
    degrees: DegreeTuple, field: FieldSpec, seed: int = 0
) -> PointedCI:
    """Seed-deterministic random equations of the prescribed degrees.

    Retries up to ``MAX_ATTEMPTS`` times until the linear parts are
    independent; when every attempt is degenerate the last (singular)
    instance is returned and callers inspect ``is_smooth_at_origin``.
    Only the inner redraw of a vanishing top-degree part can raise, and
    then only after ``MAX_PART_REDRAWS`` failures.
    """
    if not field.is_prime_field:
        raise InputError("random complete intersections are drawn over GF(p)")
    variables = ambient_variables(degrees.ambient)
    # every part of degree j, of every equation and in every attempt, is
    # drawn over one list of the degree-j monomials, so the equations share
    # their exponent tuples
    monomials = {
        j: list(monomials_of_degree(len(variables), j))
        for j in range(1, max(degrees.degrees) + 1)
    }
    master = Random(seed)
    instance = None
    for _ in range(MAX_ATTEMPTS):
        equations, parts = [], []
        for d in degrees.degrees:
            drawn = {}
            for j in range(1, d + 1):
                # only the top-degree part must be nonzero; it is redrawn
                for _ in range(1 + MAX_PART_REDRAWS):
                    terms = _draw_terms(monomials[j], field, master.getrandbits(63))
                    if j < d or terms:
                        break
                else:
                    raise ResourceBudgetError(
                        "could not draw a nonzero top-degree part"
                        f" in {MAX_PART_REDRAWS} redraws"
                    )
                if terms:
                    drawn[j] = MultiPoly(field, variables, terms)
            # each part is canonical and of its own degree, so the parts from
            # the top degree down make the canonical term order
            merged = {}
            for part in reversed(drawn.values()):
                merged.update(part.terms)
            equations.append(MultiPoly(field, variables, merged))
            parts.append(drawn)
        instance = PointedCI._with_parts(degrees, field, tuple(equations), tuple(parts))
        if instance.is_smooth_at_origin:
            return instance
    return instance
