"""Projective codimension and regular-sequence decisions for homogeneous ideals.

Codimension convention: for homogeneous q_1..q_j in n variables, the
vanishing locus Z(q_1..q_j) in affine n-space is a cone through the origin;
we report codim = n - dim Z, where dim Z comes from the Groebner leading terms.
This equals the minimum over irreducible components of their projective
codimension, because the dimension of a reducible variety is the maximum
over components.  A cone equal to {0} alone (dim 0) has empty projective
locus and codimension n.

The exact codimension is read off one engine: the forms are added to a
``GroebnerEngine``, and dim Z is the dimension of the ideal of its leading
terms under grevlex, read off the Hilbert series numerator that the engine
keeps of them (``engine.staircase.dimension()``).  ``projective_codim``
adds every form at once.  The exact kernel refuses by one rule, written
once in ``check_exact_budget``: more than ``max_variables`` variables
raise ``ResourceBudgetError``, however many forms there are.  Both
``projective_codim`` and ``is_regular_sequence`` call it, and so does a
caller that must refuse a sequence before it builds it.  The engine's own
pair and basis budgets (``groebner.MAX_PAIRS`` and ``MAX_BASIS``) bound
every run that the rule lets through.

Regularity at the origin is decided through the same cone codimension: an
ordered sequence of homogeneous forms is regular iff every length-j prefix
cuts the cone down to codimension exactly j.  (For homogeneous elements of
the local ring at the origin the two notions agree.)  One prefix loop
(``_prefix_trace``), shared by both kernels, stops at the first prefix
whose codimension is not its length.

Some prefixes are forced: their codimension needs no kernel, so the loop
decides them exactly, under either kernel.  While every form is linear,
the cone is the common kernel of their coefficient rows, and the
codimension is the rank of the rows (``fields.rref``).  One nonzero form
alone cuts out a hypersurface, of codimension 1 (Krull's principal ideal
theorem).  The engine would give the same numbers: its leading terms
have dimension n - rank for linear forms, and n - 1 for one form.  So the
loop builds the exact engine at the first prefix that is not forced, adds
the earlier forms to it there, and then adds one form per prefix; the
probabilistic oracle is called for the unforced prefixes only.

The exact kernel runs the loop twice at most:

* First on the cut: r < n nonzero forms restricted to the hyperplane
  x_n = 0 through its graph (``polynomials.hyperplane_graph`` of the unit
  row e_n), which drops every term that holds the last variable.  If the
  cut forms are regular in the n - 1 remaining variables, then x_n,
  f_1..f_r is regular; a permutation and a prefix of a homogeneous regular
  sequence are regular (Matsumura, *Commutative Ring Theory*, Thm 16.3;
  Bruns-Herzog, Prop. 1.5.12), so f_1..f_r is regular with trace
  (1, ..., r), the trace the uncut loop gives.
* Then, when the cut fails, when a cut form vanishes or when the cut
  exceeds an engine budget, on the uncut forms, which gives the verdict,
  the trace and the failing prefix.  A failure on the cut proves nothing.

The cut forms go to the loop sorted by degree.  Homogeneous forms of
positive degree in a polynomial ring are a regular sequence iff their
ideal has height r, whatever their order (Bruns-Herzog, Sec. 1.2 and
Prop. 1.5.12), so the order changes no verdict.

The certificate is one-sided, so it never changes a verdict or a trace.
It makes the common regular case cheaper: the cut system has one variable
fewer, and for r = n - 1 forms, as in a reduced regularity check, its
cone is the origin alone.  A sequence whose every prefix is forced (one
form, or linear forms only) skips it, since the uncut loop builds no
engine for it.  (``regularity`` eliminates the linear members of a
regularity check itself and decides an unreduced check by its reduced
sequence; only an irregular unreduced check brings its linear members
here, for its trace, and then the cut cannot certify it.)

The probabilistic oracle, ``codim_probabilistic``, estimates the cone
dimension by slicing with random linear subspaces over GF(p^e), e <= 2,
and testing by point enumeration whether anything beyond the origin
survives (the default e = 2 scan covers the GF(p)-points inside GF(p^2)).
It takes the ``trials``, ``seed``, ``extension_degree`` and
``enumeration_budget``; ``is_regular_sequence`` with the probabilistic
kernel calls it for each unforced prefix j with 5 trials, seed j and the
default budget, so a prefix's draws do not depend on which other prefixes
are forced.  Over a field that is not prime the probabilistic kernel
refuses the sequence before the loop with an ``InputError``, even when
every prefix is forced, unless its first form is zero, which ends the loop
at once.  The linear members are intersected exactly: their coefficient
rows join the random slicing rows, whose common zeros are one graph over
m surviving variables (``polynomials.linear_graph``), and the nonlinear
forms are restricted to it (``polynomials.restrict_to_graph``, the
restriction the reduced regularity check shares).  The scan evaluates the
restricted forms at the points of GF(p^e)^m only, and the enumeration
budget counts those; with no nonlinear forms, whether m > 0 decides.
It exists to cross-validate the exact kernel, never to replace it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, ResourceBudgetError
from .fields import Element, FieldSpec, rref
from .groebner import GroebnerEngine
from .polynomials import MultiPoly, hyperplane_graph, linear_graph, restrict_to_graph

EXACT = "exact"
PROBABILISTIC = "probabilistic"

# Groebner bases are doubly exponential in the worst case: refuse oversized
# inputs loudly.  A caller may raise the variable budget.
DEFAULT_MAX_VARIABLES = 8

DEFAULT_ENUMERATION_BUDGET = 2_000_000
# draws of a slice until its random forms are independent
_MAX_SLICE_DRAWS = 64


class CodimResult(NamedTuple):
    """Codimension verdict with its provenance and confidence."""

    codimension: int
    method: str  # "exact-groebner" | "probabilistic-slicing"
    confidence: Fraction
    note: str = ""


class RegularSequenceResult(NamedTuple):
    """Outcome of a prefix-by-prefix regularity decision."""

    is_regular: bool
    trace: Tuple[int, ...]
    failing_prefix: Optional[int] = None
    note: str = ""


def _common_ring(generators: Sequence[MultiPoly]) -> Tuple[FieldSpec, Tuple[str, ...]]:
    """The field and variables that every generator shares; each must be
    zero or homogeneous of positive degree."""
    first = generators[0]
    if any(g.field != first.field or g.variables != first.variables for g in generators):
        raise InputError("generators live in different rings")
    for g in generators:
        if not g.is_zero() and (not g.is_homogeneous() or g.total_degree() < 1):
            raise InputError(
                f"generators must be homogeneous of positive degree, got {g}"
            )
    return first.field, first.variables


def check_exact_budget(
    n_vars: int, *, max_variables: int = DEFAULT_MAX_VARIABLES
) -> None:
    """Refuse an exact-kernel input in more than ``max_variables`` variables."""
    if n_vars > max_variables:
        raise ResourceBudgetError(
            f"{n_vars} variables exceed the exact-kernel budget of {max_variables}"
            " (pass a larger max_variables to override)"
        )


def projective_codim(
    generators: Sequence[MultiPoly], *, max_variables: int = DEFAULT_MAX_VARIABLES
) -> CodimResult:
    """Exact codimension of the projective locus cut out by homogeneous forms.

    The empty generator list yields codimension 0 (the whole space).  Zero
    polynomials are dropped (they cut nothing); a nonempty all-zero list is
    rejected.  When the cone is the origin alone, the projective locus is
    empty and the codimension equals the number of variables.  The
    estimate by random slicing is ``codim_probabilistic``.
    """
    generators = list(generators)
    if not generators:
        return CodimResult(0, "exact-groebner", Fraction(1), "empty generator list")
    fieldspec, variables = _common_ring(generators)
    nonzero = [g for g in generators if not g.is_zero()]
    if not nonzero:
        raise InputError("all generators are zero")
    n = len(variables)
    check_exact_budget(n, max_variables=max_variables)
    engine = GroebnerEngine(fieldspec, variables)
    for g in nonzero:
        engine.add(g)
    dim = engine.staircase.dimension()
    note = "empty projective locus" if dim == 0 else ""
    return CodimResult(n - dim, "exact-groebner", Fraction(1), note)


def is_regular_sequence(
    generators: Sequence[MultiPoly],
    *,
    kernel: str = EXACT,
    max_variables: int = DEFAULT_MAX_VARIABLES,
) -> RegularSequenceResult:
    """Decide whether an ordered list of homogeneous forms is regular at 0.

    The trace records the cone codimension of every prefix up to the first
    failure; the sequence is regular iff prefix j has codimension exactly j
    for every j.  A zero polynomial fails at its own prefix (it cannot cut
    the codimension), and any sequence longer than the number of variables
    fails no later than prefix n+1.

    The exact kernel first tries to certify the sequence on the hyperplane
    where the last variable vanishes, and decides it on all n variables
    only when that certificate fails.  A sequence whose prefixes are all
    forced (module docstring) is decided directly.
    """
    if kernel not in (EXACT, PROBABILISTIC):
        raise InputError(f"unknown kernel: {kernel!r}")
    generators = list(generators)
    if not generators:
        return RegularSequenceResult(True, ())
    fieldspec, variables = _common_ring(generators)
    n = len(variables)
    if kernel == EXACT:
        check_exact_budget(n, max_variables=max_variables)
        # regular on x_n = 0 proves every prefix regular (module docstring);
        # a failure there proves nothing.  Forced prefixes cost the uncut loop
        # no engine, so they need no certificate
        if (
            len(generators) < n
            and not _every_prefix_forced(generators)
            and _certified_on_cut(generators)
        ):
            return RegularSequenceResult(True, tuple(range(1, len(generators) + 1)))
    elif not fieldspec.is_prime_field and not generators[0].is_zero():
        # the oracle's refusal, made here since a forced prefix never calls
        # the oracle; a zero first form ends the loop before any prefix does
        raise InputError("probabilistic codimension requires a prime field")
    return _prefix_trace(generators, variables, kernel)


def _certified_on_cut(generators: Sequence[MultiPoly]) -> bool:
    """Whether the forms, cut by x_n = 0 and sorted by degree, are regular
    in the other variables.

    A zero cut form, a failed prefix or an exceeded engine budget leave the
    sequence uncertified.
    """
    field, n = generators[0].field, len(generators[0].variables)
    unit_row = [field.zero()] * (n - 1) + [field.one()]
    cut = restrict_to_graph(generators, *hyperplane_graph(unit_row, field))
    if any(f.is_zero() for f in cut):
        return False
    try:
        return _prefix_trace(
            sorted(cut, key=MultiPoly.total_degree), cut[0].variables, EXACT
        ).is_regular
    except ResourceBudgetError:
        return False


def _every_prefix_forced(generators: Sequence[MultiPoly]) -> bool:
    """Whether ``_prefix_trace`` decides every prefix without a kernel: the
    forms are all linear, or there is one form."""
    return len(generators) == 1 or all(g.total_degree() == 1 for g in generators)


def _prefix_trace(
    generators: Sequence[MultiPoly], variables: Tuple[str, ...], kernel: str
) -> RegularSequenceResult:
    """The prefix codimensions of homogeneous ``generators`` in ``variables``,
    up to the first prefix whose codimension is not its length.

    A forced prefix (module docstring) is decided without a kernel.  The
    exact engine is built at the first prefix that is not forced, with the
    earlier forms, and then takes one form per prefix.
    """
    n = len(variables)
    field = generators[0].field
    trace: List[int] = []
    engine: Optional[GroebnerEngine] = None
    linear_rows: Optional[List[List[Element]]] = []  # None from the first nonlinear form
    codim = 0
    for j, g in enumerate(generators, start=1):
        if j > n:
            # codimension is capped at n < j, so the prefix cannot be regular
            trace.append(codim)
            return RegularSequenceResult(
                False, tuple(trace), j, f"sequence longer than the {n} variables"
            )
        if g.is_zero():
            trace.append(codim)
            return RegularSequenceResult(
                False, tuple(trace), j, f"zero polynomial at position {j}"
            )
        if linear_rows is not None and g.total_degree() == 1:
            # the cone of linear forms is their kernel
            linear_rows.append(g.linear_row())
            codim = len(rref(linear_rows, field)[1])
        else:
            linear_rows = None
            if j == 1:
                codim = 1  # a hypersurface (Krull's principal ideal theorem)
            elif kernel == EXACT:
                if engine is None:
                    engine = GroebnerEngine(field, variables)
                    for f in generators[: j - 1]:
                        engine.add(f)
                # the engine keeps the basis of the previous prefix, so only
                # the pairs with the new form's elements are formed and reduced
                engine.add(g)
                codim = n - engine.staircase.dimension()
            else:
                codim = codim_probabilistic(generators[:j], seed=j).codimension
        trace.append(codim)
        if codim != j:
            return RegularSequenceResult(False, tuple(trace), j)
    return RegularSequenceResult(True, tuple(trace))


# ---------------------------------------------------------------------------
# Probabilistic oracle: random slicing plus point enumeration over GF(p^e).
# ---------------------------------------------------------------------------


def _poly_vanishes_on_subspace(
    polys: Sequence[MultiPoly],
    rows: Sequence[Sequence[Element]],
    ext: FieldSpec,
    n: int,
    budget: int,
) -> bool:
    """True iff the forms ``polys`` have a common zero, other than the
    origin, on the common zeros in ext^n of the linear forms with the
    coefficient ``rows``.

    Those zeros are the graph over m = n - rank surviving variables
    (``linear_graph``).  With m = 0 only the origin is left, and with no
    polys there is nothing to scan: the answer is m > 0.  Otherwise the
    polys, which live over ``ext``, are restricted to the graph once
    (``restrict_to_graph``); the scan then evaluates the restricted polys
    at projective representatives of ext^m only, and ``budget`` bounds
    their number.
    """
    kept, images = linear_graph(rows, ext, n)
    if not kept:
        return False
    if not polys:
        return True
    restricted = restrict_to_graph(polys, kept, images)
    m = len(kept)
    q = ext.size
    count = (q**m - 1) // (q - 1)
    if count > budget:
        raise ResourceBudgetError(
            f"enumeration of {count} projective points exceeds the budget {budget}"
        )
    elements = ext.elements()
    for lead in range(m):
        # projective representative: zeros, then 1, then free coordinates
        head = (ext.zero(),) * lead + (ext.one(),)
        for tail in product(elements, repeat=m - lead - 1):
            point = head + tail
            if not any(g.evaluate(point) for g in restricted):
                return True
    return False


def _random_full_rank_forms(
    rng: Random, ext: FieldSpec, n: int, j: int
) -> List[List[Element]]:
    for _ in range(_MAX_SLICE_DRAWS):
        draws = ext.random_elements(rng, j * n)
        rows = [draws[i:i + n] for i in range(0, j * n, n)]
        if len(rref(rows, ext)[1]) == j:
            return rows
    raise ResourceBudgetError(
        f"failed to draw {j} independent forms over GF({ext.size})"
    )


def codim_probabilistic(
    generators: Sequence[MultiPoly],
    trials: int = 5,
    seed: int = 0,
    *,
    extension_degree: int = 2,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CodimResult:
    """Estimate the cone codimension by random linear slicing over GF(p^e).

    All randomness lives in the field GF(p^e) with e = ``extension_degree``:
    the j slicing forms are drawn with GF(p^e) coefficients and the sliced
    subspace is scanned for GF(p^e)-points beyond the origin (for e = 2 that
    enumeration covers the GF(p)-points as well).  Slicing a cone of
    dimension d with j hyperplanes through the origin always leaves
    dimension >= d - j, so an empty slice at level j certifies d <= j up to
    enumeration blindness, while a non-generic slice merely keeps extra
    points; the estimate is the smallest j at which one of up to ``trials``
    attempts yields emptiness, giving codimension n - j.  Each attempt
    intersects the slice with the zeros of the linear generators exactly
    (one restriction of the nonlinear generators to the graph of the
    common zeros of the slicing forms and the linear generators) and scans
    only the restricted forms there, so ``enumeration_budget`` counts the
    points of that cut subspace; the common zeros, and so the estimate, are
    the same as for a scan of every generator.  Enlarging the
    field tightens both failure modes: conjugate points become visible and
    non-generic slices become rarer.  The reported confidence 1 - 2^-trials
    is a fixed heuristic order of magnitude, which is all the
    cross-validation needs.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return CodimResult(
            0, "probabilistic-slicing", Fraction(1) - Fraction(1, 2**trials),
            "empty generator list",
        )
    fieldspec, variables = _common_ring(generators)
    if not fieldspec.is_prime_field:
        raise InputError("probabilistic codimension requires a prime field")
    if extension_degree not in (1, 2):
        raise InputError("extension_degree must be 1 or 2")
    n = len(variables)
    rng = Random(seed)
    ext = FieldSpec.quadratic(fieldspec.characteristic) if extension_degree == 2 else fieldspec
    # the linear members cut the slice exactly; only the other forms are left
    # for the point scan.  A GF(p) residue is its own GF(p^2) element
    # (``fields``), so rows and forms are lifted into the scan field as they
    # stand
    linear_rows = [g.linear_row() for g in generators if g.total_degree() == 1]
    nonlinear = [
        MultiPoly(ext, variables, g.terms) for g in generators if g.total_degree() > 1
    ]

    for j in range(n + 1):
        # slicing with 0 forms is deterministic, so one attempt suffices
        attempts = 1 if j == 0 else trials
        found_empty = False
        for _ in range(attempts):
            rows = _random_full_rank_forms(rng, ext, n, j) + linear_rows
            if not _poly_vanishes_on_subspace(nonlinear, rows, ext, n, enumeration_budget):
                found_empty = True
                break
        if found_empty:
            estimate = n - j
            note = ""
            if estimate > len(generators):
                # Krull bound: codim cannot exceed the number of forms, so the
                # enumeration must have missed points; clamp and say so.
                note = (
                    f"estimate {estimate} clamped to the generator count"
                    " (enumeration found no points beyond the origin)"
                )
                estimate = len(generators)
            return CodimResult(
                estimate,
                "probabilistic-slicing",
                Fraction(1) - Fraction(1, 2**trials),
                note,
            )
    raise AssertionError("unreachable: slicing with n forms leaves only the origin")
