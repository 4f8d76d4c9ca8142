"""Buchberger's algorithm and staircase combinatorics.

The engine computes the unique reduced Groebner basis of an ideal given by
sparse polynomials over the rationals or GF(p), under graded reverse
lexicographic order over the declared variables, the first one the most
significant: the order in which ``MultiPoly`` stores its terms, so the
engine reads and writes terms in stored order.  It sorts only the terms of
a polynomial built by hand in another order, which one pass over the keys
detects.

Inside the engine a monomial is one packed integer, its *key*: one slot of
``_SLOT`` bits per variable, so that comparing keys is comparing monomials
and adding keys multiplies them (Monagan & Pearce 2007).  Slot j-1,
counted from the bottom, holds the partial sum x_1 + ... + x_j of the
exponents, so the top slot holds the degree; the exponents are recovered
by one shift and one subtraction.  Divisibility and least common multiples
act slotwise on the exponent packing, with the top bit of every slot as a
guard bit.  Inputs and basis elements must have degree below
2**(_SLOT - 2), so that an lcm of two stays below 2**(_SLOT - 1), and
every product is checked against the guard bits: a monomial that would
leave the range raises ``ResourceBudgetError`` rather than overflow into
its neighbour slot.  Each basis element keeps its leading key and its
tail, in descending order.

Division keeps the pending terms in a dictionary and their keys in a
max-heap (heapq on negated keys), so each step pops the largest term
instead of scanning for it; coefficients mod p are reduced when popped.

The state is incremental (``GroebnerEngine``) and takes homogeneous forms
only, so every reduction keeps its degree: adding a generator reduces it by
the current basis and forms only the pairs that involve the new element.
The Gebauer-Moeller update (Gebauer & Moeller 1988) keeps one pair per
minimal lcm among the new pairs, drops pairs with coprime leading terms,
deletes old pairs by the chain criterion and retires elements whose
leading term the new one divides.  The pending pairs sit in a heap ordered
by lcm key, whose top slot is the degree: this is the normal strategy,
smallest lcm degree first, then smallest lcm.  Retired elements stay in
the ideal and keep serving as reducers, oldest first.  After every ``add``
the active elements form a minimal Groebner basis of the ideal so far;
``reduced`` tail-reduces them into the reduced basis, and
``groebner_basis`` feeds every generator and then does exactly that.  The
budgets ``MAX_PAIRS`` and ``MAX_BASIS`` abort a pathological run with
``ResourceBudgetError`` instead of letting it hang.  Runs are
deterministic for a fixed input.

The engine keeps the ideal in(I) of its leading terms as the numerator HN
of its Hilbert series HN(t)/(1 - t)^n, which each new leading term
updates, and skips every pair of a degree in which the leading terms
already span the ideal, which the Hilbert function of the ideal before the
new generator bounds (Traverso 1996); on a regular sequence no
S-polynomial then reduces to zero.  Since in(I) has the Hilbert function
of I (any term order), the Krull dimension of k[x]/I is n minus the order
of the root t = 1 of HN.
"""

from __future__ import annotations

import itertools
import operator
from heapq import heapify, heappop, heappush
from math import comb
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import InputError, ResourceBudgetError
from .fields import Element, FieldSpec
from .polynomials import Exponents, MultiPoly, grevlex_key

_SLOT = 32  # bits per packed exponent slot, the top one a guard bit
_LIMIT = 1 << (_SLOT - 1)  # every slot value stays below this
MAX_PAIRS = 200_000  # S-pairs reduced over an engine's life
MAX_BASIS = 2_000  # elements stored over an engine's life


def _check_degree(degree: int) -> None:
    if degree >= _LIMIT >> 1:
        raise ResourceBudgetError(
            f"monomial degree {degree} is beyond the packed range"
            f" (below 2**{_SLOT - 2})"
        )

Term = Tuple[int, Element]  # (packed key, coefficient)


def leading_term(poly: MultiPoly) -> Tuple[Exponents, Element]:
    """The largest term under grevlex.

    It is the first term a canonical ``MultiPoly`` stores, but the plain
    constructor takes terms in any order, so the maximum is taken.
    """
    if poly.is_zero():
        raise InputError("zero polynomial has no leading term")
    exps = max(poly.terms, key=grevlex_key)
    return exps, poly.terms[exps]


class _Element:
    """A monic polynomial: leading key, tail terms in descending order, and
    the slotwise maximum of its keys (to guard the products it enters)."""

    __slots__ = ("key", "exps", "tail", "bound", "index")

    def __init__(self, key: int, exps: int, tail: List[Term], bound: int) -> None:
        self.key = key
        self.exps = exps
        self.tail = tail
        self.bound = bound
        self.index = -1  # position in its engine, once added


class _Ring:
    """Packed grevlex monomials and coefficient arithmetic for one ring."""

    def __init__(self, field: FieldSpec, n: int) -> None:
        if not field.is_prime_field and field.characteristic:
            raise InputError("Groebner bases are computed over the rationals or GF(p)")
        self.field = field
        self.p = field.characteristic  # 0 for the rationals
        # bit offset of the exponent of variable j
        self.shifts = [_SLOT * j for j in range(n)]
        self.mask = (1 << (_SLOT * n)) - 1
        self.ones = sum(1 << (_SLOT * j) for j in range(n))
        self.guard = self.ones << (_SLOT - 1)
        self.top = _SLOT * (n - 1)

    # -- monomials --------------------------------------------------------

    def key(self, exponents: Exponents) -> int:
        _check_degree(sum(exponents))
        packed = 0
        for shift, e in zip(self.shifts, exponents):
            packed |= e << shift
        return self.key_of(packed)

    def key_of(self, exps: int) -> int:
        """Key of the monomial whose exponent packing is ``exps``."""
        return (exps * self.ones) & self.mask

    def exps_of(self, key: int) -> int:
        """Exponent packing of ``key``, for divisibility and lcm tests."""
        return key - ((key << _SLOT) & self.mask)

    def exponents(self, key: int) -> Exponents:
        exps = self.exps_of(key)
        return tuple((exps >> shift) & (_LIMIT - 1) for shift in self.shifts)

    def degree(self, key: int) -> int:
        return key >> self.top

    def slot_max(self, a: int, b: int) -> int:
        """Slotwise maximum of two packings (the lcm of exponent packings)."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # guard bit kept where a >= b
        select = ge - (ge >> (_SLOT - 1))
        return (a & select) | (b & ~select)

    # -- polynomials -------------------------------------------------------

    def terms(self, poly: MultiPoly) -> List[Term]:
        """The terms of ``poly`` as (key, coefficient), in descending order.

        That is the stored order of a canonical ``MultiPoly``; terms given to
        the plain constructor in another order are sorted.
        """
        keys = [self.key(e) for e in poly.terms]
        terms = list(zip(keys, poly.terms.values()))
        if not all(map(operator.gt, keys, keys[1:])):
            terms.sort(key=operator.itemgetter(0), reverse=True)
        return terms

    def element(self, terms: List[Term]) -> _Element:
        """The monic multiple of nonzero ``terms`` (descending) as an element."""
        p = self.p
        lead = terms[0][1]
        if p:
            inv = pow(lead, p - 2, p)
            tail = [(k, c * inv % p) for k, c in terms[1:]]
        else:
            inv = 1 / lead
            tail = [(k, c * inv) for k, c in terms[1:]]
        key = terms[0][0]
        return _Element(key, self.exps_of(key), tail, self.bound(terms))

    def bound(self, terms: Iterable[Term]) -> int:
        bound = 0
        for k, _ in terms:
            bound = self.slot_max(bound, k)
        return bound

    def poly(self, variables: Tuple[str, ...], terms: Iterable[Term]) -> MultiPoly:
        """The polynomial of nonzero ``terms`` in descending order: stored as is."""
        return MultiPoly(
            self.field, variables, {self.exponents(k): c for k, c in terms}
        )

    def divide(
        self, seeds: Iterable[Tuple[int, Element, _Element | List[Term]]],
        divisors: Sequence[_Element],
    ) -> List[Term]:
        """Remainder, descending, of the division of a sum by ``divisors``.

        The dividend is the sum of f * m * t over the (m, f, t) in ``seeds``,
        where m is a multiplier key and t an element's tail or a term list.
        Each term, largest first, is reduced by the first divisor in list
        order whose leading monomial divides it.
        """
        p, guard, mask = self.p, self.guard, self.mask
        work: dict = {}
        heap: List[int] = []

        def add(m: int, f: Element, tail: List[Term], bound: int) -> None:
            if (m + bound) & guard:
                raise ResourceBudgetError(
                    "a product leaves the packed monomial range"
                    f" (exponents below 2**{_SLOT - 1})"
                )
            get = work.get
            for k, c in tail:
                k += m
                old = get(k)
                if old is None:
                    work[k] = f * c
                    heappush(heap, -k)
                else:
                    work[k] = old + f * c

        for m, f, source in seeds:
            if isinstance(source, _Element):
                add(m, f, source.tail, source.bound)
            else:
                add(m, f, source, self.bound(source))
        remainder: List[Term] = []
        while heap:
            k = -heappop(heap)
            c = work.pop(k)
            if p:
                c %= p
            if not c:
                continue
            exps = k - ((k << _SLOT) & mask)
            for g in divisors:
                if not (exps - g.exps) & guard:
                    add(k - g.key, p - c if p else -c, g.tail, g.bound)
                    break
            else:
                remainder.append((k, c))
        return remainder


def _count(numerator: dict, n: int, degree: int) -> int:
    """The Hilbert function at ``degree`` of the series HN(t)/(1 - t)^n."""
    return sum(
        h * comb(degree - j + n - 1, n - 1) for j, h in numerator.items() if j <= degree
    )


def _minus_shifted(a: dict, b: dict, shift: int) -> dict:
    """a(t) - t^shift b(t), each a dict from degree to nonzero coefficient."""
    difference = dict(a)
    for j, h in b.items():
        difference[j + shift] = difference.get(j + shift, 0) - h
    return {j: h for j, h in difference.items() if h}


class _Staircase:
    """A monomial ideal as its Hilbert series numerator.

    The ideal is kept as its minimal generators (exponent packings) and the
    numerator HN of its Hilbert series HN(t)/(1 - t)^n, a dict from degree
    to nonzero coefficient.  Inserting m applies
    HN(I + m) = HN(I) - t^deg(m) HN(I : m) (Bayer & Stillman 1992), where
    the colon ideal I : m is again a monomial ideal, built the same way.
    """

    def __init__(self, ring: _Ring, generators: Iterable[int] = ()) -> None:
        self.ring = ring
        self.generators: List[int] = []
        self.numerator = {0: 1}  # an insert replaces it, never changes it
        for exps in generators:
            self.insert(exps)

    def count(self, degree: int) -> int:
        """The Hilbert function at ``degree``: its number of standard monomials."""
        return _count(self.numerator, len(self.ring.shifts), degree)

    def dimension(self) -> int:
        """Krull dimension of the quotient: n minus the order of HN at t = 1."""
        if not self.numerator:
            raise InputError("unit leading term: the ideal is the whole ring")
        coefficients = [self.numerator.get(j, 0) for j in range(max(self.numerator) + 1)]
        order = 0
        while not sum(coefficients):  # divide by 1 - t
            coefficients = list(itertools.accumulate(coefficients))[:-1]
            order += 1
        return len(self.ring.shifts) - order

    def insert(self, exps: int) -> None:
        ring, guard = self.ring, self.ring.guard
        # I : m is generated by the quotients g / gcd(g, m) of the generators
        quotients = [ring.slot_max(g, exps) - exps for g in self.generators]
        if 0 in quotients:
            return  # a generator divides m: m is already in the ideal
        inner = self.numerator  # I : m = I if m is coprime to every generator
        if quotients != self.generators:
            colon, rest = [], sorted(quotients)  # a divisor before its multiples
            while rest:  # the smallest is minimal: keep it, drop its multiples
                colon.append(rest[0])
                rest = [q for q in rest if (q - colon[-1]) & guard]
            inner = _Staircase(ring, colon).numerator
        degree = ring.degree(ring.key_of(exps))
        self.numerator = _minus_shifted(self.numerator, inner, degree)
        self.generators = [g for g in self.generators if (g - exps) & guard] + [exps]


def normal_form(poly: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of multivariate division of ``poly`` by ``basis``.

    The basis lives in the ring of ``poly`` and need not be monic; each
    term, largest first, is reduced by the first basis element whose leading
    term divides it.
    """
    if not basis:
        return poly
    if any(g.field != poly.field or g.variables != poly.variables for g in basis):
        raise InputError("generators live in different rings")
    if any(g.is_zero() for g in basis):
        raise InputError("zero polynomial has no leading term")
    ring = _Ring(poly.field, len(poly.variables))
    divisors = [ring.element(ring.terms(g)) for g in basis]
    remainder = ring.divide([(0, 1, ring.terms(poly))], divisors)
    return ring.poly(poly.variables, remainder)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial of the monic multiples of ``f`` and ``g``, in one ring."""
    if f.field != g.field or f.variables != g.variables:
        raise InputError("generators live in different rings")
    if f.is_zero() or g.is_zero():
        raise InputError("zero polynomial has no leading term")
    ring = _Ring(f.field, len(f.variables))
    ef, eg = ring.element(ring.terms(f)), ring.element(ring.terms(g))
    lcm = ring.key_of(ring.slot_max(ef.exps, eg.exps))
    minus_one = ring.p - 1 if ring.p else -1
    terms = ring.divide([(lcm - ef.key, 1, ef), (lcm - eg.key, minus_one, eg)], ())
    return ring.poly(f.variables, terms)


class GroebnerBasis(NamedTuple):
    """A reduced monic grevlex Groebner basis, largest leading term first."""

    generators: Tuple[MultiPoly, ...]
    field: FieldSpec
    variables: Tuple[str, ...]


class GroebnerEngine:
    """Buchberger's algorithm on homogeneous forms, one generator at a time.

    After every ``add`` the active elements are a minimal Groebner basis of
    the ideal generated so far.  ``MAX_PAIRS`` bounds the S-pairs reduced
    and ``MAX_BASIS`` the elements stored, over the engine's whole life;
    exceeding either raises ``ResourceBudgetError``.
    """

    def __init__(self, field: FieldSpec, variables: Sequence[str]) -> None:
        self.field = field
        self.variables = tuple(variables)
        self.ring = _Ring(field, len(self.variables))
        # every element ever added, by index; all of them reduce, oldest
        # first, since a retired element is still in the ideal
        self.elements: List[_Element] = []
        self.active: List[_Element] = []  # the minimal basis
        self.pairs: list = []  # heap of (lcm key, i, j, lcm exponents)
        self.pairs_reduced = 0
        self.max_degree = 0
        self.staircase = _Staircase(self.ring)  # of the leading terms

    def add(self, poly: MultiPoly) -> None:
        """Extend the ideal by the form ``poly`` and complete the basis."""
        if poly.field != self.field or poly.variables != self.variables:
            raise InputError("generators live in different rings")
        if poly.is_zero():
            return
        if not poly.is_homogeneous():
            raise InputError("the Groebner engine takes homogeneous forms only")
        ring = self.ring
        terms = ring.terms(poly)
        degree = poly.total_degree()
        self.max_degree = max(self.max_degree, degree)
        before = self.staircase.numerator
        remainder = ring.divide([(0, 1, terms)], self.elements)
        if remainder:
            self._insert(ring.element(remainder))
        self._complete(_minus_shifted(before, before, degree))

    def leading_exponents(self) -> List[Exponents]:
        return [self.ring.exponents(g.key) for g in self.active]

    def reduced(self) -> GroebnerBasis:
        """The reduced basis of the ideal so far.

        Tail-reduces the active elements in place, smallest leading term
        first: a divisor of a tail term is smaller than the leading term, so
        it is already reduced when it is used.
        """
        ring = self.ring
        ascending = sorted(self.active, key=lambda g: g.key)
        for g in ascending:
            g.tail = ring.divide([(0, 1, g)], ascending)
            g.bound = ring.slot_max(g.key, ring.bound(g.tail))
        one = self.field.one()
        generators = tuple(
            ring.poly(self.variables, [(g.key, one)] + g.tail)
            for g in reversed(ascending)
        )
        return GroebnerBasis(generators, self.field, self.variables)

    # -- Buchberger ----------------------------------------------------------

    def _progress(self) -> str:
        return (
            f"after {self.pairs_reduced} pairs, with {len(self.elements)} basis"
            f" elements and largest degree {self.max_degree}"
        )

    def _complete(self, bound: dict) -> None:
        """Reduce the pending pairs, smallest lcm first, after a form f of
        degree d joined the ideal I, skipping every degree D in which the
        leading terms already span the ideal.

        If the leading terms of I have the Hilbert numerator HN_before,
        multiplication by f maps (R/I)_(D-d) onto (I + f)/I in degree D, so
        dim (R/(I + f))_D >= dim (R/I)_D - dim (R/I)_(D-d), with equality
        when f is a nonzerodivisor.  The right-hand side is the Hilbert
        function at D of the numerator ``bound`` = HN_before (1 - t^d).
        The current leading terms count at least dim (R/(I + f))_D standard
        monomials; equality means that they span the ideal in degree D and
        every S-polynomial of that degree reduces to zero, so it is skipped.
        On a regular sequence this skips every reduction to zero (Traverso's
        Hilbert-driven Buchberger algorithm).
        """
        ring, staircase = self.ring, self.staircase
        n = len(self.variables)
        p = ring.p
        minus_one = p - 1 if p else -1
        while self.pairs:
            lcm, i, j, _ = heappop(self.pairs)
            degree = ring.degree(lcm)
            if staircase.count(degree) == _count(bound, n, degree):
                continue
            if self.pairs_reduced >= MAX_PAIRS:
                raise ResourceBudgetError(
                    f"Groebner computation exceeded the pair budget ({MAX_PAIRS})"
                    f" {self._progress()}"
                )
            self.pairs_reduced += 1
            f, g = self.elements[i], self.elements[j]
            remainder = ring.divide(
                [(lcm - f.key, 1, f), (lcm - g.key, minus_one, g)], self.elements
            )
            if remainder:
                self._insert(ring.element(remainder))

    def _insert(self, h: _Element) -> None:
        """Add ``h``, reduced by the active elements: the Gebauer-Moeller update."""
        ring = self.ring
        guard = ring.guard
        if len(self.elements) >= MAX_BASIS:
            raise ResourceBudgetError(
                f"Groebner basis exceeded the size budget ({MAX_BASIS})"
                f" {self._progress()}"
            )
        degree = ring.degree(h.key)
        _check_degree(degree)
        self.max_degree = max(self.max_degree, degree)
        h.index = len(self.elements)
        self.elements.append(h)
        hx = h.exps
        # new pairs, smallest lcm first and a coprime pair first among equal
        # lcms: a pair is redundant when a kept one's lcm divides its lcm
        candidates = []
        for g in self.active:
            lcm = ring.slot_max(hx, g.exps)
            candidates.append((ring.key_of(lcm), lcm != hx + g.exps, g.index, lcm))
        candidates.sort()
        kept: List[int] = []
        new_pairs = []
        for key, not_coprime, i, lcm in candidates:
            if any(not (lcm - other) & guard for other in kept):
                continue
            kept.append(lcm)
            if not_coprime:
                new_pairs.append((key, i, h.index, lcm))
        # chain criterion: drop an old pair (i, j) when LT(h) divides its lcm
        # and the lcms of (i, h) and (j, h) both differ from it
        elements = self.elements

        def redundant(pair) -> bool:
            lcm = pair[3]
            return (
                not (lcm - hx) & guard
                and ring.slot_max(elements[pair[1]].exps, hx) != lcm
                and ring.slot_max(elements[pair[2]].exps, hx) != lcm
            )

        survivors = [pair for pair in self.pairs if not redundant(pair)]
        if len(survivors) < len(self.pairs):
            heapify(survivors)
            self.pairs = survivors
        for pair in new_pairs:
            heappush(self.pairs, pair)
        self.active = [g for g in self.active if (g.exps - hx) & guard] + [h]
        self.staircase.insert(hx)


def groebner_basis(generators: Sequence[MultiPoly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by the forms ``generators``.

    The zero ideal (no nonzero generators) yields the empty basis.  A
    generator that is not homogeneous raises ``InputError``.
    """
    if not generators:
        raise InputError("cannot infer ring from an empty generator list")
    g0 = generators[0]
    engine = GroebnerEngine(g0.field, g0.variables)
    for g in generators:
        engine.add(g)
    return engine.reduced()


def staircase_dimension(leading_exponents: Sequence[Exponents], n_vars: int) -> int:
    """Krull dimension of k[x_1..x_n]/I from the leading terms of a basis of I:
    n for none, and ``InputError`` for a unit one (I is the whole ring)."""
    ring = _Ring(FieldSpec.rationals(), n_vars)
    packings = [ring.exps_of(ring.key(e)) for e in leading_exponents]
    return _Staircase(ring, packings).dimension()
