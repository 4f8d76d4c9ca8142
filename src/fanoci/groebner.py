"""Buchberger's algorithm and staircase combinatorics.

The engine computes the unique reduced Groebner basis of an ideal given by
sparse polynomials over an exact field, under graded reverse lexicographic
(default) or lexicographic order.  Pair selection follows the normal
strategy (smallest lcm degree first) and applies the two classical pair
elimination criteria, so runs are deterministic for a fixed input.

Dimension of the quotient ring is read off the staircase: it is the size
of the largest subset S of variables such that no leading term of the
basis involves only variables from S.  For an ideal I this equals the
Krull dimension of k[x]/I because passing to the leading-term ideal
preserves dimension, and for monomial ideals the combinatorial rule is
exact (any term order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, ResourceBudgetError
from .fields import Element, FieldSpec
from .polynomials import Exponents, MultiPoly, grevlex_key

GREVLEX = "grevlex"
LEX = "lex"


@dataclass(frozen=True)
class TermOrder:
    """A monomial order: 'grevlex' or 'lex' over a variable significance order.

    ``variables`` lists the polynomial's variables from most to least
    significant; None means the declared order of the input polynomials.
    """

    kind: str = GREVLEX
    variables: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in (GREVLEX, LEX):
            raise InputError(f"unknown term order kind: {self.kind!r}")

    def resolve(self, poly_variables: Tuple[str, ...]) -> "_ResolvedOrder":
        if self.variables is None:
            permutation = tuple(range(len(poly_variables)))
        else:
            if set(self.variables) != set(poly_variables) or len(
                self.variables
            ) != len(poly_variables):
                raise InputError(
                    f"order variables {self.variables} do not match {poly_variables}"
                )
            permutation = tuple(poly_variables.index(v) for v in self.variables)
        return _ResolvedOrder(self.kind, permutation)


@dataclass(frozen=True)
class _ResolvedOrder:
    kind: str
    permutation: Tuple[int, ...]  # position j holds the poly-index of significance j

    def key(self, exponents: Exponents):
        permuted = tuple(exponents[i] for i in self.permutation)
        if self.kind == LEX:
            return permuted
        return grevlex_key(permuted)


def leading_term(poly: MultiPoly, order: _ResolvedOrder) -> Tuple[Exponents, Element]:
    if poly.is_zero():
        raise InputError("zero polynomial has no leading term")
    exps = max(poly.terms, key=order.key)
    return exps, poly.terms[exps]


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exps(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _monomial_times(poly: MultiPoly, exps: Exponents, coeff: Element) -> MultiPoly:
    fld = poly.field
    return MultiPoly.from_terms(
        poly.field,
        poly.variables,
        {
            tuple(x + y for x, y in zip(e, exps)): fld.mul(c, coeff)
            for e, c in poly.terms.items()
        },
    )


def normal_form(
    poly: MultiPoly, basis: Sequence[MultiPoly], order: _ResolvedOrder
) -> MultiPoly:
    """Remainder of multivariate division of ``poly`` by ``basis``."""
    if not basis:
        return poly
    fld = poly.field
    lts = [leading_term(g, order) for g in basis]
    remainder: Dict[Exponents, Element] = {}
    work = dict(poly.terms)
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        for g, (g_exps, g_coeff) in zip(basis, lts):
            if _divides(g_exps, exps):
                factor = fld.div(coeff, g_coeff)
                shift = _sub_exps(exps, g_exps)
                for e, c in g.terms.items():
                    if e == g_exps:
                        continue
                    target = tuple(x + y for x, y in zip(e, shift))
                    value = fld.sub(
                        work.get(target, fld.zero()), fld.mul(c, factor)
                    )
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[exps] = coeff
    return MultiPoly.from_terms(poly.field, poly.variables, remainder)


def s_polynomial(
    f: MultiPoly, g: MultiPoly, order: _ResolvedOrder
) -> MultiPoly:
    fld = f.field
    (ef, cf), (eg, cg) = leading_term(f, order), leading_term(g, order)
    lcm = _lcm(ef, eg)
    left = _monomial_times(f, _sub_exps(lcm, ef), fld.inv(cf))
    right = _monomial_times(g, _sub_exps(lcm, eg), fld.inv(cg))
    return left - right


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced monic Groebner basis together with its term order."""

    generators: Tuple[MultiPoly, ...]
    order: TermOrder
    field: FieldSpec
    variables: Tuple[str, ...]

    def leading_exponents(self) -> List[Exponents]:
        resolved = self.order.resolve(self.variables)
        return [leading_term(g, resolved)[0] for g in self.generators]

    def reduce(self, poly: MultiPoly) -> MultiPoly:
        return normal_form(poly, self.generators, self.order.resolve(self.variables))

    def contains(self, poly: MultiPoly) -> bool:
        return self.reduce(poly).is_zero()


def groebner_basis(
    generators: Sequence[MultiPoly],
    order: TermOrder | None = None,
    *,
    max_pairs: int = 200_000,
    max_basis: int = 2_000,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    The zero ideal (no nonzero generators) yields the empty basis.  The
    ``max_pairs``/``max_basis`` budgets abort pathological runs with a
    ``ResourceBudgetError`` instead of hanging.
    """
    order = order or TermOrder()
    nonzero = [g for g in generators if not g.is_zero()]
    if not nonzero:
        if not generators:
            raise InputError("cannot infer ring from an empty generator list")
        g0 = generators[0]
        return GroebnerBasis((), order, g0.field, g0.variables)
    fld = nonzero[0].field
    variables = nonzero[0].variables
    for g in nonzero:
        if g.field != fld or g.variables != variables:
            raise InputError("generators live in different rings")
    resolved = order.resolve(variables)

    basis: List[MultiPoly] = []
    for g in nonzero:
        _, lc = leading_term(g, resolved)
        basis.append(g.scale(fld.inv(lc)))

    lead: List[Exponents] = [leading_term(g, resolved)[0] for g in basis]
    pending = {(i, j) for j in range(len(basis)) for i in range(j)}
    done: set[Tuple[int, int]] = set()
    processed = 0

    def pair_sort_key(pair: Tuple[int, int]):
        lcm = _lcm(lead[pair[0]], lead[pair[1]])
        return (sum(lcm), resolved.key(lcm), pair)

    while pending:
        processed += 1
        if processed > max_pairs:
            raise ResourceBudgetError(
                f"Groebner computation exceeded the pair budget ({max_pairs})"
            )
        i, j = min(pending, key=pair_sort_key)
        pending.discard((i, j))
        done.add((i, j))
        lcm = _lcm(lead[i], lead[j])
        # first criterion: coprime leading terms
        if lcm == tuple(a + b for a, b in zip(lead[i], lead[j])):
            continue
        # chain criterion
        if any(
            k not in (i, j)
            and _divides(lead[k], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        s = normal_form(s_polynomial(basis[i], basis[j], resolved), basis, resolved)
        if s.is_zero():
            continue
        _, lc = leading_term(s, resolved)
        s = s.scale(fld.inv(lc))
        basis.append(s)
        lead.append(leading_term(s, resolved)[0])
        if len(basis) > max_basis:
            raise ResourceBudgetError(
                f"Groebner basis exceeded the size budget ({max_basis})"
            )
        new = len(basis) - 1
        pending.update((k, new) for k in range(new))

    # minimalize: drop generators whose leading term another kept one divides;
    # ascending order works because any divisor precedes its multiples
    keep: List[int] = []
    for i in sorted(range(len(basis)), key=lambda i: resolved.key(lead[i])):
        if not any(_divides(lead[k], lead[i]) for k in keep):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    # inter-reduce tails; one pass suffices because reduction never changes
    # a leading term, so a generator reduced against the others' leading
    # terms stays reduced when their tails change later
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1 :]
        reduced = normal_form(minimal[i], others, resolved)
        if reduced.terms != minimal[i].terms:
            if reduced.is_zero():
                raise AssertionError("minimal generator reduced to zero")
            _, lc = leading_term(reduced, resolved)
            minimal[i] = reduced.scale(fld.inv(lc))
    minimal.sort(key=lambda g: resolved.key(leading_term(g, resolved)[0]), reverse=True)
    return GroebnerBasis(tuple(minimal), order, fld, variables)


def staircase_dimension(leading_exponents: Sequence[Exponents], n_vars: int) -> int:
    """Krull dimension of k[x_1..x_n]/I from the leading-term staircase.

    Returns the size of the largest variable subset S such that no leading
    term is supported entirely inside S.  The empty staircase (zero ideal)
    gives n.
    """
    supports = [frozenset(i for i, e in enumerate(exps) if e) for exps in leading_exponents]
    if any(not s for s in supports):
        raise InputError("unit leading term: the ideal is the whole ring")
    if not supports:
        return n_vars
    for size in range(n_vars, -1, -1):
        for subset in itertools.combinations(range(n_vars), size):
            chosen = frozenset(subset)
            if not any(s <= chosen for s in supports):
                return size
    raise AssertionError("unreachable: the empty subset is always independent")
