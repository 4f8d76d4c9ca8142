"""Sparse multivariate polynomials over an exact field.

A polynomial stores a map from exponent vectors (one nonnegative integer
per variable) to nonzero coefficients:

    x^2*y + 3  over variables (x, y)  ->  {(2, 1): 1, (0, 0): 3}

The zero polynomial has an empty term map.  Values are immutable after
construction and safe to share across threads.  Terms are kept in graded
reverse lexicographic order (by the declared variable order, descending),
which makes serialization canonical.

Every restriction to a linear subspace is a graph and one composition
with it.  ``linear_graph`` writes the common zeros of linear forms as a
graph and ``restrict_to_graph`` restricts polynomials to it, so a caller
that restricts to one subspace many times computes its graph once.  A
graph is a pair (kept, images): the surviving variables in increasing
order, and a map from each eliminated variable, in increasing order, to
its coefficient row over them.  Only this module reads a graph's entries;
the regularity check and ``dimension`` pass graphs on.
``hyperplane_graph`` writes the graph of one form down without row
reduction, and ``restrict_row`` restricts a linear form's row to a graph.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, compress, groupby, islice, pairwise, repeat, starmap
from random import Random
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from ._value import Value
from .errors import InputError
from .fields import Element, FieldSpec, rref

Exponents = Tuple[int, ...]
Graph = Tuple[Tuple[int, ...], Dict[int, Tuple[Element, ...]]]


def grevlex_key(exponents: Exponents):
    """Sort key under which larger monomials (graded reverse lex) compare larger."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


_reversed = operator.itemgetter(slice(None, None, -1))


def _descending(exponents: Iterable[Exponents]) -> List[Exponents]:
    """Distinct exponent vectors in grevlex-descending order.

    Sorting by the reversed vector and then, stably, by descending degree
    orders them as ``sorted(key=grevlex_key, reverse=True)``; both keys are
    C functions, so no Python call is made per vector.
    """
    order = sorted(exponents, key=_reversed)
    order.sort(key=sum, reverse=True)
    return order


def _check_variables(variables: Sequence[str]) -> Tuple[str, ...]:
    """``variables`` as a tuple; raise ``InputError`` unless each is a string
    and no two are alike."""
    names = tuple(variables)
    try:
        # a TypeError unless each name is a string; one C loop, since
        # ``linear`` runs this once per sampled form
        "".join(names)
    except TypeError as exc:
        raise InputError(f"variables must be a list of names, got {variables!r}") from exc
    if len(set(names)) != len(names):
        raise InputError(f"duplicate variable names in {names}")
    return names


def _check_exponents(exponents: Sequence, n: int) -> None:
    """Raise ``InputError`` unless each of ``exponents`` is an exponent vector
    of length n: a list (decoded JSON) or a tuple of nonnegative integers.

    The vectors are checked all at once, the entries' types and signs in one
    walk; when that fails, the first offending vector is named.
    """
    if (
        all(map(isinstance, exponents, repeat((list, tuple))))
        and not {*map(len, exponents)} - {n}
        # the offending entries, as a list: ``any`` would miss a False.  bool
        # is a subclass of int, and JSON true is no exponent
        and not [e for exps in exponents for e in exps if type(e) is not int or e < 0]
    ):
        return
    for exps in exponents:
        if not isinstance(exps, (list, tuple)) or not all(type(e) is int for e in exps):
            raise InputError(f"exponents must be a list of integers, got {exps!r}")
        if len(exps) != n:
            raise InputError(
                f"exponent vector {tuple(exps)} has length {len(exps)}, expected {n}"
            )
        if min(exps, default=0) < 0:
            raise InputError(f"negative exponent in {tuple(exps)}")


def _canonical(terms: Mapping[Exponents, Element]) -> Dict[Exponents, Element]:
    """The nonzero terms, in grevlex-descending insertion order, which keeps
    iteration and dumps canonical.

    Terms that already come in that order, with no zero among them, as a
    dumped polynomial's do, are copied as they are: each key is compared
    with the next as (-degree, reversed exponents), with no Python call per
    key, in about two thirds of the time the sort would take.
    """
    ranks = zip(map(operator.neg, map(sum, terms)), map(_reversed, terms))
    if all(starmap(operator.lt, pairwise(ranks))) and all(terms.values()):
        return dict(terms)
    return {e: c for e in _descending(terms) if (c := terms[e])}


def _picker(indices: Sequence[int]):
    """Map an exponent vector to the tuple of its entries at ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda exps: (exps[i],)
    if not indices:
        return lambda exps: ()
    return operator.itemgetter(*indices)


def _product(
    fieldspec: FieldSpec,
    a: Mapping[Exponents, Element],
    b: Mapping[Exponents, Element],
) -> Dict[Exponents, Element]:
    """Product of two term maps, without the terms that cancel."""
    mul, add = fieldspec.mul, fieldspec.add
    product: Dict[Exponents, Element] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(map(operator.add, ea, eb))
            coeff = mul(ca, cb)
            product[exps] = add(product[exps], coeff) if exps in product else coeff
    return {e: c for e, c in product.items() if c}


def _compose(
    fieldspec: FieldSpec,
    leaves: Mapping[Exponents, Mapping[Exponents, Element]],
    images: Sequence[Mapping[Exponents, Element]],
) -> Dict[Exponents, Element]:
    """Term map of sum_e leaves[e] * prod_i images[i]^e[i], by Horner's rule.

    ``leaves`` maps exponent vectors of length ``len(images)`` >= 1 to term
    maps in the images' ring, polynomials in the variables that a
    restriction keeps.  Written as sum_k x^k * f_k in its last
    variable x, the polynomial folds as acc = acc * image + f_k from the
    highest k down, and each f_k, a polynomial in the exponent prefixes, is
    composed the same way; so each prefix is multiplied once, whatever the
    images are.  Each step folds acc * image and f_k into one new map, or
    takes f_k itself while acc is empty, so the result may be one of the
    leaves, which the caller only reads.  Terms that cancel are left with a
    zero coefficient.
    """
    mul, add, vector_sum = fieldspec.mul, fieldspec.add, operator.add
    image, inner = images[-1].items(), images[:-1]
    by_last: Dict[int, Dict[Exponents, Mapping[Exponents, Element]]] = {}
    for exps, leaf in leaves.items():
        by_last.setdefault(exps[-1], {})[exps[:-1]] = leaf
    acc: Dict[Exponents, Element] = {}
    for k in range(max(by_last, default=0), -1, -1):
        step: Dict[Exponents, Element] = {}
        for ea, ca in acc.items():
            for eb, cb in image:
                exps = tuple(map(vector_sum, ea, eb))
                coeff = mul(ca, cb)
                step[exps] = add(step[exps], coeff) if exps in step else coeff
        if k in by_last:
            part = _compose(fieldspec, by_last[k], inner) if inner else by_last[k][()]
            if step:
                for exps, coeff in part.items():
                    step[exps] = add(step[exps], coeff) if exps in step else coeff
            else:
                step = part
        acc = step
    return acc


class MultiPoly(Value):
    """Immutable sparse polynomial over a ``FieldSpec``.

    ``MultiPoly(field, variables, terms)`` stores ``terms`` as given, so it
    must already be canonical (see ``_canonical``); ``from_terms`` makes
    any term map canonical.  Two polynomials are equal when their field,
    variables and terms are; hashing one raises ``TypeError``, since the
    terms are a dict.
    """

    _fields = ("field", "variables", "terms")

    def __init__(
        self,
        field: FieldSpec,
        variables: Tuple[str, ...],
        terms: Mapping[Exponents, Element] | None = None,
    ) -> None:
        self._set("field", field)
        self._set("variables", variables)
        self._set("terms", {} if terms is None else terms)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        fieldspec: FieldSpec,
        variables: Sequence[str],
        terms: Mapping[Exponents, Element] | Iterable[Tuple[Exponents, Element]],
    ) -> "MultiPoly":
        """The polynomial with ``terms``, made canonical; its variables and
        exponent vectors are checked as ``from_json`` checks them."""
        variables = _check_variables(variables)
        if not isinstance(terms, Mapping):
            terms = dict(terms)
        _check_exponents(list(terms), len(variables))
        coerce = fieldspec.coerce
        return cls(fieldspec, variables, _canonical({e: coerce(c) for e, c in terms.items()}))

    @classmethod
    def zero(cls, fieldspec: FieldSpec, variables: Sequence[str]) -> "MultiPoly":
        return cls.from_terms(fieldspec, variables, {})

    @classmethod
    def constant(
        cls, fieldspec: FieldSpec, variables: Sequence[str], value
    ) -> "MultiPoly":
        exps = (0,) * len(variables)
        return cls.from_terms(fieldspec, variables, {exps: value})

    @classmethod
    def variable(
        cls, fieldspec: FieldSpec, variables: Sequence[str], name: str
    ) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls.from_terms(fieldspec, variables, {exps: 1})

    @classmethod
    def linear(
        cls, fieldspec: FieldSpec, variables: Sequence[str], row: Sequence[Element]
    ) -> "MultiPoly":
        """The linear form sum_i row[i] * variables[i]."""
        variables = _check_variables(variables)
        n = len(variables)
        if len(row) != n:
            raise InputError(f"coefficient row has length {len(row)}, expected {n}")
        # the unit monomials run grevlex-descending from the first variable to
        # the last, so the terms are made in canonical order
        coerce, terms = fieldspec.coerce, {}
        for i, coeff in enumerate(row):
            if coeff := coerce(coeff):
                terms[(0,) * i + (1,) + (0,) * (n - 1 - i)] = coeff
        return cls(fieldspec, variables, terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def linear_row(self) -> List[Element]:
        """Coefficient row of a homogeneous linear form (zero allowed)."""
        row = [self.field.zero()] * len(self.variables)
        for exps, coeff in self.terms.items():
            if sum(exps) != 1:
                raise InputError("expected a homogeneous linear form")
            row[exps.index(1)] = coeff
        return row

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _coerce_operand(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.field != self.field or other.variables != self.variables:
                raise InputError("polynomials over different rings")
            return other
        return MultiPoly.constant(self.field, self.variables, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce_operand(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = self.field.add(merged.get(exps, self.field.zero()), coeff)
        return MultiPoly.from_terms(self.field, self.variables, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly.from_terms(
            self.field,
            self.variables,
            {e: self.field.neg(c) for e, c in self.terms.items()},
        )

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce_operand(other)
        product = _product(self.field, self.terms, other.terms)
        return MultiPoly.from_terms(self.field, self.variables, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("polynomial power must be a nonnegative integer")
        result = MultiPoly.constant(self.field, self.variables, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- the operations used by the dimension and regularity machinery ------

    def evaluate(self, point: Sequence[Element]) -> Element:
        """Exact evaluation by substitution; each power is computed once."""
        field = self.field
        values = [field.coerce(v) for v in point]
        if len(values) != len(self.variables):
            raise InputError(
                f"point has {len(values)} coordinates, expected {len(self.variables)}"
            )
        mul, add = field.mul, field.add
        powers = [[v] for v in values]  # powers[i][e - 1] = values[i]^e
        total = field.zero()
        for exps, coeff in self.terms.items():
            term = coeff
            for table, e in zip(powers, exps):
                if e:
                    while len(table) < e:
                        table.append(mul(table[-1], table[0]))
                    term = mul(term, table[e - 1])
            total = add(total, term)
        return total

    def homogeneous_components(self) -> Dict[int, "MultiPoly"]:
        """Decompose into {degree: homogeneous part}; only nonzero parts appear.

        Canonical terms come in one run per degree, so each part is a slice
        of the terms.  A hand-built polynomial whose terms are out of order
        may have a degree in two runs; its terms are bucketed instead.
        """
        runs = [(d, len(list(run))) for d, run in groupby(map(sum, self.terms))]
        if len(runs) == len(dict(runs)):
            items = iter(self.terms.items())
            parts = {d: dict(islice(items, count)) for d, count in runs}
        else:
            parts = {}
            for exps, coeff in self.terms.items():
                parts.setdefault(sum(exps), {})[exps] = coeff
        # a subset of canonical terms, kept in order, is canonical
        return {
            d: MultiPoly(self.field, self.variables, terms)
            for d, terms in sorted(parts.items())
        }

    def restrict_to_hyperplane(self, linear: "MultiPoly") -> "MultiPoly":
        """Substitute the hyperplane {linear = 0} into this polynomial.

        The eliminated variable is the highest-index variable carried by
        ``linear``; the result lives in the remaining variables.
        """
        row = self._coerce_operand(linear).linear_row()
        if not any(row):
            raise InputError("restriction requires a nonzero homogeneous linear form")
        return restrict_to_graph([self], *hyperplane_graph(row, self.field))[0]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        # each term holds its stored exponent tuple, which ``json.dumps``
        # writes as the same array a list would give; no copy is made
        return {
            "field": self.field.json_tag,
            "variables": list(self.variables),
            "terms": [
                {"coeff": self.field.format_element(c), "exponents": e}
                for e, c in self.terms.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        try:
            fieldspec = FieldSpec.from_json_tag(data["field"])
            variables = data["variables"]
            raw_terms = data["terms"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed polynomial JSON: {exc}") from exc
        if not isinstance(variables, list):
            raise InputError(f"variables must be a list of names, got {variables!r}")
        variables = _check_variables(variables)
        try:
            entries = list(raw_terms)
        except TypeError as exc:
            raise InputError(f"terms must be a list, got {raw_terms!r}") from exc
        try:
            exponents = [entry["exponents"] for entry in entries]
            coeffs = [entry["coeff"] for entry in entries]
        except (KeyError, TypeError):
            # the first term that lacks either field is named
            for entry in entries:
                try:
                    entry["exponents"], entry["coeff"]
                except (KeyError, TypeError) as exc:
                    raise InputError(f"malformed polynomial term: {entry!r}") from exc
            raise
        coeffs = fieldspec.parse_elements(coeffs)
        _check_exponents(exponents, len(variables))
        keys = list(map(tuple, exponents))
        terms = dict(zip(keys, coeffs))
        if len(terms) != len(keys):
            duplicate = next(k for k, count in Counter(keys).items() if count > 1)
            raise InputError(f"duplicate term with exponents {list(duplicate)}")
        return cls(fieldspec, variables, _canonical(terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms.items():
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            ]
            head = self.field.format_element(coeff)
            if factors and head == "1":
                pieces.append("*".join(factors))
            elif factors:
                pieces.append(head + "*" + "*".join(factors))
            else:
                pieces.append(head)
        return " + ".join(pieces)


def linear_graph(
    rows: Sequence[Sequence[Element]], fieldspec: FieldSpec, n: int
) -> Graph:
    """The common zeros in ``fieldspec^n`` of the linear forms with
    coefficient ``rows``, as the graph of a linear map: (kept, images).

    On the common zeros, eliminated variable i is
    sum_j images[i][j] * x_{kept[j]}.  The eliminated variables are the
    pivots of the rows reduced from the last column backwards, i.e. the
    highest-index columns that are independent, so dependent rows eliminate
    no more than their rank.  The graph depends only on the span of the
    rows.
    """
    work, pivots = rref([row[::-1] for row in rows], fieldspec)
    # column c of the reversed rows is variable n - 1 - c; a reduced row is 1
    # at its eliminated variable and 0 at the others, so on the common zeros
    # that variable is minus the row at the survivors
    reduced = dict(zip((n - 1 - c for c in pivots), work))
    kept = tuple(i for i in range(n) if i not in reduced)
    neg = fieldspec.neg
    return kept, {
        i: tuple(neg(reduced[i][n - 1 - j]) for j in kept) for i in sorted(reduced)
    }


def hyperplane_graph(row: Sequence[Element], fieldspec: FieldSpec) -> Graph:
    """``linear_graph([row], fieldspec, len(row))``, written down directly.

    One nonzero row eliminates its last nonzero entry p, whose image is
    -row[j]/row[p] at each survivor j, which is what the row reduction in
    ``linear_graph`` computes.  A zero row leaves the whole space.
    """
    n = len(row)
    pivot = next((i for i in range(n - 1, -1, -1) if row[i]), None)
    if pivot is None:
        return tuple(range(n)), {}
    kept = (*range(pivot), *range(pivot + 1, n))
    scale, mul = fieldspec.neg(fieldspec.inv(row[pivot])), fieldspec.mul
    return kept, {pivot: tuple(mul(row[j], scale) for j in kept)}


def restrict_row(
    row: Sequence[Element],
    kept: Sequence[int],
    images: Mapping[int, Sequence[Element]],
    fieldspec: FieldSpec,
) -> List[Element]:
    """The linear form with coefficient ``row`` restricted to the graph
    (kept, images): its coefficient row over the survivors.

    Survivor j's entry is row[kept[j]] plus row[i] * images[i][j] for each
    eliminated variable i.  The result is zero iff the form vanishes on the
    graph, i.e. lies in the span of the rows the graph was made from.
    """
    mul, add = fieldspec.mul, fieldspec.add
    restricted = [row[j] for j in kept]
    for i, image in images.items():
        if c := row[i]:
            restricted = [add(r, mul(c, a)) for r, a in zip(restricted, image)]
    return restricted


def restrict_to_graph(
    polys: Sequence[MultiPoly],
    kept: Sequence[int],
    images: Mapping[int, Sequence[Element]],
) -> List[MultiPoly]:
    """Restrict ``polys`` to the graph (kept, images) of ``linear_graph``.

    The result lives in the surviving variables.  A survivor's image is
    itself, so only the eliminated variables are composed, variable i with
    sum_j images[i][j] * survivors[j]: each term's survivor exponents go into
    the leaf (a polynomial in the survivors) of its eliminated exponents.

    A variable whose image is zero kills every term that holds it: the
    groups of eliminated exponents that hold one are dropped, the rest are
    keyed by the live eliminated variables, and only those are composed.
    Where every image is zero, as on the cut x_n = 0, the drop is the
    restriction, made term by term: the terms free of eliminated variables,
    read at the survivors, are already in grevlex order, since the
    variables dropped from them are all 0.
    """
    if not images:  # the graph is the whole space
        return list(polys)
    if not polys:
        return []
    fieldspec, variables = polys[0].field, polys[0].variables
    m = len(kept)
    units = [(0,) * j + (1,) + (0,) * (m - 1 - j) for j in range(m)]
    elim_images = [
        {unit: c for unit, c in zip(units, image) if c} for image in images.values()
    ]
    leaf_key, elim_key = _picker(kept), _picker(tuple(images))
    survivors = leaf_key(variables)
    live_images, some_dead = elim_images, not all(elim_images)
    if some_dead:
        live_images = [image for image in elim_images if image]
        live_key = _picker(tuple(j for j, image in enumerate(elim_images) if image))
        dead_key = _picker(tuple(j for j, image in enumerate(elim_images) if not image))
    restricted = []
    for poly in polys:
        if not live_images:
            total = {leaf_key(e): c for e, c in poly.terms.items() if not any(elim_key(e))}
        else:
            leaves: Dict[Exponents, Dict[Exponents, Element]] = {}
            for exps, coeff in poly.terms.items():
                leaves.setdefault(elim_key(exps), {})[leaf_key(exps)] = coeff
            if some_dead:
                leaves = {live_key(e): leaf for e, leaf in leaves.items() if not any(dead_key(e))}
            # the zeros that cancellation left are dropped here, once
            total = _canonical(_compose(fieldspec, leaves, live_images))
        restricted.append(MultiPoly(fieldspec, survivors, total))
    return restricted


def monomials_of_degree(n_vars: int, degree: int) -> Iterator[Exponents]:
    """All exponent vectors of total degree exactly ``degree``, largest first
    in graded reverse lexicographic order (descending ``grevlex_key``).

    Within one degree grevlex prefers the smaller exponent of the last
    variable, so the vectors run through ascending ``e[::-1]``: the successor
    moves one unit from the first nonzero entry e[j] to e[j + 1] and gathers
    the rest of e[j] in e[0].  The last vector is (0, ..., 0, degree).
    """
    if n_vars == 0:
        if degree == 0:
            yield ()
        return
    if degree < 0:
        return
    exps = [degree] + [0] * (n_vars - 1)
    while True:
        yield tuple(exps)
        if exps[-1] == degree:
            return
        j = 0
        while not exps[j]:
            j += 1
        rest = exps[j] - 1
        exps[j] = 0
        exps[j + 1] += 1
        exps[0] = rest


def _draw_terms(
    monomials: Sequence[Exponents], fieldspec: FieldSpec, seed: int
) -> Dict[Exponents, Element]:
    """One coefficient per monomial, drawn in list order from ``Random(seed)``;
    the nonzero terms, in list order."""
    coeffs = fieldspec.random_elements(Random(seed), len(monomials))
    return dict(compress(zip(monomials, coeffs), coeffs))


def random_poly(
    degree: int,
    variables: Sequence[str],
    fieldspec: FieldSpec,
    homogeneous: bool = False,
    seed: int = 0,
) -> MultiPoly:
    """Seed-deterministic random polynomial.

    Over GF(p) every monomial coefficient is drawn uniformly from the field
    (zero included), so the zero polynomial occurs with its natural
    probability.  With ``homogeneous=True`` only degree-``degree`` monomials
    are drawn; otherwise all monomials of total degree <= ``degree``.
    """
    if degree < 0:
        raise InputError("degree must be nonnegative")
    variables = _check_variables(variables)
    n = len(variables)
    if homogeneous:
        monomials = list(monomials_of_degree(n, degree))
        return MultiPoly(fieldspec, variables, _draw_terms(monomials, fieldspec, seed))
    # drawn from degree 0 up, each degree grevlex-descending; stored from the
    # top degree down, which is the canonical order, so nothing is re-sorted
    by_degree = [list(monomials_of_degree(n, d)) for d in range(degree + 1)]
    drawn = _draw_terms(list(chain.from_iterable(by_degree)), fieldspec, seed)
    terms = {e: drawn[e] for part in reversed(by_degree) for e in part if e in drawn}
    return MultiPoly(fieldspec, variables, terms)
