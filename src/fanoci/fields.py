"""Coefficient fields: exact rationals, prime fields GF(p), and GF(p^2).

A ``FieldSpec`` names the field and provides the arithmetic on raw element
values; each kind of field is a subclass.  Elements are kept as plain
Python values rather than wrapper objects, so polynomial arithmetic stays
cheap:

  * rational field    -> ``fractions.Fraction``
  * prime field GF(p) -> ``int`` in ``[0, p)``
  * GF(p^2)           -> ``int`` ``a + b*p`` in ``[0, p^2)`` for a + b*t, so
    zero is falsy and a GF(p) residue is its own image in GF(p^2)

GF(p^2) only serves the probabilistic slicing oracle and has no JSON form.
JSON tag format: ``"rational"`` or ``"gf:<p>"``, with p in the ASCII grammar
``[0-9]+``.  A characteristic p must be a prime below
psi_13 = 3,317,044,064,679,887,385,961,981 (about 3.3e24), where the
primality test is exact; a larger one is refused.  Element strings are
written in the "num/den" rational format resp. as the canonical decimal
residue, and read by the grammars ``-?[0-9]+(/[0-9]+)?`` resp. ``-?[0-9]+``.

``random_element(rng)`` draws one element: uniform over a finite field, a
small integer over Q.  ``random_elements(rng, count)`` is its bulk
counterpart, in the way ``parse_elements`` is one for parsing: it returns
the elements that ``count`` calls of ``random_element`` would, in order,
and leaves ``rng`` in the same state, so a caller may switch between the
two without changing a seeded stream.  Over GF(p) it draws without a
Python call per element.

``rref`` is the exact linear algebra over any of them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from random import Random
from typing import List, Sequence, Tuple, Union

from ._value import Value
from .errors import InputError
from .rationals import parse_rational

Element = Union[Fraction, int]

# A GF(p) element string: ASCII digits with an optional minus sign.  ``int``
# alone would also take whitespace, "+", "_" and non-ASCII digits; a string
# that ``int`` takes and that has no other characters than "-" and ASCII
# digits is in this grammar, which is checked on all strings at once.
_DECIMAL = re.compile(r"-?[0-9]+")
_DROP_DECIMAL_CHARS = str.maketrans("", "", "-0123456789")
_PRIME_TAG = re.compile(r"gf:([0-9]+)")  # ASCII digits only, for the same reason

# Deterministic Miller-Rabin witnesses: the primes up to 41 are exact below
# psi_13, up to 37 only below psi_12 = 318,665,857,834,031,151,167,461
# (Sorenson & Webster 2017, "Strong pseudoprimes to twelve prime bases").
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981  # psi_13

# An error message shows at most this many characters of a rejected tag or
# characteristic, so a huge one cannot flood it.
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut after ``_SHOWN_CHARS``
    characters, with the count of those left out.  An integer past Python's
    integer-to-string digit limit is shown by its bit length instead."""
    try:
        text = repr(value)
    except ValueError:  # an integer past the limit, or a container holding one
        if isinstance(value, int):
            return f"<an integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an integer too long to show>"
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text) - _SHOWN_CHARS} more characters)"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < psi_13)."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    """Refuse a characteristic that is not prime, or too large to be sure."""
    if p >= _MR_EXACT_BELOW:
        raise InputError(
            f"characteristic {_shown(p)} is refused: primality is decided exactly"
            f" only for p < {_MR_EXACT_BELOW}"
        )
    if not is_prime(p):
        raise InputError(f"{_shown(p)} is not prime")


class FieldSpec(Value):
    """An exact coefficient field: the rationals, GF(p), or GF(p^2).

    Build one with ``rationals()``, ``prime(p)`` or ``from_json_tag``.  Each
    kind is a subclass implementing ``coerce``, ``add``, ``sub``, ``mul``,
    ``inv`` and ``random_element``; the other operations, ``random_elements``
    among them, fall back on those.

    A field is an immutable value: two are equal when they are of the same
    kind and characteristic, and equal fields hash alike.
    """

    is_prime_field = False
    _fields = ("characteristic",)

    def __init__(self, characteristic: int = 0) -> None:
        self._set("characteristic", characteristic)

    # -- constructors -----------------------------------------------------

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return _Rationals()

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return _PrimeField(p)

    @classmethod
    def quadratic(cls, p: int) -> "FieldSpec":
        """GF(p^2), internal to the slicing oracle (no JSON tag accepts it)."""
        return _QuadraticField(p)

    @classmethod
    def from_json_tag(cls, tag: str) -> "FieldSpec":
        if not isinstance(tag, str):
            raise InputError(f"field tag must be a string, got {_shown(tag)}")
        if tag == "rational":
            return cls.rationals()
        match = _PRIME_TAG.fullmatch(tag)
        if match is None:
            raise InputError(f"bad field tag: {_shown(tag)}")
        try:
            p = int(match[1])
        except ValueError as exc:  # more digits than ``int`` converts
            raise InputError(f"bad field tag: {_shown(tag)}") from exc
        return cls.prime(p)

    # -- element arithmetic -------------------------------------------------

    def zero(self) -> Element:
        return 0

    def one(self) -> Element:
        return 1

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def sub(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        return self.sub(self.zero(), a)

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            return self.inv(self.pow(a, -e))
        result = self.one()
        for bit in bin(e)[2:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def format_element(self, a: Element) -> str:
        return str(a)

    def random_elements(self, rng: Random, count: int) -> List[Element]:
        """``count`` calls of ``random_element`` on ``rng``, in one list."""
        return [self.random_element(rng) for _ in range(count)]

    def parse_elements(self, values: Sequence) -> List[Element]:
        """Read JSON coefficients: each a string or an integer, never a bool."""
        for kind in {*map(type, values)}:
            if kind is bool or not issubclass(kind, (str, int)):
                bad = next(v for v in values if type(v) is kind)
                raise InputError(f"bad {self.json_tag} coefficient: {bad!r}")
        return self._parse(values)


class _Rationals(FieldSpec):
    json_tag = "rational"

    def zero(self) -> Element:
        return Fraction(0)

    def one(self) -> Element:
        return Fraction(1)

    def coerce(self, value) -> Element:
        """Normalize an int/Fraction, not a bool, into a canonical field element."""
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
        raise InputError(f"cannot coerce {value!r} into the rational field")

    def add(self, a: Element, b: Element) -> Element:
        return a + b

    def sub(self, a: Element, b: Element) -> Element:
        return a - b

    def mul(self, a: Element, b: Element) -> Element:
        return a * b

    def neg(self, a: Element) -> Element:
        return -a

    def inv(self, a: Element) -> Element:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / Fraction(a)

    def _parse(self, values: Sequence) -> List[Element]:
        return [parse_rational(v) if isinstance(v, str) else Fraction(v) for v in values]

    def random_element(self, rng: Random) -> Element:
        """Small integers."""
        return Fraction(rng.randint(-9, 9))


class _PrimeField(FieldSpec):
    is_prime_field = True

    def __init__(self, characteristic: int = 0) -> None:
        self._set("characteristic", characteristic)
        _require_prime(characteristic)

    @property
    def json_tag(self) -> str:
        return f"gf:{self.characteristic}"

    def coerce(self, value) -> Element:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"cannot coerce {value!r} into GF({self.characteristic})")
        return value % self.characteristic

    def add(self, a: Element, b: Element) -> Element:
        return (a + b) % self.characteristic

    def sub(self, a: Element, b: Element) -> Element:
        return (a - b) % self.characteristic

    def mul(self, a: Element, b: Element) -> Element:
        return (a * b) % self.characteristic

    def neg(self, a: Element) -> Element:
        return (-a) % self.characteristic

    def inv(self, a: Element) -> Element:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.characteristic - 2, self.characteristic)

    def _parse(self, values: Sequence) -> List[Element]:
        p = self.characteristic
        # str of a JSON integer is in the grammar, so one check covers both kinds
        try:
            if not "".join(map(str, values)).translate(_DROP_DECIMAL_CHARS):
                return [int(v) % p for v in values]
        except ValueError:
            pass
        for v in values:
            try:
                if _DECIMAL.fullmatch(str(v)):
                    int(v)
                    continue
            except ValueError:  # more digits than ``int`` converts
                pass
            raise InputError(f"bad GF({p}) element: {v!r}")

    @property
    def size(self) -> int:
        return self.characteristic

    def elements(self) -> List[Element]:
        return list(range(self.characteristic))

    def random_element(self, rng: Random) -> Element:
        """Uniform over GF(p), zero included."""
        return rng.randrange(self.characteristic)

    def random_elements(self, rng: Random, count: int) -> List[Element]:
        """``count`` calls of ``random_element``, most of them in one pass.

        Those calls, ``rng.randrange(p)`` each, keep the draws of
        ``getrandbits(p.bit_length())`` that are below p, in stream order,
        and stop at the count-th one kept.
        Making ``count`` draws at once and keeping those below p, then
        drawing one at a time until none is missing, keeps the same draws
        and makes the same calls on ``rng``.
        """
        p = self.characteristic
        bits, getrandbits = p.bit_length(), rng.getrandbits
        residues = [r for r in map(getrandbits, repeat(bits, count)) if r < p]
        while len(residues) < count:
            r = getrandbits(bits)
            if r < p:
                residues.append(r)
        return residues


class _QuadraticField(FieldSpec):
    """GF(p)[t]/(t^2 - s*t - r): s = 0 and r the smallest non-residue for
    odd p, s = r = 1 (t^2 = t + 1) for p = 2."""

    def __init__(self, p: int = 0) -> None:
        self._set("characteristic", p)
        _require_prime(p)
        if p == 2:
            s = r = 1
        else:
            s = 0
            r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        # s and r follow from p, so they are not compared, hashed or shown
        self._set("_s", s)
        self._set("_r", r)

    def coerce(self, value) -> Element:
        """Accept an element already encoded as ``a + b*p``."""
        if isinstance(value, bool) or not isinstance(value, int) or not (
            0 <= value < self.characteristic * self.characteristic
        ):
            raise InputError(f"cannot coerce {value!r} into GF({self.characteristic}^2)")
        return value

    def add(self, x: Element, y: Element) -> Element:
        p = self.characteristic
        b, a = divmod(x, p)
        d, c = divmod(y, p)
        return (a + c) % p + (b + d) % p * p

    def sub(self, x: Element, y: Element) -> Element:
        p = self.characteristic
        b, a = divmod(x, p)
        d, c = divmod(y, p)
        return (a - c) % p + (b - d) % p * p

    def mul(self, x: Element, y: Element) -> Element:
        p = self.characteristic
        b, a = divmod(x, p)
        d, c = divmod(y, p)
        bd = b * d
        return (a * c + self._r * bd) % p + (a * d + b * c + self._s * bd) % p * p

    def inv(self, x: Element) -> Element:
        if not x:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.characteristic
        b, a = divmod(x, p)
        # the conjugate of a + b*t is (a + s*b) - b*t; their product is the norm
        conj = (a + self._s * b) % p
        norm_inv = pow((a * conj - self._r * b * b) % p, p - 2, p)
        return conj * norm_inv % p + (-b * norm_inv) % p * p

    @property
    def size(self) -> int:
        return self.characteristic * self.characteristic

    def elements(self) -> List[Element]:
        """Every element, real part major (the oracle's scan order)."""
        p = self.characteristic
        return [a + b * p for a in range(p) for b in range(p)]

    def random_element(self, rng: Random) -> Element:
        """Uniform: the real part is drawn first, then the t-coefficient."""
        p = self.characteristic
        return rng.randrange(p) + rng.randrange(p) * p


# ---------------------------------------------------------------------------
# Exact linear algebra over a FieldSpec
# ---------------------------------------------------------------------------


def rref(
    rows: Sequence[Sequence[Element]], field: FieldSpec
) -> Tuple[List[List[Element]], List[int]]:
    """Reduced row echelon form of ``rows`` and its pivot columns."""
    work = [list(row) for row in rows]
    n_cols = len(work[0]) if work else 0
    pivots: List[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [field.mul(x, inv) for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(work[r], work[rank])
                ]
        pivots.append(col)
        rank += 1
    return work, pivots

