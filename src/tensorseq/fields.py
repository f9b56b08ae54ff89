"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values (`Fraction` for the rationals, `int` in
``[0, p)`` for F_p); a `Field` object, the one ring interface, supplies
the arithmetic.  Everything is exact: rationals stay in lowest terms
with positive denominator (the `Fraction` invariant), prime-field values
stay reduced mod p.  A private integer ring, `_ZZ`, serves the two M
computations whose one result holds over every field: the M->T->S
certificate (`mseq`) and the RREF of M's relations, the quotient that
`bimodule.normal_form` reduces into each field.

`zero` and `one` are class constants, so a ring hands out one object for
each: every zero entry of every `bimodule.normal_form` answer over Q is
the same `Fraction(0)`, and an answer stores that zero once beside its
nonzero entries.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]


# Miller-Rabin to the first 13 prime bases, 2..41, is exact below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; a modulus at or
    above `_MR_BOUND`, where no fixed base set is proven, is a ValueError.

    >>> _is_prime(2**61 - 1), _is_prime(561), _is_prime(2**61 + 1)
    (True, False, False)
    """
    if p >= _MR_BOUND:
        raise ValueError(f"modulus {p} is too large: primality is decided below {_MR_BOUND}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The one ring interface for exact scalars.  Subclasses are immutable.

    `add`, `mul` and `neg` are Python's exact operators, right for
    the rationals and the integers; `PrimeField` reduces them mod p.
    `is_unit` is what a certificate asks of a coefficient that must stay
    invertible in every field it stands for.  Rings are equal when they
    have the same type and name."""

    name: str
    char: int  # 0 for the rationals (and `_ZZ`), p for F_p
    zero: Scalar
    one: Scalar

    add = operator.add
    mul = operator.mul
    neg = operator.neg

    def normalize(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def coerce(self, x) -> Scalar:
        """Accept an int, Fraction, or numeric string and normalize it;
        any other value, a float or a `Decimal` say, is a ValueError."""
        if isinstance(x, str):
            return self.parse(x)
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"coefficient {x!r} is not an int, Fraction or numeric string")
        return self.normalize(x)

    def is_unit(self, x: Scalar) -> bool:
        """True iff x is invertible: in a field, iff it is nonzero."""
        return self.normalize(x) != 0

    def inv(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, x: Scalar, y: Scalar) -> Scalar:
        return self.mul(x, self.inv(y))

    def parse(self, s: str) -> Scalar:
        raise NotImplementedError

    def fmt(self, x: Scalar) -> str:
        return str(self.normalize(x))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    """The field of rationals; scalars are `fractions.Fraction`."""

    name = "Q"
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def parse(self, s: str) -> Fraction:
        s = s.strip()
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {s!r} has a zero denominator") from None


class PrimeField(Field):
    """The prime field F_p; scalars are ints in ``[0, p)``."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p

    def normalize(self, x) -> int:
        if isinstance(x, Fraction):
            # a/b makes sense in F_p whenever p does not divide b
            den = x.denominator % self.p
            if den == 0:
                raise ValueError(f"coefficient {x} has a denominator divisible by {self.p}")
            return self.div(x.numerator % self.p, den)
        return x % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def parse(self, s: str) -> int:
        """An integer or a ratio of integers, "a/b" with b prime to p; a
        decimal such as "0.5" or "1e3" is a ValueError."""
        s = s.strip()
        num, slash, den = s.partition("/")
        try:
            num = int(num)
            den = int(den) if slash else 1
        except ValueError:
            raise ValueError(f"coefficient {s!r} is not an integer or a ratio of integers, "
                             f"as {self.name} requires") from None
        den %= self.p
        if den == 0:
            raise ValueError(f"coefficient {s!r} has a denominator divisible by {self.p}")
        return self.div(num % self.p, den) if slash else num % self.p


class _IntegerRing(Field):
    """The integers, for computations whose result holds over every field
    at once (the M certificate, see `mseq`, and the M quotient, see
    `bimodule.build_context`): scalars are ints and the units are +-1.
    `inv` inverts only those, so an elimination over the integers, which
    sends a pivot other than 1 through `Field.inv` (`linalg`), raises
    rather than divide.  No command offers it as a field."""

    name = "Z"
    char = 0
    zero = 0
    one = 1

    def normalize(self, x) -> int:
        return operator.index(x)

    def is_unit(self, x) -> bool:
        return x in (1, -1)

    def inv(self, x) -> int:
        if self.is_unit(x):
            return x
        raise ValueError(f"{x} is not a unit of the integers")


QQ = RationalField()
_ZZ = _IntegerRing()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(name: str) -> Field:
    """Parse a field name: ``q`` / ``Q`` for the rationals, ``f<p>`` for F_p.

    >>> parse_field("q").name
    'Q'
    >>> parse_field("F5").char
    5
    """
    s = name.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if s.startswith("f") and s[1:].isdecimal():
        return GF(int(s[1:]))
    raise ValueError(f"unknown field {name!r} (expected 'q' or 'f<prime>')")
