"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values (`Fraction` for the rationals, `int` in
``[0, p)`` for F_p); a `Field` object supplies the arithmetic.  Everything
is exact: rationals stay in lowest terms with positive denominator (the
`Fraction` invariant), prime-field values stay reduced mod p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Arithmetic context for exact scalars.  Subclasses are immutable."""

    name: str
    char: int  # 0 for the rationals, p for F_p
    one: Scalar

    def normalize(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def coerce(self, x) -> Scalar:
        """Accept an int, Fraction, or numeric string and normalize it."""
        if isinstance(x, str):
            return self.parse(x)
        return self.normalize(x)

    @property
    def zero(self) -> Scalar:
        return self.normalize(0)

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, x: Scalar, y: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, x: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, x: Scalar, y: Scalar) -> Scalar:
        return self.mul(x, self.inv(y))

    def parse(self, s: str) -> Scalar:
        raise NotImplementedError

    def fmt(self, x: Scalar) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    """The field of rationals; scalars are `fractions.Fraction`."""

    name = "Q"
    char = 0
    one = Fraction(1)

    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def parse(self, s: str) -> Fraction:
        return Fraction(s.strip())

    def fmt(self, x) -> str:
        return str(Fraction(x))

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("Q")


class PrimeField(Field):
    """The prime field F_p; scalars are ints in ``[0, p)``."""

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
            return self.div(x.numerator % self.p, x.denominator % self.p)
        return x % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

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
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def fmt(self, x) -> str:
        return str(x % self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("F", self.p))


QQ = RationalField()


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
    if s.startswith("f") and s[1:].isdigit():
        return GF(int(s[1:]))
    raise ValueError(f"unknown field {name!r} (expected 'q' or 'f<prime>')")
