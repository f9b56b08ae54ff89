import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorseq.fields import _MR_BOUND, GF, QQ, _is_prime, parse_field

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_parse_field_names():
    assert parse_field("q") is QQ or parse_field("q") == QQ
    assert parse_field("F7").char == 7
    with pytest.raises(ValueError):
        parse_field("f6")
    with pytest.raises(ValueError):
        parse_field("r")


def test_prime_validation():
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(91)  # 7 * 13
    assert GF(2).p == 2 and GF(97).p == 97


def test_large_prime_moduli_are_decided_quickly():
    """Deterministic Miller-Rabin: a Mersenne prime far beyond trial
    division is accepted at once; a Carmichael number and 2^61 + 1 (a
    multiple of 3) are rejected; a modulus beyond the proven bound is a
    ValueError rather than a guess."""
    start = time.perf_counter()
    assert parse_field("f2305843009213693951").char == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    for composite in (561, 2**61 + 1):
        with pytest.raises(ValueError, match="is not prime"):
            GF(composite)
    with pytest.raises(ValueError, match="too large"):
        GF(_MR_BOUND)


def test_is_prime_matches_trial_division():
    def by_trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    assert [p for p in range(5000) if _is_prime(p)] == [p for p in range(5000) if by_trial(p)]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, and Carmichael numbers
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461,
                      41041, 825265, 321197185):
        assert not _is_prime(composite)


def test_rational_normalization():
    x = QQ.normalize(Fraction(4, -6))
    assert x.numerator == -2 and x.denominator == 3
    assert QQ.parse("-8/12") == Fraction(-2, 3)
    assert QQ.fmt(Fraction(5, 1)) == "5"


def test_prime_field_normalization_and_parse():
    f5 = GF(5)
    assert f5.normalize(-1) == 4
    assert f5.normalize(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.parse("7/3") == f5.div(2, 3)
    assert f5.fmt(9) == "4"


@pytest.mark.parametrize("p,value", [(3, Fraction(1, 3)), (5, Fraction(-7, 10)),
                                     (2, Fraction(3, 4))])
def test_prime_field_rejects_a_fraction_the_modulus_cannot_divide_by(p, value):
    """A denominator divisible by p is a bad value, not an arithmetic
    failure: normalize and coerce raise ValueError naming value and p."""
    f = GF(p)
    message = f"coefficient {value} has a denominator divisible by {p}"
    with pytest.raises(ValueError, match=message):
        f.normalize(value)
    with pytest.raises(ValueError, match=message):
        f.coerce(value)
    assert f.normalize(Fraction(p + 1, p + 1)) == 1


def test_field_equality_and_hash():
    assert GF(3) == GF(3) and GF(3) != GF(5) and QQ != GF(2)
    assert len({QQ, GF(3), GF(3), GF(5)}) == 3


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    f = QQ
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a:
        assert f.mul(a, f.inv(a)) == f.one


@pytest.mark.parametrize("p", [2, 3, 5, 13])
@given(data=st.data())
def test_prime_field_axioms(p, data):
    f = GF(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_parse_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="coefficient '1/0' has a zero denominator"):
        QQ.parse(" 1/0 ")
    for text in ("1/3", "2/0", "1/-6"):
        with pytest.raises(ValueError, match=f"coefficient '{text}' has a denominator divisible by 3"):
            GF(3).parse(text)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_coerce_takes_only_exact_values(field):
    """`coerce` accepts an int, a `Fraction` or a numeric string; a float
    or a `Decimal` is a ValueError naming it, not a silent binary value."""
    assert field.coerce(3) == field.coerce(Fraction(3)) == field.coerce("3") == field.normalize(3)
    for value in (0.1, 0.5, 1.0, Decimal("0.5"), None, [1]):
        with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(value))} is not"):
            field.coerce(value)
