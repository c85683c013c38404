"""Exact arithmetic and ordering in quadratic fields."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badapprox.quadratic import QuadraticNumber, squarefree_decompose

GOLDEN_CONJ = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(45) == (3, 5)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(30) == (1, 30)


def test_normalization():
    assert QuadraticNumber.sqrt(8) == QuadraticNumber(0, 2, 2)
    assert QuadraticNumber(1, 3, 4) == QuadraticNumber(7)  # sqrt(4) folds
    x = QuadraticNumber(Fraction(1, 2), 0, 7)
    assert x.d == 1 and x.is_rational
    with pytest.raises(ValueError):
        QuadraticNumber(0, 1, 0)
    with pytest.raises(ValueError):
        QuadraticNumber.sqrt(-2)


def test_immutability():
    x = QuadraticNumber.sqrt(2)
    with pytest.raises(AttributeError):
        x.a = Fraction(1)


def test_golden_identities():
    th = GOLDEN_CONJ
    assert th * th == 1 - th  # theta^2 + theta = 1
    assert th.inverse() == 1 + th
    assert th**2 + th**1 == 1
    assert (1 / th) - th == QuadraticNumber(1)
    assert th.conjugate() == QuadraticNumber(Fraction(-1, 2), Fraction(-1, 2), 5)


def test_pow_negative():
    th = GOLDEN_CONJ
    assert th**-1 == th.inverse()
    assert th**-3 == (th**3).inverse()
    assert th**0 == QuadraticNumber(1)


def test_mixed_radicand_comparison():
    r2 = QuadraticNumber.sqrt(2)
    r3 = QuadraticNumber.sqrt(3)
    assert r2 < r3
    assert 1 + r2 < QuadraticNumber.sqrt(6)  # 2.414... < 2.449...
    assert QuadraticNumber.sqrt(6) < 1 + r3
    assert not (1 + r2 < 1 + r2)
    # equality only through rational collapse
    assert QuadraticNumber(2, 0, 3) == QuadraticNumber(2, 0, 5) == 2


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError, match="mix radicands"):
        QuadraticNumber.sqrt(2) + QuadraticNumber.sqrt(3)
    with pytest.raises(ValueError, match="mix radicands"):
        QuadraticNumber.sqrt(2) * QuadraticNumber.sqrt(3)


def test_floor_known_values():
    assert QuadraticNumber.sqrt(2).floor() == 1
    assert QuadraticNumber.sqrt(99).floor() == 9
    assert GOLDEN_CONJ.floor() == 0
    assert (-GOLDEN_CONJ).floor() == -1
    assert (GOLDEN_CONJ + 5).floor() == 5
    assert QuadraticNumber(Fraction(-7, 2)).floor() == -4
    # value a hair under an integer: 3 - sqrt(5) + sqrt(5) style traps
    x = QuadraticNumber(3, -1, 5)  # 0.7639...
    assert x.floor() == 0
    assert (x * 100).floor() == 76


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13])


@given(a=fractions_st, b=fractions_st, d=radicands)
def test_floor_bracket(a, b, d):
    x = QuadraticNumber(a, b, d)
    f = x.floor()
    assert QuadraticNumber(f) <= x < QuadraticNumber(f + 1)


@given(a=fractions_st, b=fractions_st, d=radicands)
def test_float_agrees_with_floor(a, b, d):
    x = QuadraticNumber(a, b, d)
    approx = float(x)
    assert abs(approx - x.floor()) <= 1.0 + 1e-9


@given(a=fractions_st, b=fractions_st, d=radicands)
@settings(max_examples=60)
def test_inverse_roundtrip(a, b, d):
    x = QuadraticNumber(a, b, d)
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == 1
    assert x + (-x) == 0
    assert (x - x).sign() == 0


@given(a=fractions_st, b=fractions_st, d=radicands, e=radicands)
@settings(max_examples=60)
def test_comparison_antisymmetry(a, b, d, e):
    x = QuadraticNumber(a, b, d)
    y = QuadraticNumber(b, a, e)
    assert (x < y) + (y < x) + (x == y) == 1


def test_sign_near_miss():
    # 49/20 sits 5e-4 above sqrt(6); the sign must still come out exact
    x = QuadraticNumber(Fraction(49, 20), -1, 6)
    assert x.sign() > 0
    y = QuadraticNumber(Fraction(-49, 20), 1, 6)
    assert y.sign() < 0
    # 1393/985 is a convergent of sqrt(2), 3.7e-7 below it
    assert QuadraticNumber(Fraction(1393, 985)) < QuadraticNumber.sqrt(2)
    # mixed radicands separated by 4e-8, decided by squaring twice
    near = QuadraticNumber(Fraction(3178372, 10**7), 1, 2)
    assert near < QuadraticNumber.sqrt(3)
    assert QuadraticNumber(Fraction(3178373, 10**7), 1, 2) > QuadraticNumber.sqrt(3)


def test_as_fraction():
    assert QuadraticNumber(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        QuadraticNumber.sqrt(2).as_fraction()
    approx = QuadraticNumber.sqrt(2).as_fraction_approx(20)
    assert abs(approx * approx - 2) < Fraction(1, 10**19)
    # the error bound holds whatever the size of the sqrt coefficient
    big = QuadraticNumber(Fraction(1, 3), -(10**12) - Fraction(1, 7), 5)
    assert abs(big - big.as_fraction_approx(15)) < Fraction(1, 10**15)


def test_hash_consistency():
    assert hash(QuadraticNumber(3)) == hash(3)
    s = {QuadraticNumber.sqrt(2), QuadraticNumber(0, 2, 2), QuadraticNumber.sqrt(8)}
    assert len(s) == 2
