from fractions import Fraction

from badapprox.quadratic import QuadraticNumber
from badapprox.render import decimal_str


def test_integers_and_exact_decimals():
    assert decimal_str(Fraction(2)) == "2"
    assert decimal_str(Fraction(1, 2)) == "0.5"
    assert decimal_str(Fraction(-1, 4)) == "-0.25"
    assert decimal_str(Fraction(0)) == "0"


def test_rounding_to_significant_digits():
    assert decimal_str(Fraction(1, 3)) == "0.3333333333"
    assert decimal_str(Fraction(2, 3)) == "0.6666666667"
    assert decimal_str(Fraction(1, 3), 3) == "0.333"
    assert decimal_str(Fraction(10000, 3)) == "3333.333333"


def test_trailing_zeros_stripped():
    # 13/21 = 0.6190476190..., the zero before the last digit survives
    assert decimal_str(Fraction(13, 21)) == "0.619047619"
    assert decimal_str(Fraction(1, 8), 5) == "0.125"


def test_scientific_fallback():
    assert decimal_str(Fraction(1, 10**12), 4) == "1e-12"
    assert decimal_str(Fraction(3, 2 * 10**13), 3) == "1.5e-13"
    assert decimal_str(Fraction(10**25), 4) == "1e+25"


def test_quadratic_rendering():
    golden = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)
    assert decimal_str(golden) == "0.6180339887"
    assert decimal_str(QuadraticNumber.sqrt(5)) == "2.236067977"
    assert decimal_str(QuadraticNumber.sqrt(2), 15) == "1.4142135623731"


def test_halfway_rounding_is_deterministic():
    assert decimal_str(Fraction(25, 1000), 1) == "0.02"
    assert decimal_str(Fraction(35, 1000), 1) == "0.04"


def test_small_quadratic_keeps_every_digit():
    # sqrt(2) less its first 19 digits leaves 8.0168872421e-19: an absolute
    # error of 10**-(sig+5) would leave no correct digit at all.
    tail = QuadraticNumber.sqrt(2) - Fraction(1414213562373095048, 10**18)
    assert decimal_str(tail) == "8.016887242e-19"
    assert decimal_str(-tail, 4) == "-8.017e-19"
    assert decimal_str(QuadraticNumber.sqrt(5) - QuadraticNumber.sqrt(5)) == "0"
