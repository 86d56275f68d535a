import math
from fractions import Fraction

import pytest

from timedplan.rational import as_fraction, decimal_str, frac_str


def test_as_fraction_reads_decimal_literals_exactly():
    assert as_fraction(0.2) == Fraction(1, 5)
    assert as_fraction("0.2") == Fraction(1, 5)
    assert as_fraction("1/5") == Fraction(1, 5)
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(7, 4)) == Fraction(7, 4)
    with pytest.raises(ValueError):
        as_fraction(math.inf)
    with pytest.raises(TypeError):
        as_fraction(object())


def test_frac_str():
    assert frac_str(Fraction(1, 20)) == "1/20"
    assert frac_str(Fraction(3)) == "3/1"


def test_decimal_str():
    assert decimal_str(Fraction(1, 20)) == "0.05"
    assert decimal_str(Fraction(5)) == "5"
    assert decimal_str(Fraction(-3, 8)) == "-0.375"
    assert decimal_str(Fraction(1, 3)) == "1/3"  # non-terminating

