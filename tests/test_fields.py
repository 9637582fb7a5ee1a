from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from p1parts.fields import (
    GF, QQ, Coefficient, Field, FieldError, field_arith, prime_field_inv,
)
from p1parts.poly import Polynomial


def brute_inverse(a, p):
    # independent oracle: exhaustive search for the inverse
    for b in range(1, p):
        if a * b % p == 1:
            return b
    raise AssertionError(f"{a} has no inverse mod {p}")


def test_field_construction():
    assert Field(0).characteristic == 0
    assert Field(7).characteristic == 7
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(1)
    with pytest.raises(FieldError):
        Field(2**31)
    assert GF(2).characteristic == 2
    with pytest.raises(FieldError):
        GF(0)


def test_field_arith_rationals():
    a = Coefficient(QQ, Fraction(1, 2))
    b = Coefficient(QQ, Fraction(1, 3))
    assert field_arith(a, b, "add").value == Fraction(5, 6)
    assert field_arith(a, b, "sub").value == Fraction(1, 6)
    assert field_arith(a, b, "mul").value == Fraction(1, 6)
    assert field_arith(a, b, "div").value == Fraction(3, 2)


def test_field_arith_prime_field():
    F5 = GF(5)
    a = Coefficient(F5, 3)
    b = Coefficient(F5, 4)
    assert field_arith(a, b, "mul").value == 2  # 12 mod 5

    F7 = GF(7)
    # derived by exhaustive inverse search: inv(3) mod 7
    assert brute_inverse(3, 7) == 5
    two_thirds = field_arith(Coefficient(F7, 2), Coefficient(F7, 3), "div")
    assert two_thirds.value == 2 * brute_inverse(3, 7) % 7 == 3


def test_field_arith_errors():
    a = Coefficient(QQ, 1)
    b = Coefficient(GF(5), 1)
    with pytest.raises(FieldError):
        field_arith(a, b, "add")
    with pytest.raises(ZeroDivisionError):
        field_arith(a, Coefficient(QQ, 0), "div")
    with pytest.raises(ValueError):
        field_arith(a, a, "pow")


def test_prime_field_inv():
    F7 = GF(7)
    assert prime_field_inv(Coefficient(F7, 1), 7).value == 1
    assert prime_field_inv(Coefficient(F7, 3), 7).value == brute_inverse(3, 7)
    assert prime_field_inv(Coefficient(GF(5), 4), 5).value == brute_inverse(4, 5) == 4
    with pytest.raises(ZeroDivisionError):
        prime_field_inv(Coefficient(F7, 0), 7)
    with pytest.raises(FieldError):
        prime_field_inv(Coefficient(F7, 3), 5)


def test_canonical_forms():
    assert Coefficient(QQ, Fraction(6, 4)).value == Fraction(3, 2)
    assert Coefficient(GF(5), 12).value == 2
    assert Coefficient(GF(5), -1).value == 4
    # equal values are identical after normalization
    assert Coefficient(QQ, Fraction(2, 4)) == Coefficient(QQ, Fraction(1, 2))


def test_inexact_coefficients_rejected():
    # a float must not round to zero over F_5 ...
    with pytest.raises(FieldError):
        Polynomial(GF(5), 1, {(1,): 0.5})
    # ... nor become a 55-bit binary fraction over QQ
    with pytest.raises(FieldError):
        Polynomial(QQ, 1, {(1,): 0.1})
    for bad in (1.0, "1", complex(1, 0)):
        with pytest.raises(FieldError):
            QQ.coerce(bad)
        with pytest.raises(FieldError):
            Coefficient(GF(7), bad)
    assert Polynomial(QQ, 1, {(1,): Fraction(1, 10)}).terms == {(1,): Fraction(1, 10)}
    assert Polynomial(GF(5), 1, {(1,): Fraction(1, 2)}).terms == {(1,): 3}


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    f = QQ
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if b:
        assert f.mul(b, f.inv(b)) == 1


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_prime_field_axioms(a, b, c):
    f = GF(7)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if b:
        assert f.mul(b, f.inv(b)) == 1
