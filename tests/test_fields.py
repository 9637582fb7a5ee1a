from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from p1parts.fields import GF, QQ, Field, FieldError
from p1parts.multiproj import partition_variety
from p1parts.parser import parse_problem
from p1parts.poly import Polynomial

from test_multiproj_reference import random_problem


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
    a, b = Fraction(1, 2), Fraction(1, 3)
    assert QQ.add(a, b) == Fraction(5, 6)
    assert QQ.sub(a, b) == Fraction(1, 6)
    assert QQ.mul(a, b) == Fraction(1, 6)
    assert QQ.div(a, b) == Fraction(3, 2)


def test_field_arith_prime_field():
    F5 = GF(5)
    assert F5.mul(3, 4) == 2  # 12 mod 5
    assert F5.add(3, 4) == 2 and F5.sub(3, 4) == 4

    F7 = GF(7)
    # derived by exhaustive inverse search: inv(3) mod 7
    assert brute_inverse(3, 7) == 5
    assert F7.div(2, 3) == 2 * brute_inverse(3, 7) % 7 == 3


def test_field_arith_errors():
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(7).div(1, 0)
    # mixing fields is caught where values carry their field: polynomials
    with pytest.raises(FieldError):
        Polynomial.const(QQ, 1, 1) + Polynomial.const(GF(5), 1, 1)


def test_prime_field_inv():
    F7 = GF(7)
    assert F7.inv(1) == 1
    assert F7.inv(3) == brute_inverse(3, 7)
    assert GF(5).inv(4) == brute_inverse(4, 5) == 4
    for p in (2, 3, 5, 7, 11, 13):
        assert all(GF(p).inv(a) == brute_inverse(a, p) for a in range(1, p))
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def exact(value, kind):
    """The value, after checking it has exactly the given type."""
    assert type(value) is kind, (value, kind)
    return value


def test_canonical_forms():
    # a rational is an int when integral, else a Fraction; never a float
    assert exact(QQ.coerce(3), int) == 3
    assert exact(QQ.coerce(Fraction(6, 3)), int) == 2
    assert exact(QQ.coerce(Fraction(6, 4)), Fraction) == Fraction(3, 2)
    assert exact(QQ.zero(), int) == 0 and exact(QQ.one(), int) == 1
    assert exact(QQ.inv(2), Fraction) == Fraction(1, 2)
    assert exact(QQ.inv(Fraction(1, 2)), int) == 2
    assert exact(QQ.inv(-1), int) == -1
    assert exact(QQ.div(1, 3), Fraction) == Fraction(1, 3)
    assert exact(QQ.div(4, 2), int) == 2
    assert exact(QQ.div(Fraction(3, 2), Fraction(3, 4)), int) == 2
    half = Fraction(1, 2)
    assert exact(QQ.add(half, half), int) == 1
    assert exact(QQ.sub(Fraction(3, 2), half), int) == 1
    assert exact(QQ.mul(half, 2), int) == 1
    assert GF(5).coerce(12) == 2
    assert GF(5).coerce(-1) == 4
    assert GF(5).coerce(Fraction(1, 2)) == brute_inverse(2, 5) == 3
    # equal values are identical after normalization
    assert QQ.coerce(Fraction(2, 4)) == QQ.coerce(Fraction(1, 2))


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
            GF(7).coerce(bad)
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


def rational_problems():
    yield parse_problem("char 0\nn 3\nform x\nideal:\n"
                        "x_1*(x_3^2*x_2+x_3+1)\nx_3*(x_3^2*x_2+x_3+1)\n")
    yield parse_problem("char 0\nn 4\nform x\nideal:\nx_1*x_4-x_2*x_3\n")
    for seed in range(100):
        problem = random_problem(seed)
        if problem.field == QQ:
            yield problem


@pytest.mark.parametrize("radical", [True, False])
def test_tree_coefficients_exact(radical):
    # every coefficient of every rational tree is canonical: an int, or a
    # Fraction that is not integral
    checked = 0
    for problem in rational_problems():
        for part in partition_variety(problem, radical=radical).nodes:
            for f in (*part.eq.generators, *part.neq):
                assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
                           for c in f.terms.values()), f
                checked += 1
    assert checked > 1000
