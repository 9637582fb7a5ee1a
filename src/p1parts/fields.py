"""Exact coefficient arithmetic over the rationals and over prime fields.

Every computation in this package is exact: characteristic 0 uses
arbitrary-precision rationals, characteristic p uses canonical residues
(ints in ``[0, p)``).  A :class:`Field` instance supplies the arithmetic;
it never rounds.  A canonical rational is an ``int`` when it is integral
and a ``Fraction`` with denominator above 1 otherwise, so the usual
coefficients 1, -1 and 2 stay native ints and most arithmetic never
enters the pure-Python ``fractions`` module.  An int and an integral
``Fraction`` compare, hash and print alike, so a value that some inline
arithmetic leaves as an integral ``Fraction`` is still correct.
"""

from __future__ import annotations

from fractions import Fraction

# keeps _is_prime's trial division under about 23,000 odd divisors
MAX_CHARACTERISTIC = 2**31


class FieldError(ValueError):
    """Invalid field construction or an operation mixing distinct fields."""


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


def _rational(x):
    """Canonical rational value of an int or a Fraction: an int when integral."""
    if x.denominator == 1:
        return x.numerator  # an int, for a bool too
    return x


class Field:
    """The rationals (characteristic 0) or the prime field F_p.

    Raw values over the rationals are ``int`` when integral and
    ``Fraction`` otherwise; over F_p they are ``int`` residues.  Every
    method returns these canonical forms from canonical arguments, and
    never a float: ``/`` between two ints would give one.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0:
            if characteristic >= MAX_CHARACTERISTIC:
                raise FieldError(
                    f"characteristic {characteristic} too large (must be < 2^31)")
            if not _is_prime(characteristic):
                raise FieldError(f"characteristic {characteristic} is not prime")
        self.characteristic = characteristic

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        if self.characteristic == 0:
            return "QQ"
        return f"GF({self.characteristic})"

    # -- raw value helpers -------------------------------------------------

    def coerce(self, x):
        """Coerce an int or a Fraction (raw values are both) into canonical form.

        Anything else raises FieldError: a float has already been rounded,
        so there is no exact value left to recover.
        """
        if not isinstance(x, (int, Fraction)):
            raise FieldError(
                f"coefficient {x!r} is not exact: use an int or a Fraction")
        p = self.characteristic
        if p == 0:
            return _rational(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        if self.characteristic == 0:
            return _rational(a + b)
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return _rational(a - b)
        return (a - b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return _rational(a * b)
        return (a * b) % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            return _rational(Fraction(a.denominator, a.numerator))
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        if self.characteristic == 0:
            return _rational(Fraction(a.numerator * b.denominator,
                                      a.denominator * b.numerator))
        return a * pow(b, -1, self.characteristic) % self.characteristic


QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field with p elements."""
    if p == 0:
        raise FieldError("GF(0) is not a field; use QQ for characteristic 0")
    return Field(p)
