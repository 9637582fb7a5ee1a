"""Exact coefficient arithmetic over the rationals and over prime fields.

Every computation in this package is exact: characteristic 0 uses
arbitrary-precision ``Fraction`` values, characteristic p uses canonical
residues (ints in ``[0, p)``).  A :class:`Field` instance supplies the
arithmetic; it never rounds.
"""

from __future__ import annotations

from fractions import Fraction

MAX_CHARACTERISTIC = 2**31  # residue products must fit 64-bit intermediates


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


class Field:
    """The rationals (characteristic 0) or the prime field F_p.

    Raw values are ``Fraction`` over the rationals and ``int`` residues
    over F_p.  Both forms are canonical, so equal values compare equal.
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
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            return 1 / a
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        if self.characteristic == 0:
            return a / b
        return a * pow(b, -1, self.characteristic) % self.characteristic


QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field with p elements."""
    if p == 0:
        raise FieldError("GF(0) is not a field; use QQ for characteristic 0")
    return Field(p)
