"""Differential checks of the gcd, the squarefree part and the support
level against a reference.

The reference is the earlier implementation: a gcd by primitive
remainder sequences, recursing on one slot at a time through contents
and pseudo-remainders, and a squarefree part that first tests a
polynomial in one slot for coprimality with its derivative by a dense
Euclid.  Monic gcds and monic squarefree parts are unique, so
``poly_gcd`` and ``squarefree_part`` must return exactly the reference
values: on random products with a common factor, and on every call the
engine makes while solving the demo problems.  A squarefree part comes
out marked, and a marked polynomial comes back as itself: the mark must
sit only on polynomials that equal their reference squarefree part.
``support_level`` reads the lead alone and must agree with a scan of
every term.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from p1parts import groebner, multiproj, poly
from p1parts.multiproj import partition_variety
from p1parts.parser import parse_problem
from p1parts.poly import (
    Polynomial, _pth_root, derivative, exact_div, poly_gcd,
    squarefree_part, support_level,
)

from test_groebner_reference import FIELDS, polynomials

DEMO_PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


# -- reference implementation ----------------------------------------------------

def _coeffs_in(f: Polynomial, pos: int):
    """Split f by the exponent of one slot: degree -> coefficient poly."""
    field = f.field
    buckets = {}
    for mono, c in f.terms.items():
        e = mono[pos]
        stripped = mono[:pos] + (0,) + mono[pos + 1:]
        buckets.setdefault(e, {})[stripped] = c
    return {e: Polynomial._raw(field, f.nslots, t) for e, t in buckets.items()}


def _content_in(f: Polynomial, pos: int) -> Polynomial:
    parts = _coeffs_in(f, pos)
    g = Polynomial.zero(f.field, f.nslots)
    for e in sorted(parts):
        g = ref_poly_gcd(g, parts[e])
        if g.is_constant() and not g.is_zero():
            break
    return g


def _pseudo_rem(f: Polynomial, g: Polynomial, pos: int) -> Polynomial:
    """Pseudo-remainder of f by g viewed as univariate in one slot."""
    dg = g.degree_in(pos)
    lc_g = _coeffs_in(g, pos)[dg]
    df = f.degree_in(pos)
    while not f.is_zero() and df >= dg:
        lc_f = _coeffs_in(f, pos)[df]
        shift = Polynomial.var(f.field, f.nslots, pos, exp=df - dg) \
            if df > dg else Polynomial.const(f.field, f.nslots, 1)
        f = lc_g * f - shift * lc_f * g
        df = f.degree_in(pos)
    return f


def ref_poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by primitive remainder sequences, one variable at a time."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f._check(g)
    one = Polynomial.const(f.field, f.nslots, 1)
    if f.is_constant() or g.is_constant():
        return one
    pos = min(min(f.occurring_slots()), min(g.occurring_slots()))
    if f.degree_in(pos) == 0:
        return ref_poly_gcd(f, _content_in(g, pos))
    if g.degree_in(pos) == 0:
        return ref_poly_gcd(_content_in(f, pos), g)
    cf = _content_in(f, pos)
    cg = _content_in(g, pos)
    c = ref_poly_gcd(cf, cg)
    a = exact_div(f, cf)
    b = exact_div(g, cg)
    if a.degree_in(pos) < b.degree_in(pos):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, pos)
        if not r.is_zero():
            r = exact_div(r, _content_in(r, pos))
        a, b = b, r
    return (c * a).monic()


def _dense_rem(a: list, b: list, p: int) -> list:
    """Remainder of dense coefficient lists, lowest degree first.

    A copy of the engine's helper, so that no reference result rests on
    the code it is compared with.  A rational coefficient may be an int,
    so the inverse is taken as a Fraction, never by ``1 / int``.
    """
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p) if p else Fraction(1) / b[-1]
    while len(a) > db:
        q = a.pop() * inv
        shift = len(a) - db
        for i in range(db):
            v = a[shift + i] - q * b[i]
            a[shift + i] = v % p if p else v
        while a and not a[-1]:
            a.pop()
    return a


def _coprime_to_derivative(f: Polynomial, pos: int) -> bool:
    """gcd(f, f') = 1 for f nonconstant in the one slot pos, by dense Euclid."""
    p = f.field.characteristic
    a = [0] * (f.degree_in(pos) + 1)
    for mono, c in f.terms.items():
        a[mono[pos]] = c
    b = [i * c % p if p else i * c for i, c in enumerate(a)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _dense_rem(a, b, p)
    return len(a) == 1


def ref_squarefree_part(f: Polynomial) -> Polynomial:
    """The product of the distinct irreducible factors of f, monic.

    Computed from gcds of f with its partial derivatives; in positive
    characteristic exact p-th powers are peeled off by exponent division
    first, and factors whose multiplicity the derivatives miss are
    recovered recursively.  A polynomial in one slot is first tested with
    a dense-coefficient Euclid: coprime to its derivative, it is its own
    squarefree part, and only otherwise do the multivariate gcds run.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    f = f.monic()
    if f.is_constant():
        return f
    p = f.field.characteristic
    if p:
        while all(e % p == 0 for mono in f.terms for e in mono):
            f = _pth_root(f, p)
        if f.is_constant():
            return f
    slots = f.occurring_slots()
    if len(slots) == 1 and _coprime_to_derivative(f, min(slots)):
        return f
    g = f
    for pos in sorted(slots):
        d = derivative(f, pos)
        if not d.is_zero():
            g = ref_poly_gcd(g, d)
            if g.is_constant():
                return f
    w = exact_div(f, g).monic()
    s = ref_squarefree_part(g)
    extra = exact_div(s, ref_poly_gcd(s, w))
    return (w * extra).monic()


def ref_support_level(f: Polynomial) -> int:
    """Highest slot index occurring in f, 0 for a constant, from every term."""
    slots = f.occurring_slots()
    return f.nslots - min(slots) if slots else 0


# -- properties ----------------------------------------------------------------

@st.composite
def factors(draw):
    """Three polynomials of at most 3 terms and total degree at most 2 in
    one to four slots: a size the reference finishes."""
    field = draw(st.sampled_from(FIELDS))
    nslots = draw(st.integers(1, 4))
    return [draw(polynomials(field, nslots, max_degree=2)) for _ in range(3)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(factors())
def test_gcd_matches_reference(drawn):
    a, b, h = drawn
    assert poly_gcd(a * h, b * h) == ref_poly_gcd(a * h, b * h)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(factors())
def test_squarefree_part_matches_reference(drawn):
    a, _, h = drawn
    s = squarefree_part(a * h ** 2)
    assert s == ref_squarefree_part(a * h ** 2)
    assert squarefree_part(s) == s == ref_squarefree_part(s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_support_level_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    nslots = data.draw(st.integers(1, 8))
    f = data.draw(polynomials(field, nslots))
    for g in (f, Polynomial.zero(field, nslots), Polynomial.const(field, nslots, 1)):
        assert support_level(g) == ref_support_level(g)


# The modules that bind each function; every binding is wrapped, so calls
# from multiproj and groebner are caught as well as recursive ones in poly.
BINDINGS = {name: [m for m in (poly, groebner, multiproj) if hasattr(m, name)]
            for name in ("poly_gcd", "squarefree_part")}


@pytest.mark.parametrize("radical", [True, False])
def test_demo_calls_match_reference(monkeypatch, radical):
    calls = {"poly_gcd": set(), "squarefree_part": set()}

    def recording(name, real):
        def wrapper(*args):
            calls[name].add(args)
            return real(*args)
        return wrapper

    for name, modules in BINDINGS.items():
        real = getattr(poly, name)
        for module in modules:
            monkeypatch.setattr(module, name, recording(name, real))
    for path in sorted(DEMO_PROBLEMS.glob("*.txt")):
        partition_variety(parse_problem(path.read_text()), radical=radical)
    monkeypatch.undo()
    assert calls["poly_gcd"] and calls["squarefree_part"]
    for args in calls["poly_gcd"]:
        assert poly_gcd(*args) == ref_poly_gcd(*args)
    for (f,) in calls["squarefree_part"]:
        assert squarefree_part(f) == ref_squarefree_part(f)
