import random

import pytest
from hypothesis import given, settings, strategies as st

from p1parts import groebner
from p1parts.fields import GF, QQ, FieldError
from p1parts.poly import (
    Layout, Polynomial, ProjLayout, _pth_root, derivative, exact_div, lead_split,
    poly_gcd, squarefree_part, to_canonical_text,
)
from p1parts.parser import parse_polynomial

from test_poly_reference import ref_poly_gcd

L3 = ProjLayout(3)
L1 = ProjLayout(1)


def P(text, level=0, field=QQ):
    """Parse in L3 with the slots at or below ``level`` named z_k."""
    return parse_polynomial(text, L3.at_level(level), field)


# -- layout and monomial order ------------------------------------------------

def test_projective_layout_slots():
    assert L3.nslots == 6
    assert L3.names == ("y_6", "y_5", "y_4", "y_3", "y_2", "y_1")
    assert L3.y_pos(6) == 0 and L3.y_pos(1) == 5
    # freezing renames the lowest slots in place; positions do not move
    assert L3.at_level(2).names == ("y_6", "y_5", "y_4", "y_3", "z_2", "z_1")
    assert L3.at_level(6).names[0] == "z_6"
    assert L3.at_level(2).pos("z_2") == L3.pos("y_2") == L3.y_pos(2)
    with pytest.raises(ValueError):
        ProjLayout(3, 7)


@pytest.mark.parametrize("pos", [-1, 3, 5])
def test_var_rejects_out_of_range_position(pos):
    with pytest.raises(ValueError, match="out of range"):
        Polynomial.var(QQ, 3, pos)


# -- arithmetic ---------------------------------------------------------------

def test_mul():
    assert P("y_1+1") * P("y_1-1") == P("y_1^2-1")
    assert P("y_1+1") * Polynomial.zero(QQ, 6) == Polynomial.zero(QQ, 6)
    two = ProjLayout(1)
    f = parse_polynomial("y_2+y_1", two, GF(2))
    assert f * f == parse_polynomial("y_2^2+y_1^2", two, GF(2))  # cross terms cancel


def test_mul_field_mismatch():
    with pytest.raises(FieldError):
        P("y_1") * parse_polynomial("y_1", L3, GF(5))


def test_degree_in():
    ax = Layout.affine(3)
    f = parse_polynomial("x_3*(x_3^2*x_2+x_3+1)", ax, QQ)
    assert f.degree_in(ax.pos("x_3")) == 3
    assert f.degree_in(ax.pos("x_2")) == 1
    assert f.degree_in(ax.pos("x_1")) == 0
    five = Polynomial.const(QQ, 3, 5)
    assert five.degree_in(0) == 0
    assert Polynomial.zero(QQ, 3).degree_in(0) == -1


# -- lead split ---------------------------------------------------------------

def test_lead_split():
    level = 4
    boundary = L3.nslots - level  # first frozen position
    mono, coeff = lead_split(P("z_4*y_6^2+y_6+1", level), boundary)
    assert mono == (2, 0, 0, 0, 0, 0)
    assert coeff == P("z_4", level)

    mono, coeff = lead_split(P("y_6-1"), boundary)
    assert mono == (1, 0, 0, 0, 0, 0)
    assert coeff == P("1")

    mono, coeff = lead_split(P("z_2-1", level), boundary)
    assert mono == (0,) * 6  # fully frozen generator
    assert coeff == P("z_2-1", level)

    with pytest.raises(ValueError):
        lead_split(Polynomial.zero(QQ, 6), boundary)


@pytest.mark.parametrize("pos", [-1, 7])
def test_lead_split_rejects_out_of_range_position(pos):
    with pytest.raises(ValueError, match="out of range"):
        lead_split(P("y_6-1"), pos)


def test_lead_split_level_zero_is_ordinary_lead():
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(rng, L3)
        if f.is_zero():
            continue
        mono, coeff = lead_split(f, 6)
        assert mono == f.lead_monomial()
        assert coeff == Polynomial.const(QQ, 6, f.lead_coeff())


def ref_lead_split(f, first_frozen_pos):
    """The two-pass definition: the greatest live part over all terms,
    then the frozen parts of the terms that share it."""
    zeros_tail = (0,) * (f.nslots - first_frozen_pos)
    best = max(m[:first_frozen_pos] + zeros_tail for m in f.terms)
    coeff = {(0,) * first_frozen_pos + m[first_frozen_pos:]: c
             for m, c in f.terms.items()
             if m[:first_frozen_pos] + zeros_tail == best}
    return best, Polynomial(f.field, f.nslots, coeff)


@st.composite
def split_polynomials(draw):
    """A nonzero polynomial over QQ or F_5 in 2 to 8 slots, and a cut."""
    field = draw(st.sampled_from((QQ, GF(5))))
    nslots = draw(st.integers(2, 8))
    coeffs = st.integers(-3, 3) if field is QQ else st.integers(1, 4)
    monos = st.tuples(*[st.integers(0, 2)] * nslots)
    terms = draw(st.dictionaries(monos, coeffs.filter(bool), min_size=1,
                                 max_size=6))
    return Polynomial(field, nslots, terms), draw(st.integers(0, nslots))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(split_polynomials())
def test_lead_split_matches_two_pass_definition(drawn):
    f, cut = drawn
    assert lead_split(f, cut) == ref_lead_split(f, cut)


# -- gcd and squarefree parts ---------------------------------------------------

def euclid_gcd_univariate(f, g):
    # independent oracle for univariate gcds: plain remainder iteration
    while not g.is_zero():
        lm, lc = g.lead_monomial(), g.lead_coeff()
        while not f.is_zero() and all(a >= b for a, b in zip(f.lead_monomial(), lm)):
            shift = tuple(a - b for a, b in zip(f.lead_monomial(), lm))
            f = f - Polynomial(f.field, f.nslots,
                               {shift: f.field.div(f.lead_coeff(), lc)}) * g
        f, g = g, f
    return f.monic()


def test_gcd_univariate_matches_euclid():
    f = P("y_1^2-1")
    g = P("y_1^2-2*y_1+1")
    expected = euclid_gcd_univariate(f, g)
    assert expected == P("y_1-1")
    assert poly_gcd(f, g) == expected


def test_gcd_fixtures():
    assert poly_gcd(P("z_2*z_4", 6), P("z_2", 6)) == P("z_2", 6)
    assert poly_gcd(P("y_2+1"), P("y_1+1")) == P("1")
    assert poly_gcd(P("y_1^2-1"), Polynomial.zero(QQ, 6)) == P("y_1^2-1")


def test_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(rng, L3)
        g = random_poly(rng, L3)
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert exact_div(f, d) * d == f.monic().scale(f.lead_coeff())
        assert exact_div(g, d) * d == g


def test_gcd_common_factor():
    rng = random.Random(13)
    for _ in range(15):
        f = random_poly(rng, L3)
        g = random_poly(rng, L3)
        h = random_poly(rng, L3)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        d = poly_gcd(f * h, g * h)
        # gcd picks up at least h
        assert exact_div(d, poly_gcd(d, h.monic())) is not None
        qa = exact_div(f * h, d)
        assert qa * d == f * h


def test_gcd_of_a_remainder_sequence_runaway():
    # the remainder-sequence gcd had not finished on this pair after 90 s
    ax = Layout.affine(3)
    f = parse_polynomial(
        "3*x_3^4*x_2+7/2*x_3^3*x_2*x_1-3*x_3^3*x_1+13/2*x_3^2*x_2^3"
        "+2*x_3^2*x_2^2*x_1^2-5/3*x_3^2*x_2^2+x_3^2*x_2*x_1^2-2*x_3^2*x_1^2"
        "+x_3^2*x_1+4*x_3*x_2^3*x_1+x_3*x_2^2*x_1^3-17/6*x_3*x_2^2*x_1"
        "-2*x_3*x_2*x_1^3+5/3*x_3*x_2*x_1+2/3*x_3*x_1^2+3*x_2^5+3*x_2^4*x_1^2"
        "-5/2*x_2^4+2/3*x_2^2*x_1+2/3*x_2*x_1^3-5/9*x_2*x_1", ax, QQ)
    g = parse_polynomial(
        "-1/2*x_3^4*x_2*x_1-5*x_3^3*x_2^2*x_1-1/4*x_3^3*x_2*x_1^2"
        "+1/2*x_3^3*x_1^2-3/4*x_3^2*x_2^3*x_1-5/2*x_3^2*x_2^2*x_1^2"
        "+5*x_3^2*x_2*x_1^2+1/3*x_3^2*x_2-1/6*x_3^2*x_1^2-15/2*x_3*x_2^4*x_1"
        "-5/3*x_3*x_2*x_1^2+1/6*x_3*x_2*x_1-1/3*x_3*x_1+1/2*x_2^3+1/9*x_1",
        ax, QQ)
    assert poly_gcd(f, g) == parse_polynomial(
        "x_3^2*x_2+1/2*x_3*x_2*x_1-x_3*x_1+3/2*x_2^3+1/3*x_1", ax, QQ)


def test_gcd_of_a_gebauer_moeller_runaway():
    # the lcm behind this gcd, one Gebauer-Moeller run over t*c*a and
    # (t - 1)*c*b, had not finished after 60 s; a signature step adjoining
    # (t - 1)*c*b to {t*c*a} takes well under a second
    y3 = Layout(("y_3", "y_2", "y_1"))
    F7 = GF(7)
    c, a, b = (parse_polynomial(t, y3, F7) for t in (
        "y_3^3*y_2^3*y_1+6*y_3^3*y_1^3+y_3*y_1^3",
        "3*y_3^4*y_1^3+3*y_3^3*y_2^4*y_1^2+y_3*y_2^4*y_1",
        "3*y_3^3*y_2^4+3*y_3*y_2*y_1^3+6*y_2^2*y_1^2"))
    d = poly_gcd(c * a, c * b)
    assert d == c
    assert d == ref_poly_gcd(c * a, c * b)


def test_gcd_of_disjoint_slots_needs_no_lcm(monkeypatch):
    def no_lcm(f, g):
        raise AssertionError("inputs without a common slot reached the lcm")

    monkeypatch.setattr(groebner, "_poly_lcm", no_lcm)
    assert poly_gcd(P("y_6^2*y_5+y_5"), P("y_3*y_1-y_2^2")) == P("1")
    assert poly_gcd(P("y_6*y_4+y_5"), P("y_2*y_1+1")) == P("1")


def test_squarefree_part():
    assert squarefree_part(P("z_2^2", 2)) == P("z_2", 2)
    # derived: gcd(y_1^2-2y_1+1, 2y_1-2) = y_1-1
    f = P("y_1^2-2*y_1+1")
    assert euclid_gcd_univariate(f, derivative(f, L3.y_pos(1))) == P("y_1-1")
    assert squarefree_part(f) == P("y_1-1")
    assert squarefree_part(P("y_1^2-y_1")) == P("y_1^2-y_1")  # already squarefree


def test_squarefree_multivariate():
    assert squarefree_part(P("y_2^2*y_1")) == P("y_2*y_1")
    assert squarefree_part(P("z_2^2*z_4", 4)) == P("z_2*z_4", 4)


def test_squarefree_char_p():
    F5 = GF(5)
    f = parse_polynomial("y_1^5", L3, F5)
    assert squarefree_part(f) == parse_polynomial("y_1", L3, F5)
    g = parse_polynomial("y_1^5+4*y_1^5", L3, F5)
    assert g.is_zero()
    h = parse_polynomial("y_2^5*y_1", L3, F5)
    assert squarefree_part(h) == parse_polynomial("y_2*y_1", L3, F5)
    k = parse_polynomial("y_1^10+3*y_1^5+2", L3, F5)  # (y_1^5+1)(y_1^5+2)
    assert squarefree_part(k) == parse_polynomial(
        "y_1^2+3*y_1+2", L3, F5)  # (y_1+1)(y_1+2)


def test_squarefree_properties():
    rng = random.Random(17)
    for _ in range(20):
        f = random_poly(rng, L3)
        if f.is_zero() or f.is_constant():
            continue
        s = squarefree_part(f)
        assert exact_div(f.monic(), s) * s == f.monic()  # s divides f
        assert squarefree_part(s) == s
        # jointly with all partials: no repeated factor survives
        g = s
        for pos in s.occurring_slots():
            d = derivative(s, pos)
            if not d.is_zero():
                g = poly_gcd(g, d)
        assert g.is_constant()


def prs_squarefree_part(f):
    """``squarefree_part`` by the remainder-sequence gcds of the reference
    alone, with no dense Euclid anywhere: the independent reference for the
    engine's dense univariate path."""
    f = f.monic()
    if f.is_constant():
        return f
    p = f.field.characteristic
    if p:
        while all(e % p == 0 for mono in f.terms for e in mono):
            f = _pth_root(f, p)
        if f.is_constant():
            return f
    g = f
    for pos in sorted(f.occurring_slots()):
        d = derivative(f, pos)
        if not d.is_zero():
            g = ref_poly_gcd(g, d)
            if g.is_constant():
                return f
    w = exact_div(f, g).monic()
    s = prs_squarefree_part(g)
    extra = exact_div(s, ref_poly_gcd(s, w))
    return (w * extra).monic()


@st.composite
def univariates(draw):
    """A polynomial of degree at most 12 in one of one to three slots.

    Either a dense random polynomial, or a product of powers of up to
    three random factors, optionally times x^p - x (x^q - x, q from 2 to
    7, over QQ) or raised to the p-th power (the square over QQ).
    """
    field = draw(st.sampled_from((QQ, GF(2), GF(3), GF(5), GF(7))))
    p = field.characteristic
    nslots = draw(st.integers(1, 3))
    pos = draw(st.integers(0, nslots - 1))
    coeffs = st.integers(-3, 3) if p == 0 else st.integers(0, p - 1)
    nonzero = coeffs.filter(bool)

    def dense(degree):
        cs = draw(st.lists(coeffs, min_size=degree, max_size=degree))
        terms = {e: c for e, c in enumerate(cs)}
        terms[degree] = draw(nonzero)
        return Polynomial(field, nslots, {
            tuple(e if i == pos else 0 for i in range(nslots)): c
            for e, c in terms.items()})

    shape = draw(st.sampled_from(("dense", "factors", "x^p-x", "p-th power")))
    if shape == "dense":
        return dense(draw(st.integers(1, 12)))
    power = p or 2
    budget = 12 // power if shape == "p-th power" else 12
    f = Polynomial.const(field, nslots, draw(nonzero))
    if shape == "x^p-x":
        q = p or draw(st.integers(2, 7))
        f = f * (Polynomial.var(field, nslots, pos, q) - Polynomial.var(field, nslots, pos))
        budget -= q
    for _ in range(draw(st.integers(1, 3))):
        if budget < 1:
            break
        degree = draw(st.integers(1, min(3, budget)))
        k = draw(st.integers(1, min(3, budget // degree)))
        f = f * dense(degree) ** k
        budget -= degree * k
    return f ** power if shape == "p-th power" else f


# The reference runs only remainder-sequence gcds; the engine stays on the
# dense Euclid.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(univariates())
def test_squarefree_univariate_matches_gcd_path(f):
    assert f.degree_in(min(f.occurring_slots())) <= 12
    assert squarefree_part(f) == prs_squarefree_part(f)


# -- canonical text -------------------------------------------------------------

def test_to_canonical_text():
    assert to_canonical_text(P("y_6^2+y_6"), L3) == "y_6^2+y_6"
    f = P("z_4*y_6^2+y_6+1", 4)
    assert to_canonical_text(f, L3.at_level(4)) == "z_4*y_6^2+y_6+1"
    assert to_canonical_text(f, L3) == "y_6^2*y_4+y_6+1"
    assert to_canonical_text(Polynomial.const(QQ, 6, -1), L3) == "-1"
    assert to_canonical_text(Polynomial.zero(QQ, 6), L3) == "0"
    assert to_canonical_text(P("y_6+2*y_5-1"), L3) == "y_6+2*y_5-1"
    assert to_canonical_text(P("-y_6+1/2"), L3) == "-y_6+1/2"
    f5 = parse_polynomial("y_6+4", L3, GF(5))
    assert to_canonical_text(f5, L3) == "y_6+4"


def random_poly(rng, layout, field=QQ):
    nslots = layout.nslots
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * nslots
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(nslots)] += 1
        terms[tuple(mono)] = rng.randint(-4, 4)
    return Polynomial(field, nslots, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_text_round_trip(seed):
    rng = random.Random(seed)
    f = random_poly(rng, L3)
    layout = L3.at_level(rng.randint(0, 6))
    assert parse_polynomial(to_canonical_text(f, layout), layout, QQ) == f


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_text_round_trip_char_p(seed):
    rng = random.Random(seed)
    f = random_poly(rng, L1, field=GF(7))
    layout = L1.at_level(rng.randint(0, 2))
    assert parse_polynomial(to_canonical_text(f, layout), layout, GF(7)) == f
