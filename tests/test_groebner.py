import itertools
import random

import pytest

from p1parts.fields import GF, QQ, FieldError
from p1parts.groebner import (
    ExponentOverflowError, IdealBasis, _extend, buchberger,
    elimination_subbasis, heuristic_radical, ideal_saturate, normal_form,
    principal_saturate, radical_membership,
)
from p1parts.poly import Layout, Polynomial, ProjLayout
from p1parts.parser import parse_polynomial

AX2 = Layout.affine(2)
PL3 = ProjLayout(3)
PL1 = ProjLayout(1)


def P(text, level=0, field=QQ):
    """Parse in PL3 with the slots at or below ``level`` named z_k."""
    return parse_polynomial(text, PL3.at_level(level), field)


def A(text, field=QQ):
    return parse_polynomial(text, AX2, field)


def spoly(f, g):
    from p1parts.poly import _mono_div
    lcm = tuple(map(max, f.lead_monomial(), g.lead_monomial()))
    a = Polynomial(f.field, f.nslots,
                   {_mono_div(lcm, f.lead_monomial()): f.field.inv(f.lead_coeff())})
    b = Polynomial(g.field, g.nslots,
                   {_mono_div(lcm, g.lead_monomial()): g.field.inv(g.lead_coeff())})
    return a * f - b * g


def assert_reduced_basis(basis):
    gens = basis.generators
    for g in gens:
        assert g.lead_coeff() == g.field.one()
    for f, g in itertools.combinations(gens, 2):
        assert normal_form(spoly(f, g), basis).is_zero()
        lm_f, lm_g = f.lead_monomial(), g.lead_monomial()
        assert not all(a <= b for a, b in zip(lm_f, lm_g))
        assert not all(a <= b for a, b in zip(lm_g, lm_f))
    for i, g in enumerate(gens):
        rest = gens[:i] + gens[i + 1:]
        assert normal_form(g, rest) == g  # fully reduced against the others


# -- normal form -----------------------------------------------------------------

def test_normal_form_division():
    # by hand: y_2*y_1 - 1 -> y_1^2 - 1 -> 0
    two = ProjLayout(2)
    B = buchberger([parse_polynomial("y_2-y_1", two, QQ),
                    parse_polynomial("y_1^2-1", two, QQ)])
    assert normal_form(parse_polynomial("y_2*y_1-1", two, QQ), B).is_zero()

    f = parse_polynomial("y_2", two, QQ)
    assert normal_form(f, [parse_polynomial("y_1", two, QQ)]) == f

    for g in B.generators:
        assert normal_form(g, B).is_zero()


# -- buchberger --------------------------------------------------------------------

def test_buchberger_hyperbola_circle():
    # S-polynomial of (x_2x_1-1, x_1^2-1) is x_2-x_1; verify by division
    f, g = A("x_2*x_1-1"), A("x_1^2-1")
    s = spoly(f, g)
    assert s == A("x_2-x_1")
    B = buchberger([f, g])
    assert B.generators == (A("x_1^2-1"), A("x_2-x_1"))
    assert normal_form(f, B).is_zero() and normal_form(g, B).is_zero()
    assert_reduced_basis(B)


def test_buchberger_single_generator():
    f = A("x_2*x_1-1")
    B = buchberger([f])
    assert B.generators == (f,)


def test_buchberger_inconsistent():
    B = buchberger([P("y_1"), P("y_1-1")])
    assert B.is_unit()
    assert B.generators == (P("1"),)


def test_buchberger_degenerate():
    assert buchberger([]).generators == ()
    assert buchberger([Polynomial.zero(QQ, 6)]).generators == ()


def test_mixed_generators_rejected():
    with pytest.raises(FieldError):
        buchberger([A("x_1"), A("x_2", GF(5))])
    with pytest.raises(FieldError):
        normal_form(A("x_2"), [A("x_1", GF(5))])
    with pytest.raises(ValueError):
        buchberger([A("x_1"), P("y_1")])
    with pytest.raises(ValueError):
        normal_form(A("x_2"), [P("y_1")])


def test_exponent_overflow_raises():
    import p1parts
    assert p1parts.ExponentOverflowError is ExponentOverflowError
    assert issubclass(ExponentOverflowError, ValueError)
    y = Polynomial.var(QQ, 1, 0)
    # the largest exponent a slot holds still works
    assert buchberger([y ** 32767]).generators == (y ** 32767,)
    for e in (32768, 70000):  # on input, below and above 2^16
        with pytest.raises(ExponentOverflowError):
            buchberger([y ** e])
        with pytest.raises(ExponentOverflowError):
            normal_form(y ** e, [y ** 2])
    # while reducing: x_2*x_1^20000 reduces to x_1^40000
    with pytest.raises(ExponentOverflowError):
        normal_form(A("x_2*x_1^20000"), [A("x_2-x_1^20000")])
    with pytest.raises(ExponentOverflowError):
        buchberger([A("x_2^2-1"), A("x_2-x_1^20000")])
    assert normal_form(A("x_2*x_1^10000"), [A("x_2-x_1^10000")]) \
        == A("x_1^20000")


def test_signature_overflow():
    """Signatures may leave the exponent range of the packed monomials.

    Adjoining y_3-1 to <y_3*y_2*y_1^20000-y_2^2> gives y_2^2-y_2*y_1^20000
    at signature y_2*y_1^20000; its J-pair with the old element has the
    signature y_3*y_2*y_1^40000, past the range, which the old lead
    divides, so the pair goes and the basis is the one of both generators.
    The F_7 pair below meets such signatures too on the way to a basis in
    range.  A pair past the range that survives the criteria raises:
    adjoining y_2^2-y_1 to <y_2*y_1^20000-1> gives y_2-y_1^20001 at
    signature y_1^20000, and its J-pair with the old element, at signature
    y_1^40000, is neither a syzygy signature nor covered (the basis holds
    y_1^40001-1, out of range as well).  Koszul signatures are never
    formed, so one past the range raises nothing: adjoining
    y_2*y_1^17000-1 to <y_1^17000-y_1> gives y_1^16999-1 at signature
    y_1^16999 and then y_2-y_1^16998 at signature y_2*y_1^16999, and the
    Koszul signature of these two is y_2*y_1^33998.
    """
    gens = (P("y_3*y_2*y_1^20000-y_2^2"), P("y_3-1"))
    assert _extend(buchberger(gens[:1]), gens[1:]) == buchberger(gens)
    assert buchberger(gens).generators == (P("y_2^2-y_2*y_1^20000"), P("y_3-1"))
    pl2, f7 = ProjLayout(2), GF(7)
    gens = [parse_polynomial(text, pl2, f7) for text in (
        "y_3^2*y_2^2*y_1+2*y_3*y_2^6533*y_1",
        "4*y_3^2*y_2*y_1^15361+4*y_3*y_2*y_1^2+4*y_2^2*y_1")]
    assert _extend(buchberger(gens[:1]), gens[1:]) == buchberger(gens)
    assert len(buchberger(gens)) == 5
    old = buchberger([P("y_2*y_1^20000-1")])
    with pytest.raises(ExponentOverflowError):
        _extend(old, (P("y_2^2-y_1"),))
    old = buchberger([P("y_1^17000-y_1")])
    assert _extend(old, (P("y_2*y_1^17000-1"),)).generators == (
        P("y_1^16999-1"), P("y_2-y_1^16998"))


def test_raw_generators_need_no_signatures():
    """A raw generator list gets Gebauer-Moeller pairs, not signature steps.

    Over F_7, f = 2*y_3*y_2+6*y_3^2*y_2^2*y_1^1784 is 2*y_3*y_2*(1+3*v)
    with v = y_3*y_2*y_1^1784.  y_2^8423*y_1^2 divides v^8423, so 1+3*v is
    a unit modulo it, and f and y_3*y_2^8424*y_1^2 generate <y_3*y_2>.  A
    signature step adjoining f reaches y_3*y_2 only at signature v^8422:
    the u with u*f = y_3*y_2 modulo the first generator is unique up to
    multiples of y_2^8423*y_1^2, none of which cancels its lead.  That is
    far past the exponent range, so the step raises where the pair loop
    returns the basis.
    """
    pl2, f7 = ProjLayout(2), GF(7)
    gens = [parse_polynomial(text, pl2, f7) for text in (
        "4*y_3*y_2^8424*y_1^2", "2*y_3*y_2+6*y_3^2*y_2^2*y_1^1784")]
    assert buchberger(gens).generators == (parse_polynomial("y_3*y_2", pl2, f7),)
    with pytest.raises(ExponentOverflowError):
        _extend(buchberger(gens[:1]), gens[1:])


def random_ideal(rng, layout, field, ngens=3, max_terms=3, max_deg=3):
    gens = []
    for _ in range(rng.randint(1, ngens)):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = [0] * layout.nslots
            for _ in range(rng.randint(0, max_deg)):
                mono[rng.randrange(layout.nslots)] += 1
            terms[tuple(mono)] = rng.randint(1, field.characteristic - 1) \
                if field.characteristic else rng.randint(-3, 3)
        g = Polynomial(field, layout.nslots, terms)
        if not g.is_zero():
            gens.append(g)
    return gens


def test_buchberger_is_canonical_and_order_independent():
    rng = random.Random(23)
    ax3 = Layout.affine(3)
    for _ in range(15):
        gens = random_ideal(rng, ax3, GF(5))
        if not gens:
            continue
        B = buchberger(gens)
        if not B.is_unit() and B.generators:
            assert_reduced_basis(B)
        for g in gens:
            assert normal_form(g, B).is_zero()
        for perm in itertools.permutations(gens):
            assert buchberger(list(perm)).generators == B.generators


# -- elimination -------------------------------------------------------------------

def test_elimination_subbasis():
    B = buchberger([A("x_2*x_1-1")])
    assert elimination_subbasis(B, 1).generators == ()

    B = buchberger([A("x_2*x_1-1"), A("x_1^2-1")])
    sub = elimination_subbasis(B, 1)
    assert sub.generators == (A("x_1^2-1"),)

    unit = buchberger([A("1")])
    assert elimination_subbasis(unit, 1).generators == (A("1"),)


def test_elimination_theorem_random():
    # low-block members of the ideal reduce to 0 against the sub-basis,
    # and the sub-basis is itself a Groebner basis
    rng = random.Random(5)
    ax3 = Layout.affine(3)
    checked = 0
    for _ in range(25):
        gens = random_ideal(rng, ax3, GF(5))
        if not gens:
            continue
        B = buchberger(gens)
        if B.is_unit() or not B.generators:
            continue
        for j in (1, 2):
            sub = elimination_subbasis(B, j)
            if not sub.generators:
                continue
            assert_reduced_basis(sub)
            for _ in range(5):
                f = Polynomial.zero(GF(5), 3)
                for b in sub.generators:
                    mult = random_ideal(rng, ax3, GF(5), ngens=1)[0]
                    # force the multiplier into the low block
                    low = {m: c for m, c in mult.terms.items()
                           if all(e == 0 for e in m[:3 - j])}
                    mult = Polynomial(GF(5), 3, low)
                    f = f + mult * b
                assert normal_form(f, sub).is_zero()
                checked += 1
    assert checked >= 25


# -- saturation --------------------------------------------------------------------

def test_ideal_saturate():
    two = ProjLayout(2)

    def p2(text):
        return parse_polynomial(text, two, QQ)

    sat = ideal_saturate([p2("y_2*y_1"), p2("y_1^2-y_1")], p2("y_1"))
    assert set(sat.generators) == {p2("y_2"), p2("y_1-1")}

    assert ideal_saturate([p2("y_1^2")], p2("y_1")).is_unit()

    sat = ideal_saturate([p2("y_2-1")], p2("y_1"))
    assert sat.generators == (p2("y_2-1"),)

    with pytest.raises(ValueError):
        ideal_saturate([p2("y_1")], Polynomial.zero(QQ, 4))


def test_ideal_saturate_keeps_untouched_elements():
    """Old elements the saturation leaves alone come back as the same objects."""
    two = ProjLayout(2)

    def p2(text):
        return parse_polynomial(text, two, QQ)

    basis = buchberger([p2("y_4^2-1"), p2("y_1^2-y_1")])
    sat = ideal_saturate(basis, p2("y_1"))
    assert sat.generators == (p2("y_1-1"), p2("y_4^2-1"))
    assert sat.generators[1] is basis.generators[1]
    assert sat == ideal_saturate(list(basis.generators), p2("y_1"))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_unit_basis_through_the_packed_path(field):
    unit = IdealBasis((Polynomial.const(field, 4, 1),))
    f = parse_polynomial("y_2*y_1-1", ProjLayout(2), field)
    assert radical_membership(f, unit)
    assert ideal_saturate(unit, f) == unit
    assert _extend(unit, (f,)) == unit


def test_ideal_saturate_brute_force_f5():
    # over F5, points of V(sat(I, f)) = points of V(I) with f != 0
    two = ProjLayout(2)
    F5 = GF(5)

    def p2(text):
        return parse_polynomial(text, two, F5)

    gens = [p2("y_2*y_1"), p2("y_1^2-y_1")]
    f = p2("y_1")
    sat = ideal_saturate(gens, f)
    grid = list(itertools.product(range(5), repeat=2))

    def affine_points(polys):
        pts = set()
        for a2, a1 in grid:
            vals = [0, 0, a2, a1]  # y_2, y_1 slots
            if all(g.evaluate(vals) == 0 for g in polys):
                pts.add((a2, a1))
        return pts

    expected = {pt for pt in affine_points(gens)
                if f.evaluate([0, 0, pt[0], pt[1]]) != 0}
    assert affine_points(sat.generators) == expected == {(0, 1)}


def test_principal_saturate():
    assert principal_saturate(P("z_2*z_4", 4), P("z_2", 4)) == P("z_4", 4)
    assert principal_saturate(P("z_2^2", 4), P("z_2", 4)) == P("1")
    assert principal_saturate(P("z_4", 4), P("z_2", 4)) == P("z_4", 4)
    with pytest.raises(ValueError):
        principal_saturate(Polynomial.zero(QQ, 6), P("z_2", 4))


# -- radical membership ---------------------------------------------------------------

def test_radical_membership():
    assert radical_membership(P("y_1"), [P("y_1^2")])
    assert not radical_membership(P("y_1-1"), [P("y_1^2")])
    # z_2^2 = z_2*z_4 + z_2*(z_2-z_4)
    assert radical_membership(P("z_2", 4), [P("z_2*z_4", 4), P("z_2-z_4", 4)])


def test_radical_membership_agrees_with_brute_force():
    # necessary condition: if f in sqrt(I), f vanishes on all F_p points
    two = ProjLayout(2)
    F5 = GF(5)

    def p2(text):
        return parse_polynomial(text, two, F5)

    cases = [
        (p2("y_1"), [p2("y_1^2")]),
        (p2("y_2"), [p2("y_2*y_1"), p2("y_2-y_1")]),
        (p2("y_2+y_1"), [p2("y_2*y_1")]),
    ]
    for f, gens in cases:
        if radical_membership(f, gens):
            for vals in itertools.product(range(5), repeat=2):
                full = [0, 0] + list(vals)  # y_2, y_1 slots
                if all(g.evaluate(full) == 0 for g in gens):
                    assert f.evaluate(full) == 0


# -- heuristic radical ---------------------------------------------------------------

def test_heuristic_radical_fixtures():
    B = heuristic_radical(buchberger([P("y_1^2")]))
    assert B.generators == (P("y_1"),)

    B = heuristic_radical(buchberger([P("y_1^2-y_1")]))
    assert B.generators == (P("y_1^2-y_1"),)

    B = heuristic_radical(buchberger([P("(y_1-1)^2"), P("y_2*y_1-y_2")]))
    assert B.generators == (P("y_1-1"),)


def test_heuristic_radical_high_slot():
    # the eliminant of the lex-greatest slot, y_6^2, is a basis element
    B = heuristic_radical(buchberger([P("y_6^2*y_4"), P("y_4-1")]))
    assert B.generators == (P("y_4-1"), P("y_6"))


def test_heuristic_radical_permuted_basis():
    # y_2^2-2*y_2*y_1+y_1 leads with a pure power of y_2 but is not
    # univariate; only the basis with y_2 at the bottom shows the
    # eliminant y_2^2*(y_2-1)^2, whose squarefree part closes the ideal
    B = heuristic_radical(buchberger([P("(y_2-y_1)^2"), P("y_1^2-y_1")]))
    assert B.generators == (P("y_1^2-y_1"), P("y_2-y_1"))

    # a pure-power leading monomial, but no univariate member in y_2
    B = buchberger([P("y_2^2-y_1")])
    assert heuristic_radical(B).generators == B.generators == (P("y_2^2-y_1"),)


def test_heuristic_radical_contract():
    rng = random.Random(31)
    ax3 = Layout.affine(3)
    for _ in range(10):
        gens = random_ideal(rng, ax3, GF(5))
        if not gens:
            continue
        B = buchberger(gens)
        if B.is_unit() or not B.generators:
            continue
        J = heuristic_radical(B)
        for g in B.generators:
            assert normal_form(g, J).is_zero()  # I <= J
        for g in J.generators:
            assert radical_membership(g, B)  # J <= sqrt(I)
