"""Differential checks of the packed Groebner core against a reference.

The reference below is the earlier tuple-monomial implementation: a
``max(work)`` division loop, an interreduction that restarts its scan
after every change, and the same pair queue and criteria.  Reduced lex
bases are unique, so ``buchberger`` must return exactly the reference
basis.  ``normal_form`` keeps the reference's divisor choice (the first
generator, in increasing leading-monomial order, whose leading monomial
divides the term), so it must return the identical remainder even for
generator lists that are not Groebner bases.
"""

import heapq

from hypothesis import given, settings, strategies as st

from p1parts.fields import GF, QQ
from p1parts.groebner import IdealBasis, buchberger, normal_form
from p1parts.poly import (
    Polynomial, ProjLayout, _mono_div, _mono_divides, _mono_lcm, _mono_mul,
)


# -- reference implementation ----------------------------------------------------

def ref_normal_form(f, gens):
    gens = [g for g in gens if not g.is_zero()]
    if f.is_zero() or not gens:
        return f
    gens.sort(key=lambda g: g.lead_monomial())
    field = f.field
    heads = [(g.lead_monomial(), g.lead_coeff(), g.terms) for g in gens]
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work)
        c = work[m]
        for lm, lc, terms in heads:
            if _mono_divides(lm, m):
                shift = _mono_div(m, lm)
                factor = field.div(c, lc)
                for mono, cg in terms.items():
                    t = _mono_mul(mono, shift)
                    v = field.sub(work.get(t, 0), field.mul(cg, factor))
                    if v:
                        work[t] = v
                    elif t in work:
                        del work[t]
                break
        else:
            out[m] = c
            del work[m]
    return Polynomial._raw(field, f.nslots, out)


def ref_spoly(f, g):
    field = f.field
    lm_f, lm_g = f.lead_monomial(), g.lead_monomial()
    lcm = _mono_lcm(lm_f, lm_g)
    a = f.mul_term(_mono_div(lcm, lm_f), field.inv(f.lead_coeff()))
    b = g.mul_term(_mono_div(lcm, lm_g), field.inv(g.lead_coeff()))
    return a - b


def ref_autoreduce(gens):
    gens = [g.monic() for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        gens.sort(key=lambda g: g.lead_monomial())
        for i, g in enumerate(gens):
            rest = gens[:i] + gens[i + 1:]
            r = ref_normal_form(g, rest)
            if r != g:
                changed = True
                gens = rest if r.is_zero() else rest + [r.monic()]
                break
    gens.sort(key=lambda g: g.lead_monomial())
    return gens


def ref_buchberger(gens):
    """Generators of the reduced lex basis, as a tuple."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    one = (Polynomial.const(gens[0].field, gens[0].nslots, 1),)
    if any(g.is_constant() for g in gens):
        return one
    G = ref_autoreduce(gens)
    pairs = []
    treated = set()
    for j in range(len(G)):
        for i in range(j):
            lcm = _mono_lcm(G[i].lead_monomial(), G[j].lead_monomial())
            heapq.heappush(pairs, (lcm, i, j))
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        if (i, j) in treated:
            continue
        treated.add((i, j))
        if _mono_mul(G[i].lead_monomial(), G[j].lead_monomial()) == lcm:
            continue
        if any(k not in (i, j) and _mono_divides(G[k].lead_monomial(), lcm)
               and (min(i, k), max(i, k)) in treated
               and (min(j, k), max(j, k)) in treated
               for k in range(len(G))):
            continue
        h = ref_normal_form(ref_spoly(G[i], G[j]), G)
        if h.is_zero():
            continue
        if h.is_constant():
            return one
        G.append(h.monic())
        new = len(G) - 1
        for k in range(new):
            lcm = _mono_lcm(G[k].lead_monomial(), G[new].lead_monomial())
            heapq.heappush(pairs, (lcm, k, new))
    G.sort(key=lambda g: g.lead_monomial())
    minimal = []
    for g in G:
        if not any(_mono_divides(m.lead_monomial(), g.lead_monomial()) for m in minimal):
            minimal.append(g)
    return tuple(ref_autoreduce(minimal))


# -- strategies ----------------------------------------------------------------

FIELDS = (GF(2), GF(3), GF(5), QQ)
# affine widths 2..8 and the projective widths 4 and 8 (n = 2 and 4)
WIDTHS = tuple(range(2, 9)) + (ProjLayout(2).nslots, ProjLayout(4).nslots)


def coefficients(field):
    if field.characteristic:
        return st.integers(1, field.characteristic - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def polynomials(draw, field, nslots, max_terms=3, max_degree=3):
    terms = {}
    for k in range(draw(st.integers(1, max_terms))):
        mono = [0] * nslots
        slots = st.lists(st.integers(0, nslots - 1), min_size=int(k == 0),
                         max_size=max_degree)  # the first term is never constant
        for pos in draw(slots):
            mono[pos] += 1
        terms[tuple(mono)] = draw(coefficients(field))
    return Polynomial(field, nslots, terms)


@st.composite
def ideals(draw):
    field = draw(st.sampled_from(FIELDS))
    nslots = draw(st.sampled_from(WIDTHS))
    gens = draw(st.lists(polynomials(field, nslots), min_size=1, max_size=4))
    return field, nslots, gens


# -- properties ----------------------------------------------------------------

def test_reference_agrees_on_a_known_basis():
    f = Polynomial(QQ, 2, {(1, 1): 1, (0, 0): -1})  # x_2*x_1 - 1
    g = Polynomial(QQ, 2, {(0, 2): 1, (0, 0): -1})  # x_1^2 - 1
    expected = (g, Polynomial(QQ, 2, {(1, 0): 1, (0, 1): -1}))
    assert ref_buchberger([f, g]) == expected == buchberger([f, g]).generators


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_buchberger_matches_reference(ideal):
    _, _, gens = ideal
    basis = buchberger(gens)
    assert basis.is_reduced_gb
    assert basis.generators == ref_buchberger(gens)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normal_form_matches_reference(data):
    field, nslots, gens = data.draw(ideals())
    f = data.draw(polynomials(field, nslots, max_terms=5, max_degree=5))
    expected = ref_normal_form(f, gens)
    assert normal_form(f, gens) == expected
    assert normal_form(f, IdealBasis(tuple(gens))) == expected
