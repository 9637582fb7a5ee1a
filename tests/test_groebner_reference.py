"""Differential checks of the packed Groebner core against a reference.

The reference below is the earlier tuple-monomial implementation: a
``max(work)`` division loop, an interreduction that restarts its scan
after every change, and the same pair queue and criteria.  Reduced lex
bases are unique, so ``buchberger`` must return exactly the reference
basis.  ``normal_form`` keeps the reference's divisor choice (the first
generator, in increasing leading-monomial order, whose leading monomial
divides the term), so it must return the identical remainder even for
generator lists that are not Groebner bases.

The radical closure has a reference too: the earlier closure, which
computes a univariate eliminant for every occurring slot on every pass
(a permuted-order basis unless a univariate generator is present) and
adjoins a squarefree part whenever ``normal_form`` says it is not yet in
the ideal.  Both closures reach the least ideal containing the input in
which every slot's eliminant is squarefree, so their reduced bases must
be identical.

Extending a reduced basis adjoins each new polynomial by a signature
step that skips the S-pairs its criteria prove zero, so
``_extend(buchberger(gens), extra)`` must return the reference basis of
``gens + extra``, and saturation and radical membership must not depend
on whether they get a reduced basis (a signature step) or the raw
generators (Gebauer and Moeller's pairs).
"""

import heapq

import pytest

from hypothesis import given, settings, strategies as st

from p1parts.fields import GF, QQ
from p1parts import groebner
from p1parts.groebner import (
    IdealBasis, _extend, buchberger, heuristic_radical, ideal_saturate,
    normal_form, radical_membership,
)
from p1parts.parser import parse_polynomial
from p1parts.poly import (
    Polynomial, ProjLayout, _mono_div, _mono_divides, _mono_mul, squarefree_part,
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


def ref_lcm(a, b):
    return tuple(map(max, a, b))


def ref_spoly(f, g):
    field = f.field
    lm_f, lm_g = f.lead_monomial(), g.lead_monomial()
    lcm = ref_lcm(lm_f, lm_g)
    a = Polynomial(field, f.nslots, {_mono_div(lcm, lm_f): field.inv(f.lead_coeff())})
    b = Polynomial(field, g.nslots, {_mono_div(lcm, lm_g): field.inv(g.lead_coeff())})
    return a * f - b * g


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
            lcm = ref_lcm(G[i].lead_monomial(), G[j].lead_monomial())
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
            lcm = ref_lcm(G[k].lead_monomial(), G[new].lead_monomial())
            heapq.heappush(pairs, (lcm, k, new))
    G.sort(key=lambda g: g.lead_monomial())
    minimal = []
    for g in G:
        if not any(_mono_divides(m.lead_monomial(), g.lead_monomial()) for m in minimal):
            minimal.append(g)
    return tuple(ref_autoreduce(minimal))


# The earlier radical closure, verbatim apart from the ref_ prefixes.

def ref_permuted(g: Polynomial, order) -> Polynomial:
    terms = {tuple(m[p] for p in order): c for m, c in g.terms.items()}
    return Polynomial._raw(g.field, g.nslots, terms)


def ref_univariate_member(gens, slot_sets, pos):
    """The unique basis element supported on one slot, if present.

    ``slot_sets[i]`` is ``gens[i].occurring_slots()``.
    """
    for g, used in zip(gens, slot_sets):
        if used <= {pos}:
            return g
    return None


def ref_eliminant(basis: IdealBasis, slot_sets, pos: int):
    """Smallest univariate polynomial in the slot inside the ideal, if any.

    Read directly off the basis when a univariate generator is present
    (in a reduced basis it must then generate the elimination ideal);
    otherwise recompute the lex basis with this slot moved to the bottom.
    ``slot_sets`` lists the occurring slots of each basis generator.
    """
    g = ref_univariate_member(basis.generators, slot_sets, pos)
    if g is not None:
        return g
    nslots = basis.generators[0].nslots
    lowest_occurring = max(max(used) for used in slot_sets if used)
    if pos == lowest_occurring:
        return None  # for the bottom slot the basis already tells the truth
    order = [p for p in range(nslots) if p != pos] + [pos]
    inverse = [0] * nslots
    for new, old in enumerate(order):
        inverse[old] = new
    permuted = buchberger([ref_permuted(g, order) for g in basis.generators])
    gens = permuted.generators
    m = ref_univariate_member(gens, [g.occurring_slots() for g in gens],
                              nslots - 1)
    if m is None:
        return None
    return ref_permuted(m, inverse)


def ref_heuristic_radical(basis: IdealBasis) -> IdealBasis:
    """Iterated closure towards the radical via univariate eliminants.

    For each slot with a univariate eliminant m in the ideal, adjoin the
    squarefree part of m and recompute the basis, until nothing changes.
    Slots with no univariate eliminant are skipped, so the result J only
    satisfies I <= J <= sqrt(I); that is all the callers rely on.
    """
    if basis.is_zero_ideal() or basis.is_unit():
        return basis
    while True:
        changed = False
        slot_sets = [g.occurring_slots() for g in basis.generators]
        # scan lowest-precedence slots first
        slots = sorted(set().union(*slot_sets), reverse=True)
        for pos in slots:
            m = ref_eliminant(basis, slot_sets, pos)
            if m is None or m.is_constant():
                continue
            s = squarefree_part(m)
            if normal_form(s, basis).is_zero():
                continue
            basis = buchberger(list(basis.generators) + [s])
            slot_sets = [g.occurring_slots() for g in basis.generators]
            changed = True
            if basis.is_unit():
                return basis
        if not changed:
            return basis


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


@st.composite
def closure_ideals(draw):
    """Up to three generators of degree at most 2, each maybe squared.

    One to four slots over F_2, F_3 and F_5, one to three over QQ: the
    reference closure can run for minutes on some random ideals with
    more slots.
    """
    field = draw(st.sampled_from(FIELDS))
    nslots = draw(st.integers(1, 4 if field.characteristic else 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(polynomials(field, nslots, max_degree=2))
        gens.append(g * g if draw(st.booleans()) else g)
    return gens


# -- properties ----------------------------------------------------------------

def test_reference_agrees_on_a_known_basis():
    f = Polynomial(QQ, 2, {(1, 1): 1, (0, 0): -1})  # x_2*x_1 - 1
    g = Polynomial(QQ, 2, {(0, 2): 1, (0, 0): -1})  # x_1^2 - 1
    expected = (g, Polynomial(QQ, 2, {(1, 0): 1, (0, 1): -1}))
    assert ref_buchberger([f, g]) == expected == buchberger([f, g]).generators


# Derandomized, as every property test in this file: an unlucky random
# ideal can make the reference run for many minutes and hundreds of MB.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(ideals())
def test_buchberger_matches_reference(ideal):
    _, _, gens = ideal
    assert buchberger(gens).generators == ref_buchberger(gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_normal_form_matches_reference(data):
    field, nslots, gens = data.draw(ideals())
    f = data.draw(polynomials(field, nslots, max_terms=5, max_degree=5))
    expected = ref_normal_form(f, gens)
    assert normal_form(f, gens) == expected
    assert normal_form(f, IdealBasis(tuple(gens))) == expected


# Derandomized: a rare random ideal makes both closures' permuted-order
# bases run for minutes, which has nothing to do with their agreement.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(closure_ideals())
def test_heuristic_radical_matches_reference(gens):
    expected = ref_heuristic_radical(buchberger(gens)).generators
    assert heuristic_radical(buchberger(gens)).generators == expected


@st.composite
def extensions(draw):
    """An ideal and one or two polynomials to adjoin, in four kinds of draw.

    - Plain: random generators and polynomials.
    - Tail: the first polynomial leads with a nonconstant tail monomial of
      the ideal's reduced basis, so that a new leading monomial divides an
      old tail and the final pass must reduce that old element again.
    - Divisor: the ideal holds a product a*b and the first polynomial is
      a, a zero divisor modulo the ideal: b*a lies in it, a syzygy whose
      signature no old leading monomial need divide, so some J-pair
      reduces to zero.
    - Boolean: over F_2, the ideal also holds y^2+y for some slots y, so
      every polynomial in those slots is a zero divisor, as h with h^2-h
      is in the canonical constraints of every root.
    """
    kind = draw(st.sampled_from(("plain", "tail", "divisor", "boolean")))
    field = GF(2) if kind == "boolean" else draw(st.sampled_from(FIELDS))
    nslots = draw(st.sampled_from(WIDTHS))
    gens = draw(st.lists(polynomials(field, nslots), min_size=2, max_size=4))
    extra = draw(st.lists(polynomials(field, nslots), min_size=1, max_size=2))
    if kind == "tail":
        tails = sorted({m for g in buchberger(gens).generators for m in g.terms
                        if m != g.lead_monomial() and any(m)})
        if tails:
            m = draw(st.sampled_from(tails))
            lower = {t: c for t, c in extra[0].terms.items() if t < m}
            extra[0] = Polynomial(field, nslots, {**lower, m: 1})
    elif kind == "divisor":
        a, b = (draw(polynomials(field, nslots, max_terms=2, max_degree=2))
                for _ in range(2))
        gens[0] = a * b
        extra[0] = a
    elif kind == "boolean":
        for pos in draw(st.sets(st.integers(0, nslots - 1), min_size=1, max_size=3)):
            y = Polynomial.var(field, nslots, pos)
            gens.append(y * y + y)
    return tuple(gens), tuple(extra)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(extensions())
def test_extend_matches_reference(draw):
    gens, extra = draw
    expected = ref_buchberger(gens + extra)
    basis = buchberger(gens)
    assert _extend(basis, extra).generators == expected
    f = extra[0]
    assert ideal_saturate(basis, f) == ideal_saturate(gens, f)
    assert radical_membership(f, basis) == radical_membership(f, gens)


@pytest.fixture
def reduce_calls(monkeypatch):
    """A list whose length counts the ``groebner._reduce`` calls."""
    calls = []
    real_reduce = groebner._reduce

    def counting_reduce(*args):
        calls.append(args)
        return real_reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
    return calls


def _qq(text):
    return parse_polynomial(text, ProjLayout(2), QQ)


def test_extend_skips_the_closed_pairs(reduce_calls):
    """Adjoining a basis element reduces nothing and returns the basis."""
    basis = buchberger([_qq("y_4*y_1-y_2*y_3"), _qq("y_4^2-y_1"), _qq("y_3^2-y_2")])
    assert len(basis) == 6  # leading monomials share slots: pairs to redo
    extra = (basis.generators[-1],)
    reduce_calls.clear()
    assert _extend(basis, extra) is basis
    assert _extend(basis, (extra[0].scale(3),)) is basis
    assert len(reduce_calls) == 0
    assert buchberger(basis.generators + extra) == basis
    assert len(reduce_calls) > len(basis)


def test_extend_reduces_only_the_touched_tails(reduce_calls):
    """Only the old element whose tail a new lead divides is reduced again.

    The new polynomial is reduced by the basis once, which leaves it as
    it is.  The old leads y_4^2, y_3^2 and y_2^2 and the new lead y_1^2
    are pairwise coprime, so no J-pair is reduced.  The new lead divides
    the tail of y_4^2-y_1^2 alone: the final pass reduces that element
    and the new one, three calls in all, and hands the other two old
    elements back as the same objects.
    """
    basis = buchberger([_qq("y_4^2-y_1^2"), _qq("y_3^2-y_1"), _qq("y_2^2-y_1")])
    reduce_calls.clear()
    ext = _extend(basis, (_qq("y_1^2-1"),))
    assert len(reduce_calls) == 3
    assert ext.generators == (
        _qq("y_1^2-1"), _qq("y_2^2-y_1"), _qq("y_3^2-y_1"), _qq("y_4^2-1"))
    assert ext.generators[1] is basis.generators[0]
    assert ext.generators[2] is basis.generators[1]
