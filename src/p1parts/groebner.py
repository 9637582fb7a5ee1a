"""Lex Groebner bases and the ideal operations built on them.

Every basis returned is the unique minimal reduced basis, monic, sorted
by increasing leading monomial.  Saturation, radical membership and the
lcm behind ``poly_gcd`` ride on one mechanism: adjoin a fresh top slot t
and eliminate it, from I + <1 - t*f> for the first two and from
<t*f, (1-t)*g> for the lcm.

An ``IdealBasis`` is always such a reduced basis: only ``buchberger``,
``_extend``, ``elimination_subbasis`` and ``ideal_saturate`` make one.
The input picks the algorithm.  Raw generators (``buchberger``, the lcm,
and saturation or radical membership of a generator list) get
Buchberger's algorithm with normal (smallest-lcm) pair selection and the
pair installation of Gebauer & Moeller (1988).  A nonempty reduced basis
G of an ideal I extended by one polynomial f, which is nearly every basis
the engine needs (a child's equality J, the Rabinowitsch element t*f - 1,
a squarefree eliminant of the closure, each homogenized generator at the
root), gets a signature step instead (Faugere 2002; Gao, Volny & Wang
2016), which skips most S-pairs that reduce to zero.  Raw generators
stay with Gebauer & Moeller.  Adjoined one at a time by signatures, the
benchmark's leaf check, one ``buchberger`` per leaf basis, rose by about
a third on ``qq-paper`` (``verify_s`` 0.0055 to 0.0074 s, two 8 s runs a
side).  A fold that packs the list once and reduces once at the end
runs at par there, but some pairs of high degree need signatures far
past the exponent range, where the pair loop finds the basis in seconds
(``test_raw_generators_need_no_signatures``).

The signature step.  Every element h it finds is congruent to u*f
modulo I for some polynomial u; its signature is lm(u), a packed
monomial, 1 for the remainder of f by G.  The J-pair of two elements is
t_i*h_i, where t_i*lm(h_i) is the lcm of their leads and t_i*sig(h_i) is
the larger of the two scaled signatures (an old element's is below every
signature; equal ones form no pair).  J-pairs are taken in increasing
signature s, one per signature, and one goes when

- a syzygy signature divides s: an old lead (lm(u) in lm(I) lets u*f
  drop to a lower signature modulo I) or a signature whose J-pair
  reduced to zero;
- or it is covered: some new element c has sig(c) | s and
  (s / sig(c)) * lm(c) < lcm.

The rest are reduced regularly, from the S-polynomial t_i*h_i - t_j*h_j
on (one regular step in): an old element always reduces, a new element
h_j reduces the term m only when (m / lm(h_j)) * sig(h_j) < s.
A nonzero remainder joins the basis with signature s.  Gao, Volny & Wang
also record the Koszul signature max(lm(h_j)*sig_i, lm(h_i)*sig_j) of
two new elements and discard a J-pair whose reduced top term is
reducible only at s itself.  Neither is needed here.  h_j*u_i - h_i*u_j
lies in I, so a Koszul signature is a multiple of an old lead already,
and a leading monomial past the exponent range is never formed.  A
reducer at s itself, scaled, has signature s and a lead below the lcm,
so it covers the pair, which never reaches the reduction.  This is
their algorithm for the module of pairs (u, h) with h = u*f modulo I,
which ends with every J-pair covered, so G and the new elements form a
Groebner basis of I + <f> (their Theorem 2.4).  A J-pair reduces to zero
only at a signature lm(u) with u*f in I and lm(u) not in lm(I).  When f
is a nonzerodivisor modulo I, (I : f) = I, so that never happens and no
reduction goes to zero.  t*f - 1 always is one: if a*(t*f - 1) lies in
I[t], comparing coefficients from t^0 up puts every coefficient of a in
I.  A J-pair signature may pass 2^15 in a slot.  It is queued anyway:
each field stays below 2^16, so int order is still lex order.  Taken,
it meets both criteria with every such field saturated to 2^16 - 1,
which makes the masked divisibility test below exact there, since the
old leads and the signatures it is tested against are in range; it
raises ExponentOverflowError only if it survives them.  A carry out of
a field of the cover product (s / sig(c)) * lm(c) can only keep a pair,
never drop one: a product at or above the lcm in lex order first
exceeds it in some field, so its int is at least the lcm's whatever the
lower fields carry.

The core works on packed monomials (Monagan & Pearce 2007): each
exponent tuple becomes one int with 16 bits per slot, slot 0 in the
highest field and bit 15 of every field a guard bit that stays clear.
Lex order is then int order and multiplying monomials is adding ints.
Divisibility is one masked subtraction: a divides b exactly when
``((b | guard) - a) & guard == guard``, because a field keeps its guard
bit only where b's exponent is at least a's.  An exponent that reaches
2^15 raises ExponentOverflowError rather than wrap.  A basis keeps its
elements packed, so the core packs only new polynomials.  An empty top
slot leaves a packed int unchanged, so 1 - t*f goes straight onto the
packed elements of I, and the t-free elements, a prefix in lead order,
are the saturation.

Division reduces the largest remaining term, taken off a max-heap, by
the first element, in increasing lead order, whose lead divides it.  No
later lead divides a term of an earlier element, so one pass in
increasing lead order makes the minimal basis reduced.
"""

from __future__ import annotations

import heapq
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from .poly import Polynomial, exact_div, poly_gcd, squarefree_part

_EXPONENT_LIMIT = 1 << 15  # the top bit of each 16-bit slot is the guard


class ExponentOverflowError(ValueError):
    """An exponent reached 2^15, more than a packed monomial slot holds."""


def _overflow():
    return ExponentOverflowError(
        f"exponent reached {_EXPONENT_LIMIT}, the limit of a packed monomial slot")


@dataclass(frozen=True)
class IdealBasis:
    """A reduced lex Groebner basis: monic, sorted by increasing lead.

    ``heads`` are the generators as packed ``_monic_head`` pairs, filled
    by the core or, for a basis made from generators alone, by ``_heads``.
    """

    generators: tuple
    heads: tuple = dc_field(default=None, compare=False, repr=False)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def is_unit(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    def is_zero_ideal(self) -> bool:
        return not self.generators


class _Packing:
    """Conversion between exponent tuples and packed ints for one slot count."""

    __slots__ = ("nslots", "guard", "top", "_struct")

    def __init__(self, nslots: int):
        self.nslots = nslots
        self._struct = struct.Struct(f">{nslots}H")
        self.guard = int.from_bytes(b"\x80\x00" * nslots, "big")
        self.top = 1 << 16 * nslots  # a fresh slot above all others

    def pack(self, terms) -> dict:
        """Packed copy of a tuple-keyed term map."""
        pack = self._struct.pack
        try:
            out = {int.from_bytes(pack(*m), "big"): c for m, c in terms.items()}
        except struct.error:  # an exponent of 2^16 or more
            raise _overflow() from None
        guard = self.guard
        if any(m & guard for m in out):
            raise _overflow()
        return out

    def unpack(self, field, terms) -> Polynomial:
        """Polynomial of a packed term map."""
        size, unpack = self._struct.size, self._struct.unpack
        return Polynomial._raw(field, self.nslots, {
            unpack(m.to_bytes(size, "big")): c for m, c in terms.items()})


def _monic_head(terms: dict, field):
    """(lead, tail) of a packed term map (consumed) made monic.

    The tail is a tuple of (monomial, coefficient) pairs without the lead.
    """
    lead = max(terms)
    lc = terms.pop(lead)
    if lc == field.one():
        return lead, tuple(terms.items())
    inv = field.inv(lc)
    return lead, tuple((m, field.mul(c, inv)) for m, c in terms.items())


def _heads(basis: IdealBasis) -> tuple:
    if basis.heads is None:  # a basis made from its generators alone
        gens = basis.generators
        packing = _Packing(gens[0].nslots) if gens else None
        object.__setattr__(basis, "heads", tuple(
            _monic_head(packing.pack(g.terms), g.field) for g in gens))
    return basis.heads


_lead_key = itemgetter(0)  # of a (lead, tail) head


def _lcm(a: int, b: int, guard: int) -> int:
    """Slot-wise maximum of two packed monomials."""
    ge = ((a | guard) - b) & guard  # guard bits of the slots where a >= b
    mask = ge | (ge - (ge >> 15))  # widened to whole 16-bit fields
    return b ^ ((a ^ b) & mask)


def _subtract(work: dict, heap: list, tail, shift: int, c, p: int, guard: int):
    """work -= c * x^shift * tail, pushing the negation of each new monomial."""
    for mono, cg in tail:
        t = mono + shift
        w = work.get(t)
        if w is None:
            if t & guard:
                raise _overflow()
            w = -cg * c
            work[t] = w % p if p else w
            heapq.heappush(heap, -t)
        else:
            w -= cg * c
            if p:
                w %= p
            if w:
                work[t] = w
            else:
                del work[t]


def _spoly(head_i, head_j, lcm: int, p: int, guard: int) -> dict:
    """S-polynomial of two monic heads whose leads have the lcm ``lcm``:
    the leads cancel, so only the shifted tails are added."""
    (lead_i, tail_i), (lead_j, tail_j) = head_i, head_j
    work = {}
    _subtract(work, [], tail_i, lcm - lead_i, -1, p, guard)
    _subtract(work, [], tail_j, lcm - lead_j, 1, p, guard)
    return work


def _reduce(work: dict, heads, p: int, guard: int, sigs=None, bound=0):
    """Remainder of the packed term map ``work`` (consumed) by ``heads``.

    ``heads`` are monic (lead, tail) pairs sorted by lead; ``p`` is the
    field characteristic, 0 for the rationals.  The remainder's terms come
    out in decreasing order.  With ``sigs`` (lead -> signature of the new
    elements of a signature run) the reduction is regular below the
    signature ``bound``: an element in ``sigs`` reduces a term m only when
    (m / lead) * signature < bound.
    """
    heap = [-m for m in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        mg = m | guard
        for lead, tail in heads:
            if (mg - lead) & guard == guard and (
                    sigs is None or lead not in sigs or m - lead + sigs[lead] < bound):
                _subtract(work, heap, tail, m - lead, c, p, guard)
                break
        else:
            out[m] = c
    return out


def normal_form(f: Polynomial, basis_or_gens) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    Canonical (and zero exactly on ideal members) when the basis is a
    reduced Groebner basis; for arbitrary generator lists it is only some
    valid remainder.
    """
    gens = [g for g in basis_or_gens if not g.is_zero()]
    if f.is_zero() or not gens:
        return f
    for g in gens:
        f._check(g)
    gens.sort(key=lambda g: g.lead_monomial())
    packing = _Packing(f.nslots)
    heads = [_monic_head(packing.pack(g.terms), g.field) for g in gens]
    rem = _reduce(packing.pack(f.terms), heads, f.field.characteristic,
                  packing.guard)
    return packing.unpack(f.field, rem)


def _unit_basis(template: Polynomial) -> IdealBasis:
    one = Polynomial.const(template.field, template.nslots, 1)
    return IdealBasis((one,))


def _install(G: list, k: int, active: list, pairs: list, guard: int):
    """Gebauer & Moeller's update for the new element G[k].

    A queued pair goes when G[k]'s lead divides its lcm strictly on both
    sides.  Of the new pairs, one goes when a smaller one's lcm divides
    its lcm, one is kept per lcm, and an lcm shared with a pair of coprime
    leads goes whole.  An element whose lead G[k]'s divides forms no more
    pairs.
    """
    h = G[k][0]
    kept = [q for q in pairs if ((q[0] | guard) - h) & guard != guard
            or _lcm(G[q[1]][0], h, guard) == q[0] or _lcm(G[q[2]][0], h, guard) == q[0]]
    if len(kept) < len(pairs):
        heapq.heapify(kept)
        pairs[:] = kept
    classes, minimal = {}, []  # a divisor of an lcm comes before it
    for lcm, i in sorted((_lcm(G[i][0], h, guard), i) for i in active):
        if lcm not in classes:
            classes[lcm] = None
            lg = lcm | guard
            for m in minimal:
                if (lg - m) & guard == guard:
                    break
            else:
                minimal.append(lcm)
                classes[lcm] = (lcm, i, k)
        if G[i][0] + h == lcm:
            classes[lcm] = None
    for q in filter(None, classes.values()):
        heapq.heappush(pairs, q)
    active[:] = [i for i in active if ((G[i][0] | guard) - h) & guard != guard]
    active.append(k)


def _close(G: list, field, guard: int):
    """All heads of a Groebner basis of the heads G, by increasing lead, or
    None for 1; G gains the nonzero remainders."""
    if any(lead == 0 for lead, _ in G):
        return None
    p = field.characteristic
    heads = sorted(G, key=_lead_key)
    active, pairs = [], []
    for k in range(len(G)):
        _install(G, k, active, pairs, guard)
    while pairs:  # smallest lcm first (normal strategy)
        lcm, i, j = heapq.heappop(pairs)
        h = _reduce(_spoly(G[i], G[j], lcm, p, guard), heads, p, guard)
        if not h:
            continue
        new = _monic_head(h, field)
        if new[0] == 0:
            return None
        G.append(new)
        insort(heads, new, key=_lead_key)
        _install(G, len(G) - 1, active, pairs, guard)
    return heads


def _adjoin(old, f: dict, field, guard: int):
    """All heads of a Groebner basis of ``old`` + <f>, by increasing lead,
    or None for 1; ``old`` itself when f (a packed term map, consumed)
    reduces to zero.

    ``old`` are the heads of a reduced basis.  The new elements carry
    signatures, packed monomials u with the element congruent to u*f plus
    lower multiples of f modulo the old ideal; see the module docstring.
    """
    if old[0][0] == 0:
        return None
    p = field.characteristic
    G, heads = list(old), list(old)
    sigs = {}  # lead -> signature of each new element
    syz = [lead for lead, _ in old]  # minimal syzygy signatures
    pairs, s = [], 0
    h = _reduce(f, old, p, guard)
    if not h:
        return old
    while True:
        if h:
            new = _monic_head(h, field)
            lead = new[0]
            if lead == 0:
                return None
            k = len(G)
            for j, (lead_j, _) in enumerate(G):
                lcm = _lcm(lead, lead_j, guard)
                if lcm == lead + lead_j:
                    continue  # coprime leads: an old lead divides the signature
                sig_j = sigs.get(lead_j)
                sig = lcm - lead + s
                i = k
                if sig_j is not None:
                    sig_o = lcm - lead_j + sig_j
                    if sig_o == sig:
                        continue
                    if sig_o > sig:
                        sig, i, j = sig_o, j, k
                heapq.heappush(pairs, (sig, lcm, i, j))  # in range or not
            G.append(new)
            insort(heads, new, key=_lead_key)
            sigs[lead] = s
        else:  # a syzygy signature that no element of syz divides
            syz = [z for z in syz if ((z | guard) - s) & guard != guard]
            syz.append(s)
        last = s
        while pairs:  # increasing signature, one J-pair per signature
            s, lcm, i, j = heapq.heappop(pairs)
            if s == last:
                continue  # a cover or a syzygy signature now: cheaper to tell here
            last = s
            hi = s & guard
            sg = s | guard | hi - (hi >> 15)  # a field past the range saturated
            if not any((sg - z) & guard == guard for z in syz) and not any(
                    (sg - sig_c) & guard == guard and s - sig_c + lead_c < lcm
                    for lead_c, sig_c in sigs.items()):
                break  # neither a syzygy signature nor a cover
        else:
            return heads
        if s & guard:
            raise _overflow()
        h = _reduce(_spoly(G[i], G[j], lcm, p, guard), heads, p, guard, sigs, s)


def _finish(heads, old_at: dict, field, packing: _Packing) -> IdealBasis:
    """The reduced basis of the closed ``heads``, all in ``packing``.

    Old leads divide no other old lead or tail, and a larger lead nothing,
    so an old element (``old_at`` maps its lead to it) is dropped or
    reduced only for a smaller surviving new lead, else returned as is.
    """
    p, guard, one = field.characteristic, packing.guard, field.one()
    reduced, leads, new_leads, out, last = [], [], [], [], None
    for head in heads:
        lead, tail = head
        if lead == last:
            continue  # two generators of a raw run can share a lead
        last = lead
        g = old_at.get(lead)
        lg = lead | guard
        if any((lg - d) & guard == guard for d in (leads if g is None else new_leads)):
            continue
        if g is None or new_leads and any(((m | guard) - n) & guard == guard
                                          for m, _ in tail for n in new_leads):
            rem = _reduce(dict(tail), reduced, p, guard)
            head = lead, tuple(rem.items())
            if g is None:
                new_leads.append(lead)
            g = packing.unpack(field, {lead: one, **rem})
        reduced.append(head)
        leads.append(lead)
        out.append(g)
    return IdealBasis(tuple(out), tuple(reduced))


def buchberger(gens) -> IdealBasis:
    """The minimal reduced lex Groebner basis of the ideal the input spans.

    The zero ideal normalizes to an empty basis and the unit ideal to the
    single generator 1.  The output is independent of the input order.
    """
    return _extend(IdealBasis(()), gens)


def _extend(basis: IdealBasis, polys) -> IdealBasis:
    """``buchberger(basis.generators + polys)``.  The empty basis gets one
    Gebauer-Moeller run over the polynomials; a reduced basis adjoins them
    one at a time by signatures and comes back itself when nothing new
    remains."""
    old = basis.generators  # nonzero, monic and distinct already
    added = dict.fromkeys(g.monic() for g in polys if not g.is_zero())
    if not added:
        return basis
    first = old[0] if old else next(iter(added))
    for g in added:
        first._check(g)
    field = first.field
    packing = _Packing(first.nslots)
    if not old:
        heads = _close([_monic_head(packing.pack(g.terms), field) for g in added],
                       field, packing.guard)
        return _unit_basis(first) if heads is None else _finish(heads, {}, field, packing)
    for g in added:
        G = _heads(basis)
        old_at = {lead: e for (lead, _), e in zip(G, basis.generators)}
        terms = packing.pack(g.terms)
        if old_at.get(max(terms)) == g:
            continue
        heads = _adjoin(G, terms, field, packing.guard)
        if heads is None:
            return _unit_basis(first)
        if heads is not G:
            basis = _finish(heads, old_at, field, packing)
    return basis


def elimination_subbasis(basis: IdealBasis, j: int) -> IdealBasis:
    """Generators involving only the lowest j slots.

    The subset of a reduced lex basis is a reduced basis of the
    elimination ideal (the relations among the low slots alone).  It is a
    prefix: a polynomial lives in those slots exactly when its lead does.
    """
    k = bisect_left(_heads(basis), 1 << 16 * j, key=_lead_key)
    return IdealBasis(basis.generators[:k], basis.heads[:k])


def _rabinowitsch(basis_or_gens, f: Polynomial, packing: _Packing):
    """Heads of a Groebner basis of I + <1 - t*f>, t a fresh slot above the
    others, or None for 1, and the old elements by lead: a nonempty basis
    adjoins t*f - 1 by signatures, raw generators get Gebauer-Moeller."""
    field = f.field
    guard = packing.guard | packing.top << 15
    rab = {packing.top + m: c for m, c in packing.pack(f.terms).items()}
    rab[0] = field.neg(field.one())  # t*f - 1
    if isinstance(basis_or_gens, IdealBasis) and basis_or_gens.generators:
        G = _heads(basis_or_gens)
        old_at = {lead: g for (lead, _), g in zip(G, basis_or_gens.generators)}
        return _adjoin(G, rab, field, guard), old_at
    G = [_monic_head(packing.pack(g.terms), field)
         for g in basis_or_gens if not g.is_zero()]
    G.append(_monic_head(rab, field))
    return _close(G, field, guard), {}


def ideal_saturate(basis_or_gens, f: Polynomial) -> IdealBasis:
    """Reduced basis of the saturation (I : f^infinity): the basis of
    I + <1 - t*f>, t a fresh top slot, meet the original slots."""
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    packing = _Packing(f.nslots)
    heads, old_at = _rabinowitsch(basis_or_gens, f, packing)
    if heads is None:
        return _unit_basis(f)
    low = heads[:bisect_left(heads, packing.top, key=_lead_key)]
    return _finish(low, old_at, f.field, packing)


def _poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic lcm of nonzero f and g: the generator of <f> ∩ <g>, which is
    <t*f, (1-t)*g> with a fresh top slot t eliminated."""
    field, packing = f.field, _Packing(f.nslots)
    top, pg = packing.top, packing.pack(g.terms)
    tf = {top + m: c for m, c in packing.pack(f.terms).items()}
    tg_g = {**{m: field.neg(c) for m, c in pg.items()},
            **{top + m: c for m, c in pg.items()}}  # (t - 1)*g
    heads = _close([_monic_head(tf, field), _monic_head(tg_g, field)], field,
                   packing.guard | top << 15)
    low = heads[:bisect_left(heads, top, key=_lead_key)]
    return _finish(low, {}, field, packing).generators[0]


def principal_saturate(f: Polynomial, q: Polynomial) -> Polynomial:
    """Generator of <f> : <q>^infinity: divide out gcd(f, q) to a fixpoint."""
    if f.is_zero() or q.is_zero():
        raise ValueError("principal saturation needs nonzero polynomials")
    f = f.monic()
    while True:
        g = poly_gcd(f, q)
        if g.is_constant():
            return f
        f = exact_div(f, g).monic()


def radical_membership(f: Polynomial, basis_or_gens) -> bool:
    """True when some power of f lies in the ideal (1 in I + <1 - t*f>)."""
    if f.is_zero():
        return True
    return _rabinowitsch(basis_or_gens, f, _Packing(f.nslots))[0] is None


def _permuted(g: Polynomial, order) -> Polynomial:
    terms = {tuple(m[p] for p in order): c for m, c in g.terms.items()}
    return Polynomial._raw(g.field, g.nslots, terms)


def _eliminant(basis: IdealBasis, pos: int, g: Polynomial):
    """Monic generator of the ideal's intersection with k[slot pos], or None.

    ``g`` is the first generator of the reduced lex basis whose leading
    monomial is a pure power of the slot.  A nonzero univariate member
    has such a leading monomial in every order, so the basis has one
    whenever the intersection is nonzero (Cox, Little & O'Shea, ch. 3
    section 1).  When ``g`` is univariate it is the generator; otherwise
    the lex basis is recomputed with the slot moved to the bottom, where
    the generator, if any, comes first.  That basis adjoins the permuted
    generators one at a time, in increasing lead order: one Buchberger
    run over all of them took minutes on some 20-element bases.
    """
    if g.occurring_slots() <= {pos}:
        return g
    nslots = g.nslots
    order = [p for p in range(nslots) if p != pos] + [pos]
    permuted = IdealBasis(())
    for b in sorted((_permuted(b, order) for b in basis.generators),
                    key=Polynomial.lead_monomial):
        permuted = _extend(permuted, (b,))
    first = permuted.generators[0]
    if not first.occurring_slots() <= {nslots - 1}:
        return None
    return _permuted(first, [order.index(p) for p in range(nslots)])


def heuristic_radical(basis: IdealBasis) -> IdealBasis:
    """Least fixpoint of adjoining squarefree parts of univariate eliminants.

    Scanning the slots lowest-precedence first, adjoin the squarefree
    part s of the first eliminant m with s != m, recompute the basis and
    scan again, until every slot's eliminant is squarefree.  The result
    is the least ideal J containing I with that property, whatever the
    scan order; slots with no eliminant are skipped, so J only satisfies
    I <= J <= sqrt(I), which is all the callers rely on.  Only a slot
    that some leading monomial is a pure power of can have an eliminant;
    one pass over the leads finds, for each such slot, the first
    generator leading with a pure power of it.
    """
    while not (basis.is_zero_ideal() or basis.is_unit()):
        firsts = {}  # slot -> first generator leading with a pure power of it
        for g in basis.generators:
            lead = g.lead_monomial()
            pos = next(i for i, e in enumerate(lead) if e)
            if lead[pos] == sum(lead):
                firsts.setdefault(pos, g)
        for pos in sorted(firsts, reverse=True):
            m = _eliminant(basis, pos, firsts[pos])
            if m is None:
                continue
            s = squarefree_part(m)
            if s != m:
                basis = _extend(basis, (s,))
                break
        else:
            break
    return basis
