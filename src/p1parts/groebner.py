"""Lex Groebner bases and the ideal operations built on them.

Every basis returned is the unique minimal reduced basis, monic, sorted
by increasing leading monomial.  Saturation, radical membership and the
lcm behind ``poly_gcd`` ride on one mechanism: adjoin a fresh top slot t
and eliminate it, from I + <1 - t*f> for the first two and from
<t*f, (1-t)*g> for the lcm.

An ``IdealBasis`` is always such a reduced basis, since only the core
makes one: ``_finish``, or a prefix or a re-marking of a basis it made.
Its ``proved`` slots, whose eliminant is squarefree, come from
``heuristic_radical``, and ``_finish`` passes them on from the old basis
to a basis of a larger ideal (``_extend``, and ``ideal_saturate`` of a
basis).  Every other basis, from ``buchberger`` or
``elimination_subbasis``, starts with none.  A reduced basis is one
ideal, yet two equal bases may carry different, equally valid sets.

One rule picks the algorithm.  A list of generators from outside
(``buchberger``, and ``ideal_saturate`` or ``radical_membership`` of a
list) gets Buchberger's algorithm with normal (smallest-lcm) pair
selection and the pair installation of Gebauer & Moeller (1988): folded
through signature steps, some pairs of high degree need signatures far
past the exponent range (``test_raw_generators_need_no_signatures``).
A reduced basis G of an ideal I, the empty one included, grows by
signature steps that adjoin one polynomial f at a time (Faugere 2002;
Gao, Volny & Wang 2016) and skip most S-pairs that reduce to zero: a
child's equality J, the Rabinowitsch element t*f - 1, a squarefree
eliminant, each canonical constraint and homogenized generator at the
root, each permuted generator of an eliminant, and (t - 1)*g after
{t*f} for the lcm.  So a solve never runs the pair loop.  Neither path
removes repeats: a repeat reduces to zero.

The signature step.  Every element h it finds is congruent to u*f
modulo I for some polynomial u; its signature is lm(u), a packed
monomial, 1 for the remainder of f by G.  The J-pair of two elements is
t_i*h_i, where t_i*lm(h_i) is the lcm of their leads and t_i*sig(h_i) is
the larger of the two scaled signatures (an old element's is below every
signature; equal ones form no pair).  A signature is queued once, with
the least (lcm, i, j) of its J-pairs, and the signatures s are taken in
increasing order.  The pair of s goes when

- a syzygy signature divides s: an old lead (lm(u) in lm(I) lets u*f
  drop to a lower signature modulo I) or a signature whose J-pair
  reduced to zero;
- or it is covered: some new element c has sig(c) | s and
  (s / sig(c)) * lm(c) < lcm.

The old leads never change during a step, so they are tested once, when
a signature is first queued, and a signature one divides is marked so
that it is never queued; the zero reductions and the cover are tested
when it is taken.

The rest are reduced regularly, from the S-polynomial t_i*h_i - t_j*h_j
on (one regular step in): an old element always reduces, a new element
h_j reduces the term m only when (m / lm(h_j)) * sig(h_j) < s.
A nonzero remainder joins the basis with signature s.  No element
reduces its lead in this way, so no two new elements share a lead, and
each J-pair it forms has a signature above s.  Gao, Volny & Wang
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
exponent tuple becomes one int with 16 bits per slot, position 0 in the
highest field and bit 15 of every field a guard bit that stays clear.
So slot k, counted from the bottom as the levels are (position
nslots - k), is the k-th 16-bit field from the bottom.
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
the first element, in increasing lead order, whose lead divides it.  A
divisor of a monomial is at most that monomial in lex order, so the scan
stops at the first lead above the term, which is then irreducible.  No
later lead divides a term of an earlier element, so one pass in
increasing lead order makes the minimal basis reduced.  The public
``normal_form`` divides by an ``IdealBasis`` only, where the remainder
is canonical.
"""

from __future__ import annotations

import heapq
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from .fields import _rational
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

    Made by the core only; a caller with generators calls ``buchberger``.
    ``generators`` are the elements, and ``heads`` the same elements as
    packed ``_monic_head`` pairs, the one record of their leads.  The
    zero ideal's basis is empty, and the unit ideal's is (1,), which
    ``is_unit`` reads off its packed lead.
    ``proved`` holds slots whose eliminant is proved squarefree for the
    ideal: ``heuristic_radical`` sets it, and ``_finish`` passes the old
    basis's set on to a basis of a larger ideal.  It is empty unless
    given.  Two bases of one ideal may carry different, equally valid
    sets, so it takes no part in equality.
    """

    generators: tuple
    heads: tuple = dc_field(compare=False, repr=False)
    proved: frozenset = dc_field(default=frozenset(), compare=False, repr=False)

    def __len__(self):
        return len(self.generators)

    def is_unit(self) -> bool:
        # a reduced basis of the unit ideal is (1,), whose packed lead is 0
        return bool(self.heads) and self.heads[0][0] == 0


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


_lead_key = itemgetter(0)  # of a (lead, tail) head
_EMPTY = IdealBasis((), ())  # the zero ideal, shared: a basis is immutable


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
    out in decreasing order.  A lead that divides a term m is at most m,
    so the scan over ``heads`` stops at the first lead above m and keeps m
    in the remainder.  With ``sigs`` (lead -> signature of the new
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
            if lead > m:  # no later lead divides m
                out[m] = c
                break
            if (mg - lead) & guard == guard and (
                    sigs is None or lead not in sigs or m - lead + sigs[lead] < bound):
                _subtract(work, heap, tail, m - lead, c, p, guard)
                break
        else:
            out[m] = c
    return out


def normal_form(f: Polynomial, basis: IdealBasis) -> Polynomial:
    """Remainder of multivariate division of f by the reduced basis:
    canonical, and zero exactly on the members of its ideal.

    Generators go through ``buchberger`` first: a remainder by a list
    depends on its order and is canonical for nothing.
    """
    if not isinstance(basis, IdealBasis):
        raise TypeError("normal_form divides by an IdealBasis; "
                        "make one from generators with buchberger")
    if f.is_zero() or not basis.heads:
        return f
    f._check(basis.generators[0])
    packing = _Packing(f.nslots)
    rem = _reduce(packing.pack(f.terms), basis.heads, f.field.characteristic, packing.guard)
    return packing.unpack(f.field, rem)


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

    ``old`` are the heads of a reduced basis, possibly empty.  The new
    elements carry signatures, packed monomials u with the element
    congruent to u*f plus lower multiples of f modulo the old ideal; see
    the module docstring.
    """
    if old and old[0][0] == 0:
        return None
    p = field.characteristic
    G, heads = list(old), list(old)
    old_leads = [lead for lead, _ in old] + [guard << 1]  # and one above all signatures
    sigs = {}  # lead -> signature of each new element, in the order of G
    syz = []  # minimal signatures of the zero reductions
    best = {}  # signature -> least (lcm, i, j), or None when an old lead divides it
    queue, s = [], 0  # a heap of the signatures in best not yet taken
    h = _reduce(f, old, p, guard) if old else f
    if not h:
        return old
    while True:
        if h:
            new = _monic_head(h, field)
            lead = new[0]
            if lead == 0:
                return None
            k = len(G)
            lg = lead | guard
            for j, (lead_j, _) in enumerate(G):
                ge = (lg - lead_j) & guard  # _lcm(lead, lead_j, guard) inline
                lcm = lead_j ^ ((lead ^ lead_j) & (ge | ge - (ge >> 15)))
                if lcm == lead + lead_j:
                    continue  # coprime leads
                sig, pair = lcm - lead + s, (lcm, k, j)
                sig_j = sigs.get(lead_j)  # None for an old element, below every signature
                if sig_j is not None:
                    sig_o = lcm - lead_j + sig_j
                    if sig_o == sig:
                        continue
                    if sig_o > sig:
                        sig, pair = sig_o, (lcm, j, k)
                known = best.get(sig, ())  # sig is above s; a taken one keeps its entry
                if known is None:
                    continue
                if known:
                    if pair < known:
                        best[sig] = pair
                    continue
                hi = sig & guard
                sg = sig | guard | hi - (hi >> 15)  # a field past the range saturated
                for z in old_leads:  # a divisor is at most what it divides
                    if z > sig or (sg - z) & guard == guard:
                        break
                if z > sig:
                    best[sig] = pair
                    heapq.heappush(queue, sig)  # in range or not
                else:  # an old lead divides it
                    best[sig] = None
            G.append(new)
            insort(heads, new, key=_lead_key)
            sigs[lead] = s
        else:  # a syzygy signature that no element of syz divides
            syz = [z for z in syz if ((z | guard) - s) & guard != guard]
            syz.append(s)
        while queue:  # increasing signature
            s = heapq.heappop(queue)
            lcm, i, j = best[s]
            hi = s & guard
            sg = s | guard | hi - (hi >> 15)
            if not any((sg - z) & guard == guard for z in syz) and not any(
                    (sg - sig_c) & guard == guard and s - sig_c + lead_c < lcm
                    for lead_c, sig_c in sigs.items()):
                break  # neither a syzygy signature nor a cover
        else:
            return heads
        if s & guard:
            raise _overflow()
        h = _reduce(_spoly(G[i], G[j], lcm, p, guard), heads, p, guard, sigs, s)


def _finish(heads, old: IdealBasis, field, packing: _Packing, top=None) -> IdealBasis:
    """The reduced basis of the closed ``heads``, all in ``packing``: the
    unit basis for None, and only the leads below ``top`` when it is given.

    Old leads divide no other old lead or tail, and a larger lead nothing,
    so an element of the reduced basis ``old`` is dropped or reduced only
    for a smaller surviving new lead, else returned as is.  A lead divides
    itself, so the divisor test also drops a repeated lead, which only a
    raw Gebauer-Moeller run, with ``old`` empty, can produce.  Every
    caller's ideal contains ``old``'s, so the result carries ``old.proved``.
    """
    if heads is None:
        return IdealBasis((Polynomial.const(field, packing.nslots, 1),), ((0, ()),))
    if top is not None:
        heads = heads[:bisect_left(heads, top, key=_lead_key)]
    old_at = dict(zip(map(_lead_key, old.heads), old.generators))
    p, guard, one = field.characteristic, packing.guard, field.one()
    reduced, leads, new_leads, out = [], [], [], []
    for head in heads:
        lead, tail = head
        g = old_at.get(lead)
        lg = lead | guard
        if any((lg - d) & guard == guard for d in (leads if g is None else new_leads)):
            continue
        if g is None or new_leads and any(((m | guard) - n) & guard == guard
                                          for m, _ in tail for n in new_leads):
            rem = _reduce(dict(tail), reduced, p, guard)
            if not p:  # _subtract leaves some products an integral Fraction
                rem = {m: _rational(c) for m, c in rem.items()}
            head = lead, tuple(rem.items())
            if g is None:
                new_leads.append(lead)
            g = packing.unpack(field, {lead: one, **rem})
        reduced.append(head)
        leads.append(lead)
        out.append(g)
    return IdealBasis(tuple(out), tuple(reduced), old.proved)


def buchberger(gens) -> IdealBasis:
    """The minimal reduced lex Groebner basis of the ideal the input spans.

    The zero ideal normalizes to an empty basis and the unit ideal to the
    single generator 1.  The output is independent of the input order.
    Raw generators get one Gebauer-Moeller run, in which a repeated
    generator reduces to zero.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return _EMPTY
    first = gens[0]
    for g in gens:
        first._check(g)
    field, packing = first.field, _Packing(first.nslots)
    G = [_monic_head(packing.pack(g.terms), field) for g in gens]
    return _finish(_close(G, field, packing.guard), _EMPTY, field, packing)


def _extend(basis: IdealBasis, polys) -> IdealBasis:
    """``buchberger(basis.generators + polys)`` by the one rule: a basis,
    the empty one included, grows by one signature step per nonzero
    polynomial, never by the pair loop.  A member of the ideal, such as
    a repeat, reduces to zero at once, and the basis comes back itself
    when nothing new remains."""
    polys = [g for g in polys if not g.is_zero()]
    if not polys:
        return basis
    first = basis.generators[0] if basis else polys[0]
    for g in polys:
        first._check(g)
    packing = _Packing(first.nslots)
    for g in polys:
        heads = _adjoin(basis.heads, packing.pack(g.terms), g.field, packing.guard)
        if heads is not basis.heads:
            basis = _finish(heads, basis, g.field, packing)
    return basis


def elimination_subbasis(basis: IdealBasis, j: int) -> IdealBasis:
    """Generators involving only the lowest j slots.

    The subset of a reduced lex basis is a reduced basis of the
    elimination ideal (the relations among the low slots alone).  It is a
    prefix: a polynomial lives in those slots exactly when its lead does.
    """
    k = bisect_left(basis.heads, 1 << 16 * j, key=_lead_key)
    return IdealBasis(basis.generators[:k], basis.heads[:k])


def _lead_spans(basis: IdealBasis) -> list:
    """(lowest, highest) slot of each generator's leading monomial, in
    basis order, (0, 0) for 1: the lowest and highest nonzero 16-bit
    field of its packed lead.
    """
    return [(((lead & -lead).bit_length() + 15) >> 4, (lead.bit_length() + 15) >> 4)
            for lead, _ in basis.heads]


def _rabinowitsch(basis_or_gens, f: Polynomial, packing: _Packing):
    """Heads of a Groebner basis of I + <1 - t*f>, t a fresh slot above the
    others, or None for 1, and the old basis for ``_finish``: a basis
    adjoins t*f - 1 by signatures, raw generators get Gebauer-Moeller.
    f is checked against the basis's first generator or every raw one."""
    field = f.field
    guard = packing.guard | packing.top << 15
    rab = {packing.top + m: c for m, c in packing.pack(f.terms).items()}
    rab[0] = field.neg(field.one())  # t*f - 1
    if isinstance(basis_or_gens, IdealBasis):
        for g in basis_or_gens.generators[:1]:
            f._check(g)
        return _adjoin(basis_or_gens.heads, rab, field, guard), basis_or_gens
    gens = [g for g in basis_or_gens if not g.is_zero()]
    for g in gens:
        f._check(g)
    G = [_monic_head(packing.pack(g.terms), field) for g in gens]
    G.append(_monic_head(rab, field))
    return _close(G, field, guard), _EMPTY


def ideal_saturate(basis_or_gens, f: Polynomial) -> IdealBasis:
    """Reduced basis of the saturation (I : f^infinity): the basis of
    I + <1 - t*f>, t a fresh top slot, meet the original slots."""
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    packing = _Packing(f.nslots)
    heads, old = _rabinowitsch(basis_or_gens, f, packing)
    return _finish(heads, old, f.field, packing, packing.top)


def _poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic lcm of nonzero f and g: the generator of <f> ∩ <g>, which is
    <t*f, (1-t)*g> with a fresh top slot t eliminated.  The basis {t*f}
    adjoins (t - 1)*g by a signature step."""
    field, packing = f.field, _Packing(f.nslots)
    top, pg = packing.top, packing.pack(g.terms)
    tf = {top + m: c for m, c in packing.pack(f.terms).items()}
    tg_g = {**{m: field.neg(c) for m, c in pg.items()},
            **{top + m: c for m, c in pg.items()}}  # (t - 1)*g
    heads = _adjoin([_monic_head(tf, field)], tg_g, field, packing.guard | top << 15)
    return _finish(heads, _EMPTY, field, packing, top).generators[0]


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
    the generator, if any, comes first.  By the module's one rule that
    basis grows from the empty one, a signature step per permuted
    generator in increasing lead order: one Gebauer-Moeller run over all
    of them took minutes on some 20-element bases.
    """
    if g.occurring_slots() <= {pos}:
        return g
    nslots = g.nslots
    order = [p for p in range(nslots) if p != pos] + [pos]
    permuted = _extend(_EMPTY, sorted(
        (_permuted(b, order) for b in basis.generators), key=Polynomial.lead_monomial))
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
    that some leading monomial is a pure power of can have an eliminant:
    one whose lowest and highest slot agree in ``_lead_spans``.  The
    first generator leading with such a power is the one used.

    A slot proved squarefree stays so in every larger ideal: if I <= I'
    and m generates I meet k[slot], then m lies in I', so the eliminant
    of I' divides m, and a divisor of a squarefree polynomial is
    squarefree (Gianni, Trager & Zacharias 1988).  So the closure starts
    from ``basis.proved``, a rescan after an adjunction skips the slots
    already proved, no eliminant is computed for a proved slot, and the
    result carries every slot proved for it.  A slot whose eliminant m it
    squares off counts as proved at once: the larger ideal contains s, so
    its eliminant divides s, which is squarefree.  A zero or unit basis
    leads with no pure power of a slot (the unit basis's span is (0, 0)),
    so its scan finds nothing and the closure ends.  The set lives on a
    basis, which has one ideal, never on a ``Polynomial``: bases of
    different ideals, such as two sibling parts', share generator objects.
    """
    proved = set(basis.proved)
    while True:
        firsts = {}  # position -> first generator leading with a pure power of it
        for g, (lo, hi) in zip(basis.generators, _lead_spans(basis)):
            if 0 < lo == hi and g.nslots - hi not in proved:
                firsts.setdefault(g.nslots - hi, g)
        for pos in sorted(firsts, reverse=True):
            m = _eliminant(basis, pos, firsts[pos])
            if m is None:
                continue
            proved.add(pos)
            s = squarefree_part(m)
            if s != m:
                basis = _extend(basis, (s,))
                break
        else:
            break
    return IdealBasis(basis.generators, basis.heads, frozenset(proved))
