"""Lex Groebner bases and the ideal operations built on them.

Buchberger's algorithm with the coprime-lcm and chain criteria and
normal (smallest-lcm) pair selection, always returning the unique
minimal reduced basis, monic, sorted by increasing leading monomial.
Saturation, radical membership and the lcm behind ``poly_gcd`` ride on
one mechanism: adjoin a fresh top slot t and eliminate it, from
I + <1 - t*f> for the first two and from <t*f, (1-t)*g> for the lcm.

An ``IdealBasis`` is always such a reduced basis: only ``buchberger``,
``_extend``, ``elimination_subbasis`` and ``ideal_saturate`` make one.
Most bases the engine needs extend one by a single polynomial: a
child's equality J, the Rabinowitsch element 1 - t*f (a reduced basis
stays reduced with t adjoined), a squarefree eliminant of the closure.
Every S-pair inside a reduced basis reduces to zero, so ``_extend``
queues only the pairs that involve a new element and marks the old ones
treated, which keeps them available to the chain criterion (the
installation of Gebauer & Moeller 1988).  ``buchberger`` extends the
empty basis.

An extension also pays only for what the new polynomials change.  The
old elements are packed as they are (monic and distinct already); only
the new ones are made monic and de-duplicated, and one equal to an old
element is dropped.  The final pass leaves an old element alone when its
lead survives minimalization and no surviving new leading monomial
divides a term of its tail: the old leads never divide old tails, and a
new lead larger than the element's own cannot divide anything below it.
Such an element is already in the reduced basis and is returned as the
same object; only the old elements a new lead touches, and the new
elements, are reduced and unpacked.

The core works on packed monomials (Monagan & Pearce 2007): each
exponent tuple becomes one int with 16 bits per slot, slot 0 in the
highest field and bit 15 of every field a guard bit that stays clear.
Lex order is then int order and multiplying monomials is adding ints.
Divisibility is one masked subtraction: a divides b exactly when
``((b | guard) - a) & guard == guard``, because a field keeps its guard
bit only where b's exponent is at least a's.  An exponent that reaches
2^15 raises ExponentOverflowError rather than wrap.  Packing is local to
a call: a basis computation packs its input once and unpacks only the
final basis, ``normal_form`` packs its arguments each time.

Division picks the largest remaining term off a max-heap and reduces it
by the first generator, in increasing leading-monomial order, whose
leading monomial divides it.  The minimal basis becomes the reduced one
in a single pass in increasing lead order: no later leading monomial can
divide a term of an earlier element, so reducing each element by the
already-reduced smaller ones is enough.
"""

from __future__ import annotations

import heapq
import struct
from bisect import insort
from dataclasses import dataclass

from .poly import (
    Polynomial, exact_div, poly_gcd, squarefree_part, support_level,
)

_EXPONENT_LIMIT = 1 << 15  # the top bit of each 16-bit slot is the guard


class ExponentOverflowError(ValueError):
    """An exponent reached 2^15, more than a packed monomial slot holds."""


def _overflow():
    return ExponentOverflowError(
        f"exponent reached {_EXPONENT_LIMIT}, the limit of a packed monomial slot")


@dataclass(frozen=True)
class IdealBasis:
    """A reduced lex Groebner basis: monic, sorted by increasing lead."""

    generators: tuple

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

    __slots__ = ("nslots", "guard", "_struct")

    def __init__(self, nslots: int):
        self.nslots = nslots
        self._struct = struct.Struct(f">{nslots}H")
        self.guard = int.from_bytes(b"\x80\x00" * nslots, "big")

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

    The tail is a list of (monomial, coefficient) pairs without the lead.
    """
    lead = max(terms)
    lc = terms.pop(lead)
    if lc == field.one():
        return lead, list(terms.items())
    inv = field.inv(lc)
    return lead, [(m, field.mul(c, inv)) for m, c in terms.items()]


def _lead_key(head):
    return head[0]


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


def _reduce(work: dict, heads, p: int, guard: int) -> dict:
    """Remainder of the packed term map ``work`` (consumed) by ``heads``.

    ``heads`` are monic (lead, tail) pairs sorted by lead; ``p`` is the
    field characteristic, 0 for the rationals.  The remainder's terms come
    out in decreasing order.
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
            if (mg - lead) & guard == guard:
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


def buchberger(gens) -> IdealBasis:
    """The minimal reduced lex Groebner basis of the ideal the input spans.

    The zero ideal normalizes to an empty basis and the unit ideal to the
    single generator 1.  The output is independent of the input order.
    """
    return _extend(IdealBasis(()), gens)


def _extend(basis: IdealBasis, polys) -> IdealBasis:
    """``buchberger(basis.generators + polys)``, without redoing the basis.

    Every S-pair among the reduced basis's elements reduces to zero by
    them and hence by any larger set, so those pairs are marked treated
    instead of queued; they still feed the chain criterion.  Old elements
    that no new leading monomial touches come back as the same objects,
    and when nothing new remains after de-duplication the basis itself is
    returned.
    """
    old = basis.generators  # nonzero, monic and distinct already
    added = [g for g in dict.fromkeys(g.monic() for g in polys if not g.is_zero())
             if g not in old]
    if not added:
        return basis
    gens = [*old, *added]
    for g in added:
        gens[0]._check(g)
    for g in gens:
        if g.is_constant():
            return _unit_basis(g)
    field = gens[0].field
    p = field.characteristic
    packing = _Packing(gens[0].nslots)
    guard = packing.guard
    G = [_monic_head(packing.pack(g.terms), field) for g in gens]
    closed = len(old)
    # G in increasing lead order, for division; the sort is stable, so an
    # old element precedes a new input with the same lead
    heads = sorted(G, key=_lead_key)

    # pair queue keyed by (lcm, i, j): smallest lcm first (normal strategy)
    pairs = []
    treated = {(i, j) for j in range(closed) for i in range(j)}
    for j in range(closed, len(G)):
        for i in range(j):
            heapq.heappush(pairs, (_lcm(G[i][0], G[j][0], guard), i, j))
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        treated.add((i, j))
        (lead_i, tail_i), (lead_j, tail_j) = G[i], G[j]
        if lead_i + lead_j == lcm:
            continue  # coprime leading monomials: S-polynomial reduces to 0
        lg = lcm | guard
        if any(k != i and k != j and (lg - G[k][0]) & guard == guard
               and (min(i, k), max(i, k)) in treated
               and (min(j, k), max(j, k)) in treated
               for k in range(len(G))):
            continue  # chain criterion
        # S-polynomial of two monic elements: the leads cancel
        work = {}
        _subtract(work, [], tail_i, lcm - lead_i, -1, p, guard)
        _subtract(work, [], tail_j, lcm - lead_j, 1, p, guard)
        h = _reduce(work, heads, p, guard)
        if not h:
            continue
        new = _monic_head(h, field)
        if new[0] == 0:
            return _unit_basis(gens[0])
        G.append(new)
        insort(heads, new, key=_lead_key)
        for k in range(len(G) - 1):
            heapq.heappush(pairs, (_lcm(G[k][0], new[0], guard), k, len(G) - 1))

    # Minimalize, then reduce each element by the reduced smaller ones.  An
    # old tail is reduced by the old leads already, and a lead larger than
    # an element's own cannot divide its tail, so an old element needs the
    # work only when a smaller surviving new lead divides a tail term.
    old_at = dict(zip((lead for lead, _ in G), old))  # old lead -> element
    one = field.one()
    reduced, new_leads, out = [], [], []
    for lead, tail in heads:
        lg = lead | guard
        if any((lg - r[0]) & guard == guard for r in reduced):
            continue
        g = old_at.get(lead)
        if g is None or any(((m | guard) - n) & guard == guard
                            for m, _ in tail for n in new_leads):
            rem = _reduce(dict(tail), reduced, p, guard)
            tail = list(rem.items())
            g = packing.unpack(field, {lead: one, **rem})
            if lead not in old_at:
                new_leads.append(lead)
        reduced.append((lead, tail))
        out.append(g)
    return IdealBasis(tuple(out))


def elimination_subbasis(basis: IdealBasis, j: int) -> IdealBasis:
    """Generators involving only the lowest j slots.

    The subset of a reduced lex basis is a reduced basis of the
    elimination ideal (the relations among the low slots alone).
    """
    return IdealBasis(tuple(g for g in basis if support_level(g) <= j))


def _extend_top(g: Polynomial) -> Polynomial:
    terms = {(0,) + m: c for m, c in g.terms.items()}
    return Polynomial._raw(g.field, g.nslots + 1, terms)


def _strip_top(g: Polynomial) -> Polynomial:
    terms = {m[1:]: c for m, c in g.terms.items()}
    return Polynomial._raw(g.field, g.nslots - 1, terms)


def _rabinowitsch_basis(basis_or_gens, f: Polynomial):
    """Reduced basis of I + <1 - t*f> with a fresh slot t above all others.

    A reduced basis of I stays one with t adjoined (no leading monomial
    moves), so an ``IdealBasis`` is only extended; raw generators get the
    full computation.
    """
    field = f.field
    ext = tuple(_extend_top(g) for g in basis_or_gens if not g.is_zero())
    t = Polynomial.var(field, f.nslots + 1, 0)
    one = Polynomial.const(field, f.nslots + 1, 1)
    rab = one - t * _extend_top(f)
    if isinstance(basis_or_gens, IdealBasis):
        return _extend(IdealBasis(ext), (rab,))
    return buchberger((*ext, rab))


def ideal_saturate(basis_or_gens, f: Polynomial) -> IdealBasis:
    """Reduced basis of the saturation (I : f^infinity).

    Adjoins a fresh top slot t, adds 1 - t*f, computes the lex basis and
    intersects with the original slots.
    """
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    ext = _rabinowitsch_basis(basis_or_gens, f)
    kept = tuple(_strip_top(g) for g in ext.generators if g.degree_in(0) == 0)
    return IdealBasis(kept)


def _poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic lcm of nonzero f and g: the generator of <f> ∩ <g>, which is
    <t*f, (1-t)*g> with a fresh top slot t eliminated."""
    t = Polynomial.var(f.field, f.nslots + 1, 0)
    one = Polynomial.const(f.field, f.nslots + 1, 1)
    basis = buchberger((t * _extend_top(f), (one - t) * _extend_top(g)))
    lcm, = (h for h in basis.generators if h.degree_in(0) == 0)
    return _strip_top(lcm)


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
    return _rabinowitsch_basis(basis_or_gens, f).is_unit()


def _permuted(g: Polynomial, order) -> Polynomial:
    terms = {tuple(m[p] for p in order): c for m, c in g.terms.items()}
    return Polynomial._raw(g.field, g.nslots, terms)


def _eliminant(basis: IdealBasis, pos: int):
    """Monic generator of the ideal's intersection with k[slot pos], or None.

    A nonzero univariate member has a pure power of the slot as leading
    monomial in every order, so the reduced lex basis has such a leading
    monomial whenever the intersection is nonzero (Cox, Little & O'Shea,
    ch. 3 section 1).  When the element carrying it is univariate it is
    the generator; otherwise the lex basis is recomputed with the slot
    moved to the bottom, where the generator, if any, comes first.
    """
    for g in basis.generators:
        lead = g.lead_monomial()
        if 0 < lead[pos] == sum(lead):
            break
    else:
        return None
    if g.occurring_slots() <= {pos}:
        return g
    nslots = g.nslots
    order = [p for p in range(nslots) if p != pos] + [pos]
    first = buchberger([_permuted(b, order) for b in basis.generators]).generators[0]
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
    I <= J <= sqrt(I), which is all the callers rely on.
    """
    while not (basis.is_zero_ideal() or basis.is_unit()):
        for pos in reversed(range(basis.generators[0].nslots)):
            m = _eliminant(basis, pos)
            if m is None:
                continue
            s = squarefree_part(m)
            if s != m:
                basis = _extend(basis, (s,))
                break
        else:
            break
    return basis
