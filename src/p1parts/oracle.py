"""Brute-force finite-field ground truth for the partition machinery.

Every question is answered by one depth-first walk over the slots, from
y_1 up to y_{2n}: each constraint is tested as soon as its top slot is
set, so a prefix that fails one is dropped with every assignment that
extends it.  The walk compiles each constraint once, into its terms
grouped by the exponent of its top slot.  Once the lower slots are set,
it specializes each constraint of the next slot, once per prefix, to its
univariate fibre in that slot, and tests every candidate value on the
fibres alone.  Variety points and part members walk the canonical
representatives (y_{2j-1} in {0, 1}, and y_{2j} = 1 after a 0); the
stepwise extension check walks all of F_p at every slot and examines
each prefix that no value extends, on the same fibres.  On these walks
the oracle also cross-checks a part tree for disjointness, soundness and
coverage.  A part's frozen slots are evaluated like any other: freezing
only renames the slots that have already been chosen.

Every enumeration first compares the (p+1)^n canonical tuples with the
constant ``DEFAULT_CAP`` and raises EnumerationCapExceeded, before any
evaluation, when they pass it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .fields import GF
from .groebner import principal_saturate
from .multiproj import Part, PartTree, leaf_parts
from .poly import Polynomial, poly_gcd, support_level

DEFAULT_CAP = 10**7


class EnumerationCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class ProjTuple:
    """A point of the n-fold projective line in canonical representatives.

    ``coords`` lists the pairs (g, h) for coordinates n down to 1; each
    pair is (1, 0) or (a, 1).
    """

    coords: tuple

    def __str__(self):
        return "(" + ",".join(f"({g}:{h})" for g, h in self.coords) + ")"

    @property
    def n(self):
        return len(self.coords)


def proj_line_points(p: int):
    """Canonical representatives of the projective line over F_p."""
    return [(1, 0)] + [(a, 1) for a in range(p)]


def _check_cap(p: int, n: int):
    total = (p + 1) ** n
    if total > DEFAULT_CAP:
        raise EnumerationCapExceeded(
            f"(p+1)^n = {total} exceeds the enumeration cap {DEFAULT_CAP}")


def enumerate_proj_space(p: int, n: int) -> list:
    """All canonical tuples, deterministic order, (p+1)^n of them."""
    _check_cap(p, n)
    pts = proj_line_points(p)
    return [ProjTuple(coords) for coords in itertools.product(pts, repeat=n)]


def _check_pair_homogeneous(g: Polynomial, n: int):
    if g.is_zero():
        return
    for j in range(1, n + 1):
        a = 2 * n - 2 * j
        b = a + 1
        degrees = {m[a] + m[b] for m in g.terms}
        if len(degrees) > 1:
            raise ValueError(
                f"generator is not homogeneous in pair {j}; its vanishing "
                "would depend on the representative")


def _check_characteristic(polys, p: int, what: str):
    for f in polys:
        if f.field.characteristic != p:
            raise ValueError(f"{what} over {f.field}, expected F_{p}")


def variety_points(gens, p: int, n: int) -> list:
    """Tuples on which every (pair-homogeneous) generator vanishes."""
    gens = list(gens)
    _check_characteristic(gens, p, "generators are")
    for g in gens:
        _check_pair_homogeneous(g, n)
    return _members(gens, (), p, n)


def part_members(part: Part, p: int, n: int) -> list:
    """Tuples where every equality vanishes and every inequality does not."""
    _check_characteristic((*part.eq.generators, *part.neq), p, "part is")
    return _members(part.eq.generators, part.neq, p, n)


def _members(eq, neq, p: int, n: int) -> list:
    """The canonical tuples satisfying the constraints, in
    ``enumerate_proj_space`` order."""
    def canonical(k, vals):
        if k % 2:
            return (0, 1)  # y_{2j-1}
        return range(p) if vals[2 * n - k + 1] else (1,)  # y_{2j}

    found = []

    def leaf(vals):  # (y_{2j}, y_{2j-1}) = (g, h) is point h*(g+1)
        found.append(tuple(vals[i + 1] * (vals[i] + 1)
                           for i in range(0, 2 * n, 2)))

    _walk(eq, neq, p, n, canonical, leaf=leaf)
    found.sort()  # x_n varies slowest, as in enumerate_proj_space
    pts = proj_line_points(p)
    return [ProjTuple(tuple(pts[i] for i in idx)) for idx in found]


def _walk(eq, neq, p: int, n: int, candidates, *, leaf=None, dead=None):
    """Walk the slot assignments where every ``eq`` vanishes and every
    ``neq`` does not.

    Sets y_1, ..., y_{2n} in turn, y_k to each value of
    ``candidates(k, vals)``; a failing prefix is never extended.  In
    ``vals`` position 2n - i holds y_i.  Each constraint is compiled once,
    by ``_compile``, into its terms grouped by the exponent of its top
    slot.  Once y_1, ..., y_{k-1} are set, each constraint whose top slot
    is y_k is specialized, once per prefix, to its univariate fibre in
    y_k, and every candidate is tested on the fibres alone.  Each full
    assignment goes to ``leaf(vals)``.  When no candidate survives at
    slot k, ``dead(k, eqs, neqs, vals)`` sees the same fibres, as
    polynomials in y_k, with y_1, ..., y_{k-1} still set in ``vals``.
    """
    _check_cap(p, n)
    nslots = 2 * n
    for f in (*eq, *neq):
        if f.nslots != nslots:
            raise ValueError(
                f"constraint has {f.nslots} slots, expected {nslots}")
    if any(g.is_constant() and not g.is_zero() for g in eq) or \
            any(q.is_zero() for q in neq):
        return  # a constant fails for every assignment
    tests = [([], []) for _ in range(nslots + 1)]  # by support level
    for bucket, constraints in enumerate((eq, neq)):
        for f in constraints:
            k = support_level(f)
            if k:  # the other constants hold for every assignment
                tests[k][bucket].append(_compile(f, nslots - k))
    vals = [0] * nslots

    def extend(k):  # y_1, ..., y_{k-1} are set
        if k > nslots:
            if leaf is not None:
                leaf(vals)
            return
        pos = nslots - k
        eqs, neqs = tests[k]
        values = candidates(k, vals)
        eq_fibres = [_specialize(f, vals, p) for f in eqs]
        neq_fibres = [_specialize(f, vals, p) for f in neqs]
        alive = False
        for a in values:
            if _holds(eq_fibres, neq_fibres, a, p):
                alive = True
                vals[pos] = a
                extend(k + 1)
        if not alive and dead is not None:
            field = GF(p)
            dead(k, [_as_polynomial(f, field, nslots, pos) for f in eq_fibres],
                 [_as_polynomial(f, field, nslots, pos) for f in neq_fibres],
                 vals)

    extend(1)


def _compile(f: Polynomial, pos: int):
    """f's terms grouped by the exponent e of slot ``pos``: pairs
    (e, ((c, ((i, exp), ...)), ...)) over the other slots."""
    by_exp = {}
    for mono, c in f.terms.items():
        by_exp.setdefault(mono[pos], []).append(
            (c, tuple((i, e) for i, e in enumerate(mono) if e and i != pos)))
    return tuple((e, tuple(terms)) for e, terms in by_exp.items())


def _specialize(compiled, vals, p: int):
    """The univariate fibre of a compiled constraint at the slot values
    ``vals``: its nonzero coefficients, as pairs (e, c)."""
    fibre = []
    for e, terms in compiled:
        acc = 0
        for c, factors in terms:
            for i, exp in factors:
                c *= vals[i] ** exp
            acc += c
        acc %= p
        if acc:
            fibre.append((e, acc))
    return fibre


def _holds(eq_fibres, neq_fibres, a, p: int) -> bool:
    """Whether every equality fibre vanishes at a and no inequality
    fibre does."""
    for fibre in eq_fibres:
        v = 0
        for e, c in fibre:
            v += c * a ** e
        if v % p:
            return False
    for fibre in neq_fibres:
        v = 0
        for e, c in fibre:
            v += c * a ** e
        if not v % p:
            return False
    return True


def _as_polynomial(fibre, field, nslots: int, pos: int) -> Polynomial:
    """A fibre as a polynomial in slot ``pos``."""
    return Polynomial._raw(field, nslots, {
        (0,) * pos + (e,) + (0,) * (nslots - pos - 1): c for e, c in fibre})


@dataclass
class PartitionReport:
    variety_size: int
    tuples_scanned: int
    covered: int
    double_covered: list = dc_field(default_factory=list)
    unsound: list = dc_field(default_factory=list)
    missing: list = dc_field(default_factory=list)

    @property
    def valid(self) -> bool:
        return (not self.double_covered and not self.unsound
                and not self.missing and self.covered == self.variety_size)

    def summary(self) -> str:
        if self.valid:
            return f"partition valid: {self.tuples_scanned} tuples scanned"
        return (f"partition INVALID: {len(self.missing)} missing, "
                f"{len(self.double_covered)} double-covered, "
                f"{len(self.unsound)} outside the variety "
                f"({self.tuples_scanned} tuples scanned)")


def check_partition(tree: PartTree, gens, p: int, n: int) -> PartitionReport:
    """Cross-tabulate leaf members against the brute-force variety."""
    if tree.field.characteristic != p:
        raise ValueError(
            f"tree was computed in characteristic {tree.field.characteristic}, "
            f"cannot check against F_{p}")
    variety = set(variety_points(gens, p, n))
    coverage = {}
    unsound = []
    for part in leaf_parts(tree):
        for t in part_members(part, p, n):
            coverage.setdefault(t, []).append(part.id)
            if t not in variety:
                unsound.append((part.id, t))
    double = sorted(((t, ids) for t, ids in coverage.items() if len(ids) > 1),
                    key=lambda pair: str(pair[0]))
    missing = sorted((t for t in variety if t not in coverage), key=str)
    covered = sum(1 for t in variety if t in coverage)
    return PartitionReport(
        variety_size=len(variety),
        tuples_scanned=(p + 1) ** n,
        covered=covered,
        double_covered=double,
        unsound=sorted(unsound, key=lambda pair: (pair[0], str(pair[1]))),
        missing=missing,
    )


def check_extension(part: Part, p: int, n: int) -> list:
    """Counterexamples to stepwise extension inside one part, or [].

    Walks all of F_p at every slot, bottom-up, over the partial
    assignments satisfying the constraints supported so far.  A prefix
    that no value in F_p extends to slot k still extends if the slot-k
    constraints, with the prefix plugged in, admit a root over the
    algebraic closure outside the inequality exclusions; that case is
    certified exactly (gcd of the equalities, saturated by the
    inequalities, stays nonconstant) since closure points cannot be
    enumerated.  Returns the failing (k, (y_1, ..., y_{k-1})) sorted.
    Raises EnumerationCapExceeded when the canonical tuples or the values
    the walk tries pass ``DEFAULT_CAP``.
    """
    _check_characteristic((*part.eq.generators, *part.neq), p, "part is")
    nslots = 2 * n
    counterexamples = []
    values, tried = range(p), 0

    def candidates(k, vals):  # the (p+1)^n cap does not bound p^(2n) prefixes
        nonlocal tried
        tried += p
        if tried > DEFAULT_CAP:
            raise EnumerationCapExceeded(
                f"the extension walk tried more than {DEFAULT_CAP} values")
        return values

    def dead(k, eqs, neqs, vals):
        if not _extends_into_closure(eqs, neqs):
            prefix = tuple(vals[nslots - i] for i in range(1, k))
            counterexamples.append((k, prefix))

    _walk(part.eq.generators, part.neq, p, n, candidates, dead=dead)
    return sorted(counterexamples)


def _extends_into_closure(equations, exclusions):
    """Whether some closure value is a common root of ``equations`` and
    a root of no ``exclusions`` (all univariate in one slot)."""
    equations = [e for e in equations if not e.is_zero()]
    if any(e.is_constant() for e in equations):
        return False  # a nonzero constant has no root
    if any(s.is_zero() for s in exclusions):
        return False  # the inequality fails for every value
    exclusions = [s for s in exclusions if not s.is_constant()]
    if not equations:
        return True  # infinitely many closure values, finitely many excluded
    g = equations[0]
    for e in equations[1:]:
        g = poly_gcd(g, e)
    if g.is_constant():
        return False  # no common root at all
    for s in exclusions:
        g = principal_saturate(g, s)
    return not g.is_constant()
