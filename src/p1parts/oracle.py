"""Brute-force finite-field ground truth for the partition machinery.

Every question is answered by one depth-first walk over the slots, from
y_1 up to y_{2n}: each constraint is tested as soon as its top slot is
set, so a prefix that fails one is dropped with every assignment that
extends it.  One walk carries several systems of constraints at once,
and drops a prefix only when every system fails it.  What the walk
needs of a constraint is found once per constraint object and kept on
it: its top slot, its terms grouped by the exponent of that slot, and,
when it involves no lower slot, its roots in F_p.  Equal constraints in
one walk share these facts, and the walks of one tree, which share most
constraint objects, find each root set once.  A test whose constraints
involve no lower slot passes the same values for every prefix, so each
slot folds such tests into one sparse mask of the systems each value
passes.  The other tests are grouped by the systems that make them;
once the lower slots are set, each group specializes its constraints to
their univariate fibres in the next slot and finds the candidate values
that pass, once for all its systems.  Variety points and part members
walk the canonical representatives (y_{2j-1} in {0, 1}, and y_{2j} = 1
after a 0) for one system.  The stepwise extension check tries all of
F_p at every slot for one part.  Before any plan it finds the last slot
where a prefix can die, plans and walks only up to it, and examines
each prefix that no value extends, on the same fibres.  The partition
check walks the variety and every leaf together and tallies each tuple
as it is reached, building a tuple only for a point that is missing,
off the variety or covered twice.  A part's frozen slots are evaluated
like any other: freezing only renames the slots already chosen.
Nothing of the size of F_p is built.

Every enumeration first compares the (p+1)^n canonical tuples with the
constant ``DEFAULT_CAP`` and raises EnumerationCapExceeded, before any
evaluation, when they pass it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .fields import GF
from .multiproj import Part, PartTree, leaf_parts, reduced_lead_coefficient
from .poly import Polynomial, _check_pair_homogeneous, poly_gcd, support_level

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


def _check_characteristic(polys, p: int, what: str):
    for f in polys:
        if f.field.characteristic != p:
            raise ValueError(f"{what} over {f.field}, expected F_{p}")


def _check_slots(polys, nslots: int):
    for f in polys:
        if f.nslots != nslots:
            raise ValueError(f"constraint has {f.nslots} slots, expected {nslots}")


def _variety(gens, p: int, n: int):
    """The generators as a system with no inequalities, once they are
    known to lie over F_p, in the 2n slots, and to be homogeneous in
    every pair."""
    gens = tuple(gens)
    _check_characteristic(gens, p, "generators are")
    _check_slots(gens, 2 * n)
    for g in gens:
        _check_pair_homogeneous(g, n)
    return gens, ()


def _system(part: Part, p: int):
    """A part's equalities and inequalities, once they are known to lie
    over F_p."""
    _check_characteristic((*part.eq.generators, *part.neq), p, "part is")
    return part.eq.generators, part.neq


def variety_points(gens, p: int, n: int) -> list:
    """Tuples on which every (pair-homogeneous) generator vanishes."""
    return _members(_variety(gens, p, n), p, n)


def part_members(part: Part, p: int, n: int) -> list:
    """Tuples where every equality vanishes and every inequality does not."""
    return _members(_system(part, p), p, n)


def _point(vals, n: int) -> ProjTuple:
    """A full canonical assignment as a tuple: the pair of x_j is
    (y_{2j}, y_{2j-1})."""
    return ProjTuple(tuple((vals[i], vals[i + 1]) for i in range(0, 2 * n, 2)))


def _members(system, p: int, n: int) -> list:
    """The canonical tuples satisfying one system, in
    ``enumerate_proj_space`` order."""
    found = []
    _walk([system], p, n, leaf=lambda vals, alive: found.append(_point(vals, n)))
    # x_n varies slowest, as in enumerate_proj_space; (g, h) is point
    # h*(g+1) of proj_line_points
    found.sort(key=lambda t: [h * (g + 1) for g, h in t.coords])
    return found


def _walk(systems, p: int, n: int, *, leaf=None, dead=None):
    """Walk the slot assignments where, for some system (eq, neq) of
    ``systems``, every ``eq`` vanishes and every ``neq`` does not.

    Sets y_1, ..., y_{2n} in turn, y_k to each candidate value; a prefix
    that every system fails is never extended.  A walk with a ``leaf``
    tries the canonical representatives (y_{2j-1} in {0, 1}, and
    y_{2j} = 1 after a 0).  In ``vals`` position 2n - i holds y_i.
    ``_tests`` groups the systems by the tests they make at each slot;
    ``_plan`` folds the groups whose tests involve no lower slot into one
    mask per slot, and lists the others.  Once y_1, ..., y_{k-1} are
    set, each listed group of surviving systems at slot k finds the
    candidates that pass its tests, once for all its systems.  Each full
    assignment goes to ``leaf(vals, alive)``, where bit i of ``alive`` is
    set when ``systems[i]`` holds.  When no candidate at slot k extends
    a group, ``dead(k, eqs, neqs, vals)`` sees the fibres of the group's
    tests, as polynomials in y_k, with y_1, ..., y_{k-1} still set in
    ``vals``.  A walk with no ``leaf`` looks only for dead prefixes and
    tries all of F_p at every slot, which is what makes ``_last_slot``
    sound: it first finds the last slot where a prefix can die, since a
    prefix that passes it has a passing value at every slot above, and
    plans and walks only up to it, or not at all when there is none.
    The (p+1)^n cap does not bound its p^(2n) prefixes, so it raises
    EnumerationCapExceeded once it has tried more than ``DEFAULT_CAP``
    values.
    """
    _check_cap(p, n)
    nslots = 2 * n
    start, tests = _tests(systems, nslots)
    if not start:
        return
    top = nslots if leaf is not None else _last_slot(tests, p)
    if not top:
        if leaf is not None:
            leaf([], start)  # the one assignment of no slots
        return
    slots = _plan(start, tests, p, top)
    vals = [0] * nslots
    every, tried = range(p), 0

    def extend(extend, k, alive):  # y_1, ..., y_{k-1} are set
        nonlocal tried
        pos = nslots - k
        if leaf is None:
            values = every
            tried += p
            if tried > DEFAULT_CAP:
                raise EnumerationCapExceeded(
                    f"the extension walk tried more than {DEFAULT_CAP} values")
        elif k % 2:
            values = (0, 1)  # y_{2j-1}
        else:
            values = every if vals[pos + 1] else (1,)  # y_{2j}
        base, at, varying = slots[k]
        live = []
        for members, eqs, neqs in varying:
            members &= alive
            if members:
                live.append((members, *_passing(
                    [_specialize(f, vals, p) for f in eqs],
                    [_specialize(f, vals, p) for f in neqs], values, p)))
        reached = 0
        for a in values:
            held = at.get(a, base) & alive
            for members, required, excluded in live:
                if a in required and a not in excluded:
                    held |= members
            if held:
                reached |= held
                vals[pos] = a
                if k < top:
                    extend(extend, k + 1, held)
                elif leaf is not None:
                    leaf(vals, held)
        if dead is not None and reached != alive:
            field = GF(p)
            for (eqs, neqs), members in tests[k].items():
                if members & alive and not members & reached:
                    dead(k, [_as_polynomial(_specialize(c.compiled, vals, p),
                                            field, nslots, pos) for c in eqs],
                         [_as_polynomial(_specialize(c.compiled, vals, p),
                                         field, nslots, pos) for c in neqs], vals)

    extend(extend, 1, start)  # no closure cycle keeps the plan alive


def _tests(systems, nslots: int):
    """The systems a walk starts with, as a bit mask, and for each slot k
    a dict from the tests made there, a pair (eqs, neqs) of tuples of
    the ``_Facts`` of the constraints whose top slot is k, to the
    systems that make them.

    A system with a failing constant never starts.  Equal constraints
    share one ``_Facts``, so equal tests are made once, and what one
    walk finds about a constraint serves every equal one.
    """
    for eq, neq in systems:
        _check_slots((*eq, *neq), nslots)
    by_tests = [{} for _ in range(nslots + 1)]
    first = {}  # constraint -> the first equal one in this walk
    start = 0
    for i, (eq, neq) in enumerate(systems):
        if any(g.is_constant() and not g.is_zero() for g in eq) or \
                any(q.is_zero() for q in neq):
            continue  # a constant fails for every assignment
        start |= 1 << i
        tests = {}  # slot -> (eqs, neqs)
        for bucket, constraints in enumerate((eq, neq)):
            for f in constraints:
                facts = f._oracle = _facts(first.setdefault(f, f))
                if facts.level:  # the other constants hold everywhere
                    tests.setdefault(facts.level, ([], []))[bucket].append(facts)
        for k, (eqs, neqs) in tests.items():
            key = (tuple(eqs), tuple(neqs))
            by_tests[k][key] = by_tests[k].get(key, 0) | 1 << i
    return start, by_tests


def _last_slot(tests, p: int) -> int:
    """The last slot where a walk that tries all of F_p at every slot can
    drop a prefix, or 0.

    A prefix can die at slot k only if some system there tests a
    constraint that involves a lower slot, which decides at once, or
    makes tests that no value of F_p passes.  Only the second needs root
    sets, and only above the highest slot of the first.
    """
    for k in range(len(tests) - 1, 0, -1):
        if any(c.fibre is None for eqs, neqs in tests[k] for c in (*eqs, *neqs)):
            return k
        for eqs, neqs in tests[k]:
            passing, excluded = _fixed(eqs, neqs, p)
            if passing == set() or len(excluded) == p:
                return k
    return 0


def _plan(start, tests, p: int, top: int):
    """The walk's tests at each slot k up to ``top``, as a tuple (base,
    at, varying), from the tests that ``_tests`` found there.

    The tests whose constraints involve no lower slot pass the same
    values for every prefix, so they are folded into one sparse mask: a
    value a passes the systems ``at.get(a, base)``, where ``base`` holds
    the systems that test nothing or only such inequalities there, and
    ``at`` has an entry only at a root.  ``varying`` lists the other
    groups of systems as (systems, eqs, neqs), their constraints
    compiled as ``_compile`` does, which the walk specializes at each
    prefix.
    """
    slots = [(start, {}, ())] * (top + 1)
    for k in range(1, top + 1):
        if not tests[k]:
            continue  # every system passes every value
        base, add, drop, varying = start, {}, {}, []
        for (eqs, neqs), members in tests[k].items():
            if any(c.fibre is None for c in (*eqs, *neqs)):
                varying.append((members, [c.compiled for c in eqs],
                                [c.compiled for c in neqs]))
                base &= ~members
                continue
            passing, excluded = _fixed(eqs, neqs, p)
            if passing is None:  # passes everywhere but at excluded
                for a in excluded:
                    drop[a] = drop.get(a, 0) | members
            else:
                base &= ~members
                for a in passing:
                    add[a] = add.get(a, 0) | members
        at = {a: base & ~drop.get(a, 0) | add.get(a, 0) for a in {*add, *drop}}
        slots[k] = (base, at, varying)
    return slots


class _Facts:
    """What the walk needs of a constraint f, found once and kept in f's
    ``_oracle`` slot.

    ``level`` is f's top slot k, 0 for a constant, and ``compiled`` holds
    f's terms as ``_compile`` groups them.  When f involves no lower
    slot, its fibre is f itself: ``fibre`` lists its pairs (e, c), and
    ``roots`` is None until ``root_set`` finds its roots in F_p.  When f
    involves a lower slot, both stay None.
    """

    __slots__ = ("level", "compiled", "fibre", "roots")

    def __init__(self, f: Polynomial):
        k = self.level = support_level(f)
        pos = f.nslots - k
        self.compiled = self.fibre = self.roots = None
        if k and any(sum(mono) != mono[pos] for mono in f.terms):
            self.compiled = _compile(f, pos)
        elif k:
            self.fibre = [(mono[pos], c) for mono, c in f.terms.items()]
            self.compiled = tuple((e, ((c, ()),)) for e, c in self.fibre)

    def root_set(self, p: int) -> set:
        if self.roots is None:
            self.roots = {a for a in range(p) if _holds((self.fibre,), (), a, p)}
        return self.roots


def _facts(f: Polynomial) -> _Facts:
    try:
        return f._oracle
    except AttributeError:
        f._oracle = _Facts(f)
        return f._oracle


def _fixed(eqs, neqs, p: int):
    """The values of F_p that pass tests whose constraints involve no
    lower slot, as a pair (passing, excluded): with equalities, passing
    holds their common roots that no inequality has; without, passing
    is None and every value passes but the roots of the inequalities,
    which ``excluded`` holds."""
    excluded = set().union(*[c.root_set(p) for c in neqs])
    if not eqs:
        return None, excluded
    return set.intersection(*[c.root_set(p) for c in eqs]) - excluded, excluded


def _compile(f: Polynomial, pos: int):
    """f's terms grouped by the exponent e of slot ``pos``: pairs
    (e, ((c, ((i, exp), ...)), ...)) over the other slots."""
    by_exp = {}
    for mono, c in f.terms.items():
        by_exp.setdefault(mono[pos], []).append(
            (c, tuple((i, e) for i, e in enumerate(mono) if e and i != pos)))
    return tuple((e, tuple(terms)) for e, terms in by_exp.items())


def _passing(eq_fibres, neq_fibres, values, p: int):
    """The ``values`` at which every equality fibre vanishes and no
    inequality fibre does, as a pair (required, excluded): a value passes
    when it is in ``required`` and not in ``excluded``.

    A nonzero fibre of degree d vanishes at d values at most, so neither
    set holds more values than the fibres' degrees add up to, except that
    ``required`` is ``values`` itself when no equality fibre is nonzero;
    nothing of the size of F_p is built.
    """
    if not all(neq_fibres):
        return (), ()  # a zero inequality fibre fails everywhere
    eq_fibres = [f for f in eq_fibres if f]  # a zero fibre vanishes everywhere
    if eq_fibres:
        return {a for a in values if _holds(eq_fibres, neq_fibres, a, p)}, ()
    return values, {a for a in values if not _holds((), neq_fibres, a, p)}


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
    """Cross-tabulate leaf members against the brute-force variety.

    One walk carries the variety (system 0) and every leaf (system i for
    leaf i - 1) and tallies each tuple as it is reached; a ProjTuple is
    built only for a tuple the report lists.
    """
    if tree.field.characteristic != p:
        raise ValueError(
            f"tree was computed in characteristic {tree.field.characteristic}, "
            f"cannot check against F_{p}")
    leaves = leaf_parts(tree)
    systems = [_variety(gens, p, n)] + [_system(part, p) for part in leaves]
    variety_size = covered = 0
    double, unsound, missing = [], [], []

    def leaf(vals, alive):
        nonlocal variety_size, covered
        on_variety, parts = alive & 1, alive >> 1
        variety_size += on_variety
        if on_variety and parts:
            covered += 1
            if not parts & (parts - 1):
                return  # covered exactly once
        t = _point(vals, n)
        if not parts:
            missing.append(t)
            return
        ids = [part.id for i, part in enumerate(leaves) if parts >> i & 1]
        if len(ids) > 1:
            double.append((t, ids))
        if not on_variety:
            unsound.extend((part_id, t) for part_id in ids)

    _walk(systems, p, n, leaf=leaf)
    return PartitionReport(
        variety_size=variety_size,
        tuples_scanned=(p + 1) ** n,
        covered=covered,
        double_covered=sorted(double, key=lambda pair: str(pair[0])),
        unsound=sorted(unsound, key=lambda pair: (pair[0], str(pair[1]))),
        missing=sorted(missing, key=str),
    )


def check_extension(part: Part, p: int, n: int) -> list:
    """Counterexamples to stepwise extension inside one part, or [].

    Tries all of F_p at every slot, bottom-up, over the partial
    assignments satisfying the constraints supported so far.  A prefix
    that no value in F_p extends to slot k still extends if the slot-k
    constraints, with the prefix plugged in, admit a root over the
    algebraic closure outside the inequality exclusions; that case is
    certified exactly (gcd of the equalities, saturated by the
    inequalities, stays nonconstant) since closure points cannot be
    enumerated.  A prefix can die only at a slot whose tests involve a
    lower slot, or whose tests no value of F_p passes, so the walk stops
    at the last such slot, and nothing is planned or walked when there
    is none.
    Returns the failing (k, (y_1, ..., y_{k-1})) sorted.  Raises
    EnumerationCapExceeded when the canonical tuples or the values the
    walk tries pass ``DEFAULT_CAP``.
    """
    system = _system(part, p)
    nslots = 2 * n
    counterexamples = []

    def dead(k, eqs, neqs, vals):
        if not _extends_into_closure(eqs, neqs):
            prefix = tuple(vals[nslots - i] for i in range(1, k))
            counterexamples.append((k, prefix))

    _walk([system], p, n, dead=dead)
    return sorted(counterexamples)


def _extends_into_closure(equations, exclusions):
    """Whether some closure value is a common root of ``equations`` and
    a root of no ``exclusions`` (all univariate in one slot)."""
    equations = [e for e in equations if not e.is_zero()]
    if any(e.is_constant() for e in equations):
        return False  # a nonzero constant has no root
    if any(s.is_zero() for s in exclusions):
        return False  # the inequality fails for every value
    if not equations:
        return True  # infinitely many closure values, finitely many excluded
    g = equations[0]
    for e in equations[1:]:
        g = poly_gcd(g, e)
    # saturated by the exclusions as the split rule saturates a coefficient
    return not reduced_lead_coefficient(g, exclusions).is_constant()
