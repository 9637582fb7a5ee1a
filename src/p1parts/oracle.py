"""Brute-force finite-field ground truth for the partition machinery.

Finds every canonical point of the n-fold product of projective lines
over F_p that satisfies a set of constraints by one prefix walk: the
coordinates are assigned from x_1 up to x_n, and each constraint is
evaluated directly as soon as its top slot is set, so a prefix that
fails one is dropped with every tuple that extends it.  On this walk it
computes variety points and part members, and cross-checks a part tree
for disjointness, soundness and coverage.  A part's frozen slots are
evaluated like any other: freezing only renames the coordinates that
have already been chosen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .groebner import principal_saturate
from .multiproj import Part, PartTree, leaf_parts, support_level
from .poly import Polynomial, poly_gcd

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

    def slot_values(self):
        """Values for the 2n slots y_{2n}, ..., y_1."""
        return [v for pair in self.coords for v in pair]


def proj_line_points(p: int):
    """Canonical representatives of the projective line over F_p."""
    return [(1, 0)] + [(a, 1) for a in range(p)]


def _check_cap(p: int, n: int, cap: int):
    total = (p + 1) ** n
    if total > cap:
        raise EnumerationCapExceeded(
            f"(p+1)^n = {total} exceeds the enumeration cap {cap}")


def enumerate_proj_space(p: int, n: int, cap: int = DEFAULT_CAP) -> list:
    """All canonical tuples, deterministic order, (p+1)^n of them."""
    _check_cap(p, n, cap)
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


def variety_points(gens, p: int, n: int, cap: int = DEFAULT_CAP) -> list:
    """Tuples on which every (pair-homogeneous) generator vanishes."""
    gens = list(gens)
    _check_characteristic(gens, p, "generators are")
    for g in gens:
        _check_pair_homogeneous(g, n)
    return _walk(gens, (), p, n, cap)


def part_members(part: Part, p: int, n: int, cap: int = DEFAULT_CAP) -> list:
    """Tuples where every equality vanishes and every inequality does not."""
    _check_characteristic((*part.eq.generators, *part.neq), p, "part is")
    return _walk(part.eq.generators, part.neq, p, n, cap)


def _walk(eq, neq, p: int, n: int, cap: int) -> list:
    """Tuples where every ``eq`` vanishes and every ``neq`` does not.

    Assigns the canonical pairs one coordinate at a time, from x_1 up to
    x_n, and tests each constraint as soon as its top slot is set, so a
    prefix that already fails one is never extended.  The members come
    back in ``enumerate_proj_space`` order.
    """
    _check_cap(p, n, cap)
    nslots = 2 * n
    for f in (*eq, *neq):
        if f.nslots != nslots:
            raise ValueError(
                f"constraint has {f.nslots} slots, expected {nslots}")
    eq_by, neq_by = _constraints_by_level(eq, neq)
    vals = [0] * nslots

    def holds(eqs, neqs):
        return all(g.evaluate(vals) == 0 for g in eqs) and \
            all(q.evaluate(vals) != 0 for q in neqs)

    if not holds(eq_by.get(0, ()), neq_by.get(0, ())):
        return []
    # per coordinate j: the constraints whose top slot is y_{2j-1} or y_{2j}
    tests = [(eq_by.get(2 * j - 1, []) + eq_by.get(2 * j, []),
              neq_by.get(2 * j - 1, []) + neq_by.get(2 * j, []))
             for j in range(1, n + 1)]
    pts = proj_line_points(p)
    found = []

    def extend(j, prefix):  # prefix: point indices for x_{j-1}, ..., x_1
        if j > n:
            found.append(prefix)
            return
        pos = nslots - 2 * j
        eqs, neqs = tests[j - 1]
        for i, (g, h) in enumerate(pts):
            vals[pos] = g
            vals[pos + 1] = h
            if holds(eqs, neqs):
                extend(j + 1, (i,) + prefix)

    extend(1, ())
    found.sort()  # x_n varies slowest, as in enumerate_proj_space
    return [ProjTuple(tuple(pts[i] for i in idx)) for idx in found]


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


def check_partition(tree: PartTree, gens, p: int, n: int,
                    cap: int = DEFAULT_CAP) -> PartitionReport:
    """Cross-tabulate leaf members against the brute-force variety."""
    if tree.field.characteristic != p:
        raise ValueError(
            f"tree was computed in characteristic {tree.field.characteristic}, "
            f"cannot check against F_{p}")
    variety = set(variety_points(gens, p, n, cap))
    coverage = {}
    unsound = []
    for part in leaf_parts(tree):
        for t in part_members(part, p, n, cap):
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


def _constraints_by_level(eq, neq):
    """Bucket equalities and inequalities by their top slot level."""
    eq_by = {}
    neq_by = {}
    for g in eq:
        eq_by.setdefault(support_level(g), []).append(g)
    for q in neq:
        neq_by.setdefault(support_level(q), []).append(q)
    return eq_by, neq_by


def _substitute_prefix(g: Polynomial, t, level: int):
    """Plug a partial slot assignment in, leaving slot ``level`` symbolic.

    Constraints are bucketed by their top slot, so everything occurring
    below the symbolic slot takes its value from the prefix.
    """
    field = g.field
    nslots = g.nslots
    images = {}
    for pos in g.occurring_slots():
        k = nslots - pos  # slot index held at this position
        if k == level:
            images[pos] = Polynomial.var(field, nslots, pos)
        else:
            images[pos] = Polynomial.const(field, nslots, t[k - 1])
    return g.substitute(images)


def check_extension(part: Part, p: int, n: int) -> list:
    """Counterexamples to stepwise extension inside one part, or [].

    Walks slot levels bottom-up over the rational partial assignments
    satisfying the constraints supported so far.  A prefix extends if
    some value in F_p works, or else if the substituted next-slot
    constraints still admit a root over the algebraic closure outside
    the inequality exclusions; that second case is certified exactly
    (gcd of the equalities, saturated by the inequalities, stays
    nonconstant) since closure points cannot be enumerated.  Prefixes
    that extend only into the closure leave the rational search frontier.
    """
    _check_characteristic((*part.eq.generators, *part.neq), p, "part is")
    eq_by, neq_by = _constraints_by_level(part.eq.generators, part.neq)
    nslots = 2 * n
    counterexamples = []
    prefixes = [()]
    for level in range(1, nslots + 1):
        eqs = eq_by.get(level, [])
        neqs = neq_by.get(level, [])
        new = []
        for t in prefixes:
            rational = []
            for a in range(p):
                vals = [0] * nslots
                for k, v in enumerate((*t, a), start=1):
                    vals[nslots - k] = v
                if all(g.evaluate(vals) == 0 for g in eqs) and \
                        all(q.evaluate(vals) != 0 for q in neqs):
                    rational.append(a)
            new.extend(t + (a,) for a in rational)
            if rational:
                continue
            if not _extends_into_closure(eqs, neqs, t, level):
                counterexamples.append((level, t))
        prefixes = new
    return counterexamples


def _extends_into_closure(eqs, neqs, t, level):
    equations = []
    for g in eqs:
        e = _substitute_prefix(g, t, level)
        if e.is_zero():
            continue
        if e.is_constant():
            return False  # a nonzero constant has no root
        equations.append(e)
    exclusions = []
    for q in neqs:
        s = _substitute_prefix(q, t, level)
        if s.is_zero():
            return False  # the inequality fails for every value
        if not s.is_constant():
            exclusions.append(s)
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
