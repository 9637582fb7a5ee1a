"""Brute-force finite-field ground truth for the partition machinery.

Enumerates every canonical point of the n-fold product of projective
lines over F_p, computes variety points by direct evaluation, and
cross-checks a part tree for disjointness, soundness and coverage.
A part's frozen slots are evaluated like any other: freezing only
renames the coordinates that have already been chosen.
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


def enumerate_proj_space(p: int, n: int, cap: int = DEFAULT_CAP) -> list:
    """All canonical tuples, deterministic order, (p+1)^n of them."""
    total = (p + 1) ** n
    if total > cap:
        raise EnumerationCapExceeded(
            f"(p+1)^n = {total} exceeds the enumeration cap {cap}")
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


def variety_points(gens, p: int, n: int, cap: int = DEFAULT_CAP) -> list:
    """Tuples on which every (pair-homogeneous) generator vanishes."""
    gens = list(gens)
    for g in gens:
        if g.field.characteristic != p:
            raise ValueError(
                f"generators are over {g.field}, expected F_{p}")
        _check_pair_homogeneous(g, n)
    out = []
    for t in enumerate_proj_space(p, n, cap):
        vals = t.slot_values()
        if all(g.evaluate(vals) == 0 for g in gens):
            out.append(t)
    return out


def part_members(part: Part, p: int, n: int, cap: int = DEFAULT_CAP) -> list:
    """Tuples where every equality vanishes and every inequality does not."""
    eq = part.eq.generators
    neq = part.neq
    out = []
    for t in enumerate_proj_space(p, n, cap):
        vals = t.slot_values()
        if all(g.evaluate(vals) == 0 for g in eq) and \
                all(q.evaluate(vals) != 0 for q in neq):
            out.append(t)
    return out


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


def _constraints_by_level(part: Part):
    """Bucket the part's constraints by their top slot level."""
    eq_by = {}
    neq_by = {}
    for g in part.eq.generators:
        eq_by.setdefault(support_level(g), []).append(g)
    for q in part.neq:
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
    eq_by, neq_by = _constraints_by_level(part)
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
