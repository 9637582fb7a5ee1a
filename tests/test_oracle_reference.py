"""Differential checks of the oracle's slot walk against earlier oracles.

The first references enumerate all (p+1)^n canonical tuples with
``enumerate_proj_space`` and evaluate every constraint on the full slot
values of each.  ``variety_points`` and ``part_members`` prune prefixes
instead, so they must return exactly the reference lists, in the same
order.  ``ref_check_extension`` is the earlier stepwise extension check,
a level-by-level breadth-first search that substitutes each dead prefix
into the next slot's constraints; ``check_extension`` must report the
same counterexamples wherever no constraint is constant (the reference
never tested the constant ones).  ``ref_fibre`` is the walk's earlier
fibre, built as a polynomial straight from the slot values; the walk's
compiled constraints must specialize to the same fibre and agree with
``Polynomial.evaluate`` at every value of the fibre's slot.
``ref_check_partition`` is the earlier partition check, one walk for the
variety and one per leaf, cross-tabulated afterwards; ``check_partition``
walks the variety and every leaf at once and must give an equal report,
on sound trees and on trees broken by dropping, duplicating or widening
a leaf.  ``ref_last_slot`` is the earlier rule for the last slot where
an extension walk can drop a prefix, read off a plan of every slot with
every root set; ``_last_slot`` finds it before any plan and must agree.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from p1parts.fields import GF, FieldError
from p1parts.groebner import principal_saturate
from p1parts.multiproj import (
    Part, PartTree, homogenized_generators, leaf_parts, partition_variety,
)
from p1parts.oracle import (
    PartitionReport, _as_polynomial, _check_characteristic, _compile, _facts,
    _holds, _last_slot, _specialize, _system, _tests, check_extension,
    check_partition, enumerate_proj_space, part_members, variety_points,
)
from p1parts.parser import parse_problem
from p1parts.poly import Polynomial, ProjLayout, poly_gcd, support_level
from test_oracle import Equalities, part_from_texts, slot_values

HERE = Path(__file__).resolve().parent
DEMO_PROBLEMS = HERE.parent / "demos" / "problems"


# -- reference implementation ----------------------------------------------------

def ref_variety_points(gens, p, n):
    out = []
    for t in enumerate_proj_space(p, n):
        vals = slot_values(t)
        if all(g.evaluate(vals) == 0 for g in gens):
            out.append(t)
    return out


def ref_part_members(part, p, n):
    out = []
    for t in enumerate_proj_space(p, n):
        vals = slot_values(t)
        if all(g.evaluate(vals) == 0 for g in part.eq.generators) and \
                all(q.evaluate(vals) != 0 for q in part.neq):
            out.append(t)
    return out


def ref_check_partition(tree: PartTree, gens, p: int, n: int) -> PartitionReport:
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


def ref_substitute(self, images: dict) -> "Polynomial":
    """Simultaneous substitution slot -> polynomial, fully expanded.

    Every slot occurring in the polynomial must have an image; build
    identity entries explicitly where a slot maps to itself.
    """
    field = self.field
    nslots = self.nslots
    for pos in self.occurring_slots():
        if pos not in images:
            raise ValueError(f"no image for occurring slot {pos}")
    for img in images.values():
        if img.field != field:
            raise FieldError("substitution image in a different field")
        if img.nslots != nslots:
            raise ValueError("substitution image has different slot count")
    acc = Polynomial.zero(field, nslots)
    pow_cache = {}
    for mono, c in self.terms.items():
        term = Polynomial.const(field, nslots, c)
        for pos, e in enumerate(mono):
            if not e:
                continue
            key = (pos, e)
            if key not in pow_cache:
                pow_cache[key] = images[pos] ** e
            term = term * pow_cache[key]
        acc = acc + term
    return acc


def ref_constraints_by_level(eq, neq):
    """Bucket equalities and inequalities by their top slot level."""
    eq_by = {}
    neq_by = {}
    for g in eq:
        eq_by.setdefault(support_level(g), []).append(g)
    for q in neq:
        neq_by.setdefault(support_level(q), []).append(q)
    return eq_by, neq_by


def ref_substitute_prefix(g: Polynomial, t, level: int):
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
    return ref_substitute(g, images)


def ref_check_extension(part: Part, p: int, n: int) -> list:
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
    eq_by, neq_by = ref_constraints_by_level(part.eq.generators, part.neq)
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
            if not ref_extends_into_closure(eqs, neqs, t, level):
                counterexamples.append((level, t))
        prefixes = new
    return counterexamples


def ref_extends_into_closure(eqs, neqs, t, level):
    equations = []
    for g in eqs:
        e = ref_substitute_prefix(g, t, level)
        if e.is_zero():
            continue
        if e.is_constant():
            return False  # a nonzero constant has no root
        equations.append(e)
    exclusions = []
    for q in neqs:
        s = ref_substitute_prefix(q, t, level)
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


def ref_fibre(g: Polynomial, vals, pos: int) -> Polynomial:
    """g as a polynomial in slot ``pos`` alone, every other slot set to
    its value in ``vals``."""
    field = g.field
    p = field.characteristic
    terms = []
    for mono, c in g.terms.items():
        for i, e in enumerate(mono):
            if e and i != pos:
                c = field.mul(c, pow(vals[i], e, p))
        e = mono[pos]
        terms.append(((0,) * pos + (e,) + (0,) * (g.nslots - pos - 1), c))
    return Polynomial(field, g.nslots, terms)


def ref_last_slot(systems, p: int, nslots: int) -> int:
    """The last slot where a walk that tries all of F_p at every slot can
    drop a prefix, or 0, as the walk's plan found it before
    ``_last_slot``: the roots in F_p of every constraint that involves
    no lower slot, and at each slot a mask of the systems each value
    passes; a slot counts when a test there involves a lower slot or a
    system passes no value."""
    roots = {}  # constraint -> its roots in F_p, None if it has lower slots
    by_tests = [{} for _ in range(nslots + 1)]
    start = 0
    for i, (eq, neq) in enumerate(systems):
        if any(g.is_constant() and not g.is_zero() for g in eq) or \
                any(q.is_zero() for q in neq):
            continue
        start |= 1 << i
        tests = {}
        for bucket, constraints in enumerate((eq, neq)):
            for f in constraints:
                k = support_level(f)
                if not k:
                    continue
                pos = nslots - k
                if f not in roots:
                    lower = any(sum(m) != m[pos] for m in f.terms)
                    roots[f] = None if lower else {
                        a for a in range(p) if f.evaluate([a] * nslots) == 0}
                tests.setdefault(k, ([], []))[bucket].append(f)
        for k, (eqs, neqs) in tests.items():
            key = (tuple(eqs), tuple(neqs))
            by_tests[k][key] = by_tests[k].get(key, 0) | 1 << i
    last = 0
    for k in range(1, nslots + 1):
        base, add, drop, varying = start, {}, {}, False
        for (eqs, neqs), members in by_tests[k].items():
            if any(roots[c] is None for c in (*eqs, *neqs)):
                varying = True
                base &= ~members
            elif eqs:
                base &= ~members
                for a in set.intersection(*[roots[c] for c in eqs]).difference(
                        *[roots[c] for c in neqs]):
                    add[a] = add.get(a, 0) | members
            else:
                for c in neqs:
                    for a in roots[c]:
                        drop[a] = drop.get(a, 0) | members
        at = {a: base & ~drop.get(a, 0) | add.get(a, 0) for a in {*add, *drop}}
        passing = base if len(at) < p else 0
        for held in at.values():
            passing |= held
        if varying or start & ~passing:
            last = k
    return last


def last_slot(systems, p: int, nslots: int) -> int:
    return _last_slot(_tests(systems, nslots)[1], p)


# -- strategies ----------------------------------------------------------------

PRIMES = (2, 3, 5)


@st.composite
def constraints(draw, field, nslots, max_terms=3, max_degree=3):
    """Any polynomial in the slots, constants and zero included."""
    p = field.characteristic
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = [0] * nslots
        for pos in draw(st.lists(st.integers(0, nslots - 1),
                                 max_size=max_degree)):
            mono[pos] += 1
        terms[tuple(mono)] = draw(st.integers(1, p - 1))
    return Polynomial(field, nslots, terms)


@st.composite
def pair_homogeneous(draw, field, n):
    """A polynomial of one degree in each pair (y_2j, y_2j-1)."""
    p = field.characteristic
    degrees = [draw(st.integers(0, 2)) for _ in range(n)]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = []
        for d in degrees:
            top = draw(st.integers(0, d))
            mono += [top, d - top]
        terms[tuple(mono)] = draw(st.integers(1, p - 1))
    return Polynomial(field, 2 * n, terms)


@st.composite
def parts(draw, nonconstant=False):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    field = GF(p)
    nslots = 2 * n
    constraint = constraints(field, nslots)
    if nonconstant:
        constraint = constraint.filter(lambda f: not f.is_constant())
    eq = draw(st.lists(constraint, max_size=3))
    neq = draw(st.lists(constraint, max_size=3))
    level = draw(st.integers(0, nslots))
    return p, n, Part(0, -1, Equalities(tuple(eq)), tuple(neq), level)


@st.composite
def fibre_cases(draw):
    """A constraint, one of its slots and values for all the others."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nslots = draw(st.integers(2, 6))
    f = draw(constraints(GF(p), nslots, max_terms=4, max_degree=5))
    pos = draw(st.integers(0, nslots - 1))
    vals = draw(st.lists(st.integers(0, p - 1),
                         min_size=nslots, max_size=nslots))
    return p, f, pos, vals


ROOT_PRIMES = (2, 3, 5, 7, 11, 101, 65537, 100003)


@st.composite
def top_slot_only(draw):
    """A nonconstant polynomial in one slot alone, over a prime from 2 to
    100,003."""
    p = draw(st.sampled_from(ROOT_PRIMES))
    nslots = draw(st.integers(1, 6))
    pos = draw(st.integers(0, nslots - 1))
    terms = {}
    for e in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)):
        mono = [0] * nslots
        mono[pos] = e
        terms[tuple(mono)] = draw(st.integers(1, p - 1))
    f = Polynomial(GF(p), nslots, terms)
    assume(not f.is_constant())
    return p, f


# -- properties ----------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(fibre_cases())
def test_fibre_matches_evaluation(case):
    p, f, pos, vals = case
    fibre = _specialize(_compile(f, pos), vals, p)
    poly = _as_polynomial(fibre, f.field, f.nslots, pos)
    assert poly == ref_fibre(f, vals, pos)
    for a in range(p):
        point = vals[:pos] + [a] + vals[pos + 1:]
        value = f.evaluate(point)
        assert poly.evaluate(point) == value
        assert _holds([fibre], [], a, p) == (value == 0)
        assert _holds([], [fibre], a, p) == (value != 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parts())
def test_part_members_matches_reference(drawn):
    p, n, part = drawn
    assert part_members(part, p, n) == ref_part_members(part, p, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(parts(nonconstant=True))
def test_check_extension_matches_reference(drawn):
    p, n, part = drawn
    assert check_extension(part, p, n) == ref_check_extension(part, p, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parts(nonconstant=True))
def test_last_slot_matches_reference(drawn):
    p, n, part = drawn
    systems = [_system(part, p)]
    assert last_slot(systems, p, 2 * n) == ref_last_slot(systems, p, 2 * n)


@pytest.mark.parametrize("eqs, neqs, last", [
    (["y_1"], ["z_3"], 0),  # y_3 = 1 passes
    (["y_1"], ["z_3^2+z_3"], 3),  # the inequality's roots cover F_2
    (["y_2", "y_2+1"], ["z_3"], 2),  # the equalities share no root
    (["y_4-y_3"], ["z_1^2+z_1"], 4),  # y_4 - y_3 involves a lower slot
])
def test_last_slot_where_no_value_passes(eqs, neqs, last):
    part = part_from_texts(eqs, neqs, ProjLayout(2), GF(2), 0)
    systems = [_system(part, 2)]
    assert last_slot(systems, 2, 4) == ref_last_slot(systems, 2, 4) == last


@pytest.mark.parametrize("radical", [True, False])
def test_last_slot_matches_reference_on_sweep(radical, sweep_trees):
    for seed, problem, tree, _ in sweep_trees(radical):
        p, nslots = problem.field.characteristic, 2 * problem.n
        for part in leaf_parts(tree):
            systems = [_system(part, p)]
            assert last_slot(systems, p, nslots) == \
                ref_last_slot(systems, p, nslots), (seed, part.id)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(top_slot_only())
def test_root_set_matches_evaluation(drawn):
    p, f = drawn
    pos = f.nslots - support_level(f)
    fresh = {a for a in range(p)
             if sum(c * pow(a, m[pos], p) for m, c in f.terms.items()) % p == 0}
    facts = _facts(f)
    assert facts is _facts(f)  # found once per object
    assert facts.root_set(p) == fresh
    assert facts.root_set(p) is facts.roots  # and kept there


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_variety_points_matches_reference(data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, 3))
    field = GF(p)
    gens = data.draw(st.lists(pair_homogeneous(field, n), max_size=3))
    assert variety_points(gens, p, n) == ref_variety_points(gens, p, n)


FP_DEMOS = sorted(path.name for path in DEMO_PROBLEMS.glob("*.txt")
                  if parse_problem(path.read_text()).field.characteristic)


def test_fp_demos_present():
    assert FP_DEMOS == ["coordinate_axes_f3.txt", "cusp_line_f5.txt",
                        "hyperbola_f5.txt", "whitney_umbrella_f5.txt"]


@pytest.mark.parametrize("radical", [True, False])
@pytest.mark.parametrize("name", FP_DEMOS)
def test_demo_leaves_match_reference(name, radical):
    problem = parse_problem((DEMO_PROBLEMS / name).read_text())
    p, n = problem.field.characteristic, problem.n
    tree = partition_variety(problem, radical=radical)
    gens = homogenized_generators(problem)
    assert variety_points(gens, p, n) == ref_variety_points(gens, p, n)
    for part in leaf_parts(tree):
        assert part_members(part, p, n) == ref_part_members(part, p, n)


EXT_DEFECT_F3 = (HERE / "problems" / "ext_defect_f3.txt").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("radical", [True, False])
@pytest.mark.parametrize("name", FP_DEMOS + ["ext-defect-f3"])
def test_leaf_extension_matches_reference(name, radical):
    text = EXT_DEFECT_F3 if name == "ext-defect-f3" \
        else (DEMO_PROBLEMS / name).read_text()
    problem = parse_problem(text)
    p, n = problem.field.characteristic, problem.n
    tree = partition_variety(problem, radical=radical)
    found = {}
    for part in leaf_parts(tree):
        cex = check_extension(part, p, n)
        assert cex == ref_check_extension(part, p, n)
        if cex:
            found[part.id] = cex
    if name == "ext-defect-f3" and not radical:
        assert found == {22: [(4, (1, 2, 1))]}


N5_F5 = "char 5\nn 5\nform x\nideal:\nx_5*x_1-x_2*x_3+x_4\n"


def renumbered(tree: PartTree, nodes) -> PartTree:
    """A tree over ``nodes``, with ids renumbered to list positions."""
    remap = {part.id: i for i, part in enumerate(nodes)}
    return PartTree([Part(remap[q.id], remap.get(q.prev, -1), q.eq, q.neq,
                          q.frozen_level) for q in nodes],
                    tree.layout, tree.field)


def mutants(tree: PartTree) -> dict:
    """The tree with its first leaf dropped, its last leaf duplicated, and
    the first leaf with an equality widened by dropping its last one."""
    leaves = leaf_parts(tree)
    first, last = leaves[0], leaves[-1]
    out = {
        "dropped": renumbered(tree, [q for q in tree.nodes if q.id != first.id]),
        "duplicated": PartTree(
            tree.nodes + [Part(len(tree.nodes), last.prev, last.eq, last.neq,
                               last.frozen_level)], tree.layout, tree.field),
    }
    wide = next((q for q in leaves if q.eq.generators), None)
    if wide is not None:
        widened = Part(wide.id, wide.prev,
                       Equalities(wide.eq.generators[:-1]), wide.neq,
                       wide.frozen_level)
        out["widened"] = PartTree(
            [widened if q.id == wide.id else q for q in tree.nodes],
            tree.layout, tree.field)
    return out


PARTITION_TEXTS = {"n5-f5": N5_F5, "ext-defect-f3": EXT_DEFECT_F3}
PARTITION_CASES = [(name, radical) for name in FP_DEMOS
                   for radical in (True, False)] + \
    [(name, False) for name in PARTITION_TEXTS]


def assert_reports_agree(tree, gens, p, n):
    """Compare the reports on the tree and its mutants; return the mutant
    reports."""
    assert check_partition(tree, gens, p, n) == ref_check_partition(tree, gens, p, n)
    reports = {}
    for kind, broken in mutants(tree).items():
        report = check_partition(broken, gens, p, n)
        assert report == ref_check_partition(broken, gens, p, n), kind
        reports[kind] = report
    return reports


@pytest.mark.parametrize("name, radical", PARTITION_CASES)
def test_check_partition_matches_reference(name, radical):
    text = PARTITION_TEXTS.get(name) or (DEMO_PROBLEMS / name).read_text()
    problem = parse_problem(text)
    p, n = problem.field.characteristic, problem.n
    tree = partition_variety(problem, radical=radical)
    gens = homogenized_generators(problem)
    assert_reports_agree(tree, gens, p, n)


def test_check_partition_matches_reference_on_sweep(sweep_trees):
    broken = {"unsound": 0, "double_covered": 0, "missing": 0}
    prefix = [solved for solved in sweep_trees(False) if solved[0] < 1030]
    assert len(prefix) == 30
    for seed, problem, tree, _ in prefix:
        p, n = problem.field.characteristic, problem.n
        reports = assert_reports_agree(
            tree, homogenized_generators(problem), p, n)
        for report in reports.values():
            for kind in broken:
                broken[kind] += bool(getattr(report, kind))
    assert all(broken.values()), broken  # every kind of failure was compared
