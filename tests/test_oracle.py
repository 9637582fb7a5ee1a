import gc
import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest

from p1parts import oracle
from p1parts.fields import GF
from p1parts.multiproj import (
    Part, homogenized_generators, leaf_parts, partition_variety,
)
from p1parts.oracle import (
    EnumerationCapExceeded, ProjTuple, check_extension, check_partition,
    enumerate_proj_space, part_members, variety_points,
)
from p1parts.parser import ProblemSpec, parse_polynomial, parse_problem
from p1parts.poly import Layout, Polynomial, ProjLayout, support_level

PL2 = ProjLayout(2)
PL3 = ProjLayout(3)
PL9 = ProjLayout(9)  # over F_5, (5+1)^9 canonical tuples exceed DEFAULT_CAP
F3 = GF(3)
F5 = GF(5)

EXAMPLE5 = ("char 5\nn 3\nform x\nideal:\n"
            "x_1*(x_3^2*x_2+x_3+1)\nx_3*(x_3^2*x_2+x_3+1)\n")


def P(text, layout, field):
    return parse_polynomial(text, layout, field)


def test_enumerate_proj_space():
    pts = enumerate_proj_space(3, 1)
    assert [t.coords[0] for t in pts] == [(1, 0), (0, 1), (1, 1), (2, 1)]
    assert len(enumerate_proj_space(5, 3)) == 216
    assert enumerate_proj_space(3, 0) == [ProjTuple(())]
    with pytest.raises(EnumerationCapExceeded, match=str(6 ** 9)):
        enumerate_proj_space(5, 9)


def slot_values(t):
    """Values of a tuple's 2n slots y_{2n}, ..., y_1."""
    return [v for pair in t.coords for v in pair]


def test_slot_values_binding():
    t = ProjTuple(((2, 1), (1, 0)))  # x_2 = 2, x_1 = inf
    # slots: y_4 y_3 y_2 y_1
    assert slot_values(t) == [2, 1, 1, 0]


def test_variety_points_hyperbola_f3():
    g = P("y_4*y_2-y_3*y_1", PL2, F3)
    pts = variety_points([g], 3, 2)
    assert len(pts) == 4
    coords = {t.coords for t in pts}
    # every x_1 pairs with the unique projective inverse x_2
    assert ((0, 1), (1, 0)) in coords  # x_2 = 0 with x_1 = inf
    assert ((1, 0), (0, 1)) in coords  # x_2 = inf with x_1 = 0
    assert ((1, 1), (1, 1)) in coords
    assert ((2, 1), (2, 1)) in coords  # 2*2 = 4 = 1 mod 3


def test_variety_points_axes_f3():
    g = P("y_4*y_2", PL2, F3)
    assert len(variety_points([g], 3, 2)) == 7


def test_variety_points_requires_pair_homogeneous():
    bad = P("y_4-1", PL2, F3)
    with pytest.raises(ValueError, match="homogeneous"):
        variety_points([bad], 3, 2)


def test_variety_points_wrong_characteristic():
    g = P("y_4*y_2", PL2, F3)
    with pytest.raises(ValueError, match="F_5"):
        variety_points([g], 5, 2)


def test_representative_independence():
    rng = random.Random(47)
    g = P("y_4*y_2-y_3*y_1", PL2, F5)
    for t in variety_points([g], 5, 2):
        vals = slot_values(t)
        for _ in range(3):
            lam = rng.randrange(1, 5)
            scaled = list(vals)
            for pos in (0, 1):  # rescale the pair (y_4 : y_3)
                scaled[pos] = scaled[pos] * lam % 5
            assert g.evaluate(scaled) == 0


@dataclass(frozen=True)
class Equalities:
    """Equalities as given, reduced or not, for a part the oracle checks:
    it reads only ``part.eq.generators``, and an ``IdealBasis`` comes
    only from the Groebner core."""

    generators: tuple


def part_from_texts(eq_texts, neq_texts, layout, field, level):
    """A part frozen at ``level``; inequalities name every slot z_k."""
    eq_layout = layout.at_level(level)
    neq_layout = layout.at_level(layout.nslots)
    eq = Equalities(tuple(P(t, eq_layout, field) for t in eq_texts))
    neq = tuple(P(t, neq_layout, field) for t in neq_texts)
    return Part(0, -1, eq, neq, level)


def test_part_members_published_parts():
    # the part where everything is affine and x_3^2 + x_3 = 0
    node17 = part_from_texts(
        ["z_1-1", "z_2", "z_3-1", "z_4", "z_5-1", "y_6^2+y_6"], [], PL3, F5, 5)
    members = part_members(node17, 5, 3)
    assert {t.coords for t in members} == {
        ((0, 1), (0, 1), (0, 1)),
        ((4, 1), (0, 1), (0, 1)),  # x_3 = -1
    }

    node18 = part_from_texts(
        ["z_1-1", "z_2", "z_3-1", "z_4", "z_5", "y_6-1"], [], PL3, F5, 5)
    assert {t.coords for t in part_members(node18, 5, 3)} == {
        ((1, 0), (0, 1), (0, 1)),  # x_3 = inf
    }

    unit = part_from_texts(["1"], [], PL3, F5, 0)
    assert part_members(unit, 5, 3) == []


def test_check_partition_valid_and_induced_failures(monkeypatch):
    prob = parse_problem(EXAMPLE5)
    tree = partition_variety(prob)
    gens = homogenized_generators(prob)
    report = check_partition(tree, gens, 5, 3)
    assert report.valid
    assert report.variety_size == 41
    assert report.tuples_scanned == 216
    assert "partition valid: 216 tuples scanned" == report.summary()
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 216)  # a cap of (p+1)^n passes
    assert check_partition(tree, gens, 5, 3) == report
    monkeypatch.undo()

    # delete one leaf: coverage breaks
    broken = type(tree)(list(tree.nodes), tree.layout, tree.field)
    drop = tree.leaf_ids()[0]
    broken.nodes = [p for p in tree.nodes if p.id != drop]
    remap = {p.id: i for i, p in enumerate(broken.nodes)}
    broken.nodes = [Part(remap[p.id], remap.get(p.prev, -1), p.eq, p.neq,
                         p.frozen_level) for p in broken.nodes]
    rep2 = check_partition(broken, gens, 5, 3)
    assert rep2.missing and not rep2.valid

    # duplicate a leaf: double coverage
    dup = type(tree)(list(tree.nodes), tree.layout, tree.field)
    leaf = tree.nodes[tree.leaf_ids()[0]]
    dup.nodes = tree.nodes + [Part(len(tree.nodes), leaf.prev, leaf.eq,
                                   leaf.neq, leaf.frozen_level)]
    rep3 = check_partition(dup, gens, 5, 3)
    assert rep3.double_covered and not rep3.valid

    # widen leaf 17 (x_3^2 + x_3 = 0) by dropping that equality: the leaf
    # takes in points off the variety
    leaf = tree.nodes[17]
    assert leaf.id in tree.leaf_ids()
    wide = type(tree)(list(tree.nodes), tree.layout, tree.field)
    wide.nodes[17] = Part(leaf.id, leaf.prev,
                          Equalities(leaf.eq.generators[:-1]), leaf.neq,
                          leaf.frozen_level)
    rep4 = check_partition(wide, gens, 5, 3)
    assert rep4.unsound and not rep4.valid
    assert {part_id for part_id, _ in rep4.unsound} == {17}
    assert not rep4.missing and not rep4.double_covered


def test_check_partition_rejects_cross_characteristic():
    prob = parse_problem(EXAMPLE5)
    tree = partition_variety(prob)
    gens = homogenized_generators(prob)
    with pytest.raises(ValueError, match="characteristic"):
        check_partition(tree, gens, 7, 3)


def test_part_members_rejects_wrong_prime():
    part = part_from_texts(["y_4*y_2-y_3*y_1"], ["z_1"], PL2, F5, 0)
    with pytest.raises(ValueError, match="F_7"):
        part_members(part, 7, 2)
    neq_only = part_from_texts([], ["z_2"], PL2, F5, 0)
    with pytest.raises(ValueError, match="F_7"):
        part_members(neq_only, 7, 2)


def test_part_members_rejects_slot_count_mismatch():
    part = part_from_texts(["y_6*y_4"], [], PL3, F5, 0)
    with pytest.raises(ValueError, match="slot"):
        part_members(part, 5, 2)


def test_variety_rejects_slot_count_mismatch():
    # the slot count is checked before pair homogeneity, which would read
    # past the slots of y_2 - y_1 for a second pair
    g = P("y_2-y_1", ProjLayout(1), F5)
    with pytest.raises(ValueError, match="constraint has 2 slots, expected 4"):
        variety_points([g], 5, 2)
    prob = parse_problem("char 5\nn 1\nform y\nideal:\ny_2-y_1\n")
    tree = partition_variety(prob)
    with pytest.raises(ValueError, match="constraint has 2 slots, expected 4"):
        check_partition(tree, homogenized_generators(prob), 5, 2)


def test_check_extension_rejects_wrong_prime():
    part = part_from_texts(["y_4*y_2-y_3*y_1"], ["z_1"], PL2, F5, 0)
    with pytest.raises(ValueError, match="F_7"):
        check_extension(part, 7, 2)


@pytest.fixture
def no_evaluation(monkeypatch):
    """Any evaluation, or any compiling or specializing of a constraint
    for the walk, fails the test."""
    def evaluated(*args):
        raise AssertionError("evaluated before the cap check")
    monkeypatch.setattr(Polynomial, "evaluate", evaluated)
    monkeypatch.setattr(oracle, "_compile", evaluated)
    monkeypatch.setattr(oracle, "_specialize", evaluated)


def test_variety_points_cap(no_evaluation):
    g = P("y_4*y_2-y_3*y_1", PL9, F5)
    with pytest.raises(EnumerationCapExceeded, match=str(6 ** 9)):
        variety_points([g], 5, 9)


def test_part_members_cap(no_evaluation):
    part = part_from_texts(["y_6*y_4"], ["z_1"], PL9, F5, 0)
    with pytest.raises(EnumerationCapExceeded, match=str(6 ** 9)):
        part_members(part, 5, 9)
    unit = part_from_texts(["1"], [], PL9, F5, 0)
    with pytest.raises(EnumerationCapExceeded):
        part_members(unit, 5, 9)


def test_check_partition_cap(no_evaluation, monkeypatch):
    prob = parse_problem(EXAMPLE5)
    tree = partition_variety(prob)
    gens = homogenized_generators(prob)
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 215)  # one less than (p+1)^n
    with pytest.raises(EnumerationCapExceeded, match="216"):
        check_partition(tree, gens, 5, 3)


def test_check_extension_cap(no_evaluation):
    # (5+1)^9 canonical tuples exceed the cap; only y_1 is constrained,
    # so without the cap the walk would cover 5^17 prefixes
    loose = part_from_texts(["y_1"], [], PL9, F5, 0)
    with pytest.raises(EnumerationCapExceeded, match=str(6 ** 9)):
        check_extension(loose, 5, 9)


def test_check_extension_walk_cap(monkeypatch):
    # 6^4 = 1,296 canonical tuples pass a cap of 10^4, but y_8 - y_1 can
    # fail at slot 8, so the walk would try 5^8 values of F_5 to get there
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 10**4)
    loose = part_from_texts(["y_8-y_1"], [], ProjLayout(4), F5, 0)
    with pytest.raises(EnumerationCapExceeded, match="tried more than 10000"):
        check_extension(loose, 5, 4)
    # with only y_1 constrained no prefix can die, so nothing is walked
    free_above = part_from_texts(["y_1"], [], ProjLayout(4), F5, 0)
    assert check_extension(free_above, 5, 4) == []


def test_check_extension_plans_nothing_without_a_dying_slot(monkeypatch):
    # every test involves no lower slot and some value of F_5 passes it,
    # so no prefix can die: nothing is planned, compiled or walked
    called = []

    def recorded(name, real):
        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("_plan", "_compile", "_specialize"):
        monkeypatch.setattr(oracle, name, recorded(name, getattr(oracle, name)))
    layout = ProjLayout(2)
    free = part_from_texts(["y_1", "y_3^2-y_3"], ["z_4-2"], layout, F5, 0)
    assert check_extension(free, 5, 2) == []
    assert called == []
    # y_2 - y_1 involves a lower slot, so slot 2 could drop a prefix
    dying = part_from_texts(["y_2-y_1"], [], layout, F5, 0)
    assert check_extension(dying, 5, 2) == []
    assert set(called) == {"_plan", "_compile", "_specialize"}


def test_check_extension_stops_on_values_of_f_p():
    # y_2^2 - 2 has no root in F_5, only in the closure, so the walk must
    # reach slot 2; its prefixes extend there into the closure alone
    layout = ProjLayout(1)
    closure = part_from_texts(["y_2^2-2"], [], layout, F5, 0)
    assert check_extension(closure, 5, 1) == []
    nowhere = part_from_texts(["y_2^2-2", "y_2^2-3"], [], layout, F5, 0)
    assert check_extension(nowhere, 5, 1) == [(2, (a,)) for a in range(5)]


def test_check_extension_clean_fixture():
    prob = parse_problem(EXAMPLE5)
    tree = partition_variety(prob)
    for part in leaf_parts(tree):
        assert check_extension(part, 5, 3) == []


def test_check_extension_flags_truncated_part():
    # z_1 = 0 and y_2*z_1 = 1 cannot both hold: the z_1 = 0 start never
    # extends to slot 2, rationally or in the closure
    bad = part_from_texts(["z_1", "y_2*z_1-1"], [], PL2, F5, 1)
    cex = check_extension(bad, 5, 2)
    assert cex
    assert cex[0][0] == 2  # fails when extending to slot 2


def test_check_extension_empty_part_has_no_counterexamples():
    # the truncated part above, emptied by a constant equality or a zero
    # inequality: it has no members, so nothing fails to extend
    unit = part_from_texts(["z_1", "y_2*z_1-1", "1"], [], PL2, F5, 1)
    zero = part_from_texts(["z_1", "y_2*z_1-1"], ["0"], PL2, F5, 1)
    for empty in (unit, zero):
        assert part_members(empty, 5, 2) == []
        assert check_extension(empty, 5, 2) == []


def test_oracle_memory_independent_of_p():
    # n = 1 lets p reach the cap; no call may build a table of F_p
    p = 100003
    problem = parse_problem(f"char {p}\nn 1\nform x\nideal:\nx_1^2-5\n")
    tree = partition_variety(problem)
    gens = homogenized_generators(problem)
    calls = [lambda: check_partition(tree, gens, p, 1),
             lambda: variety_points(gens, p, 1)]
    calls += [lambda leaf=leaf: check_extension(leaf, p, 1)
              for leaf in leaf_parts(tree)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_oracle_walks_leave_no_cycles():
    # a walk whose recursion closed over its own name kept each plan
    # alive until the cyclic collector ran
    prob = parse_problem(EXAMPLE5)
    tree = partition_variety(prob)
    gens = homogenized_generators(prob)
    gc.collect()
    gc.disable()
    try:
        check_partition(tree, gens, 5, 3)
        variety_points(gens, 5, 3)
        for part in leaf_parts(tree):
            check_extension(part, 5, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- a fixed sweep of random F_p problems ----------------------------------------

def random_fp_problem(seed):
    """1-2 x-form generators of 1-3 terms over F_3, F_5 or F_7 in n = 3
    or 4 slots, each variable present with probability 0.45 and exponent
    1-2; constant generators are dropped."""
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7))
    n = rng.choice((3, 4))
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(1, 2) if rng.random() < 0.45 else 0
                         for _ in range(n))
            terms[mono] = rng.randint(1, p - 1)
        g = Polynomial(GF(p), n, terms)
        if not g.is_constant():
            gens.append(g)
    return ProblemSpec(GF(p), n, "x", tuple(gens), Layout.affine(n))


# Fixed: a failure must be mended, never re-seeded away.
SWEEP_SEEDS = range(1000, 1150)

# (seed, leaf id) -> check_extension output.  Stepwise extension (ROADMAP
# item 1) must empty this table; until then it pins the known failures.
KNOWN_EXTENSION_FAILURES = {
    (1066, 34): [(6, (1, 2, 1, 1, 1))],
    (1083, 28): [(6, (1, 1, 1, 0, 1)), (6, (1, 2, 1, 0, 1))],
    (1086, 59): [(2, (1,))],
    (1086, 60): [(4, (1, k, 1)) for k in range(1, 7)],
    (1105, 10): [(4, (1, 2, 1))],
    (1108, 89): [(4, (1, 1, 1))],
    (1144, 52): [(4, (1, k, 1)) for k in range(1, 7)],
}

# The same with the radical closure on, which changes the leaves and so
# their ids.
KNOWN_RADICAL_EXTENSION_FAILURES = {
    (1066, 34): [(6, (1, 2, 1, 1, 1))],
    (1083, 22): [(6, (1, 1, 1, 0, 1)), (6, (1, 2, 1, 0, 1))],
    (1086, 46): [(2, (1,))],
    (1086, 53): [(4, (1, k, 1)) for k in range(1, 7)],
    (1105, 10): [(4, (1, 2, 1))],
    (1108, 81): [(4, (1, 1, 1))],
    (1144, 48): [(4, (1, k, 1)) for k in range(1, 7)],
}


def assert_dimension_is_most_free_levels(tree):
    """The root's dimension equals the largest number of free levels of
    any leaf (ROADMAP item 4).

    The root's dimension is the size of the largest slot set S such that
    no lex leading monomial of its equality basis has its support inside
    S (Cox, Little & O'Shea, ch. 9), found by trying every S.  A free
    level of a leaf is an L in 1..2n at which no equality generator has
    support level L.  An empty tree has neither, and both read -1.
    """
    nslots = tree.layout.nslots
    leads = [sum(1 << i for i, e in enumerate(g.lead_monomial()) if e)
             for g in tree.nodes[0].eq.generators] if tree.nodes else [0]
    dimension = max((bin(s).count("1") for s in range(1 << nslots)
                     if all(lead & ~s for lead in leads)), default=-1)
    free = max((nslots - len({support_level(g) for g in leaf.eq.generators} - {0})
                for leaf in leaf_parts(tree)), default=-1)
    assert dimension == free, (dimension, free)


def sweep_failures(trees) -> dict:
    """(seed, leaf id) -> ``check_extension`` output, for each leaf of the
    ``sweep_trees`` entries with a counterexample, once each tree is
    checked to be a valid partition."""
    failures = {}
    for seed, prob, tree, _ in trees:
        p = prob.field.characteristic
        report = check_partition(tree, homogenized_generators(prob), p, prob.n)
        assert report.valid, (seed, report.summary())
        for leaf in leaf_parts(tree):
            cex = check_extension(leaf, p, prob.n)
            if cex:
                failures[seed, leaf.id] = cex
    return failures


def test_random_fp_sweep(sweep_trees):
    trees = sweep_trees(False)
    assert len(trees) == 148  # seeds 1095 and 1097 draw only constants
    for _, _, tree, _ in trees:
        assert_dimension_is_most_free_levels(tree)
    assert sweep_failures(trees) == KNOWN_EXTENSION_FAILURES


def test_random_fp_sweep_dimension_with_radical(sweep_trees):
    # the radical closure changes the leaves, not the root's dimension
    for _, _, tree, _ in sweep_trees(True):
        assert_dimension_is_most_free_levels(tree)


def test_random_fp_sweep_extension_with_radical(sweep_trees):
    assert sweep_failures(sweep_trees(True)) == KNOWN_RADICAL_EXTENSION_FAILURES


@pytest.mark.parametrize("radical", [True, False])
def test_found_f2_known_extension_defect(radical):
    # a known defect, pinned until stepwise extension holds on every
    # leaf: leaf 45 of found-f2 has a prefix that extends to no root
    path = Path(__file__).resolve().parent / "problems" / "found_f2.txt"
    prob = parse_problem(path.read_text(encoding="utf-8"))
    tree = partition_variety(prob, radical=radical)
    failures = {}
    for leaf in leaf_parts(tree):
        cex = check_extension(leaf, 2, prob.n)
        if cex:
            failures[leaf.id] = cex
    assert failures == {45: [(4, (1, 1, 1))]}
