"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import itertools
import random
import re
import time

import pytest

from p1parts.fields import GF, QQ
from p1parts.groebner import buchberger, elimination_subbasis, normal_form
from p1parts.multiproj import (
    homogenized_generators, leaf_parts, partition_variety,
)
from p1parts.oracle import check_extension, check_partition, part_members
from p1parts.parser import ProblemSpec, parse_polynomial, parse_problem
from p1parts.poly import Layout, Polynomial, ProjLayout
from p1parts.cli import render_tree

EXAMPLE_X = "x_1*(x_3^2*x_2+x_3+1)\nx_3*(x_3^2*x_2+x_3+1)\n"
EXAMPLE = "char 0\nn 3\nform x\nideal:\n" + EXAMPLE_X
HYPERBOLA5 = "char 5\nn 2\nform x\nideal:\nx_2*x_1-1\n"
AXES3 = "char 3\nn 2\nform x\nideal:\nx_2*x_1\n"
WHITNEY5 = "char 5\nn 3\nform x\nideal:\nx_3*x_2^2-x_1^2\n"

# The ten published leaf parts of the worked example, as (eq, neq) text.
PUBLISHED_LEAVES = {
    6: (("z_1", "z_2-1", "z_3", "y_4-1", "y_5-1", "y_6"), ()),
    8: (("z_1-1", "z_2", "z_3", "y_4-1", "y_5-1", "y_6"), ()),
    10: (("z_1-1", "z_3", "y_4-1", "y_5-1", "y_6"), ("z_2",)),
    11: (("z_1", "z_2-1", "z_3-1", "z_4", "y_5^2-y_5", "y_6+2*y_5-1"), ()),
    12: (("z_1", "z_2-1", "z_3-1", "y_5-1", "z_4*y_6^2+y_6+1"), ("z_4",)),
    14: (("z_1-1", "z_2", "z_3-1", "y_5-1", "z_4*y_6^3+y_6^2+y_6"), ("z_4",)),
    15: (("z_1-1", "z_3-1", "z_4", "y_5^2-y_5", "y_6+2*y_5-1"), ("z_2",)),
    16: (("z_1-1", "z_3-1", "y_5-1", "z_4*y_6^2+y_6+1"), ("z_2", "z_4")),
    17: (("z_1-1", "z_2", "z_3-1", "z_4", "z_5-1", "y_6^2+y_6"), ()),
    18: (("z_1-1", "z_2", "z_3-1", "z_4", "z_5", "y_6-1"), ()),
}


def verdict(num, ok, message):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {num} failed: {message}"


@pytest.fixture(scope="module")
def example_tree_q():
    t0 = time.perf_counter()
    tree = partition_variety(parse_problem(EXAMPLE))
    return tree, time.perf_counter() - t0


@pytest.fixture(scope="module")
def finite_fixtures():
    """(name, problem, tree, homogenized gens, p, n) for each F_p fixture."""
    out = []
    for name, text, p in [
        ("example_f5", EXAMPLE.replace("char 0", "char 5"), 5),
        ("example_f7", EXAMPLE.replace("char 0", "char 7"), 7),
        ("hyperbola_f5", HYPERBOLA5, 5),
        ("axes_f3", AXES3, 3),
        ("whitney_f5", WHITNEY5, 5),
    ]:
        prob = parse_problem(text)
        t0 = time.perf_counter()
        tree = partition_variety(prob)
        elapsed = time.perf_counter() - t0
        out.append((name, prob, tree, homogenized_generators(prob), p,
                    prob.n, elapsed))
    return out


def ideals_semantically_equal(gens_a, gens_b):
    a = buchberger(gens_a)
    b = buchberger(gens_b)
    return (all(normal_form(g, b).is_zero() for g in a.generators)
            and all(normal_form(g, a).is_zero() for g in b.generators))


def test_criterion_1_example_reproduction(example_tree_q):
    tree, elapsed = example_tree_q
    leaves = leaf_parts(tree)
    layout = ProjLayout(3)

    def parse_frozen(texts):
        # the published text names every slot up to its highest z as z
        level = max((int(k) for s in texts for k in re.findall(r"z_(\d+)", s)),
                    default=0)
        return [parse_polynomial(s, layout.at_level(level), QQ) for s in texts]

    published = {
        node: (parse_frozen(eq), frozenset(q.monic() for q in parse_frozen(neq)))
        for node, (eq, neq) in PUBLISHED_LEAVES.items()}

    matched = {}
    for part in leaves:
        mine_neq = frozenset(q.monic() for q in part.neq)
        for node, (eq, neq) in published.items():
            if node in matched.values():
                continue
            if mine_neq == neq and ideals_semantically_equal(
                    part.eq.generators, eq):
                matched[part.id] = node
                break

    special = tuple(parse_frozen(
        ("z_1-1", "z_2", "z_3-1", "z_4", "z_5-1", "y_6^2+y_6")))
    has_special = any(p.eq.generators == special and p.neq == ()
                      for p in leaves)

    ok = (elapsed < 60 and len(leaves) == 10 and len(matched) == 10
          and has_special)
    verdict(1, ok,
            f"{len(leaves)} leaves in {elapsed:.2f}s, "
            f"{len(matched)}/10 matched to the published parts, "
            f"distinguished affine leaf present: {has_special}")


def test_criterion_2_example_finite_field_check(finite_fixtures):
    results = []
    for name, prob, tree, gens, p, n, elapsed in finite_fixtures:
        if not name.startswith("example_f"):
            continue
        t0 = time.perf_counter()
        report = check_partition(tree, gens, p, n)
        total = elapsed + (time.perf_counter() - t0)
        results.append((p, report, total))
    ok = all(r.valid and t < 10 for _, r, t in results) and len(results) == 2
    detail = "; ".join(
        f"F_{p}: {r.tuples_scanned} tuples, "
        f"{'valid' if r.valid else 'INVALID'}, {t:.2f}s"
        for p, r, t in results)
    verdict(2, ok, detail)


def test_criterion_3_hyperbola_projective_extension(finite_fixtures):
    name, prob, tree, gens, p, n, _ = next(
        f for f in finite_fixtures if f[0] == "hyperbola_f5")
    report = check_partition(tree, gens, p, n)
    leaves = leaf_parts(tree)
    members = {part.id: set(part_members(part, p, n)) for part in leaves}

    def covering(coords):
        return [pid for pid, pts in members.items()
                if any(t.coords == coords for t in pts)]

    # x_1 = 0 forces x_2 = inf, and x_1 = inf forces x_2 = 0; each such
    # point must be kept and lie in exactly one leaf
    zero_to_inf = covering(((1, 0), (0, 1)))
    inf_to_zero = covering(((0, 1), (1, 0)))
    ok = (report.valid and report.variety_size == 6
          and len(zero_to_inf) == 1 and len(inf_to_zero) == 1)
    verdict(3, ok,
            f"6 points covered once: {report.valid}; "
            f"(inf,0) in leaves {zero_to_inf}, (0,inf) in leaves {inf_to_zero}")


def test_criterion_4_axes_cover(finite_fixtures):
    name, prob, tree, gens, p, n, _ = next(
        f for f in finite_fixtures if f[0] == "axes_f3")
    report = check_partition(tree, gens, p, n)
    members = [set(part_members(part, p, n)) for part in leaf_parts(tree)]
    target = ((1, 0), (0, 1))  # (x_2, x_1) = (inf, 0)
    hits = sum(1 for pts in members if any(t.coords == target for t in pts))
    ok = report.valid and report.variety_size == 7 and hits == 1
    verdict(4, ok,
            f"7 points, valid={report.valid}, (inf,0) covered {hits} time(s)")


def test_criterion_5_whitney_umbrella(finite_fixtures):
    name, prob, tree, gens, p, n, _ = next(
        f for f in finite_fixtures if f[0] == "whitney_f5")
    report = check_partition(tree, gens, p, n)
    cex = [c for part in leaf_parts(tree) for c in check_extension(part, p, n)]
    ok = report.valid and not cex
    verdict(5, ok,
            f"valid={report.valid} over {report.tuples_scanned} tuples, "
            f"extension counterexamples: {len(cex)}")


def random_affine_ideal(rng, n, field):
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * n
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(n)] += 1
            terms[tuple(mono)] = rng.randint(1, 4)
        g = Polynomial(field, n, terms)
        if not g.is_zero():
            gens.append(g)
    return gens


def test_criterion_6_elimination_property_suite():
    from p1parts.poly import _mono_div
    rng = random.Random(2024)
    F5 = GF(5)
    passed = 0
    total = 0
    while total < 25:
        n = rng.randint(1, 3)
        gens = random_affine_ideal(rng, n, F5)
        if not gens:
            continue
        B = buchberger(gens)
        if not B.generators:
            continue
        total += 1
        good = True
        for j in range(1, n + 1):
            sub = elimination_subbasis(B, j)
            for f, g in itertools.combinations(sub.generators, 2):
                lcm = tuple(map(max, f.lead_monomial(), g.lead_monomial()))
                s = Polynomial(F5, n, {_mono_div(lcm, f.lead_monomial()):
                                       F5.inv(f.lead_coeff())}) * f - \
                    Polynomial(F5, n, {_mono_div(lcm, g.lead_monomial()):
                                       F5.inv(g.lead_coeff())}) * g
                if not normal_form(s, sub).is_zero():
                    good = False
            for _ in range(4):
                f = Polynomial.zero(F5, n)
                for b in sub.generators:
                    mono = [0] * n
                    for _ in range(rng.randint(0, 2)):
                        mono[rng.randrange(n - j, n)] += 1  # low block only
                    f = f + Polynomial(F5, n, {tuple(mono): rng.randint(1, 4)}) * b
                if not normal_form(f, sub).is_zero():
                    good = False
        passed += good
    ok = passed == total == 25
    verdict(6, ok, f"{passed}/{total} random ideals passed the "
                   "elimination sub-basis checks")


def test_criterion_7_extension_property_suite(finite_fixtures):
    details = []
    bad = 0
    for name, prob, tree, gens, p, n, _ in finite_fixtures:
        cex = [c for part in leaf_parts(tree)
               for c in check_extension(part, p, n)]
        bad += len(cex)
        details.append(f"{name}: {len(cex)}")
    verdict(7, bad == 0, "counterexamples per fixture: " + ", ".join(details))


def permute_affine(g, perm, n):
    terms = {}
    for mono, c in g.terms.items():
        new = [0] * n
        for i, e in enumerate(mono):
            new[n - perm[n - i - 1]] = e
        terms[tuple(new)] = c
    return Polynomial(g.field, n, terms)


def test_criterion_8_order_invariance():
    base = parse_problem(EXAMPLE.replace("char 0", "char 5"))
    n, p = 3, 5
    layout = Layout.affine(n)
    unions = []
    for perm in itertools.permutations(range(1, n + 1)):
        gens = tuple(permute_affine(g, perm, n) for g in base.generators)
        prob = ProblemSpec(GF(5), n, "x", gens, layout)
        tree = partition_variety(prob)
        pts = set()
        for part in leaf_parts(tree):
            for t in part_members(part, p, n):
                orig = [None] * n
                for i, pair in enumerate(t.coords):
                    j = perm.index(n - i) + 1
                    orig[n - j] = pair
                pts.add(tuple(orig))
        unions.append(frozenset(pts))
    ok = all(u == unions[0] for u in unions) and len(unions[0]) == 41
    verdict(8, ok, f"6 orderings, union sizes "
                   f"{sorted(len(u) for u in unions)}, all equal: {ok}")


def test_criterion_9_determinism():
    outputs = []
    for text in (EXAMPLE, HYPERBOLA5, AXES3, WHITNEY5):
        a = render_tree(partition_variety(parse_problem(text)), "text")
        b = render_tree(partition_variety(parse_problem(text)), "text")
        outputs.append(a == b and bool(a))
    verdict(9, all(outputs), f"byte-identical reruns on "
                             f"{len(outputs)} fixtures: {outputs}")
