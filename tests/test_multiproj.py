import itertools
import random
import re

import pytest

from p1parts.fields import GF, QQ
from p1parts.groebner import IdealBasis, buchberger
from p1parts.multiproj import (
    MaxNodesExceeded, Part, canonical_constraints, homogenized_generators,
    leaf_parts, multihomogenize, normalize_neq, partition_variety,
    reduced_lead_coefficient, root_part, split_scan,
)
from p1parts.parser import parse_polynomial, parse_problem
from p1parts.poly import (
    Layout, Polynomial, ProjLayout, support_level, to_canonical_text,
)
from test_oracle import slot_values

PL2 = ProjLayout(2)
PL3 = ProjLayout(3)
AX2 = Layout.affine(2)
AX3 = Layout.affine(3)

EXAMPLE = ("char 0\nn 3\nform x\nideal:\n"
           "x_1*(x_3^2*x_2+x_3+1)\nx_3*(x_3^2*x_2+x_3+1)\n")
HYPERBOLA = "char 5\nn 2\nform x\nideal:\nx_2*x_1-1\n"
AXES = "char 3\nn 2\nform x\nideal:\nx_2*x_1\n"


def P(text, level=0, layout=PL3, field=QQ):
    """Parse with the slots at or below ``level`` named z_k."""
    return parse_polynomial(text, layout.at_level(level), field)


# -- homogenization -----------------------------------------------------------

def test_multihomogenize_example_generator():
    b = parse_polynomial("x_3*(x_3^2*x_2+x_3+1)", AX3, QQ)
    assert multihomogenize(b, PL3) == P("y_6*(y_6^2*y_4+y_6*y_5*y_3+y_5^2*y_3)")


def test_multihomogenize_hyperbola():
    b = parse_polynomial("x_2*x_1-1", AX2, QQ)
    # by the defining formula: h_2*h_1*(g_2g_1/(h_2h_1) - 1)
    assert multihomogenize(b, PL2) == parse_polynomial("y_4*y_2-y_3*y_1", PL2, QQ)


def test_multihomogenize_constant():
    c = Polynomial.const(QQ, 3, 7)
    assert multihomogenize(c, PL3) == Polynomial.const(QQ, 6, 7)
    with pytest.raises(ValueError):
        multihomogenize(Polynomial.zero(QQ, 3), PL3)


def random_affine_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * n
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.randint(-4, 4)
    return Polynomial(QQ, n, terms)


def test_multihomogenize_is_pair_homogeneous_and_dehomogenizes():
    rng = random.Random(41)
    for _ in range(25):
        b = random_affine_poly(rng, 3)
        if b.is_zero():
            continue
        h = multihomogenize(b, PL3)
        # constant pair degree, equal to the x_j degree
        for j in (1, 2, 3):
            a, bb = PL3.y_pos(2 * j), PL3.y_pos(2 * j - 1)
            degrees = {m[a] + m[bb] for m in h.terms}
            assert degrees == {b.degree_in(3 - j)}
        # setting every y_{2j-1} to 1 (reading y_{2j} as x_j) recovers b
        ones = {PL3.y_pos(2 * j - 1) for j in (1, 2, 3)}
        dehom = Polynomial(QQ, 6, [
            (tuple(0 if pos in ones else e for pos, e in enumerate(mono)), c)
            for mono, c in h.terms.items()])
        lifted = {}
        for mono, c in b.terms.items():
            new = [0] * 6
            for i, e in enumerate(mono):
                new[PL3.y_pos(2 * (3 - i))] = e
            lifted[tuple(new)] = c
        assert dehom == Polynomial(QQ, 6, lifted)


def test_canonical_constraints():
    one = ProjLayout(1)
    got = canonical_constraints(one, QQ)
    h = parse_polynomial("y_1^2-y_1", one, QQ)
    g = parse_polynomial("(y_2-1)*(y_1-1)", one, QQ)
    assert got == [h, g]
    assert len(canonical_constraints(PL3, QQ)) == 6


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_canonical_constraints_are_a_reduced_basis(n, field):
    # root_part extends them as they are
    cons = canonical_constraints(ProjLayout(n), field)
    assert buchberger(cons).generators == tuple(cons)


def test_canonical_constraints_cut_out_projective_line():
    # over F3 the n=1 constraints have exactly |P^1(F_3)| = 4 solutions
    one = ProjLayout(1)
    cons = canonical_constraints(one, GF(3))
    sols = [(g, h) for g in range(3) for h in range(3)
            if all(c.evaluate([g, h]) == 0 for c in cons)]
    assert sorted(sols) == [(0, 1), (1, 0), (1, 1), (2, 1)]


# -- freezing -----------------------------------------------------------------

def test_freeze_below():
    # freezing the slots at or below a level renames them, nothing else
    f = parse_polynomial("y_4*y_2-y_3*y_1", PL2, QQ)
    assert P("z_2*y_4-z_1*y_3", 2, PL2) == f
    assert to_canonical_text(f, PL2.at_level(2)) == "z_2*y_4-z_1*y_3"
    assert to_canonical_text(f, PL2.at_level(0)) == "y_4*y_2-y_3*y_1"
    g = P("y_1^2-y_1")
    assert to_canonical_text(g, PL3.at_level(1)) == "z_1^2-z_1"
    for bad in (-1, 5):
        with pytest.raises(ValueError):
            PL2.at_level(bad)


def test_level_layout_round_trip():
    # at every level, canonical text parses back to the same polynomial
    rng = random.Random(43)
    for _ in range(20):
        b = random_affine_poly(rng, 3)
        if b.is_zero():
            continue
        f = multihomogenize(b, PL3)
        for level in range(0, 7):
            layout = PL3.at_level(level)
            text = to_canonical_text(f, layout)
            assert parse_polynomial(text, layout, QQ) == f
            for letter, k in re.findall(r"([yz])_(\d+)", text):
                assert (letter == "z") == (int(k) <= level)


def test_support_level():
    assert support_level(P("7")) == 0
    assert support_level(P("z_2*z_1-1", 2)) == 2
    assert support_level(P("z_1*y_4+y_3", 1)) == 4
    assert support_level(P("y_6")) == 6


# -- the splitting rule ----------------------------------------------------------

def test_reduced_lead_coefficient():
    assert reduced_lead_coefficient(P("z_2*z_4", 6), [P("z_2", 6)]) == P("z_4", 6)
    assert reduced_lead_coefficient(P("z_4", 6), []) == P("z_4", 6)
    assert reduced_lead_coefficient(P("z_2^2", 6), [P("z_2", 6)]) == P("1")
    with pytest.raises(ValueError):
        reduced_lead_coefficient(Polynomial.zero(QQ, 6), [])


def test_split_scan_example_root():
    root = root_part(parse_problem(EXAMPLE))
    finding = split_scan(root)
    assert finding is not None
    assert finding.level == 1
    assert finding.J == P("z_1-1", 1)


def test_split_scan_leaf():
    # all lead coefficients constant: a leaf
    eq = buchberger([P("z_1-1", 1), P("y_2-1", 1)])
    part = Part(0, -1, eq, (), 1)
    assert split_scan(part) is None


def test_split_scan_certified_by_neq():
    # sole nonconstant lead coefficient z_2^2 is certified by neq {z_2}
    eq = IdealBasis((P("z_2^2*y_3-1", 2),))
    part = Part(0, -1, eq, (P("z_2", 2),), 2)
    assert split_scan(part) is None


def test_split_scan_certified_by_equalities():
    # z_2*y_4 = 1 lives at level 4, so it cannot certify z_2 at level 2;
    # neq {z_2} does, and without it the part splits on z_2
    eq = buchberger([P("z_1-1", 2), P("y_3-1", 2), P("z_2*y_4-1", 2)])
    part = Part(0, -1, eq, (P("z_2", 2),), 2)
    assert split_scan(part) is None
    assert split_scan(Part(0, -1, eq, (), 2)).J == P("z_2", 2)


# -- inequality normalization ------------------------------------------------------

def test_normalize_neq_drops_redundant():
    eq = buchberger([P("y_1"), P("y_2-1")])
    assert normalize_neq((P("z_1-1", 1),), eq) == ()


def test_normalize_neq_empty_part():
    eq = buchberger([P("y_2"), P("y_1-1")])
    assert normalize_neq((P("z_2", 2),), eq) is None


def test_normalize_neq_sorts_by_scan_key():
    eq = IdealBasis(())
    got = normalize_neq((P("z_2*z_4", 6), P("z_2", 6)), eq)
    assert got == (P("z_2", 6), P("z_2*z_4", 6))


def test_normalize_neq_keeps_level_relevant_entry():
    # z_2*y_4 = 1 implies z_2 != 0, but only via a level-4 generator;
    # at level 2 the inequality still carries information, so it stays
    eq = buchberger([P("z_1-1", 2), P("y_3-1", 2), P("z_2*y_4-1", 2)])
    assert normalize_neq((P("z_2", 2),), eq) == (P("z_2", 2),)


# -- whole decompositions -----------------------------------------------------------

def leaf_texts(tree):
    out = []
    layout = tree.layout
    neq_layout = layout.at_level(layout.nslots)
    for part in leaf_parts(tree):
        eq_layout = layout.at_level(part.frozen_level)
        eq = ",".join(to_canonical_text(g, eq_layout) for g in part.eq.generators)
        neq = ",".join(to_canonical_text(q, neq_layout) for q in part.neq)
        out.append((eq, neq))
    return out


def test_partition_hyperbola():
    tree = partition_variety(parse_problem(HYPERBOLA))
    assert len(tree.nodes) == 5
    leaves = leaf_texts(tree)
    assert ("z_1,y_2+4,y_3+4,y_4", "") in leaves        # x_1 = inf, x_2 = 0
    assert ("z_1+4,z_2,y_3,y_4+4", "") in leaves        # x_1 = 0, x_2 = inf
    assert ("z_1+4,y_3+4,z_2*y_4+4", "z_2") in leaves   # generic affine branch


def test_partition_axes():
    tree = partition_variety(parse_problem(AXES))
    leaves = leaf_parts(tree)
    assert len(leaves) == 4
    from p1parts.oracle import part_members, variety_points
    gens = homogenized_generators(parse_problem(AXES))
    variety = set(variety_points(gens, 3, 2))
    assert len(variety) == 7
    member_sets = [set(part_members(p, 3, 2)) for p in leaves]
    covered = set().union(*member_sets)
    assert covered == variety
    for a, b in itertools.combinations(member_sets, 2):
        assert not (a & b)


def test_partition_example_matches_published_leaves():
    tree = partition_variety(parse_problem(EXAMPLE))
    assert len(leaf_parts(tree)) == 10
    leaves = leaf_texts(tree)
    assert ("z_1-1,z_2,z_3-1,z_4,z_5-1,y_6^2+y_6", "") in leaves
    assert ("z_1,z_2-1,z_3-1,y_5-1,z_4*y_6^2+y_6+1", "z_4") in leaves


def test_partition_append_order_and_paths():
    tree = partition_variety(parse_problem(EXAMPLE))
    for part in tree.nodes[1:]:
        assert part.prev < part.id
    assert tree.path(0) == (0,)
    paths = {tuple(tree.path(p.id)) for p in leaf_parts(tree)}
    assert all(path[0] == 0 for path in paths)


def test_partition_determinism():
    a = partition_variety(parse_problem(EXAMPLE))
    b = partition_variety(parse_problem(EXAMPLE))
    assert len(a.nodes) == len(b.nodes)
    for pa, pb in zip(a.nodes, b.nodes):
        assert pa.eq.generators == pb.eq.generators
        assert pa.neq == pb.neq
        assert pa.frozen_level == pb.frozen_level


def test_partition_max_nodes():
    with pytest.raises(MaxNodesExceeded) as err:
        partition_variety(parse_problem(EXAMPLE), max_nodes=4)
    assert len(err.value.tree.nodes) == 4


@pytest.mark.parametrize("budget", [0, -3])
def test_partition_max_nodes_below_one(budget):
    # the root of x_1 over F_5 is a leaf; the root counts against the budget
    prob = parse_problem("char 5\nn 1\nform x\nideal:\nx_1\n")
    assert len(partition_variety(prob, max_nodes=1).nodes) == 1
    with pytest.raises(ValueError, match="at least 1"):
        partition_variety(prob, max_nodes=budget)


def test_partition_inconsistent_root():
    prob = parse_problem("char 0\nn 1\nform y\nideal:\ny_1\ny_1-1\n")
    tree = partition_variety(prob)
    assert tree.nodes == []
    assert tree.diagnostics
    assert leaf_parts(tree) == []


def test_partition_no_radical_mode():
    # same point semantics even without the radical closure
    from p1parts.oracle import check_partition
    prob5 = parse_problem(EXAMPLE.replace("char 0", "char 5"))
    tree5 = partition_variety(prob5, radical=False)
    gens = homogenized_generators(prob5)
    assert check_partition(tree5, gens, 5, 3).valid


def test_leaf_parts_single_node():
    prob = parse_problem("char 0\nn 1\nform y\nideal:\ny_2-y_1\n")
    tree = partition_variety(prob)
    leaves = leaf_parts(tree)
    assert len(leaves) >= 1
    assert all(tree.path(p.id)[0] == 0 for p in leaves)


def test_partition_y_form_input():
    proby = parse_problem("char 5\nn 2\nform y\nideal:\ny_4*y_2-y_3*y_1\n")
    probx = parse_problem(HYPERBOLA)
    ty = partition_variety(proby)
    tx = partition_variety(probx)
    assert leaf_texts(ty) == leaf_texts(tx)


def test_parts_contain_canonical_constraint_consequences():
    # every part constrains each odd slot's residue to {0, 1}
    from p1parts.groebner import buchberger as gb, normal_form as nf
    tree = partition_variety(parse_problem(EXAMPLE))
    for part in tree.nodes:
        eq = gb(part.eq.generators)
        for k in (1, 3, 5):
            h = Polynomial.var(QQ, 6, PL3.y_pos(k))
            one = Polynomial.const(QQ, 6, 1)
            assert nf(h * (h - one), eq).is_zero()


def test_cli_oracle_rejects_inhomogeneous_y_form(tmp_path, capsys):
    from p1parts.cli import RunOptions, run
    bad = tmp_path / "inhom.txt"
    bad.write_text("char 5\nn 2\nform y\nideal:\ny_4-1\n")
    assert run(RunOptions(str(bad), oracle_check=5)) == 1
    assert "homogeneous" in capsys.readouterr().err


def test_theorem3_reduction_property():
    # at a leaf, at each level: any root of the least next-slot generator
    # consistent with the frozen values kills every other one
    prob = parse_problem(EXAMPLE.replace("char 0", "char 5"))
    tree = partition_variety(prob)
    p, n = 5, 3
    from p1parts.oracle import part_members
    for part in leaf_parts(tree):
        gens = part.eq.generators
        for t in part_members(part, p, n):
            vals = slot_values(t)
            for level in range(1, 7):
                pos = 6 - level  # position of the slot at this level
                univ = [g for g in gens
                        if g.occurring_slots() <= set(range(pos, 6))
                        and pos in g.occurring_slots()]
                if not univ:
                    continue
                univ.sort(key=lambda g: g.lead_monomial())
                b1 = univ[0]
                for r in range(p):
                    probe = list(vals)
                    probe[pos] = r
                    if b1.evaluate(probe) == 0:
                        assert all(g.evaluate(probe) == 0 for g in univ)