"""Differential checks of the split scan against its predecessors.

``ref_split_scan`` is the earliest scan.  Besides saturating a frozen
leading coefficient by the low inequalities, it also counted the
coefficient as certified when it was a unit modulo the equality
generators supported at or below the level, and it scanned the basis
in an explicitly sorted copy.  On a reduced lex basis neither can
change the result: the basis already lists its leading monomials in
increasing order, and a nonconstant saturated coefficient is never a
unit modulo the low equalities (the lemma in ``split_scan``'s
docstring, checked directly by ``test_no_saturated_coefficient_is_a_unit``).
``full_split_scan`` is the scan before level windows: it splits off the
lead coefficient of every generator at every level.  So ``split_scan``
must return both references' finding on every part the engine builds,
and ``test_window_bounds`` checks the windows themselves, as
``_lead_spans`` reads them off the packed leads.

The same nodes also carry the invariants the engine relies on without
re-establishing them: each ``eq`` is the reduced basis of its own
generators and carries the packed heads of exactly those generators,
and each ``neq`` is monic, squarefree, nonconstant, pairwise
distinct and sorted by the scan key.  Every child appended while
solving gets the same inequalities whether or not ``normalize_neq``
may take the verdicts of inherited ones from the parent and skip the
emptiness test of the split's own J, here and on the F_p sweep, and the
same basis whether or not its radical closure skips the slots the
parent proved squarefree.
"""

import dataclasses
import hashlib
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from p1parts import multiproj
from p1parts.cli import render_tree
from p1parts.fields import GF, QQ
from p1parts.groebner import (
    IdealBasis, _eliminant, _lead_spans, buchberger, elimination_subbasis,
    heuristic_radical,
)
from p1parts.multiproj import (
    MaxNodesExceeded, Part, SplitFinding, _scan_key, partition_variety,
    reduced_lead_coefficient, split_scan,
)
from p1parts.parser import ProblemSpec, parse_problem
from p1parts.poly import (
    Layout, Polynomial, lead_split, squarefree_part, support_level,
)
from test_groebner_reference import FIELDS, polynomials
from test_multiproj import assert_children_agree
from test_oracle import assert_dimension_is_most_free_levels, random_fp_problem
from test_work_counters import N5_F5

DEMO_PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


# -- reference implementation ----------------------------------------------------

def ref_scan_key(g: Polynomial):
    return (g.lead_monomial(), sorted(g.terms.items()))


def ref_split_scan(part: Part) -> Optional[SplitFinding]:
    """Find the first freezing level whose lead coefficients force a split.

    Levels are tried bottom-up; within a level the generators are scanned
    in increasing lex order of leading monomial, skipping the fully
    frozen ones.  A coefficient counts as certified nonzero when
    saturating by the inequality constraints at or below the level leaves
    a constant, or when it is invertible modulo the equality generators
    supported at or below the level.  Only level-local information may
    certify, because the extension step starts from partial solutions
    that satisfy exactly the constraints living down there.  Returns None
    when every coefficient at every level is certified, which makes the
    part a leaf.
    """
    gens = part.eq.generators
    if not gens:
        return None
    nslots = gens[0].nslots
    scan = sorted(gens, key=ref_scan_key)
    neq_levels = [(q, support_level(q)) for q in part.neq]
    for level in range(1, nslots):
        low_neq = [q for q, lvl in neq_levels if lvl <= level]
        low_eq = elimination_subbasis(part.eq, level).generators
        for g in scan:
            mono, lc = lead_split(g, nslots - level)
            if not any(mono):
                continue  # fully frozen generator
            m = reduced_lead_coefficient(lc, low_neq)
            if m.is_constant():
                continue
            J = squarefree_part(m)
            if buchberger(low_eq + (J,)).is_unit():
                continue  # J vanishes nowhere on the low-level solution set
            return SplitFinding(level, g, J)
    return None


def full_split_scan(part: Part) -> Optional[SplitFinding]:
    """``split_scan`` without level windows: every generator that is not
    fully frozen has its lead coefficient split off at every level."""
    gens = part.eq.generators
    if not gens:
        return None
    nslots = gens[0].nslots
    neq_levels = [(q, support_level(q)) for q in part.neq]
    for level in range(1, nslots):
        low_neq = [q for q, lvl in neq_levels if lvl <= level]
        for g in gens:
            mono, lc = lead_split(g, nslots - level)
            if not any(mono):
                continue  # fully frozen generator
            m = reduced_lead_coefficient(lc, low_neq)
            if not m.is_constant():
                return SplitFinding(level, g, squarefree_part(m))
    return None


# -- every node of the engine's trees ----------------------------------------------

def tree(problem, radical):
    try:
        return partition_variety(problem, max_nodes=300, radical=radical)
    except MaxNodesExceeded as exc:
        return exc.tree


def tree_nodes(problem, radical):
    return tree(problem, radical).nodes


def packed(heads):
    return [(lead, dict(tail)) for lead, tail in heads]


def assert_node_invariants(part):
    fresh = buchberger(part.eq.generators)
    assert fresh == part.eq and packed(part.eq.heads) == packed(fresh.heads)
    for q in part.neq:
        assert not q.is_constant() and q.lead_coeff() == q.field.one()
        assert squarefree_part(q) == q
    assert len(set(part.neq)) == len(part.neq)
    assert list(part.neq) == sorted(part.neq, key=_scan_key)


def assert_tree_agrees(monkeypatch, problem, radical) -> bool:
    """Check every node of the problem's tree and every child appended
    while building it; True when the tree has nodes."""
    children = []
    real_normalize = multiproj.normalize_neq

    def recording(neq, eq, parent):
        children.append((neq, eq, parent))
        return real_normalize(neq, eq, parent)

    with monkeypatch.context() as patch:
        patch.setattr(multiproj, "normalize_neq", recording)
        nodes = tree_nodes(problem, radical)
    for part in nodes:
        assert split_scan(part) == ref_split_scan(part) == full_split_scan(part), part.id
        assert_node_invariants(part)
    assert_children_agree(children)
    return bool(nodes)


@pytest.mark.parametrize("radical", [True, False])
def test_sweep_children_agree_without_the_parent(radical, sweep_trees):
    for *_, children in sweep_trees(radical):
        assert_children_agree(children)


DEMOS = sorted(path.name for path in DEMO_PROBLEMS.glob("*.txt"))


@pytest.mark.parametrize("radical", [True, False])
@pytest.mark.parametrize("name", DEMOS)
def test_demo_scans_match_reference(monkeypatch, name, radical):
    problem = parse_problem((DEMO_PROBLEMS / name).read_text())
    assert assert_tree_agrees(monkeypatch, problem, radical)


def random_problem(seed):
    """1-2 x-form generators of 1-3 terms in n = 2 or 3 affine slots."""
    rng = random.Random(seed)
    p = rng.choice((0, 2, 3, 5, 7))
    field = GF(p) if p else QQ
    n = rng.choice((2, 3))
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
            c = rng.randint(1, p - 1) if p else \
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            terms[mono] = c
        g = Polynomial(field, n, terms)
        if not g.is_constant():
            gens.append(g)
    return ProblemSpec(field, n, "x", tuple(gens), Layout.affine(n))


# Fixed: a disagreement must be mended, never re-seeded away.
RANDOM_SEEDS = range(100)


def test_random_scans_match_reference(monkeypatch):
    checked = 0
    for seed in RANDOM_SEEDS:
        problem = random_problem(seed)
        if not problem.generators:
            continue
        for radical in (True, False):
            checked += assert_tree_agrees(monkeypatch, problem, radical)
    assert checked >= 150


# sha256 of the text renders of every random problem's tree, radical on
# and off; pinned so that a rewritten core must give the same bytes.
RANDOM_RENDER_DIGEST = "e0294c40727561beb68cd3d702eb951b3e7ebaad52c58bed3bef9bbcade8cd2d"


def test_random_renders_unchanged():
    digest = hashlib.sha256()
    for seed in RANDOM_SEEDS:
        problem = random_problem(seed)
        for radical in (True, False):
            built = tree(problem, radical)
            if problem.generators:
                assert_dimension_is_most_free_levels(built)
            rendered = render_tree(built, "text")
            digest.update(f"{seed} {radical}\n{rendered}\n".encode())
    assert digest.hexdigest() == RANDOM_RENDER_DIGEST


# Fixed like RANDOM_SEEDS: a mismatch must be mended, never re-seeded away.
INVARIANCE_FP_SEEDS = range(1000, 1020)


def same_ideal_variant(problem, seed):
    """The problem with other generators of the same ideal: reversed,
    rescaled, or with the redundant f_first*f_last + f_first added."""
    gens = list(problem.generators)
    if seed % 3 == 0:
        gens.reverse()
    elif seed % 3 == 1:
        c = Fraction(-3, 2) if problem.field.characteristic == 0 else -1
        gens = [g.scale(c) for g in gens]
    else:
        gens.append(gens[0] * gens[-1] + gens[0])
    return dataclasses.replace(problem, generators=tuple(gens))


def test_tree_is_a_function_of_the_ideal():
    # the reduced basis is unique, the radical closure is a unique
    # fixpoint and the split rule reads only the basis
    problems = [(seed, random_problem(seed)) for seed in RANDOM_SEEDS]
    problems += [(seed, random_fp_problem(seed)) for seed in INVARIANCE_FP_SEEDS]
    checked = 0
    for seed, problem in problems:
        if not problem.generators:
            continue
        variant = same_ideal_variant(problem, seed)
        for radical in (True, False):
            assert render_tree(tree(variant, radical)) == \
                render_tree(tree(problem, radical)), (seed, radical)
        checked += 1
    assert checked >= 110


# -- the lemma ---------------------------------------------------------------------

@st.composite
def low_polynomials(draw, field, nslots):
    """A nonconstant polynomial in the lowest k slots, for a drawn k."""
    k = draw(st.integers(1, nslots - 1))
    q = draw(polynomials(field, k, max_degree=2))
    pad = (0,) * (nslots - k)
    return Polynomial(field, nslots, {pad + m: c for m, c in q.terms.items()})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_no_saturated_coefficient_is_a_unit(data):
    field = data.draw(st.sampled_from(FIELDS))
    nslots = data.draw(st.integers(2, 5))
    gens = data.draw(st.lists(polynomials(field, nslots, max_degree=2),
                              min_size=1, max_size=3))
    basis = buchberger(gens)
    neq = data.draw(st.lists(low_polynomials(field, nslots), max_size=3))
    for level in range(1, nslots):
        low_eq = elimination_subbasis(basis, level).generators
        low_neq = [q for q in neq if support_level(q) <= level]
        for g in basis.generators:
            mono, lc = lead_split(g, nslots - level)
            if not any(mono):
                continue
            m = reduced_lead_coefficient(lc, low_neq)
            if not m.is_constant():
                assert not buchberger(low_eq + (m,)).is_unit()


# -- the level windows ---------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_window_bounds(data):
    field = data.draw(st.sampled_from(FIELDS))
    nslots = data.draw(st.integers(1, 6))
    g = data.draw(polynomials(field, nslots))
    pos = data.draw(st.sampled_from((None, 0, nslots - 1)))
    if pos is not None:
        # the lead's exponent in the highest or lowest slot becomes
        # 2^15 - 1, which sets the top bit of its packed field
        e = g.lead_monomial()[pos]
        shift = (1 << 15) - 1 - e
        g = Polynomial(field, nslots, {
            m[:pos] + (m[pos] + shift,) + m[pos + 1:]: c
            for m, c in g.terms.items() if m[pos] <= e})
    [(lo, hi)] = _lead_spans(buchberger([g]))
    for level in range(nslots + 1):
        mono, lc = lead_split(g, nslots - level)
        assert (not lc.is_constant()) == (lo <= level), level
        assert (not any(mono)) == (level >= hi), level


# -- inherited closure slots -------------------------------------------------------

SEGRE_QQ = "char 0\nn 4\nform x\nideal:\nx_1*x_4-x_2*x_3\n"


def first_pure_power(basis, pos):
    """The first generator leading with a power of the slot, 1 included."""
    for g in basis.generators:
        lead = g.lead_monomial()
        if lead[pos] == sum(lead):
            return g
    return None


def closure_calls(monkeypatch, problem):
    """(basis, inherited slots, closed basis) of every child closure."""
    calls = []
    real_closure = multiproj.heuristic_radical

    def recording(basis):
        closed = real_closure(basis)
        calls.append((basis, basis.proved, closed))
        return closed

    with monkeypatch.context() as patch:
        patch.setattr(multiproj, "heuristic_radical", recording)
        tree(problem, True)
    return calls[1:]  # the root inherits nothing


def test_children_inherit_only_squarefree_slots(monkeypatch):
    # a child's ideal contains its parent's, so the eliminant in each slot
    # the parent proved squarefree divides the parent's and is squarefree
    problems = [random_problem(seed) for seed in RANDOM_SEEDS]
    problems += [random_fp_problem(seed) for seed in INVARIANCE_FP_SEEDS]
    problems += [parse_problem(N5_F5), parse_problem(SEGRE_QQ)]
    inherited = 0
    for problem in problems:
        for basis, proved, closed in closure_calls(monkeypatch, problem):
            for pos in proved:
                g = first_pure_power(basis, pos)
                m = g and _eliminant(basis, pos, g)
                assert m is not None and squarefree_part(m) == m, pos
            inherited += len(proved)
            unproved = IdealBasis(basis.generators, basis.heads)
            assert closed.generators == heuristic_radical(unproved).generators
    assert inherited >= 5000
