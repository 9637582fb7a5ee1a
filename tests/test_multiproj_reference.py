"""Differential checks of the split scan against its predecessor.

``ref_split_scan`` is the earlier scan.  Besides saturating a frozen
leading coefficient by the low inequalities, it also counted the
coefficient as certified when it was a unit modulo the equality
generators supported at or below the level, and it scanned the basis
in an explicitly sorted copy.  On a reduced lex basis neither can
change the result: the basis already lists its leading monomials in
increasing order, and a nonconstant saturated coefficient is never a
unit modulo the low equalities (the lemma in ``split_scan``'s
docstring, checked directly by ``test_no_saturated_coefficient_is_a_unit``).
So ``split_scan`` must return the reference finding on every part the
engine builds.

The same nodes also carry the invariants the engine relies on without
re-establishing them: each ``eq`` is the reduced basis of its own
generators and carries the packed heads of exactly those generators,
and each ``neq`` is monic, squarefree, nonconstant, pairwise
distinct and sorted by the scan key.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from p1parts.cli import render_tree
from p1parts.fields import GF, QQ
from p1parts.groebner import IdealBasis, _heads, buchberger, elimination_subbasis
from p1parts.multiproj import (
    MaxNodesExceeded, Part, SplitFinding, _scan_key, partition_variety,
    reduced_lead_coefficient, split_scan,
)
from p1parts.parser import ProblemSpec, parse_problem
from p1parts.poly import (
    Layout, Polynomial, lead_split, squarefree_part, support_level,
)
from test_groebner_reference import FIELDS, polynomials

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
    assert buchberger(part.eq.generators) == part.eq
    fresh = _heads(IdealBasis(part.eq.generators))
    assert part.eq.heads is not None and packed(part.eq.heads) == packed(fresh)
    for q in part.neq:
        assert not q.is_constant() and q.lead_coeff() == q.field.one()
        assert squarefree_part(q) == q
    assert len(set(part.neq)) == len(part.neq)
    assert list(part.neq) == sorted(part.neq, key=_scan_key)


def assert_scans_agree(problem, radical):
    nodes = tree_nodes(problem, radical)
    assert nodes
    for part in nodes:
        assert split_scan(part) == ref_split_scan(part), part.id
        assert_node_invariants(part)


DEMOS = sorted(path.name for path in DEMO_PROBLEMS.glob("*.txt"))


@pytest.mark.parametrize("radical", [True, False])
@pytest.mark.parametrize("name", DEMOS)
def test_demo_scans_match_reference(name, radical):
    assert_scans_agree(parse_problem((DEMO_PROBLEMS / name).read_text()), radical)


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


def test_random_scans_match_reference():
    checked = 0
    for seed in RANDOM_SEEDS:
        problem = random_problem(seed)
        if not problem.generators:
            continue
        for radical in (True, False):
            nodes = tree_nodes(problem, radical)
            for part in nodes:
                assert split_scan(part) == ref_split_scan(part), (seed, part.id)
                assert_node_invariants(part)
            checked += bool(nodes)
    assert checked >= 150


# sha256 of the text renders of every random problem's tree, radical on
# and off; pinned so that a rewritten core must give the same bytes.
RANDOM_RENDER_DIGEST = "e0294c40727561beb68cd3d702eb951b3e7ebaad52c58bed3bef9bbcade8cd2d"


def test_random_renders_unchanged():
    digest = hashlib.sha256()
    for seed in RANDOM_SEEDS:
        problem = random_problem(seed)
        for radical in (True, False):
            rendered = render_tree(tree(problem, radical), "text")
            digest.update(f"{seed} {radical}\n{rendered}\n".encode())
    assert digest.hexdigest() == RANDOM_RENDER_DIGEST


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
        for g in basis:
            mono, lc = lead_split(g, nslots - level)
            if not any(mono):
                continue
            m = reduced_lead_coefficient(lc, low_neq)
            if not m.is_constant():
                assert not buchberger(low_eq + (m,)).is_unit()
