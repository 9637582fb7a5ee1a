"""Differential checks of the oracle's prefix walk against brute force.

The reference below is the earlier oracle: it enumerates all (p+1)^n
canonical tuples with ``enumerate_proj_space`` and evaluates every
constraint on the full slot values of each.  ``variety_points`` and
``part_members`` prune prefixes instead, so they must return exactly the
reference lists, in the same order.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from p1parts.fields import GF
from p1parts.groebner import IdealBasis
from p1parts.multiproj import (
    Part, homogenized_generators, leaf_parts, partition_variety,
)
from p1parts.oracle import enumerate_proj_space, part_members, variety_points
from p1parts.parser import parse_problem
from p1parts.poly import Polynomial

DEMO_PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


# -- reference implementation ----------------------------------------------------

def ref_variety_points(gens, p, n):
    out = []
    for t in enumerate_proj_space(p, n):
        vals = t.slot_values()
        if all(g.evaluate(vals) == 0 for g in gens):
            out.append(t)
    return out


def ref_part_members(part, p, n):
    out = []
    for t in enumerate_proj_space(p, n):
        vals = t.slot_values()
        if all(g.evaluate(vals) == 0 for g in part.eq.generators) and \
                all(q.evaluate(vals) != 0 for q in part.neq):
            out.append(t)
    return out


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
def parts(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    field = GF(p)
    nslots = 2 * n
    eq = draw(st.lists(constraints(field, nslots), max_size=3))
    neq = draw(st.lists(constraints(field, nslots), max_size=3))
    level = draw(st.integers(0, nslots))
    return p, n, Part(0, -1, IdealBasis(tuple(eq)), tuple(neq), level)


# -- properties ----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(parts())
def test_part_members_matches_reference(drawn):
    p, n, part = drawn
    assert part_members(part, p, n) == ref_part_members(part, p, n)


@settings(max_examples=100, deadline=None)
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
