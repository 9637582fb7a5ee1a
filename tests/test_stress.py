"""Randomized end-to-end checks: decompose, then verify exhaustively."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from p1parts.fields import GF
from p1parts.multiproj import (
    MaxNodesExceeded, homogenized_generators, leaf_parts, multihomogenize,
    partition_variety,
)
from p1parts.oracle import check_extension, check_partition
from p1parts.parser import (
    ParseError, ProblemError, ProblemSpec, parse_polynomial, parse_problem,
)
from p1parts.poly import Layout, Polynomial, ProjLayout


def rand_poly(rng, F, n, p, maxdeg=3, maxterms=3):
    terms = {}
    for _ in range(rng.randint(1, maxterms)):
        mono = [0] * n
        for _ in range(rng.randint(0, maxdeg)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = rng.randint(1, p - 1)
    return Polynomial(F, n, terms)


def test_random_ideals_partition_cleanly():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(30):
        p = rng.choice([3, 5])
        n = rng.choice([2, 3])
        F = GF(p)
        style = rng.choice(["random", "square", "multiple"])
        if style == "random":
            gens = [rand_poly(rng, F, n, p) for _ in range(rng.randint(1, 2))]
        elif style == "square":
            g = rand_poly(rng, F, n, p, maxdeg=2)
            gens = [g * g]
        else:
            g = rand_poly(rng, F, n, p, maxdeg=2)
            gens = [g, g * rand_poly(rng, F, n, p, maxdeg=1, maxterms=2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        prob = ProblemSpec(F, n, "x", tuple(gens), Layout.affine(n))
        tree = partition_variety(prob, max_nodes=500)
        if not tree.nodes:
            continue  # the ideal contained a unit after homogenization
        hom = homogenized_generators(prob)
        report = check_partition(tree, hom, p, n)
        assert report.valid, report.summary()
        for part in leaf_parts(tree):
            assert check_extension(part, p, n) == []
        checked += 1
    assert checked >= 20


def test_random_y_form_ideals_partition_cleanly():
    rng = random.Random(4242)
    layout = ProjLayout(2)
    checked = 0
    for _ in range(12):
        p = rng.choice([3, 5])
        F = GF(p)
        affine = [rand_poly(rng, F, 2, p, maxdeg=2)
                  for _ in range(rng.randint(1, 2))]
        gens = tuple(multihomogenize(b, layout)
                     for b in affine if not b.is_zero())
        if not gens:
            continue
        prob = ProblemSpec(F, 2, "y", gens, layout)
        tree = partition_variety(prob, max_nodes=500)
        if not tree.nodes:
            continue
        report = check_partition(tree, list(gens), p, 2)
        assert report.valid, report.summary()
        checked += 1
    assert checked >= 8


PL2 = ProjLayout(2)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="xyz_0123456789+-*^()/ \t", max_size=30))
def test_parse_polynomial_never_crashes(text):
    from p1parts.fields import QQ
    try:
        parse_polynomial(text, PL2, QQ)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_parse_problem_never_crashes(text):
    try:
        parse_problem(text)
    except (ParseError, ProblemError):
        pass

EDGE_PROBLEMS = [
    ("char 2\nn 2\nform x\nideal:\nx_2*x_1-1\n", 2, 3),
    ("char 2\nn 2\nform x\nideal:\nx_2*x_1\n", 2, 5),
    ("char 2\nn 2\nform x\nideal:\nx_2^2*x_1^2\n", 2, 5),
    ("char 5\nn 1\nform x\nideal:\nx_1^2-2*x_1+1\n", 5, 1),
    ("char 7\nn 1\nform x\nideal:\nx_1^3-x_1\n", 7, 3),
    ("char 3\nn 2\nform x\nideal:\nx_1-x_1\n", 3, 16),  # zero ideal: everything
    ("char 5\nn 1\nform x\nideal:\nx_1^2+2\n", 5, 0),   # roots only in F_25
]


@pytest.mark.parametrize("text,p,variety_size", EDGE_PROBLEMS)
def test_edge_problems_partition_cleanly(text, p, variety_size):
    prob = parse_problem(text)
    tree = partition_variety(prob)
    gens = homogenized_generators(prob)
    report = check_partition(tree, gens, p, prob.n)
    assert report.valid, report.summary()
    assert report.variety_size == variety_size
    for part in leaf_parts(tree):
        assert check_extension(part, p, prob.n) == []


# Larger oracle runs: every leaf's members come from one pruned prefix
# walk, so the (p+1)^n tuples are no longer enumerated once per leaf.
LARGE_PROBLEMS = [
    # text, radical, tuples, leaves
    ("char 11\nn 4\nform x\nideal:\nx_1*x_4-x_2*x_3\n", True, 20736, 28),
    # the closure leaves this tree unchanged; radical off covers that path
    ("char 5\nn 6\nform x\nideal:\nx_1*x_2-x_3*x_4+x_5*x_6\n", False,
     46656, 130),
]


@pytest.mark.parametrize("text,radical,tuples,leaves", LARGE_PROBLEMS)
def test_large_oracle_runs(text, radical, tuples, leaves):
    prob = parse_problem(text)
    p = prob.field.characteristic
    tree = partition_variety(prob, radical=radical)
    assert len(tree.leaf_ids()) == leaves
    report = check_partition(tree, homogenized_generators(prob), p, prob.n)
    assert report.valid, report.summary()
    assert report.tuples_scanned == tuples
    for part in leaf_parts(tree):
        assert check_extension(part, p, prob.n) == []
