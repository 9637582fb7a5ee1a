"""Fixtures shared by the test modules."""

import functools

import pytest

from test_multiproj import solve_recording
from test_oracle import SWEEP_SEEDS, random_fp_problem


@pytest.fixture(scope="session")
def sweep_trees():
    """The F_p sweep, solved once per radical setting in a session.

    ``sweep_trees(radical)`` lists (seed, problem, tree, children) for
    each seed of ``SWEEP_SEEDS`` that draws a generator, in seed order,
    each tree capped at 400 nodes and solved by ``solve_recording``, whose
    children are the (neq, eq, parent) of every child appended.  The tests
    share the trees and must not change them.
    """
    @functools.cache
    def solved(radical):
        return [(seed, problem, *solve_recording(problem, max_nodes=400, radical=radical))
                for seed in SWEEP_SEEDS if (problem := random_fp_problem(seed)).generators]
    return solved
