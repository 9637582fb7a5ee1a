"""Deterministic work counters of one solve.

Wall time varies between identical runs, so a speed-up of the Groebner
core or of the radical closure must also show in a count that repeats
exactly.  These pin the counts of one unshuffled ``n5-f5`` solve plus
its text render (x_5*x_1-x_2*x_3+x_4 over F_5, n=5, radical on, 121
nodes):

- the ``_reduce`` calls, which an extension spends only on what its new
  polynomials change;
- the radical closures, one at the root and two per split, made
  through the public ``heuristic_radical``, so that a tracer wrapping
  that name sees them;
- the ``_eliminant`` calls of the radical closures, none for a slot that
  the part's parent, or an earlier pass of the same closure, proved
  squarefree;
- the Groebner lcm runs made inside the radical closures, none since
  every eliminant there is univariate and ``poly_gcd`` takes it through
  the dense Euclid;
- the ``lead_split`` calls of ``split_scan``, made only inside each
  generator's level window;
- the ``poly_gcd`` calls, few since a child's closure takes no squarefree
  part of an eliminant its parent proved squarefree;
- the ``radical_membership`` calls of ``normalize_neq``, none for an
  inherited inequality whose low basis is the parent's and none for a
  split's own J, which leaves the inequality child nonempty unless its
  ideal is the unit ideal: none at all on this solve;
- the ``to_canonical_text`` calls, one per generator and naming level;
- the entries the signature steps push onto their J-pair queues, one per
  signature an old lead does not divide; one of them is the solve's one
  Groebner lcm, a signature step too.

One more pins the ``_reduce`` calls of the ``found-f2`` root basis,
grown from the empty basis by the canonical constraints and then the
homogenized generators; it takes thousands when they all go into one
run, so that a change of ``root_part``'s insertion order shows.  Another pins the zero remainders and the queue
of the ``n5-f5`` root basis, which the signature criteria predict.  The
last pin the oracle's work over the ``n5-f5`` tree: the nodes its walks
visit, since the extension check walks a leaf only up to the last slot
where a prefix can die, and most leaves have no such slot; the root sets
in F_p it computes, once per constraint object rather than once per
walk; and the slot tables its plans build, none for a leaf that walks
nothing.  A second solve and verify computes as many root sets as the
first, so no fact carries from one solve to the next.
"""

import heapq
import sys
from types import SimpleNamespace

from p1parts import cli, groebner, multiproj, oracle, poly
from p1parts.cli import render_tree
from p1parts.multiproj import (
    homogenized_generators, leaf_parts, partition_variety, root_part,
)
from p1parts.parser import parse_problem

N5_F5 = "char 5\nn 5\nform x\nideal:\nx_5*x_1-x_2*x_3+x_4\n"
FOUND_F2 = ("char 2\nn 4\nform x\nideal:\n"
            "x_4^2*x_3^2*x_2+x_4*x_2^2+x_3*x_2*x_1^2\nx_4^2+x_4*x_3+1\n")

# Counted through every module that binds the function, so calls from
# other modules are caught as well as recursive ones.
COUNTED = ("lead_split", "poly_gcd", "radical_membership", "to_canonical_text")


def queue_pushes(monkeypatch):
    """A list that gains every item ``groebner._adjoin`` pushes onto its
    J-pair queue; the pushes of ``_reduce`` and Gebauer-Moeller pass."""
    pushed = []
    adjoin = groebner._adjoin.__code__

    def heappush(heap, item):
        if sys._getframe(1).f_code is adjoin:
            pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))
    return pushed


def test_n5_f5_work_counters(monkeypatch):
    counts = dict.fromkeys(
        ("reduce", "eliminant", "closure_lcm", "heuristic_radical") + COUNTED, 0)
    queued = queue_pushes(monkeypatch)
    in_closure = []
    real_reduce = groebner._reduce
    real_eliminant = groebner._eliminant
    real_lcm = groebner._poly_lcm
    real_closure = multiproj.heuristic_radical

    def counting_reduce(*args):
        counts["reduce"] += 1
        return real_reduce(*args)

    def counting_eliminant(*args):
        counts["eliminant"] += 1
        return real_eliminant(*args)

    def counting_lcm(*args):
        counts["closure_lcm"] += bool(in_closure)
        return real_lcm(*args)

    def marked_radical(*args):
        counts["heuristic_radical"] += 1
        in_closure.append(True)
        try:
            return real_closure(*args)
        finally:
            in_closure.pop()

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
    monkeypatch.setattr(groebner, "_eliminant", counting_eliminant)
    monkeypatch.setattr(groebner, "_poly_lcm", counting_lcm)
    monkeypatch.setattr(multiproj, "heuristic_radical", marked_radical)
    for name in COUNTED:
        modules = [m for m in (poly, groebner, multiproj, cli) if hasattr(m, name)]
        wrapper = counting(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    tree = partition_variety(parse_problem(N5_F5))
    render_tree(tree)
    assert len(tree.nodes) == 121
    # 912 eliminants, 40 more reductions and 402 gcds when every closure
    # re-proved its parent's squarefree slots
    # 60 more reductions and 60 radical memberships when normalize_neq
    # tested each split's own J for emptiness
    assert counts == {"reduce": 1232, "eliminant": 80, "closure_lcm": 0,
                      "heuristic_radical": 121, "lead_split": 114, "poly_gcd": 279,
                      "radical_membership": 0, "to_canonical_text": 654}
    # 8 more when the skipped permuted eliminants ran their signature steps
    assert len(queued) == 664


def reduce_results(monkeypatch):
    """A list that gains the result of every ``groebner._reduce`` call."""
    results = []
    real_reduce = groebner._reduce

    def counting_reduce(*args):
        results.append(real_reduce(*args))
        return results[-1]

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
    return results


def test_found_f2_root_reduce_calls(monkeypatch):
    results = reduce_results(monkeypatch)
    root = root_part(parse_problem(FOUND_F2), radical=False)
    assert len(root.eq) == 27
    assert len(results) == 96


def test_n5_f5_root_zero_reductions(monkeypatch):
    results = reduce_results(monkeypatch)
    queued = queue_pushes(monkeypatch)
    root = root_part(parse_problem(N5_F5), radical=False)
    assert len(root.eq) == 52
    assert len(results) == 153
    assert sum(r == {} for r in results) == 13
    assert len(queued) == 177


def test_n5_f5_oracle_walk_nodes(monkeypatch):
    # one count per walk: the calls of its nested ``extend``, one per node
    walks = []
    real_walk = oracle._walk
    extend = next(c for c in real_walk.__code__.co_consts
                  if getattr(c, "co_name", None) == "extend")

    def counting_walk(*args, **callbacks):
        walks.append(0)
        return real_walk(*args, **callbacks)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is extend:
            walks[-1] += 1

    monkeypatch.setattr(oracle, "_walk", counting_walk)
    problem = parse_problem(N5_F5)
    tree = partition_variety(problem)
    sys.setprofile(profile)
    try:
        oracle.check_partition(tree, homogenized_generators(problem), 5, 5)
        assert walks == [4665]
        walks.clear()
        for leaf in leaf_parts(tree):
            oracle.check_extension(leaf, 5, 5)
    finally:
        sys.setprofile(None)
    assert len(walks) == 61
    assert sum(walks) == 1416
    assert sum(map(bool, walks)) == 5


def oracle_work(monkeypatch):
    """Counts that grow with the root sets in F_p the oracle computes and
    with the slot tables its plans build."""
    counts = {"root_sets": 0, "slot_tables": 0}
    real_root_set, real_plan = oracle._Facts.root_set, oracle._plan

    def root_set(facts, p):
        counts["root_sets"] += facts.roots is None
        return real_root_set(facts, p)

    def plan(start, tests, p, top):
        counts["slot_tables"] += sum(map(bool, tests[1:top + 1]))
        return real_plan(start, tests, p, top)

    monkeypatch.setattr(oracle._Facts, "root_set", root_set)
    monkeypatch.setattr(oracle, "_plan", plan)
    return counts


def verify_n5_f5():
    """Solve ``n5-f5`` and check its partition and every leaf."""
    problem = parse_problem(N5_F5)
    tree = partition_variety(problem)
    oracle.check_partition(tree, homogenized_generators(problem), 5, 5)
    for leaf in leaf_parts(tree):
        oracle.check_extension(leaf, 5, 5)


def test_n5_f5_oracle_plan_work(monkeypatch):
    # 553 root sets and 548 slot tables when every walk planned afresh
    counts = oracle_work(monkeypatch)
    verify_n5_f5()
    assert counts == {"root_sets": 20, "slot_tables": 47}


def test_n5_f5_oracle_facts_do_not_carry_across_solves(monkeypatch):
    counts = oracle_work(monkeypatch)
    verify_n5_f5()
    assert counts["root_sets"] == 20
    verify_n5_f5()
    assert counts["root_sets"] == 40
