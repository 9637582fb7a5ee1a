"""Deterministic work counters of one solve.

Wall time varies between identical runs, so a speed-up of the Groebner
core or of the radical closure must also show in a count that repeats
exactly.  These pin the counts of one unshuffled ``n5-f5`` solve plus
its text render (x_5*x_1-x_2*x_3+x_4 over F_5, n=5, radical on, 121
nodes):

- the ``_reduce`` calls, which an extension spends only on what its new
  polynomials change;
- the Groebner lcm runs made inside ``heuristic_radical``, none since
  every eliminant there is univariate and ``poly_gcd`` takes it through
  the dense Euclid;
- the ``lead_split`` calls of ``split_scan``, made only inside each
  generator's level window;
- the ``poly_gcd`` calls, few since a squarefree basis element reaches a
  child's closure already marked;
- the ``radical_membership`` calls of ``normalize_neq``, none for an
  inherited inequality whose low basis is the parent's;
- the ``to_canonical_text`` calls, one per generator and naming level.

One more pins the ``_reduce`` calls of the ``found-f2`` root basis,
which takes thousands when the homogenized generators and the canonical
constraints go into one run, so that a change of ``root_part``'s
insertion order shows.  The last pins the zero remainders of the
``n5-f5`` root basis, which the signature criteria predict: Gebauer and
Moeller's installation reduced 437 of 547 S-pairs to zero there.
"""

from p1parts import cli, groebner, multiproj, poly
from p1parts.cli import render_tree
from p1parts.multiproj import partition_variety, root_part
from p1parts.parser import parse_problem

N5_F5 = "char 5\nn 5\nform x\nideal:\nx_5*x_1-x_2*x_3+x_4\n"
FOUND_F2 = ("char 2\nn 4\nform x\nideal:\n"
            "x_4^2*x_3^2*x_2+x_4*x_2^2+x_3*x_2*x_1^2\nx_4^2+x_4*x_3+1\n")

# Counted through every module that binds the function, so calls from
# other modules are caught as well as recursive ones.
COUNTED = ("lead_split", "poly_gcd", "radical_membership", "to_canonical_text")


def test_n5_f5_work_counters(monkeypatch):
    counts = dict.fromkeys(("reduce", "closure_lcm") + COUNTED, 0)
    in_closure = []
    real_reduce = groebner._reduce
    real_lcm = groebner._poly_lcm
    real_radical = multiproj.heuristic_radical

    def counting_reduce(*args):
        counts["reduce"] += 1
        return real_reduce(*args)

    def counting_lcm(*args):
        counts["closure_lcm"] += bool(in_closure)
        return real_lcm(*args)

    def marked_radical(basis):
        in_closure.append(True)
        try:
            return real_radical(basis)
        finally:
            in_closure.pop()

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
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
    assert counts == {"reduce": 1308, "closure_lcm": 0, "lead_split": 114,
                      "poly_gcd": 402, "radical_membership": 60,
                      "to_canonical_text": 654}


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
    assert len(results) == 77


def test_n5_f5_root_zero_reductions(monkeypatch):
    results = reduce_results(monkeypatch)
    root = root_part(parse_problem(N5_F5), radical=False)
    assert len(root.eq) == 52
    assert len(results) == 129
    assert sum(r == {} for r in results) == 8
