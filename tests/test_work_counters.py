"""Deterministic work counters of one solve.

Wall time varies between identical runs, so a speed-up of the Groebner
core or of the radical closure must also show in a count that repeats
exactly.  These pin the counts of one unshuffled ``n5-f5`` solve
(x_5*x_1-x_2*x_3+x_4 over F_5, n=5, radical on, 121 nodes): the
``_reduce`` calls, which an extension spends only on what its new
polynomials change, and the Groebner lcm runs made inside
``heuristic_radical``, none since every eliminant there is univariate
and ``poly_gcd`` takes it through the dense Euclid.
"""

from p1parts import groebner, multiproj
from p1parts.multiproj import partition_variety
from p1parts.parser import parse_problem

N5_F5 = "char 5\nn 5\nform x\nideal:\nx_5*x_1-x_2*x_3+x_4\n"


def test_n5_f5_work_counters(monkeypatch):
    counts = {"reduce": 0, "closure_lcm": 0}
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

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
    monkeypatch.setattr(groebner, "_poly_lcm", counting_lcm)
    monkeypatch.setattr(multiproj, "heuristic_radical", marked_radical)
    tree = partition_variety(parse_problem(N5_F5))
    assert len(tree.nodes) == 121
    assert counts == {"reduce": 2634, "closure_lcm": 0}
