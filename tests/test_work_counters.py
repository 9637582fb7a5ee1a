"""Deterministic work counters of one solve.

Wall time varies between identical runs, so a speed-up of the Groebner
core or of the radical closure must also show in a count that repeats
exactly.  These pin the counts of one unshuffled ``n5-f5`` solve
(x_5*x_1-x_2*x_3+x_4 over F_5, n=5, radical on, 121 nodes): the
``_reduce`` calls, which an extension spends only on what its new
polynomials change, and the ``poly_gcd`` calls made inside
``heuristic_radical``, none since every eliminant there passes the dense
univariate squarefree test.
"""

from p1parts import groebner, multiproj, poly
from p1parts.multiproj import partition_variety
from p1parts.parser import parse_problem

N5_F5 = "char 5\nn 5\nform x\nideal:\nx_5*x_1-x_2*x_3+x_4\n"


def test_n5_f5_work_counters(monkeypatch):
    counts = {"reduce": 0, "closure_gcd": 0}
    in_closure = []
    real_reduce = groebner._reduce
    real_gcd = poly.poly_gcd
    real_radical = multiproj.heuristic_radical

    def counting_reduce(*args):
        counts["reduce"] += 1
        return real_reduce(*args)

    def counting_gcd(*args):
        counts["closure_gcd"] += bool(in_closure)
        return real_gcd(*args)

    def marked_radical(basis):
        in_closure.append(True)
        try:
            return real_radical(basis)
        finally:
            in_closure.pop()

    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
    monkeypatch.setattr(poly, "poly_gcd", counting_gcd)
    monkeypatch.setattr(multiproj, "heuristic_radical", marked_radical)
    tree = partition_variety(parse_problem(N5_F5))
    assert len(tree.nodes) == 121
    assert counts == {"reduce": 2629, "closure_gcd": 0}
