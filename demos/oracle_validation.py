"""Brute-force validation of a decomposition over a small prime field.

Every claim the symbolic decomposition makes can be checked exhaustively
over F_p: search all (p+1)^n canonical tuples, coordinate by coordinate,
for those where the homogenized generators vanish, and confirm that the
leaves cover them exactly once and never reach outside.  The stepwise
extension property is checked as well: every partial solution of a
leaf's low constraints grows by one slot, rationally or (certified
symbolically) in the algebraic closure.

Run from the repository root:

    python demos/oracle_validation.py
"""

import time

from p1parts import (
    check_extension, check_partition, homogenized_generators, leaf_parts,
    parse_problem, partition_variety,
)

FIXTURES = [
    ("demos/problems/cusp_line_f5.txt", 5),
    ("demos/problems/whitney_umbrella_f5.txt", 5),
]


def main():
    for path, p in FIXTURES:
        with open(path, encoding="utf-8") as handle:
            problem = parse_problem(handle.read())
        t0 = time.perf_counter()
        tree = partition_variety(problem)
        gens = homogenized_generators(problem)
        report = check_partition(tree, gens, p, problem.n)
        leaves = leaf_parts(tree)
        counterexamples = [c for part in leaves
                           for c in check_extension(part, p, problem.n)]
        elapsed = time.perf_counter() - t0
        print(f"== {path}")
        print(f"   {len(tree.nodes)} nodes, {len(leaves)} leaves, "
              f"{elapsed:.2f}s including the scan")
        print(f"   {report.summary()}")
        print(f"   variety: {report.variety_size} of {report.tuples_scanned} "
              f"tuples; covered {report.covered}, "
              f"double-covered {len(report.double_covered)}, "
              f"outside {len(report.unsound)}, missing {len(report.missing)}")
        print(f"   extension counterexamples: {len(counterexamples)}")
        print()


if __name__ == "__main__":
    main()
