"""Why coordinates on the projective line: extension never gets stuck.

Two tiny ideals make the point.  For x_2*x_1 = 1 the affine value
x_1 = 0 admits no affine partner, yet projectively it pairs with
x_2 = (1:0), the point at infinity.  For x_2*x_1 = 0 the value x_1 = 0
pairs with every x_2 including infinity.  The decomposition keeps all of
these; a brute-force scan of the finite projective plane confirms that
the leaves tile the variety exactly.

Run from the repository root:

    python demos/points_at_infinity.py
"""

from p1parts import (
    check_partition, homogenized_generators, leaf_parts, parse_problem,
    part_members, partition_variety,
)
from p1parts.cli import render_tree


def show(path, p):
    with open(path, encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    tree = partition_variety(problem)
    print(f"== {path} (over F_{p})")
    print(render_tree(tree, "text", leaves_only=True))
    gens = homogenized_generators(problem)
    report = check_partition(tree, gens, p, problem.n)
    print(report.summary())
    print(f"variety has {report.variety_size} rational points; "
          "per leaf, written (x_n,...,x_1) with (g:h) ratios:")
    for part in leaf_parts(tree):
        pts = ", ".join(str(t) for t in part_members(part, p, problem.n))
        print(f"   node {part.id}: {pts or '(no rational points)'}")
    print()


def main():
    show("demos/problems/hyperbola_f5.txt", 5)
    show("demos/problems/coordinate_axes_f3.txt", 3)
    print("note the pairs ((1:0),(0:1)) and ((0:1),(1:0)) above: the points "
          "an affine-only extension would miss.")


if __name__ == "__main__":
    main()
