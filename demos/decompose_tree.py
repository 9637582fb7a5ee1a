"""Walk through a full decomposition of one ideal, node by node.

Run from the repository root:

    python demos/decompose_tree.py
"""

from p1parts import leaf_parts, parse_problem, partition_variety, to_canonical_text
from p1parts.cli import render_tree

PROBLEM = "demos/problems/cusp_line.txt"


def main():
    with open(PROBLEM, encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    print(f"field: characteristic {problem.field.characteristic}, "
          f"{problem.n} projective-line coordinates")
    print("generators:")
    for g in problem.generators:
        print("   ", to_canonical_text(g, problem.layout))

    tree = partition_variety(problem)
    print(f"\ndecomposition tree: {len(tree.nodes)} nodes, "
          f"{len(leaf_parts(tree))} leaves")
    print("\nall nodes (path..., id, equalities, inequalities):")
    print(render_tree(tree, "text"))

    print("leaves only:")
    print(render_tree(tree, "text", leaves_only=True))

    print("how to read a leaf, taking the last one above:")
    leaf = leaf_parts(tree)[-1]
    eq_layout = tree.layout.at_level(leaf.frozen_level)
    neq_layout = tree.layout.at_level(tree.layout.nslots)
    print("   equalities:  ",
          ", ".join(to_canonical_text(g, eq_layout) for g in leaf.eq.generators))
    print("   inequalities:",
          ", ".join(to_canonical_text(q, neq_layout) for q in leaf.neq) or "(none)")
    print("   z_k is the already-chosen value of slot k; a pair "
          "(y_2j : y_2j-1) is one projective coordinate,")
    print("   pinned to the representative (1:0) or (a:1) by the canonical "
          "constraints.")


if __name__ == "__main__":
    main()
