"""Command-line front end.

Pipeline: parse a problem file, decompose its variety into parts, render
the part tree as text, JSON or DOT, and optionally validate the result
against the brute-force finite-field oracle.

Exit codes: 0 success, 1 input error (a malformed command line
included), 2 node/enumeration/exponent limit exceeded, 3 failed oracle
check.  Renderings go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .groebner import ExponentOverflowError
from .multiproj import (
    MaxNodesExceeded, PartTree, homogenized_generators, leaf_parts,
    partition_variety,
)
from .oracle import EnumerationCapExceeded, check_extension, check_partition
from .parser import ParseError, ProblemError, _integer, parse_problem
from .poly import to_canonical_text


def render_tree(tree: PartTree, format: str = "text",
                leaves_only: bool = False) -> str:
    """Deterministic rendering of a part tree.

    Text lines read ``(path..., id, ideal(gen,...), {neq,...})`` with the
    full root-to-node path; JSON carries one object per node with stable
    key order; DOT emits one labelled node per part and prev->child edges.
    All three format one list of per-node records ``(part, eqs, neqs,
    is_leaf)``: the equalities named for the part's frozen level, the
    inequalities all in z.  ``texts`` memoizes by (id of the polynomial,
    naming level) for this rendering, during which the tree keeps every
    polynomial alive: a child shares most generators with its parent as
    the same objects.
    """
    if format not in ("text", "json", "dot"):
        raise ValueError(f"unknown format {format!r}")
    leaf_ids = set(tree.leaf_ids())
    layouts = [tree.layout.at_level(k) for k in range(tree.layout.nslots + 1)]
    texts = {}

    def text(f, level):
        key = id(f), level
        if key not in texts:
            texts[key] = to_canonical_text(f, layouts[level])
        return texts[key]

    records = [(part, [text(g, part.frozen_level) for g in part.eq.generators],
                [text(q, tree.layout.nslots) for q in part.neq], part.id in leaf_ids)
               for part in tree.nodes if not leaves_only or part.id in leaf_ids]

    if format == "text":
        lines = [f"({', '.join(str(i) for i in tree.path(part.id))}, "
                 f"ideal({','.join(eqs)}), {{{', '.join(neqs)}}})"
                 for part, eqs, neqs, _ in records]
        return "\n".join(lines) + ("\n" if lines else "")

    if format == "json":
        nodes = [{"id": part.id, "prev": part.prev,
                  "path": list(tree.path(part.id)),
                  "frozenLevel": part.frozen_level,
                  "eq": eqs, "neq": neqs, "leaf": is_leaf}
                 for part, eqs, neqs, is_leaf in records]
        return json.dumps({"nodes": nodes}, indent=2) + "\n"

    lines = ["digraph parts {"]
    for part, eqs, neqs, is_leaf in records:
        label = f"{part.id}: eq=[{','.join(eqs)}] neq={{{','.join(neqs)}}}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        shape = " shape=box" if is_leaf else ""
        lines.append(f'  n{part.id} [label="{label}"{shape}];')
    lines += [f"  n{part.prev} -> n{part.id};" for part, *_ in records
              if part.prev >= 0] + ["}"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="p1parts",
        description="Decompose the variety of a polynomial ideal, coordinates "
                    "on the projective line, into disjoint equality/inequality "
                    "parts.")
    parser.add_argument("input", help="problem file (see README for the grammar)")
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default="text", help="output rendering (default: text)")
    parser.add_argument("--leaves", action="store_true",
                        help="render only the leaf parts")
    parser.add_argument("--max-nodes", type=_integer, default=10000, metavar="N",
                        help="node budget for the decomposition (default 10000)")
    parser.add_argument("--no-radical", action="store_true",
                        help="skip the radical closure of equality ideals")
    parser.add_argument("--oracle", type=_integer, default=None, metavar="P",
                        help="verify the partition by brute force over F_P")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a malformed command line is an input error
        return 1 if exc.code else 0

    if args.max_nodes < 1:
        print("error: --max-nodes must be at least 1", file=sys.stderr)
        return 1
    try:
        with open(args.input, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1

    try:
        problem = parse_problem(text)
    except (ParseError, ProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    p = args.oracle
    if p is not None:
        if problem.field.characteristic == 0:
            print("error: --oracle needs a prime-field problem, "
                  "this one has characteristic 0", file=sys.stderr)
            return 1
        if problem.field.characteristic != p:
            print(f"error: --oracle {p} does not match problem characteristic "
                  f"{problem.field.characteristic}", file=sys.stderr)
            return 1

    try:
        tree = partition_variety(problem, max_nodes=args.max_nodes,
                                 radical=not args.no_radical)
    except (MaxNodesExceeded, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for note in tree.diagnostics:
        print(note, file=sys.stderr)

    sys.stdout.write(render_tree(tree, args.format, args.leaves))

    if p is not None:
        gens = homogenized_generators(problem)
        try:
            report = check_partition(tree, gens, p, problem.n)
            stuck = [(leaf.id, k, prefix) for leaf in leaf_parts(tree)
                     for k, prefix in check_extension(leaf, p, problem.n)]
        except EnumerationCapExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(report.summary())
        if not report.valid:
            for part_id, t in report.unsound:
                print(f"  part {part_id} contains non-variety point {t}",
                      file=sys.stderr)
            for t, ids in report.double_covered:
                print(f"  point {t} covered by parts {ids}", file=sys.stderr)
            for t in report.missing:
                print(f"  variety point {t} not covered", file=sys.stderr)
        for leaf_id, k, prefix in stuck:
            print(f"  leaf {leaf_id} fails stepwise extension: prefix "
                  f"(y_1..y_{k - 1}) = {prefix} does not extend to level {k}",
                  file=sys.stderr)
        if not report.valid or stuck:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
