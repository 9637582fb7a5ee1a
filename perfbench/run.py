#!/usr/bin/env python3
"""Benchmark of the p1parts decomposition engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process and one thread run the
workload as a closed loop, one problem at a time: each pass parses,
decomposes and renders every problem of the workload (as ``p1parts FILE``
does; timed as ``solve_s``), then checks the outputs (timed as
``verify_s``).  Passes repeat until ``--seconds`` have gone by; at least
one always runs.  Pass times are adjusted to a nominal host speed (see
hostspeed.py).  Set-up time is the median of several fresh processes
that import p1parts and generate the seeded inputs.

With ``--trace 1`` untraced and traced passes alternate, and the last
line reports the per-layer metrics of the traced passes instead of the
end-to-end ones.  The spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
loaded from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = (
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ops_ok", "share"),
)

# Per-layer metrics of one traced pass, solve and verify together.  A
# "<layer>.<function>.<stat>" name reads the span totals; layer_metrics
# derives the rest.  Counts and shares repeat exactly from pass to pass;
# times are medians over passes.
PER_LAYER = (
    ("multiproj.root_part.s", "s"),
    ("multiproj.split_scan.calls", "count"),
    ("multiproj.split_scan.self_s", "s"),
    ("multiproj.normalize_neq.s", "s"),
    ("multiproj.nodes", "count"),
    ("multiproj.leaves", "count"),
    ("multiproj.discarded", "count"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.normal_form.zero_share", "share"),
    ("groebner.heuristic_radical.calls", "count"),
    ("groebner.heuristic_radical.s", "s"),
    ("groebner.ideal_saturate.s", "s"),
    ("groebner.radical_membership.s", "s"),
    ("groebner.principal_saturate.s", "s"),
    ("poly.squarefree_part.calls", "count"),
    ("poly.squarefree_part.s", "s"),
    ("poly.poly_gcd.calls", "count"),
    ("poly.poly_gcd.s", "s"),
    ("oracle.variety_points.s", "s"),
    ("oracle.part_members.s", "s"),
    ("oracle.part_members.calls", "count"),
    ("oracle.check_extension.s", "s"),
    ("oracle.tuples_scanned", "count"),
    ("oracle.extension_counterexamples", "count"),
    ("cli.render_tree.s", "s"),
    ("cli.render_tree.bytes", "count"),
    ("parser.parse_problem.s", "s"),
    ("trace.solve_s", "s"),
    ("trace.verify_s", "s"),
    ("trace.overhead", "%"),
)
DETERMINISTIC_UNITS = ("count", "share")

LEAF_LINE = re.compile(r"^\(([\d, ]+), ideal\((.*)\), \{(.*)\}\)$")


def load_program():
    """Import p1parts from the sources of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "p1parts", "__init__.py")):
        print(f"error: no p1parts sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import p1parts
    import p1parts.cli
    if not os.path.abspath(p1parts.__file__).startswith(SRC + os.sep):
        print(f"error: imported p1parts from {p1parts.__file__}", file=sys.stderr)
        sys.exit(2)
    return p1parts


def prepare(args):
    """Everything a run does before its first pass."""
    program = load_program()
    workload = wl.WORKLOADS[args.workload]
    texts = {pid: wl.seeded_texts(wl.PROBLEMS[pid], args.seed)
             for pid in workload.problems}
    return program, workload, texts


def measure_setup(args) -> list:
    """Seconds from spawning a fresh process to the end of prepare(), as
    (wall, adjusted to the nominal host speed) per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.speed_factor()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            print("error: set-up probe failed", file=sys.stderr)
            sys.exit(2)
        after = hostspeed.speed_factor()
        out.append((elapsed, elapsed * (before + after) / 2))
    return out


@dataclass
class Outcome:
    problem: str
    spec: object = None
    tree: object = None
    rendered: Optional[str] = None
    errors: list = field(default_factory=list)
    unknown_error: bool = False

    def fail(self, message, known=False):
        self.errors.append(message)
        self.unknown_error = self.unknown_error or not known


def solve_pass(program, workload, texts, k, span):
    """Parse, decompose and render every problem, as ``p1parts FILE`` does."""
    outcomes = []
    for pid in workload.problems:
        outcome = Outcome(pid)
        outcomes.append(outcome)
        with span("bench.solve", pid):
            try:
                outcome.spec = program.parser.parse_problem(
                    texts[pid][k % wl.VARIANTS])
                outcome.tree = program.multiproj.partition_variety(
                    outcome.spec, radical=workload.radical)
                outcome.rendered = program.cli.render_tree(outcome.tree, "text")
            except Exception as exc:  # a failed solve is counted, not fatal
                traceback.print_exc()
                outcome.fail(f"solve raised {type(exc).__name__}: {exc}")
    return outcomes


def _published_leaf_error(rendered) -> Optional[str]:
    """How the leaves of a text rendering differ from the published ones."""
    found, parents = {}, set()
    for line in rendered.splitlines():
        m = LEAF_LINE.match(line)
        if not m:
            return f"unreadable line {line!r}"
        path = [int(i) for i in m.group(1).split(", ")]
        parents.update(path[:-1])
        neq = tuple(m.group(3).split(", ")) if m.group(3) else ()
        found[path[-1]] = (tuple(m.group(2).split(",")), neq)
    leaves = {node: v for node, v in found.items() if node not in parents}
    if leaves != wl.PUBLISHED_LEAVES:
        return f"leaves {leaves} differ from the published ones"
    return None


def verify_pass(program, workload, outcomes, span):
    """Check every output of a pass (see README.md, correctness gate)."""
    for outcome in outcomes:
        if outcome.rendered is None:
            continue
        pid = outcome.problem
        with span("bench.verify", pid):
            expected = wl.EXPECTED_DIGESTS.get((pid, workload.radical))
            if wl.digest(outcome.rendered) != expected:
                outcome.fail("rendered tree differs from the pinned digest")
            if pid == wl.PUBLISHED_PROBLEM:
                error = _published_leaf_error(outcome.rendered)
                if error:
                    outcome.fail(f"published leaf mismatch: {error}")
            try:
                if outcome.spec.field.characteristic:
                    _oracle_check(program, outcome)
                else:
                    _leaf_check(program, outcome)
            except Exception as exc:  # a failed check is counted, not fatal
                traceback.print_exc()
                outcome.fail(f"verify raised {type(exc).__name__}: {exc}")


def _leaf_check(program, outcome):
    """Where no oracle can run: every leaf's equality generators must be a
    reduced Groebner basis and no inequality may vanish on the whole leaf."""
    groebner = program.groebner
    for leaf in program.multiproj.leaf_parts(outcome.tree):
        gens = leaf.eq.generators
        if groebner.buchberger(gens).generators != gens:
            outcome.fail(f"leaf {leaf.id}: equalities are not a reduced basis")
        for q in leaf.neq:
            if groebner.radical_membership(q, gens):
                outcome.fail(f"leaf {leaf.id} is empty: {q} vanishes on it")


def _oracle_check(program, outcome):
    """Brute force over F_p: disjoint exact cover, stepwise extension."""
    oracle = program.oracle
    spec, tree = outcome.spec, outcome.tree
    p = spec.field.characteristic
    gens = [program.multiproj.multihomogenize(b, tree.layout)
            for b in spec.generators if not b.is_zero()]
    report = oracle.check_partition(tree, gens, p, spec.n)
    if not report.valid:
        outcome.fail(report.summary())
    known = wl.KNOWN_EXTENSION_DEFECTS.get(outcome.problem, {})
    for leaf in program.multiproj.leaf_parts(tree):
        cex = oracle.check_extension(leaf, p, spec.n)
        if cex:
            outcome.fail(f"leaf {leaf.id} fails stepwise extension: {cex}",
                         known=known.get(leaf.id) == cex)


def tree_shape(outcomes) -> dict:
    trees = [o.tree for o in outcomes if o.tree is not None]
    return {
        "multiproj.nodes": sum(len(t.nodes) for t in trees),
        "multiproj.leaves": sum(len(t.leaf_ids()) for t in trees),
        "multiproj.discarded": sum(t.discarded_unit + t.discarded_empty
                                   for t in trees),
    }


def layer_metrics(totals, shape, solve_s, verify_s) -> dict:
    def stat(name, key):
        return totals.get(name, {}).get(key, 0)

    nf_calls = stat("groebner.normal_form", "calls")
    derived = dict(shape)
    derived.update({
        "groebner.normal_form.zero_share":
            stat("groebner.normal_form", "value") / nf_calls if nf_calls else 0.0,
        "oracle.tuples_scanned": stat("oracle.enumerate_proj_space", "value"),
        "oracle.extension_counterexamples":
            stat("oracle.check_extension", "value"),
        "cli.render_tree.bytes": stat("cli.render_tree", "value"),
        "trace.solve_s": solve_s,
        "trace.verify_s": verify_s,
    })
    out = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead":
            span_name, key = name.rsplit(".", 1)
            out[name] = stat(span_name, key)
    return out


def tail(samples):
    """The guide's tail: highest percentile with ten samples beyond it."""
    if len(samples) <= 10:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def report_timing(name, timings):
    """One line per timed phase: medians, the tail and the sample count."""
    wall = [t.wall for t in timings]
    adjusted = [t.adjusted for t in timings]
    line = (f"{name:<14} n={len(timings)}, median {statistics.median(adjusted):.4f} s"
            f" adjusted ({statistics.median(wall):.4f} s wall), "
            f"max {max(adjusted):.4f} s")
    t = tail(adjusted)
    line += (f", p{t[0]:.0f} {t[1]:.4f} s" if t
             else ", no tail percentile below 11 samples")
    print(line)


def no_tracing(_name, _problem):
    return contextlib.nullcontext()


def run(args) -> dict:
    t_start = time.perf_counter()
    program, workload, texts = prepare(args)
    prepare_s = time.perf_counter() - t_start
    setup = measure_setup(args)
    # Traced runs time plain wall seconds: the speed samples would land
    # inside the spans.
    tracer = spans.Tracer() if args.trace else None
    clock = hostspeed.WallClock() if tracer else hostspeed.SpeedClock()

    timings = {"solve": [], "verify": [], "traced solve": [],
               "traced verify": []}
    layer_rows = []
    attempted = failed = 0
    correct = True
    messages = []
    k = 0
    t0 = time.perf_counter()
    while True:
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.pass_index = k
            installed, span = tracer.installed(), tracer.span
        else:
            installed, span = contextlib.nullcontext(), no_tracing
            if spans.any_installed():
                raise RuntimeError("untraced pass would call wrapped functions")
        with installed:
            with clock.timed() as solve:
                outcomes = solve_pass(program, workload, texts, k, span)
            with clock.timed() as verify:
                verify_pass(program, workload, outcomes, span)
        prefix = "traced " if traced else ""
        timings[prefix + "solve"].append(solve)
        timings[prefix + "verify"].append(verify)
        if traced:
            totals = spans.layer_totals(tracer.spans, k)
            layer_rows.append(layer_metrics(totals, tree_shape(outcomes),
                                            solve.wall, verify.wall))
        for outcome in outcomes:
            attempted += 1
            if outcome.errors:
                failed += 1
                correct = correct and not outcome.unknown_error
                for error in outcome.errors:
                    message = f"{outcome.problem}: {error}"
                    if message not in messages:
                        messages.append(message)
        k += 1
        done = time.perf_counter() - t0 >= args.seconds
        if done and (not tracer or layer_rows):
            break

    shape = tree_shape(outcomes)
    print(f"workload {workload.name}, seed {args.seed}: {k} passes of "
          f"{len(workload.problems)} problems, closed loop, 1 process, "
          f"1 thread, radical {'on' if workload.radical else 'off'}")
    print("tree per pass: " + ", ".join(
        f"{name.split('.')[1]} {v}" for name, v in shape.items()))
    for message in messages:
        print(f"FAILED {message}")
    print(f"ops_failed   {failed}/{attempted}")
    print(f"set-up         in-process {prepare_s:.4f} s wall, probes (wall/adjusted) "
          + " ".join(f"{w:.4f}/{a:.4f}" for w, a in setup))
    for name, samples in timings.items():
        if samples:
            report_timing(name, samples)

    def median(name, attr):
        return statistics.median(getattr(t, attr) for t in timings[name])

    if tracer:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans        {len(tracer.spans)} written to "
              f"{os.path.relpath(path, ROOT)}")
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead":
                value = 100.0 * (median("traced solve", "wall")
                                 / median("solve", "wall") - 1.0)
            elif unit in DETERMINISTIC_UNITS:
                values = {row[name] for row in layer_rows}
                if len(values) > 1:
                    correct = False
                    print(f"NONDETERMINISTIC {name}: {sorted(values)}")
                value = layer_rows[0][name]
            else:
                value = statistics.median(row[name] for row in layer_rows)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "solve_s": median("solve", "adjusted"),
            "verify_s": median("verify", "adjusted"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(a for _w, a in setup),
            "ops_ok": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        prepare(args)
        print("ready", flush=True)
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
