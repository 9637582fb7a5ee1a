"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("workload", ["qq-paper", "fp-verify"])
def test_counts_repeat_across_runs_and_seeds(workload):
    a = result(bench("--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", "1"))
    b = result(bench("--workload", workload, "--seed", "2",
                     "--seconds", "1", "--trace", "1"))
    assert a["correct"] and b["correct"]
    counts = [name for name, unit in run.PER_LAYER
              if unit in run.DETERMINISTIC_UNITS]
    assert {n: a["metrics"][n]["value"] for n in counts} == \
        {n: b["metrics"][n]["value"] for n in counts}
    failures_per_pass = 1 if workload == "fp-verify" else 0
    assert a["failed"] * len(wl.WORKLOADS[workload].problems) == \
        a["attempted"] * failures_per_pass


def test_untraced_run_reports_end_to_end_metrics():
    out = result(bench("--workload", "qq-paper", "--seed", "3",
                       "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "qq-paper", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_seeded_texts_repeat_and_vary():
    problem = wl.PROBLEMS["cusp-line-qq"]
    assert wl.seeded_texts(problem, 5) == wl.seeded_texts(problem, 5)
    assert wl.seeded_texts(problem, 5) != wl.seeded_texts(problem, 6)


def test_tracer_wraps_every_binding_and_restores():
    run.load_program()
    import p1parts.groebner
    import p1parts.multiproj
    original = p1parts.groebner.buchberger
    tracer = spans.Tracer()
    with tracer.installed():
        assert spans.any_installed()
        assert p1parts.multiproj.buchberger is p1parts.groebner.buchberger
        assert p1parts.groebner.buchberger.__wrapped__ is original
    assert not spans.any_installed()
    assert p1parts.groebner.buchberger is original


def test_self_time_excludes_children_and_recursion():
    # name, start, end, parent, problem, pass, value
    trace = [
        ["a", 0.0, 10.0, -1, "p", 0, 0],
        ["b", 1.0, 4.0, 0, "p", 0, 1],
        ["b", 2.0, 3.0, 1, "p", 0, 1],
        ["c", 5.0, 7.0, 0, "p", 0, 0],
        ["a", 0.0, 1.0, -1, "p", 1, 0],
    ]
    totals = spans.layer_totals(trace, 0)
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0, "value": 0}
    assert totals["b"] == {"calls": 2, "s": 3.0, "self_s": 3.0, "value": 2}
    assert totals["c"]["self_s"] == 2.0

