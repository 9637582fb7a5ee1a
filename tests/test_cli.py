import json
import subprocess
import sys

import pytest

from p1parts.cli import RunOptions, main, render_tree, run
from p1parts.fields import QQ
from p1parts.multiproj import partition_variety
from p1parts.parser import parse_polynomial, parse_problem

EXAMPLE = ("char 0\nn 3\nform x\nideal:\n"
           "x_1*(x_3^2*x_2+x_3+1)\nx_3*(x_3^2*x_2+x_3+1)\n")
EXAMPLE5 = EXAMPLE.replace("char 0", "char 5")


@pytest.fixture(scope="module")
def example_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "example.txt"
    path.write_text(EXAMPLE)
    return str(path)


@pytest.fixture(scope="module")
def example5_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "example5.txt"
    path.write_text(EXAMPLE5)
    return str(path)


@pytest.fixture(scope="module")
def example_tree():
    return partition_variety(parse_problem(EXAMPLE))


def test_text_rendering_published_lines(example_tree):
    out = render_tree(example_tree, "text", leaves_only=True)
    lines = out.splitlines()
    assert len(lines) == 10
    assert ("(0, 1, 3, 7, 13, 17, "
            "ideal(z_1-1,z_2,z_3-1,z_4,z_5-1,y_6^2+y_6), {})") in lines
    node12 = [l for l in lines if "z_4*y_6^2+y_6+1" in l]
    assert any("{z_4}" in l for l in node12)


PUBLISHED_LEAF_BLOCK = """\
(0, 2, 6, ideal(z_1,z_2-1,z_3,y_4-1,y_5-1,y_6), {})
(0, 1, 3, 8, ideal(z_1-1,z_2,z_3,y_4-1,y_5-1,y_6), {})
(0, 1, 4, 10, ideal(z_1-1,z_3,y_4-1,y_5-1,y_6), {z_2})
(0, 2, 5, 11, ideal(z_1,z_2-1,z_3-1,z_4,y_5^2-y_5,y_6+2*y_5-1), {})
(0, 2, 5, 12, ideal(z_1,z_2-1,z_3-1,y_5-1,z_4*y_6^2+y_6+1), {z_4})
(0, 1, 3, 7, 14, ideal(z_1-1,z_2,z_3-1,y_5-1,z_4*y_6^3+y_6^2+y_6), {z_4})
(0, 1, 4, 9, 15, ideal(z_1-1,z_3-1,z_4,y_5^2-y_5,y_6+2*y_5-1), {z_2})
(0, 1, 4, 9, 16, ideal(z_1-1,z_3-1,y_5-1,z_4*y_6^2+y_6+1), {z_2, z_4})
(0, 1, 3, 7, 13, 17, ideal(z_1-1,z_2,z_3-1,z_4,z_5-1,y_6^2+y_6), {})
(0, 1, 3, 7, 13, 18, ideal(z_1-1,z_2,z_3-1,z_4,z_5,y_6-1), {})
"""


def test_leaf_block_regression(example_tree):
    # frozen node-for-node rendering of the worked decomposition
    assert render_tree(example_tree, "text", leaves_only=True) == \
        PUBLISHED_LEAF_BLOCK


def test_full_tree_rendering_includes_root(example_tree):
    out = render_tree(example_tree, "text")
    assert out.splitlines()[0].startswith("(0, ideal(")
    assert len(out.splitlines()) == len(example_tree.nodes)


def test_json_rendering_round_trips(example_tree):
    payload = json.loads(render_tree(example_tree, "json"))
    assert list(payload) == ["nodes"]
    assert [list(rec) for rec in payload["nodes"][:1]] == \
        [["id", "prev", "path", "frozenLevel", "eq", "neq", "leaf"]]
    layout = example_tree.layout
    for rec, part in zip(payload["nodes"], example_tree.nodes):
        assert rec["id"] == part.id and rec["prev"] == part.prev
        parsed = tuple(parse_polynomial(s, layout, QQ) for s in rec["eq"])
        assert parsed == part.eq.generators
        parsed_neq = tuple(parse_polynomial(s, layout, QQ) for s in rec["neq"])
        assert parsed_neq == part.neq
    leaf_flags = [rec["leaf"] for rec in payload["nodes"]]
    assert sum(leaf_flags) == 10


def test_json_empty_tree():
    prob = parse_problem("char 0\nn 1\nform y\nideal:\ny_1\ny_1-1\n")
    tree = partition_variety(prob)
    assert json.loads(render_tree(tree, "json")) == {"nodes": []}


def test_dot_rendering(example_tree):
    out = render_tree(example_tree, "dot")
    assert out.startswith("digraph")
    assert "n0 -> n1;" in out
    assert out.rstrip().endswith("}")


def test_run_text(example_file, capsys):
    assert run(RunOptions(example_file, leaves_only=True)) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 10


def test_run_oracle_ok(example5_file, capsys):
    opts = RunOptions(example5_file, leaves_only=True, oracle_check=5)
    assert run(opts) == 0
    captured = capsys.readouterr()
    assert "partition valid: 216 tuples scanned" in captured.out


def test_run_missing_file(capsys):
    assert run(RunOptions("/nonexistent/problem.txt")) == 1
    assert "error" in capsys.readouterr().err


def test_run_bad_problem(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("char 4\nn 2\nform x\nideal:\nx_1\n")
    assert run(RunOptions(str(bad))) == 1
    assert "not prime" in capsys.readouterr().err


def test_run_oracle_on_char0_rejected(example_file, capsys):
    assert run(RunOptions(example_file, oracle_check=5)) == 1
    assert "characteristic 0" in capsys.readouterr().err


def test_run_oracle_mismatch_rejected(example5_file, capsys):
    assert run(RunOptions(example5_file, oracle_check=7)) == 1
    assert "does not match" in capsys.readouterr().err


def test_run_max_nodes_exit(example_file, capsys):
    assert run(RunOptions(example_file, max_nodes=3)) == 2
    assert "budget" in capsys.readouterr().err


def test_run_exponent_overflow_exit(tmp_path, capsys):
    path = tmp_path / "overflow.txt"
    path.write_text("char 5\nn 1\nform x\nideal:\nx_1^32768-1\n")
    assert run(RunOptions(str(path))) == 2
    captured = capsys.readouterr()
    assert "exponent reached 32768" in captured.err
    assert captured.out == ""


def test_main_argv(example_file, capsys):
    assert main([example_file, "--format", "json", "--leaves"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["nodes"]) == 10


def test_cli_subprocess_deterministic(example_file):
    cmd = [sys.executable, "-m", "p1parts.cli", example_file, "--leaves"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stdout  # nonempty


def test_run_oracle_failure_exit_code(example5_file, capsys, monkeypatch):
    import p1parts.cli as cli_mod
    from p1parts.oracle import PartitionReport

    def fake_check(tree, gens, p, n, cap=None):
        return PartitionReport(variety_size=1, tuples_scanned=216, covered=0,
                               missing=["stub"])

    monkeypatch.setattr(cli_mod, "check_partition", fake_check)
    assert run(RunOptions(example5_file, oracle_check=5)) == 3
    captured = capsys.readouterr()
    assert "INVALID" in captured.out
    assert "not covered" in captured.err


def test_no_radical_flag(example5_file, capsys):
    assert main([example5_file, "--no-radical", "--oracle", "5"]) == 0
    assert "partition valid" in capsys.readouterr().out
