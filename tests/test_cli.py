import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from p1parts.cli import main, render_tree
from p1parts.fields import QQ
from p1parts.multiproj import partition_variety
from p1parts.parser import parse_polynomial, parse_problem
from test_oracle import assert_dimension_is_most_free_levels

EXAMPLE = ("char 0\nn 3\nform x\nideal:\n"
           "x_1*(x_3^2*x_2+x_3+1)\nx_3*(x_3^2*x_2+x_3+1)\n")
EXAMPLE5 = EXAMPLE.replace("char 0", "char 5")
DEMO_PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


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
    neq_layout = layout.at_level(layout.nslots)  # inequalities: all z names
    for rec, part in zip(payload["nodes"], example_tree.nodes):
        assert rec["id"] == part.id and rec["prev"] == part.prev
        eq_layout = layout.at_level(rec["frozenLevel"])
        parsed = tuple(parse_polynomial(s, eq_layout, QQ) for s in rec["eq"])
        assert parsed == part.eq.generators
        parsed_neq = tuple(parse_polynomial(s, neq_layout, QQ) for s in rec["neq"])
        assert parsed_neq == part.neq
    leaf_flags = [rec["leaf"] for rec in payload["nodes"]]
    assert sum(leaf_flags) == 10


def test_json_empty_tree():
    prob = parse_problem("char 0\nn 1\nform y\nideal:\ny_1\ny_2\n")
    tree = partition_variety(prob)
    assert json.loads(render_tree(tree, "json")) == {"nodes": []}


def test_render_unknown_format(example_tree):
    with pytest.raises(ValueError, match="unknown format 'svg'"):
        render_tree(example_tree, "svg")


def test_dot_rendering(example_tree):
    out = render_tree(example_tree, "dot")
    assert out.startswith("digraph")
    assert "n0 -> n1;" in out
    assert out.rstrip().endswith("}")


def test_run_text(example_file, capsys):
    assert main([example_file, "--leaves"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 10


def test_run_oracle_ok(example5_file, capsys):
    assert main([example5_file, "--leaves", "--oracle", "5"]) == 0
    captured = capsys.readouterr()
    assert "partition valid: 216 tuples scanned" in captured.out


def test_run_missing_file(capsys):
    assert main(["/nonexistent/problem.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_non_utf8_file(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# caf\xe9\nchar 0\nn 1\nform y\nideal:\ny_2-y_1\n".encode("latin-1"))
    assert main([str(latin1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {latin1}: ") and "utf-8" in err


def test_run_utf8_bom_file(tmp_path, capsys):
    # a leading byte-order mark, as some editors write, is skipped
    text = "char 5\nn 2\nform x\nideal:\nx_2*x_1-1\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main([str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main([str(bom)]) == 0
    assert capsys.readouterr().out == expected != ""


def test_run_bad_problem(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("char 4\nn 2\nform x\nideal:\nx_1\n")
    assert main([str(bad)]) == 1
    assert "not prime" in capsys.readouterr().err


def test_run_oracle_on_char0_rejected(example_file, capsys):
    assert main([example_file, "--oracle", "5"]) == 1
    assert "characteristic 0" in capsys.readouterr().err


def test_run_oracle_mismatch_rejected(example5_file, capsys):
    assert main([example5_file, "--oracle", "7"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_run_max_nodes_exit(example_file, capsys):
    assert main([example_file, "--max-nodes", "3"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_main_max_nodes_below_one(example_file, capsys, budget):
    assert main([example_file, "--max-nodes", budget]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --max-nodes must be at least 1\n"
    assert captured.out == ""


def test_run_exponent_overflow_exit(tmp_path, capsys):
    path = tmp_path / "overflow.txt"
    path.write_text("char 5\nn 1\nform x\nideal:\nx_1^32768-1\n")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert "exponent reached 32768" in captured.err
    assert captured.out == ""


def test_run_expansion_budget_exit(tmp_path, capsys):
    path = tmp_path / "expansion.txt"
    path.write_text("char 0\nn 3\nform x\nideal:\n(x_1+x_2+x_3)^300\n")
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert "expansion could exceed" in captured.err
    assert captured.out == ""


def test_run_overlong_literal_exit(tmp_path, capsys):
    path = tmp_path / "literal.txt"
    path.write_text("char 5\nn 2\nform x\nideal:\nx_1^" + "9" * 4400 + "\n")
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert "4400 digits is too long (offset 4)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [[], ["--format", "svg"], ["--max-nodes", "ten"],
                                  ["--oracle", "\u0665"], ["--max-nodes", "1_0"]])
def test_main_malformed_command_line(example_file, capsys, argv):
    # an input error (1), not argparse's 2, which means an exceeded limit
    if argv:
        argv = [example_file, *argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "usage: p1parts" in captured.err
    assert captured.out == ""


def problem_text(body="x_1", char="5", n="2", form="x"):
    return f"char {char}\nn {n}\nform {form}\nideal:\n{body}\n"


# (text, exit code, the one stderr line after "error: ")
MALFORMED_PROBLEMS = {
    "n zero": (problem_text(n="0"), 1,
               "line 2: coordinate count must be at least 1"),
    "n negative": (problem_text(n="-2"), 1,
                   "line 2: coordinate count must be at least 1"),
    "char not prime": (problem_text(char="4"), 1,
                       "line 1: characteristic 4 is not prime"),
    "duplicate header": ("char 5\n" + problem_text(), 1,
                         "line 2: duplicate header 'char'"),
    "no ideal": ("char 5\nn 2\nform x\n", 1,
                 "line 0: empty ideal (no generators after 'ideal:')"),
    "empty file": ("", 1, "line 0: missing header 'char'"),
    "float": (problem_text("x_1+1.5", char="0"), 1, "line 5: bad generator "
              "'x_1+1.5': unexpected character '.' (offset 5)"),
    "slash in char p": (problem_text("1/2*x_1"), 1, "line 5: bad generator "
                        "'1/2*x_1': rational coefficients require "
                        "characteristic 0 (offset 1)"),
    "slash after variable": (problem_text("x_1/2", char="0"), 1, "line 5: bad "
                             "generator 'x_1/2': unexpected '/' (offset 3)"),
    "negative exponent": (problem_text("x_1^-2"), 1, "line 5: bad generator "
                          "'x_1^-2': expected 'int' (offset 4)"),
    "unknown variable": (problem_text("x_3"), 1, "line 5: bad generator "
                         "'x_3': unknown variable 'x_3' (offset 0)"),
    "subscript digit": (problem_text("x_\u2081"), 1, "line 5: bad generator "
                        "'x_\u2081': malformed variable near 'x_\u2081' (offset 0)"),
    "form z": (problem_text(form="z"), 1,
               "line 3: form must be 'x' or 'y', got 'z'"),
    "expansion budget": (problem_text("(x_1+x_2+1)^100", char="0"), 1,
                         "line 5: bad generator '(x_1+x_2+1)^100': "
                         "expansion could exceed 500 terms (offset 11)"),
    "exponent overflow": (problem_text("x_1^40000", n="1"), 2, "exponent "
                          "reached 32768, the limit of a packed monomial slot"),
    "arabic-indic literal": (problem_text("\u0663*x_1"), 1, "line 5: bad "
                             "generator '\u0663*x_1': unexpected character "
                             "'\u0663' (offset 0)"),
    "superscript": (problem_text("2\u00b2*x_1"), 1, "line 5: bad generator "
                    "'2\u00b2*x_1': unexpected character '\u00b2' (offset 1)"),
    "arabic-indic n": (problem_text(n="\u0662"), 1,
                       "line 2: invalid coordinate count '\u0662'"),
    "plus sign n": (problem_text(n="+2"), 1,
                    "line 2: invalid coordinate count '+2'"),
    "underscore n": (problem_text(n="1_0"), 1,
                     "line 2: invalid coordinate count '1_0'"),
    "underscore char": (problem_text(char="1_1"), 1,
                        "line 1: invalid characteristic '1_1'"),
}


@pytest.mark.parametrize("name", MALFORMED_PROBLEMS)
def test_main_refuses_malformed_problem(tmp_path, capsys, name):
    text, code, message = MALFORMED_PROBLEMS[name]
    path = tmp_path / "problem.txt"
    path.write_text(text, encoding="utf-8")
    assert main([str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_main_help(capsys):
    assert main(["--help"]) == 0
    assert "usage: p1parts" in capsys.readouterr().out


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
    assert main([example5_file, "--oracle", "5"]) == 3
    captured = capsys.readouterr()
    assert "INVALID" in captured.out
    assert "not covered" in captured.err


def test_run_oracle_unsound_exit_code(example5_file, capsys, monkeypatch):
    import p1parts.cli as cli_mod
    from p1parts.multiproj import Part
    from test_oracle import Equalities

    def widened(problem, **kwargs):
        # leaf 17 (x_3^2 + x_3 = 0) without that equality
        tree = partition_variety(problem, **kwargs)
        leaf = tree.nodes[17]
        tree.nodes[17] = Part(leaf.id, leaf.prev,
                              Equalities(leaf.eq.generators[:-1]), leaf.neq,
                              leaf.frozen_level)
        return tree

    monkeypatch.setattr(cli_mod, "partition_variety", widened)
    assert main([example5_file, "--leaves", "--oracle", "5"]) == 3
    captured = capsys.readouterr()
    assert "INVALID" in captured.out
    unsound = [line for line in captured.err.splitlines()
               if "contains non-variety point" in line]
    assert unsound and all(line.startswith("  part 17 ") for line in unsound)


# A known F_3 problem whose leaf 22 has a prefix (y_1, y_2, y_3) = (1, 2, 1)
# with no value of y_4; its leaves still cover the variety disjointly.
EXTENSION_DEFECT_F3 = ("char 3\nn 3\nform x\nideal:\n"
                       "x_1*x_2^2*x_3+x_1^2+2*x_2\n"
                       "x_1*x_3+x_1*x_2*x_3+2*x_1^2*x_3\n")


def test_run_oracle_reports_extension_failure(tmp_path, capsys):
    path = tmp_path / "defect.txt"
    path.write_text(EXTENSION_DEFECT_F3)
    assert main([str(path), "--leaves", "--oracle", "3"]) == 3
    captured = capsys.readouterr()
    assert "partition valid" in captured.out
    failures = [line for line in captured.err.splitlines()
                if "stepwise extension" in line]
    assert failures == [
        "  leaf 22 fails stepwise extension: prefix (y_1..y_3) = (1, 2, 1) "
        "does not extend to level 4"]


@pytest.mark.parametrize("name", sorted(
    path.name for path in DEMO_PROBLEMS.glob("*_f[0-9]*.txt")))
def test_run_oracle_on_demo_fixtures(name, capsys):
    path = DEMO_PROBLEMS / name
    p = parse_problem(path.read_text()).field.characteristic
    assert main([str(path), "--leaves", "--oracle", str(p)]) == 0
    assert "partition valid" in capsys.readouterr().out


def test_no_radical_flag(example5_file, capsys):
    assert main([example5_file, "--no-radical", "--oracle", "5"]) == 0
    assert "partition valid" in capsys.readouterr().out


# sha256 of render_tree(tree, format) for every demo problem, full tree,
# with the radical closure on and off; pinned so that any change to the
# trees or to how they print shows up here.
GOLDEN_DIGESTS = {
    ("coordinate_axes_f3.txt", True, "text"): "4c7ae561ec78f1717f318ed834955a23ba04ea06a6db5d48fe92add8e1b2031f",
    ("coordinate_axes_f3.txt", True, "json"): "7a84bb6cdd494a602d860b9338ab05f92456b9bdb6ca87b2093f10b76b2acab8",
    ("coordinate_axes_f3.txt", True, "dot"): "e1fc0228968b43d4fca75ea977e19731ecc4a329a3f0d421a30cd921d5024997",
    ("coordinate_axes_f3.txt", False, "text"): "4c7ae561ec78f1717f318ed834955a23ba04ea06a6db5d48fe92add8e1b2031f",
    ("coordinate_axes_f3.txt", False, "json"): "7a84bb6cdd494a602d860b9338ab05f92456b9bdb6ca87b2093f10b76b2acab8",
    ("coordinate_axes_f3.txt", False, "dot"): "e1fc0228968b43d4fca75ea977e19731ecc4a329a3f0d421a30cd921d5024997",
    ("cusp_line.txt", True, "text"): "ea73ad015fabe97a46e247a21dc0519364206bf7dc7bbb3e4f25756955f13761",
    ("cusp_line.txt", True, "json"): "ea77c9b6d446b6b3b68be7eed807fa8300681987015ec2f129546f433e70b04f",
    ("cusp_line.txt", True, "dot"): "59acc33236bb34a7e08acba2a9d566eb3c15ec4b0f02285dd70f15f13452ca5c",
    ("cusp_line.txt", False, "text"): "24982ba127c9d61ebf418b3aa90b8987292bdc825a4c1847f7fd9d4462da7cfc",
    ("cusp_line.txt", False, "json"): "8c350071570e211762739a08164af9c154797f68faa1ce46f78874e4a1c0d914",
    ("cusp_line.txt", False, "dot"): "5fad7f2bd835a44181c0294973839f4aab35d3a6b344a1bb0caf58372260c217",
    ("cusp_line_f5.txt", True, "text"): "db58530ab2ac3df8a2eb4f3d7e63c5163085e20e5a393b828167e74f5484c638",
    ("cusp_line_f5.txt", True, "json"): "89627d9f4d01006f519060631feca21568a42d28727b2af949cdb2bf3a2e5b96",
    ("cusp_line_f5.txt", True, "dot"): "2af0a767d3233f6cfa78a338e045b80673849e3d289d6ce1a32d63ce10fd02fa",
    ("cusp_line_f5.txt", False, "text"): "2add3092c509f425a8981c697a1012658b99caf8e123bb999510362293faceee",
    ("cusp_line_f5.txt", False, "json"): "f2dce70a8bd04c8bdf38d4fa4d543c3c1ad1b829995cda8779c947921552d0cc",
    ("cusp_line_f5.txt", False, "dot"): "20e5b0567ad0e6e1ea22d0d3ea57e21ef3b0adbc7e37b66fbf9b48c66c877426",
    ("hyperbola_f5.txt", True, "text"): "d3e90b9be10717786550926c51be6f13f13b3f89c3b703078aaeb41be1d094fb",
    ("hyperbola_f5.txt", True, "json"): "bfa1acb13639ff059871fb487ae69cbef43ec790c8ff516178992f31e12282fc",
    ("hyperbola_f5.txt", True, "dot"): "1b2e83dcea4a5434c0df836ba0ac834484bd584d51d98a263ea0810b4cb961e9",
    ("hyperbola_f5.txt", False, "text"): "d3e90b9be10717786550926c51be6f13f13b3f89c3b703078aaeb41be1d094fb",
    ("hyperbola_f5.txt", False, "json"): "bfa1acb13639ff059871fb487ae69cbef43ec790c8ff516178992f31e12282fc",
    ("hyperbola_f5.txt", False, "dot"): "1b2e83dcea4a5434c0df836ba0ac834484bd584d51d98a263ea0810b4cb961e9",
    ("whitney_umbrella_f5.txt", True, "text"): "c7a4fea05c968fecb001ea1fc2f6eeb40caed24fd0ec51354a876b6d0b999400",
    ("whitney_umbrella_f5.txt", True, "json"): "4e0eacb1dff6169935c43231e630fe7a586f4a745b31c8eac475097836aa10b0",
    ("whitney_umbrella_f5.txt", True, "dot"): "07b7aa1871a874ce2742dddf19bce8356f1fc3c352b5099e1b17a7e67e2c5ec3",
    ("whitney_umbrella_f5.txt", False, "text"): "c7a4fea05c968fecb001ea1fc2f6eeb40caed24fd0ec51354a876b6d0b999400",
    ("whitney_umbrella_f5.txt", False, "json"): "4e0eacb1dff6169935c43231e630fe7a586f4a745b31c8eac475097836aa10b0",
    ("whitney_umbrella_f5.txt", False, "dot"): "07b7aa1871a874ce2742dddf19bce8356f1fc3c352b5099e1b17a7e67e2c5ec3",
}


@pytest.mark.parametrize("name,radical,fmt", sorted(GOLDEN_DIGESTS))
def test_demo_renderings_golden(name, radical, fmt):
    with open(DEMO_PROBLEMS / name, encoding="utf-8") as handle:
        tree = partition_variety(parse_problem(handle.read()), radical=radical)
    rendered = render_tree(tree, fmt)
    assert hashlib.sha256(rendered.encode()).hexdigest() == \
        GOLDEN_DIGESTS[name, radical, fmt]


def test_golden_digests_cover_every_demo():
    names = {path.name for path in DEMO_PROBLEMS.glob("*.txt")}
    assert {name for name, _, _ in GOLDEN_DIGESTS} == names
    assert len(GOLDEN_DIGESTS) == 6 * len(names)


# sha256 of render_tree(tree, format, leaves_only=True) for every demo
# problem, radical on: pins the leaf filter of the JSON nodes and of the
# DOT nodes and edges
LEAVES_ONLY_DIGESTS = {
    ("coordinate_axes_f3.txt", "dot"): "fea2d5f9c11b06e8b392b28271ca6026d1c087730439d8653a301d42b6fc2828",
    ("coordinate_axes_f3.txt", "json"): "bb49dedd3b5d00b9a63b79c7551a038da11271023a49345ff9a87d61f2e26a92",
    ("cusp_line.txt", "dot"): "5b80dc6aa7224682529eaea1f9f58a4a7dae047268a9d69e790022c891484947",
    ("cusp_line.txt", "json"): "862371fc05b1339002058c9f1f32f444f1acc0e7103506a1da16afeabfa5d55d",
    ("cusp_line_f5.txt", "dot"): "06bc97196485b76a8ef4b77825e934e21e47c0c003b802f3d2e4c240123f6c30",
    ("cusp_line_f5.txt", "json"): "be432d5dc80165c95c01f6b17eb682375db12031f7dcb7c60eab9de80368154e",
    ("hyperbola_f5.txt", "dot"): "3ed95aadf49485bbb000aee1fa2a7ffae4168d87fc2de4b63d89657eba2b83a6",
    ("hyperbola_f5.txt", "json"): "068d75660c646216b09021c5c59df075df4a9320fe871b906d046b4a64b80376",
    ("whitney_umbrella_f5.txt", "dot"): "4b2f07fd893bf6a916c2a432335c206d89974d411ca6b4607e113a5549549f54",
    ("whitney_umbrella_f5.txt", "json"): "274cd6e3bd9b7dc8174c0ed226a3e6904c5484baae9f554329943c837eaea51e",
}


@pytest.mark.parametrize("name,fmt", sorted(LEAVES_ONLY_DIGESTS))
def test_demo_leaves_only_renderings_golden(name, fmt):
    tree = partition_variety(parse_problem(
        (DEMO_PROBLEMS / name).read_text(encoding="utf-8")))
    rendered = render_tree(tree, fmt, leaves_only=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == \
        LEAVES_ONLY_DIGESTS[name, fmt]


def test_minors_n6_rendering_golden():
    # the 2x2 minors of a generic 2x3 matrix over QQ: 277 nodes, the
    # largest rational tree with a pinned rendering
    path = Path(__file__).resolve().parent / "problems" / "minors_n6_qq.txt"
    tree = partition_variety(parse_problem(path.read_text(encoding="utf-8")))
    assert len(tree.nodes) == 277
    assert hashlib.sha256(render_tree(tree, "text").encode()).hexdigest() == \
        "2807420d97a8467dc3bc037fb9582f9c0ef389271d1a8e7a99c1ab69368c9aa3"


def test_n7_f5_rendering_golden():
    # one generator in n=7 over F_5: 627 nodes, the largest pinned tree,
    # whose root basis is the largest signature step of the pinned inputs
    path = Path(__file__).resolve().parent / "problems" / "n7_f5.txt"
    tree = partition_variety(parse_problem(path.read_text(encoding="utf-8")))
    assert len(tree.nodes) == 627
    assert hashlib.sha256(render_tree(tree, "text").encode()).hexdigest() == \
        "aee5236233d996dc2cb400a256b4b2cddb896e4599ecd96be9b8383a5cefe97e"


# sha256 of the text rendering of the hard inputs in tests/problems that
# the CI otherwise only solves, with the node counts; seed7185 with the
# radical on takes about 4 s
HARD_INPUT_DIGESTS = {
    ("found_f2.txt", True): (46, "eeca6282ca6482b7ee8e464d9d5e4409490b551eaa0dd0356e64f614ab04af4a"),
    ("found_f2.txt", False): (46, "c916375b130664955a2d7d6165fd1952bf3da29f5a487f3237b2480b57a2387e"),
    ("runaway_f3.txt", True): (39, "53ed3e781d81cacdc78b31108dd4f36d6f5bd54599dcbdcd5e83bbb5d4b2cc22"),
    ("runaway_f3.txt", False): (39, "4791e87b91c54d2b1b4ef1567c1c2b6609ac717b68b738d8b8f18017757ec630"),
    ("seed7185_qq.txt", False): (33, "ba318178bb548fdf164ef3efb08c275c7eedfe3038b6f6c9c25748c2b53a9097"),
    ("seed7185_qq.txt", True): (33, "58bb87562b2ff9930a04bb5ced318b8fb63770a67a5586cf38f8548f59ff9d2d"),
}


@pytest.mark.parametrize("name,radical", sorted(HARD_INPUT_DIGESTS))
def test_hard_input_rendering_golden(name, radical):
    path = Path(__file__).resolve().parent / "problems" / name
    tree = partition_variety(parse_problem(path.read_text(encoding="utf-8")),
                             radical=radical)
    nodes, digest = HARD_INPUT_DIGESTS[name, radical]
    assert len(tree.nodes) == nodes
    assert hashlib.sha256(render_tree(tree, "text").encode()).hexdigest() == digest
    assert_dimension_is_most_free_levels(tree)
