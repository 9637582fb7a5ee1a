import time
from fractions import Fraction
from pathlib import Path

import pytest

from p1parts.fields import GF, QQ
from p1parts.parser import (
    MAX_EXPANSION_TERMS, ParseError, ProblemError, parse_polynomial, parse_problem,
)
from p1parts.poly import Layout, Polynomial, ProjLayout, to_canonical_text

AX3 = Layout.affine(3)
PL3 = ProjLayout(3)


def test_parse_example_generator():
    f = parse_polynomial("x_1*(x_3^2*x_2+x_3+1)", AX3, QQ)
    x1 = Polynomial.var(QQ, 3, AX3.pos("x_1"))
    x2 = Polynomial.var(QQ, 3, AX3.pos("x_2"))
    x3 = Polynomial.var(QQ, 3, AX3.pos("x_3"))
    one = Polynomial.const(QQ, 3, 1)
    assert f == x1 * (x3 * x3 * x2 + x3 + one)


def test_parse_y_form():
    f = parse_polynomial("y_6^2+y_6", PL3, QQ)
    y6 = Polynomial.var(QQ, 6, PL3.y_pos(6))
    assert f == y6 * y6 + y6


def test_parse_precedence_and_unary():
    # '^' binds tighter than '*', '*' tighter than '+'
    assert parse_polynomial("2*y_1^2+1", PL3, QQ) == \
        parse_polynomial("(2*(y_1^2))+1", PL3, QQ)
    assert parse_polynomial("-y_1^2", PL3, QQ) == -parse_polynomial("y_1^2", PL3, QQ)
    assert parse_polynomial("1-y_1-y_2", PL3, QQ) == \
        parse_polynomial("1-(y_1+y_2)", PL3, QQ)


def test_parse_rational_coefficients():
    f = parse_polynomial("1/2*y_1-3/4", PL3, QQ)
    assert f.lead_coeff() == Fraction(1, 2)
    assert f.terms[(0,) * 6] == Fraction(-3, 4)
    with pytest.raises(ParseError):
        parse_polynomial("1/2*y_1", PL3, GF(5))


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x_1*", AX3, QQ)
    assert err.value.offset == 4

    with pytest.raises(ParseError) as err:
        parse_polynomial("x_9+1", AX3, QQ)
    assert err.value.offset == 0
    assert "unknown variable" in err.value.message

    with pytest.raises(ParseError):
        parse_polynomial("(y_1+1", PL3, QQ)
    with pytest.raises(ParseError):
        parse_polynomial("2 y_1", PL3, QQ)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_polynomial("y_1 @ 2", PL3, QQ)
    with pytest.raises(ParseError):
        parse_polynomial("", PL3, QQ)


def test_expansion_budget():
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_polynomial("(y_1+y_2+y_3)^300", PL3, QQ)
    assert time.perf_counter() - start < 0.5
    assert err.value.offset == 13  # the '^'
    assert "expansion" in err.value.message

    # a binomial power at the budget expands, one step more does not
    k = MAX_EXPANSION_TERMS - 1
    assert len(parse_polynomial(f"(y_1+1)^{k}", PL3, GF(2)).terms) == 128  # Lucas
    with pytest.raises(ParseError):
        parse_polynomial(f"(y_1+1)^{k + 1}", PL3, GF(2))

    # a product is bounded by the product of its operands' term counts
    assert len(parse_polynomial("(y_1+y_2)^21*(y_3+y_4)^21", PL3, QQ).terms) == 484
    with pytest.raises(ParseError) as err:
        parse_polynomial("(y_1+y_2)^21*(y_3+y_4)^22", PL3, QQ)
    assert err.value.offset == 12  # the '*'

    # monomial powers need no expansion
    assert parse_polynomial("(2*y_1*y_2)^1000", PL3, GF(5)).terms == \
        {(0, 0, 0, 0, 1000, 1000): 1}

    # rational coefficients are bounded by size, residues mod p never grow
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_polynomial("y_1*9^99999999", PL3, QQ)
    assert time.perf_counter() - start < 0.5
    assert err.value.offset == 5  # the '^'
    assert parse_polynomial("y_1*9^99999999", PL3, GF(5)) == \
        parse_polynomial("4*y_1", PL3, GF(5))
    assert parse_polynomial("(1/2*y_1)^30000", PL3, QQ).terms == \
        {(0, 0, 0, 0, 0, 30000): Fraction(1, 2 ** 30000)}


def test_overlong_integer_literal():
    # Python refuses to convert more than 4300 digits by default
    nines = "9" * 4400
    for text, field, offset in ((f"y_1^{nines}", QQ, 4),
                                (f"{nines}*y_1", GF(5), 0),
                                (f"y_1+1/{nines}", QQ, 6)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, PL3, field)
        assert err.value.offset == offset
        assert "4400 digits" in err.value.message


def test_every_demo_problem_parses():
    paths = sorted((Path(__file__).parent.parent / "demos" / "problems").glob("*.txt"))
    assert paths
    for path in paths:
        assert parse_problem(path.read_text(encoding="utf-8")).generators


def test_parse_whitespace_insensitive():
    a = parse_polynomial("y_2 * y_1   -  1", ProjLayout(2), QQ)
    b = parse_polynomial("y_2*y_1-1", ProjLayout(2), QQ)
    assert a == b


EXAMPLE_FILE = """
# the running example
char 0
n 3
form x
ideal:
x_1*(x_3^2*x_2+x_3+1)
x_3*(x_3^2*x_2+x_3+1)
"""


def test_parse_problem():
    prob = parse_problem(EXAMPLE_FILE)
    assert prob.field == QQ
    assert prob.n == 3
    assert prob.form == "x"
    assert len(prob.generators) == 2
    assert prob.generators[1] == parse_polynomial(
        "x_3*(x_3^2*x_2+x_3+1)", AX3, QQ)


def test_parse_problem_semicolons_and_comments():
    prob = parse_problem(
        "char 5\nn 2\nform x\nideal:\nx_2*x_1-1 ; x_1^2  # two gens\n")
    assert prob.field == GF(5)
    assert len(prob.generators) == 2


def test_parse_problem_crlf():
    prob = parse_problem("char 5\r\nn 2\r\nform x\r\nideal:\r\nx_2*x_1-1\r\n")
    assert prob.n == 2


def test_parse_problem_y_form():
    prob = parse_problem("char 0\nn 2\nform y\nideal:\ny_4*y_2-y_3*y_1\n")
    assert prob.form == "y"
    assert prob.generators[0].nslots == 4


def test_parse_problem_rejects_inhomogeneous_y_form():
    # the vanishing of y_4-1 depends on the representative of pair 2
    with pytest.raises(ProblemError, match="homogeneous in pair 2") as info:
        parse_problem("char 5\nn 2\nform y\nideal:\ny_4*y_1-y_3*y_2\ny_4-1\n")
    assert info.value.line == 6
    with pytest.raises(ProblemError, match="homogeneous in pair 1"):
        parse_problem("char 0\nn 1\nform y\nideal:\ny_1\ny_1-1\n")


def test_parse_problem_errors():
    with pytest.raises(ProblemError, match="not prime"):
        parse_problem("char 4\nn 2\nform x\nideal:\nx_1\n")
    with pytest.raises(ProblemError, match="missing header"):
        parse_problem("char 5\nn 2\nideal:\nx_1\n")
    with pytest.raises(ProblemError, match="empty ideal"):
        parse_problem("char 5\nn 2\nform x\nideal:\n")
    with pytest.raises(ProblemError, match="empty ideal"):
        parse_problem("char 5\nn 2\nform x\n")
    with pytest.raises(ProblemError):
        parse_problem("char 5\nn 2\nform x\nideal:\nx_3\n")  # index > n
    with pytest.raises(ProblemError, match="z variable"):
        parse_problem("char 5\nn 2\nform y\nideal:\nz_1*y_2\n")
    with pytest.raises(ProblemError, match="form"):
        parse_problem("char 5\nn 2\nform q\nideal:\nx_1\n")
    with pytest.raises(ProblemError, match="duplicate"):
        parse_problem("char 5\nchar 5\nn 2\nform x\nideal:\nx_1\n")


def test_counterexample_problem():
    prob = parse_problem("char 5\nn 2\nform x\nideal:\nx_2*x_1-1\n")
    ax = Layout.affine(2)
    assert prob.generators[0] == parse_polynomial("x_2*x_1-1", ax, GF(5))


def test_round_trip_of_canonical_text():
    texts = ["y_6^2+y_6", "z_4*y_6^2+y_6+1", "y_6+2*y_5-1", "-1",
             "z_1-1", "y_5^2-y_5"]
    layout = PL3.at_level(4)
    for s in texts:
        f = parse_polynomial(s, layout, QQ)
        assert to_canonical_text(f, layout) == s
