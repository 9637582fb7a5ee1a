"""Parsers for polynomial expressions and problem files.

Expression grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)?
    atom    := INT ('/' INT)? | VARIABLE | '(' expr ')'
    INT     := [0-9]+

INT is ASCII decimal digits only: no other Unicode digit, no superscript,
``_`` or sign.  Variables are subscripted names like ``x_1``, ``y_6``,
``z_4`` (a letter, ``_`` and an INT); which letters are legal depends on
the layout.  ``a/b`` is a rational literal, accepted only in
characteristic 0.
Implicit multiplication is not allowed.  Every malformed input yields a
positioned diagnostic, never an unexplained crash.  Products and powers
are expanded as they are parsed, so each ``*`` and ``^`` whose result
could have more than MAX_EXPANSION_TERMS terms is rejected at the
operator, before any expansion work; so is a rational ``^`` whose
coefficients could grow past MAX_COEFFICIENT_BITS bits.

Problem files are line oriented::

    # comment
    char 0
    n 3
    form x
    ideal:
    x_1*(x_3^2*x_2+x_3+1)
    x_3*(x_3^2*x_2+x_3+1)

The three headers may come in any order; generators follow ``ideal:``,
one per line (``;`` also separates generators on a single line).  The
``char`` and ``n`` values are ``'-'? INT``, so that a negative value gets
the message of any other out-of-range one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, FieldError
from .poly import Layout, Polynomial, ProjLayout, _check_pair_homogeneous


class ParseError(ValueError):
    """Syntax error with a character offset into the parsed text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class ProblemError(ValueError):
    """Problem-file error with a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


_INT = "[0-9]+"
_SIGNED_INT = re.compile(f"-?{_INT}")
# [^\W\d_] is the letters and also numerals such as superscripts, which
# _tokenize refuses
_TOKEN = re.compile(rf"(?P<int>{_INT})|(?P<var>[^\W\d_]_{_INT})|(?P<op>[-+*^()/])"
                    rf"|(?P<letter>[^\W\d_])|(?P<char>\S)")

MAX_EXPANSION_TERMS = 500
MAX_COEFFICIENT_BITS = 1 << 16


def _check_expansion(bound: int, offset: int):
    """Reject an operator whose result could exceed the term budget."""
    if bound > MAX_EXPANSION_TERMS:
        raise ParseError(
            f"expansion could exceed {MAX_EXPANSION_TERMS} terms", offset)


def _int_literal(digits: str, offset: int) -> int:
    """Value of a digit string; Python refuses very long ones."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long",
                         offset) from None


def _integer(text: str) -> int:
    """Value of ``'-'? INT``; ValueError for anything else."""
    if not _SIGNED_INT.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _coefficient_bits(f: Polynomial) -> int:
    """Bits of the largest numerator or denominator, 0 for coefficients +-1."""
    return max((max(abs(c.numerator), c.denominator).bit_length() - 1
                for c in f.terms.values()), default=0)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):  # whitespace matches nothing and is skipped
        kind, value, i = m.lastgroup, m[0], m.start()
        if kind in ("var", "letter") and not value[0].isalpha():
            kind = "char"  # a numeral such as a superscript is no letter
        if kind == "letter":
            raise ParseError(f"malformed variable near {text[i:i + 3]!r}", i)
        if kind == "char":
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tokens.append((value if kind == "op" else kind, value, i))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, layout: Layout, field: Field):
        self.text = text
        self.layout = layout
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        f = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return f

    def expr(self):
        f = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self):
        f = self.unary()
        while self.peek()[0] == "*":
            star = self.take()
            g = self.unary()
            _check_expansion(len(f.terms) * len(g.terms), star[2])
            f = f * g
        return f

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        f = self.atom()
        if self.peek()[0] == "^":
            caret = self.take()
            _, digits, offset = self.expect("int")
            k = _int_literal(digits, offset)
            t = len(f.terms)
            if t > 1:
                # a product of k of the t terms: at most C(t+k-1, k) monomials
                _check_expansion(math.comb(t + k - 1, k), caret[2])
            if self.field.characteristic == 0 \
                    and k * _coefficient_bits(f) > MAX_COEFFICIENT_BITS:
                raise ParseError(
                    f"power could exceed {MAX_COEFFICIENT_BITS}-bit coefficients",
                    caret[2])
            f = f ** k
        return f

    def atom(self):
        kind, text, offset = self.take()
        nslots = self.layout.nslots
        if kind == "int":
            value = _int_literal(text, offset)
            if self.peek()[0] == "/":
                slash = self.take()
                if self.field.characteristic != 0:
                    raise ParseError(
                        "rational coefficients require characteristic 0", slash[2])
                _, digits, den_offset = self.expect("int")
                den = _int_literal(digits, den_offset)
                if den == 0:
                    raise ParseError("zero denominator", den_offset)
                return Polynomial.const(self.field, nslots, Fraction(value, den))
            return Polynomial.const(self.field, nslots, value)
        if kind == "var":
            try:
                pos = self.layout.pos(text)
            except KeyError:
                letter = text.split("_")[0]
                hint = "" if any(name.startswith(letter + "_")
                                 for name in self.layout.names) \
                    else f", there are no {letter} variables here"
                raise ParseError(f"unknown variable {text!r}{hint}", offset) from None
            return Polynomial.var(self.field, nslots, pos)
        if kind == "(":
            f = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ParseError("unbalanced parentheses", closing[2])
            return f
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected {text!r}", offset)


def parse_polynomial(text: str, layout: Layout, field: Field) -> Polynomial:
    """Parse one polynomial expression against a layout's variable names."""
    return _Parser(text, layout, field).parse()


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem: field, coordinate count and ideal generators.

    ``form`` is ``'x'`` for affine generators in x_1..x_n (to be
    homogenized) or ``'y'`` for generators already written in the pair
    variables y_1..y_{2n}, each homogeneous in every pair.
    """

    field: Field
    n: int
    form: str
    generators: tuple
    layout: Layout


def parse_problem(text: str) -> ProblemSpec:
    headers = {}
    gen_texts = []
    in_ideal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not in_ideal:
            if line.lower() == "ideal:":
                in_ideal = True
                continue
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("char", "n", "form"):
                raise ProblemError(f"expected a header, got {line!r}", lineno)
            key, value = parts
            if key in headers:
                raise ProblemError(f"duplicate header {key!r}", lineno)
            headers[key] = (value.strip(), lineno)
        else:
            for piece in line.split(";"):
                piece = piece.strip()
                if piece:
                    gen_texts.append((piece, lineno))

    for key in ("char", "n", "form"):
        if key not in headers:
            raise ProblemError(f"missing header {key!r}", 0)

    value, lineno = headers["char"]
    try:
        char = _integer(value)
    except ValueError:
        raise ProblemError(f"invalid characteristic {value!r}", lineno) from None
    try:
        field = Field(char)
    except FieldError as exc:
        raise ProblemError(str(exc), lineno) from None

    value, lineno = headers["n"]
    try:
        n = _integer(value)
    except ValueError:
        raise ProblemError(f"invalid coordinate count {value!r}", lineno) from None
    if n < 1:
        raise ProblemError("coordinate count must be at least 1", lineno)

    form, lineno = headers["form"]
    if form not in ("x", "y"):
        raise ProblemError(f"form must be 'x' or 'y', got {form!r}", lineno)

    if not in_ideal or not gen_texts:
        raise ProblemError("empty ideal (no generators after 'ideal:')", 0)

    layout = Layout.affine(n) if form == "x" else ProjLayout(n)
    gens = []
    for piece, lineno in gen_texts:
        try:
            g = parse_polynomial(piece, layout, field)
            if form == "y":
                _check_pair_homogeneous(g, n)
        except ValueError as exc:  # a ParseError, or a pair-inhomogeneous y form
            raise ProblemError(f"bad generator {piece!r}: {exc}", lineno) from None
        gens.append(g)
    return ProblemSpec(field, n, form, tuple(gens), layout)
