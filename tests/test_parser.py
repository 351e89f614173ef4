"""The expression parser against the evaluator it replaced.

The parser evaluates scalars on {degree: payload} accumulators and wraps
each parsed scalar as a SkewPoly once.  The reference below is the
parser as it was written before: it builds a SkewPoly for every token and
every intermediate result and computes with the SkewPoly and SkewMatrix
operators, verbatim but for its name.  The properties require every
public parse_* function to give the same value as the reference, or the
same exception class and text, on texts over GF(3^2), GF(3)(th) and
FTF(3; gens=a,th; inv=a) mixing integers, g, th, formal symbols, the
variables, + - * / ^, unary minus, parentheses, cancelling subterms and
matrices up to 2 x 2.  The other tests pin how many polynomials a parse
builds and that a power of a single term is formed directly."""

import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tmodext import parse_field, skewpoly
from tmodext._scan import MAX_LITERAL_DIGITS
from tmodext.skewpoly import (
    _LBP,
    _UNARY_BP,
    MAX_NESTING,
    SIGMA,
    SkewMatrix,
    SkewPoly,
    _tokenize,
    parse_apoly,
    parse_element,
    parse_matrix,
    parse_poly,
    parse_value,
)
from tmodext.errors import ParseError

# ---------------------------------------------------------------------------
# The reference: the SkewPoly-per-token evaluator.


class _ReferenceParser:
    def __init__(self, spec, var, var_names, text):
        self.spec = spec
        self.var = var
        self.var_names = var_names
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[:2] != ("op", value):
            self.fail(tok, f"expected {value!r}")

    def fail(self, tok, why):
        raise ParseError(f"{why} at position {tok[2]} in "
                         f"{self.text.strip()!r}")

    # -- grammar --------------------------------------------------------------

    def parse(self):
        value = self.expression(0)
        tok = self.peek()
        if tok[0] != "end":
            self.fail(tok, f"unexpected {tok[1]!r}")
        return value

    def expression(self, rbp):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} "
                             f"levels at position {self.peek()[2]} "
                             f"(MAX_NESTING = {MAX_NESTING})")
        value = self.nud(self.next())
        tok = self.peek()
        while tok[0] == "op" and _LBP.get(tok[1], 0) > rbp:
            self.next()
            value = self.led(tok, value)
            tok = self.peek()
        self.depth -= 1
        return value

    def nud(self, tok):
        kind, val, _ = tok
        if kind == "int":
            return SkewPoly.const(self.spec, self.var, int(val))
        if kind == "name":
            return self.name_value(tok)
        if kind == "op" and val == "(":
            value = self.expression(0)
            self.expect(")")
            return value
        if kind == "op" and val == "-":
            return -self.expression(_UNARY_BP)
        if kind == "op" and val == "[":
            return self.matrix_literal()
        self.fail(tok, f"unexpected {val or 'end of input'!r}")

    def led(self, tok, left):
        op = tok[1]
        if op == "^":
            ex = self.next()
            if ex[0] != "int":
                self.fail(ex, "exponent must be a nonnegative integer "
                              "literal")
            return left ** int(ex[1])
        if op == "/":
            right = self.expression(_LBP["/"])
            return self.divide(tok, left, right)
        right = self.expression(_LBP[op])
        if op == "+":
            return self.combine(tok, left, right, lambda a, b: a + b, "add")
        if op == "-":
            return self.combine(tok, left, right, lambda a, b: a - b,
                                "subtract")
        return left * right  # "*", the last operator of _LBP

    def combine(self, tok, left, right, fn, verb):
        if isinstance(left, SkewMatrix) != isinstance(right, SkewMatrix):
            self.fail(tok, f"cannot {verb} a scalar and a matrix")
        return fn(left, right)

    def divide(self, tok, left, right):
        if isinstance(right, SkewMatrix):
            self.fail(tok, "cannot divide by a matrix")
        if not right.is_constant():
            self.fail(tok, "can only divide by a degree-zero scalar")
        inv = right.coefficient(0).inverse()
        return left * SkewPoly.const(self.spec, self.var, inv)

    def name_value(self, tok):
        name = tok[1]
        if name in self.var_names:
            return SkewPoly.term(self.spec, self.var, 1, 1)
        spec = self.spec
        if spec.kind == "formal" and name in spec.generators:
            idx = 0
            if self.peek()[:2] == ("op", "["):
                self.next()
                sign = 1
                if self.peek()[:2] == ("op", "-"):
                    self.next()
                    sign = -1
                num = self.next()
                if num[0] != "int":
                    self.fail(num, "symbol index must be an integer")
                idx = sign * int(num[1])
                self.expect("]")
            return SkewPoly.const(spec, self.var, spec.symbol(name, idx))
        if name == "th":
            return SkewPoly.const(spec, self.var, spec.theta())
        if name == "g":
            return SkewPoly.const(spec, self.var, spec.gen())
        self.fail(tok, f"unknown name {name!r}")

    def matrix_literal(self):
        rows = []
        while True:
            self.expect("[")
            row = [self.matrix_entry()]
            while self.peek()[:2] == ("op", ","):
                self.next()
                row.append(self.matrix_entry())
            self.expect("]")
            rows.append(row)
            if self.peek()[:2] == ("op", ","):
                self.next()
                continue
            break
        self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError(f"ragged matrix rows in {self.text.strip()!r}")
        return SkewMatrix.from_rows(self.spec, self.var, rows)

    def matrix_entry(self):
        value = self.expression(0)
        if isinstance(value, SkewMatrix):
            raise ParseError(f"nested matrix entries in "
                             f"{self.text.strip()!r}")
        return value


# ---------------------------------------------------------------------------
# The texts.

_DOMAINS = {
    "GF(3^2)": ("g", "th", "g^2"),
    "GF(3)(th)": ("th", "th^2"),
    "FTF(3; gens=a,th; inv=a)": ("a", "a[1]", "a[-2]", "th", "th[-1]"),
}
# Each parse function and the variable names it reads.
_PARSERS = {
    "value": (parse_value, ("tau",)),
    "value-sigma": (lambda spec, text: parse_value(spec, text, SIGMA),
                    ("sig", "sigma")),
    "poly": (parse_poly, ("tau",)),
    "matrix": (parse_matrix, ("tau",)),
    "element": (parse_element, ()),
    "apoly": (parse_apoly, ("t",)),
}


def _expressions(names):
    """Texts of scalar and matrix expressions over the given names, every
    operator and both cancelling shapes among them."""
    leaves = st.one_of(st.integers(0, 12).map(str), st.sampled_from(names))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(" + - * / ".split()),
                      inner).map(" ".join),
            st.tuples(inner, st.integers(0, 4)).map("({0[0]})^{0[1]}".format),
            st.tuples(st.sampled_from(names),
                      st.integers(0, 6)).map("{0[0]}^{0[1]}".format),
            inner.map("-{}".format),
            inner.map("({})".format),
            inner.map("({0} - {0})".format),
            st.tuples(inner, inner).map(
                "({0[0]}*{0[1]} - {0[0]}*{0[1]} + 2)^3".format))

    entries = st.one_of(leaves, extend(leaves))
    rows = st.integers(1, 2).flatmap(lambda ncols: st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols).map(", ".join),
        min_size=1, max_size=2))
    matrices = rows.map(lambda rs: "[" + ", ".join(f"[{r}]" for r in rs)
                        + "]")
    return st.recursive(st.one_of(leaves, leaves, matrices), extend,
                        max_leaves=5)


@st.composite
def _cases(draw):
    header = draw(st.sampled_from(sorted(_DOMAINS)))
    kind = draw(st.sampled_from(sorted(_PARSERS)))
    names = _DOMAINS[header] + _PARSERS[kind][1]
    return header, kind, draw(_expressions(names))


def _outcome(fn, *args):
    """fn(*args), or the class and text of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal is the outcome
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_cases())
@example(("GF(3^2)", "poly", "1/(tau - tau)"))
@example(("GF(3^2)", "value", "(g*tau - g*tau + 2)^3"))
@example(("GF(3)(th)", "matrix", "[[(tau - tau)^0, th*tau]] * [[tau], [2]]"))
@example(("FTF(3; gens=a,th; inv=a)", "value", "[[a*tau, 1]] / a[-1]"))
@example(("FTF(3; gens=a,th; inv=a)", "poly", "tau / (a + th)"))
@example(("GF(3)(th)", "value-sigma", "(sig^2 - sig^2 + 1) * th"))
@example(("GF(3)(th)", "value-sigma", "(th*sig + 1)^2"))
@example(("GF(3)(th)", "value-sigma", "(sig^2 + sig) * th"))
@example(("GF(3^2)", "value", "2 * [[1, tau]] - [[tau, 1]] * g"))
@example(("GF(3^2)", "element", "(g + 1)^4 / (g - g + 2)"))
@example(("GF(3)(th)", "apoly", "(t + th)^2 - t^2"))
def test_parses_match_the_reference_evaluator(case):
    header, kind, text = case
    spec = parse_field(header)
    fn = _PARSERS[kind][0]
    with mock.patch.object(skewpoly, "_Parser", _ReferenceParser):
        expected = _outcome(fn, spec, text)
    assert _outcome(fn, spec, text) == expected


# ---------------------------------------------------------------------------
# How many polynomials a parse builds.


def _counting(monkeypatch):
    """A list that grows by one for each polynomial _from_map builds."""
    built, from_map = [], skewpoly._from_map

    def counted(*args):
        built.append(None)
        return from_map(*args)
    monkeypatch.setattr(skewpoly, "_from_map", counted)
    return built


_F9_SCALARS = [
    "1", "0", "(g*tau - g*tau + 2)^3", "(tau - tau)^0", "-(g + tau)^5",
    "(1 + 2*g^1)*tau^0 + (2*g^1)*tau^1 + (1)*tau^2", "tau^7 / (g + 1)",
    "((1 + g*tau)^2 - tau)^3 * (tau - 1)",
]


@pytest.mark.parametrize("text", _F9_SCALARS)
def test_a_scalar_parse_builds_one_polynomial(monkeypatch, text):
    spec = parse_field("GF(3^2)")
    built = _counting(monkeypatch)
    for parse, var in [(parse_poly, "tau"), (parse_value, "tau"),
                       (parse_element, "g"), (parse_apoly, "t")]:
        built.clear()
        _outcome(parse, spec, text.replace("tau", var))
        assert len(built) == 1, (parse.__name__, text)


@pytest.mark.parametrize("rows", [
    [["1"]], [["(g*tau - g*tau + 2)^3", "tau"]],
    [["g"], ["tau^2 + (1 + g)*tau"]],
    [["1", "(tau - tau)^0"], ["-(g + tau)^5", "tau^7 / (g + 1)"]],
])
def test_a_matrix_literal_builds_one_polynomial_per_entry(monkeypatch,
                                                          rows):
    spec = parse_field("GF(3^2)")
    text = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"
    built = _counting(monkeypatch)
    parse_matrix(spec, text)
    assert len(built) == len(rows) * len(rows[0])


@pytest.mark.parametrize("left, op, right", [
    ("[[1, tau], [g, 2]]", "*", "[[tau], [1]]"),
    ("[[1, tau], [g, 2]]", "+", "[[tau, 1], [1, g*tau]]"),
    ("[[1, tau], [g, 2]]", "-", "[[tau, 1], [1, g*tau]]"),
    ("(g + tau)^2", "*", "[[1, tau]]"),
    ("[[1, tau]]", "*", "(g + tau)^2"),
    ("[[1, tau], [g, 2]]", "^", "3"),
])
def test_a_matrix_operator_builds_what_it_builds_on_parsed_values(
        monkeypatch, left, op, right):
    """The parse of `left op right` builds what the parses of its operands
    build and what the operator builds on the parsed values."""
    spec = parse_field("GF(3^2)")
    built = _counting(monkeypatch)
    a = parse_value(spec, left)
    b = int(right) if op == "^" else parse_value(spec, right)
    operands = len(built)
    built.clear()
    {"*": lambda: a * b, "+": lambda: a + b, "-": lambda: a - b,
     "^": lambda: a ** b}[op]()
    operator = len(built)
    built.clear()
    parse_value(spec, f"{left} {op} {right}")
    assert len(built) == operands + operator


@pytest.mark.parametrize("text", [
    "(1 + g*tau + tau^2)^40", "((1 + g*tau)^3 - (1 + g*tau)^3 + tau)^9",
    "(1 + 2*g^1)*tau^0 + (2*g^1)*tau^1 + (1)*tau^2", "(g + tau^2)^5 / g^3",
])
def test_a_parse_multiplies_no_more_terms_than_the_reference(text):
    """A cancelled term is not carried into later products: the parser
    makes at most the coefficient products the reference makes.  Both
    count the term pairs of the product kernel, len(a) * len(b) a call,
    and the scalar products."""
    spec = parse_field("GF(3^2)")
    counts = []
    for parser in (_ReferenceParser, skewpoly._Parser):
        products, mul, mul_into = [], spec._arith.mul, spec._arith.mul_into

        def counted(a, b):
            products.append(None)
            return mul(a, b)

        def counted_into(acc, a, b, s):
            products.extend([None] * (len(a) * len(b)))
            return mul_into(acc, a, b, s)
        with mock.patch.object(skewpoly, "_Parser", parser), \
                mock.patch.object(spec._arith, "mul", counted), \
                mock.patch.object(spec._arith, "mul_into", counted_into):
            parse_poly(spec, text)
        counts.append(len(products))
    reference, parser = counts
    assert parser <= reference


def test_dividing_a_matrix_wraps_the_inverse_once(monkeypatch):
    spec = parse_field("GF(3^2)")
    built = _counting(monkeypatch)
    parse_value(spec, "[[1, tau], [g, 2]] / (g + 1)")
    assert len(built) == 4 + 1 + 4  # the literal, 1/(g + 1), the products


# ---------------------------------------------------------------------------
# Powers of a single term.


@pytest.mark.parametrize("header, text, coefficient", [
    ("GF(3)", "[[tau^{n}]]", "1"),
    ("FTF(3; gens=a,th)", "[[a*tau^{n}]]", "a[0]"),
])
def test_a_power_of_one_term_is_formed_directly(header, text, coefficient):
    """tau^n for an exponent of MAX_LITERAL_DIGITS digits is the one term
    tau^n: no square-and-multiply runs, so it ends in well under 50 ms."""
    spec = parse_field(header)
    n = "9" * MAX_LITERAL_DIGITS
    start = time.perf_counter()
    matrix = parse_matrix(spec, text.format(n=n))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05
    (entry,), = matrix.entries
    degree, lead = entry.leading()
    assert (degree, str(lead), len(entry.coeffs)) == (int(n), coefficient, 1)
