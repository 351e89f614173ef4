"""Twisted polynomials, their matrices, and the expression parser.

A twisted polynomial is a finite sum ``sum_i a_i * v^i`` over a coefficient
domain, where the variable ``v`` is either ``tau`` (commuting past scalars
by the q-power twist: ``tau * c = c.twist(1) * tau``) or ``sigma`` (the
opposite twist: ``sigma * c = c.twist(-1) * sigma``).  The adjoint swaps
the two variables and is an anti-automorphism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coefficients import FieldElement, FieldSpec
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    MixedFields,
    ParseError,
    SingularLeading,
)

TAU = "tau"
SIGMA = "sigma"


def twist_sign(var):
    """+1 for tau (v * c = c.twist(1) * v), -1 for sigma."""
    if var == TAU:
        return 1
    if var == SIGMA:
        return -1
    raise ValueError(f"unknown variable {var!r}")


def _var_display(var):
    return "tau" if var == TAU else "sig"


# ---------------------------------------------------------------------------
# Twisted polynomials.


@dataclass(frozen=True)
class SkewPoly:
    spec: FieldSpec
    var: str
    coeffs: tuple  # ((degree, FieldElement), ...) ascending, nonzero coeffs

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, spec, var):
        return cls(spec, var, ())

    @classmethod
    def const(cls, spec, var, c):
        if isinstance(c, int):
            c = spec.from_int(c)
        return cls.from_pairs(spec, var, [(0, c)])

    @classmethod
    def term(cls, spec, var, c, deg):
        if isinstance(c, int):
            c = spec.from_int(c)
        if deg < 0:
            raise ParseError("negative twisted-polynomial degree")
        return cls.from_pairs(spec, var, [(deg, c)])

    @classmethod
    def from_pairs(cls, spec, var, pairs):
        acc = {}
        for deg, c in pairs:
            cur = acc.get(deg)
            cur = c if cur is None else cur + c
            if cur:
                acc[deg] = cur
            else:
                acc.pop(deg, None)
        return cls(spec, var, tuple(sorted(acc.items())))

    # -- structure ------------------------------------------------------------

    @property
    def sign(self):
        return twist_sign(self.var)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        return self.coeffs[-1][0] if self.coeffs else -1

    def coefficient(self, k):
        for deg, c in self.coeffs:
            if deg == k:
                return c
        return self.spec.zero()

    def leading(self):
        if not self.coeffs:
            return None
        return self.coeffs[-1]

    def is_constant(self):
        return self.degree <= 0

    def _check_compatible(self, other):
        if self.spec != other.spec:
            raise MixedFields("twisted polynomials over different domains")
        if self.var != other.var:
            raise MixedFields(
                f"cannot combine a {self.var}-polynomial with a "
                f"{other.var}-polynomial")

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            self._check_compatible(other)
            return other
        if isinstance(other, FieldElement):
            return SkewPoly.const(self.spec, self.var, other)
        if isinstance(other, int):
            return SkewPoly.const(self.spec, self.var, other)
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SkewPoly.from_pairs(self.spec, self.var,
                                   self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly(self.spec, self.var,
                        tuple((d, -c) for d, c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, SkewMatrix):
            return NotImplemented
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        s = self.sign
        pairs = []
        for i, a in self.coeffs:
            for j, b in other.coeffs:
                pairs.append((i + j, a * b.twist(s * i)))
        return SkewPoly.from_pairs(self.spec, self.var, pairs)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = SkewPoly.const(self.spec, self.var, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- semilinear action ----------------------------------------------------

    def eval_linear(self, c):
        """Apply the polynomial to a coefficient as a twisting operator."""
        s = self.sign
        out = self.spec.zero()
        for i, a in self.coeffs:
            out = out + a * c.twist(s * i)
        return out

    def adjoint(self):
        """The image under the anti-automorphism swapping tau and sigma."""
        s = self.sign
        var = SIGMA if self.var == TAU else TAU
        return SkewPoly(self.spec, var,
                        tuple((i, a.twist(-s * i)) for i, a in self.coeffs))

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        vname = _var_display(self.var)
        one = self.spec.one()
        parts = []
        for deg, c in self.coeffs:
            cs = str(c)
            if deg == 0:
                parts.append(cs)
                continue
            base = vname if deg == 1 else f"{vname}^{deg}"
            if c == one:
                parts.append(base)
            elif (" + " in cs) or ("*" in cs) or ("/" in cs):
                parts.append(f"({cs})*{base}")
            else:
                parts.append(f"{cs}*{base}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return [[deg, str(c)] for deg, c in self.coeffs]


# ---------------------------------------------------------------------------
# Matrices of twisted polynomials.


@dataclass(frozen=True)
class SkewMatrix:
    spec: FieldSpec
    var: str
    entries: tuple  # tuple of row tuples of SkewPoly

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, spec, var, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise DimensionMismatch("empty matrix")
        w = len(rows[0])
        for r in rows:
            if len(r) != w:
                raise DimensionMismatch("ragged matrix rows")
            for e in r:
                if not isinstance(e, SkewPoly):
                    raise DimensionMismatch("matrix entries must be twisted "
                                            "polynomials")
                if e.spec != spec or e.var != var:
                    raise MixedFields("matrix entries over mixed domains or "
                                      "variables")
        return cls(spec, var, rows)

    @classmethod
    def from_const(cls, spec, var, grid):
        return cls.from_rows(spec, var, [
            [SkewPoly.const(spec, var, c) for c in row] for row in grid])

    @classmethod
    def zeros(cls, spec, var, nrows, ncols):
        z = SkewPoly.zero(spec, var)
        return cls(spec, var, tuple((z,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, spec, var, n):
        z = SkewPoly.zero(spec, var)
        o = SkewPoly.const(spec, var, 1)
        return cls(spec, var, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def block(cls, grid):
        """Assemble a block matrix from a grid of SkewMatrix pieces."""
        rows = []
        for brow in grid:
            heights = {b.nrows for b in brow}
            if len(heights) != 1:
                raise DimensionMismatch("block row heights disagree")
            h = heights.pop()
            for i in range(h):
                row = []
                for b in brow:
                    row.extend(b.entries[i])
                rows.append(tuple(row))
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DimensionMismatch("block column widths disagree")
        first = grid[0][0]
        return cls.from_rows(first.spec, first.var, rows)

    # -- structure ------------------------------------------------------------

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.entries[i][j]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def is_constant(self):
        return all(e.is_constant() for row in self.entries for e in row)

    @property
    def max_degree(self):
        return max((e.degree for row in self.entries for e in row),
                   default=-1)

    def coefficient_matrix(self, k):
        return tuple(tuple(e.coefficient(k) for e in row)
                     for row in self.entries)

    def map_entries(self, fn):
        return SkewMatrix(self.spec, self.var, tuple(
            tuple(fn(e) for e in row) for row in self.entries))

    def with_entry(self, i, j, poly):
        rows = [list(r) for r in self.entries]
        rows[i][j] = poly
        return SkewMatrix.from_rows(self.spec, self.var, rows)

    def submatrix(self, row_idx, col_idx):
        return SkewMatrix(self.spec, self.var, tuple(
            tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    def adjoint(self):
        """Entrywise adjoint composed with transposition, so that
        (A*B).adjoint() == B.adjoint() * A.adjoint()."""
        flipped = SIGMA if self.var == TAU else TAU
        return SkewMatrix(self.spec, flipped, tuple(
            tuple(self.entries[i][j].adjoint() for i in range(self.nrows))
            for j in range(self.ncols)))

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other):
        if self.spec != other.spec:
            raise MixedFields("matrices over different domains")
        if self.var != other.var:
            raise MixedFields("matrices over different twisted variables")

    def __add__(self, other):
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        self._check_compatible(other)
        if self.shape != other.shape:
            raise DimensionMismatch(
                f"cannot add a {self.shape} matrix and a {other.shape} matrix")
        return SkewMatrix(self.spec, self.var, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def __sub__(self, other):
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SkewMatrix):
            self._check_compatible(other)
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"cannot multiply {self.shape} by {other.shape}")
            zero = SkewPoly.zero(self.spec, self.var)
            rows = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = zero
                    for k in range(self.ncols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                rows.append(tuple(row))
            return SkewMatrix(self.spec, self.var, tuple(rows))
        if isinstance(other, (SkewPoly, FieldElement, int)):
            return self.map_entries(lambda e: e * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (SkewPoly, FieldElement, int)):
            return self.map_entries(lambda e: other * e)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices have powers")
        result = SkewMatrix.identity(self.spec, self.var, self.nrows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]"
                for row in self.entries]
        return "[" + ",\n ".join(rows) + "]"

    __repr__ = __str__

    def to_json(self):
        return {"var": self.var,
                "entries": [[e.to_json() for e in row]
                            for row in self.entries]}


# ---------------------------------------------------------------------------
# Constant (degree-zero) matrix helpers over FieldElement grids.


def const_mul(a, b):
    """The product a*b of two FieldElement grids, skipping zeros: each row
    of a lists its nonzero entries once, and entry (i, j) sums a[i][k] *
    b[k][j] over those k where b[k][j] is nonzero too, in ascending k.  A
    zero row of a costs no field operation, and a zero product is never
    formed or added; an entry with no such k is the field's zero."""
    if len(a[0]) != len(b):
        raise DimensionMismatch("constant matrix shapes do not compose")
    spec = a[0][0].spec
    width = len(b[0])
    out = []
    for row in a:
        acc = [None] * width
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        s = acc[j]
                        acc[j] = x * y if s is None else s + x * y
        out.append(tuple([spec.zero() if s is None else s for s in acc]))
    return tuple(out)


def const_identity(spec, n):
    one, zero = spec.one(), spec.zero()
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def const_twist(a, i):
    return tuple(tuple(c.twist(i) for c in row) for row in a)


def const_inverse(a):
    """Inverse of a square FieldElement grid by Gauss-Jordan elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("only square matrices can be inverted")
    spec = a[0][0].spec
    work = [list(row) + list(ident_row)
            for row, ident_row in zip(a, const_identity(spec, n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularLeading("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def const_is_nilpotent(a):
    """Whether the square grid a is nilpotent, decided exactly by squaring.

    The index of a nilpotent n x n matrix is at most n, so a is nilpotent
    iff a^(2^k) = 0 for the least 2^k >= n.  The powers a, a^2, a^4, ...
    are tested in turn: the first zero one proves nilpotence, and a nonzero
    one whose exponent has reached n disproves it.  So a zero matrix costs
    n^2 zero tests and no product, and any other at most ceil(log2 n)."""
    n = len(a)
    power, exponent = a, 1
    while any(c for row in power for c in row):
        if exponent >= n:
            return False
        power = const_mul(power, power)
        exponent *= 2
    return True


# ---------------------------------------------------------------------------
# Expression parser.
#
# One Pratt parser covers scalar twisted polynomials, matrices of them, plain
# coefficients, and commutative t-polynomials, parameterized by which variable
# names are in scope.


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|[+\-*/(),;\[\]=]))")

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25
# Each nesting level (parentheses, a unary minus, an operand, a matrix entry)
# costs the parser at most four stack frames, so this keeps deep input well
# inside the interpreter's recursion limit.
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError(f"unexpected character {tail[0]!r} in "
                             f"{text.strip()!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
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
        kind, val, at = self.next()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r} at position {at} in "
                             f"{self.text.strip()!r}")

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
                             f"levels at position {self.peek()[2]}")
        tok = self.next()
        value = self.nud(tok)
        while True:
            tok = self.peek()
            if tok[0] != "op":
                break
            lbp = _LBP.get(tok[1], 0)
            if lbp <= rbp:
                break
            self.next()
            value = self.led(tok, value)
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
        if op == "*":
            return left * right
        self.fail(tok, f"unexpected operator {op!r}")

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


_VAR_NAMES = {TAU: frozenset({"tau"}), SIGMA: frozenset({"sig", "sigma"})}


def parse_value(spec, text, var=TAU):
    """Parse an expression to a SkewPoly or SkewMatrix over spec."""
    return _Parser(spec, var, _VAR_NAMES[var], text).parse()


def parse_poly(spec, text, var=TAU):
    value = parse_value(spec, text, var)
    if isinstance(value, SkewMatrix):
        raise ParseError(f"expected a scalar, got a matrix: {text.strip()!r}")
    return value


def parse_matrix(spec, text, var=TAU):
    value = parse_value(spec, text, var)
    if isinstance(value, SkewPoly):
        return SkewMatrix.from_rows(spec, var, [[value]])
    return value


def parse_element(spec, text):
    """Parse a variable-free coefficient expression."""
    value = _Parser(spec, TAU, frozenset(), text).parse()
    if isinstance(value, SkewMatrix):
        raise ParseError(f"expected a coefficient, got a matrix: "
                         f"{text.strip()!r}")
    return value.coefficient(0)


def parse_apoly(spec, text):
    """Parse a commutative polynomial in t with coefficients fixed by the
    twist, returned as a dense ascending coefficient tuple."""
    value = _Parser(spec, TAU, frozenset({"t"}), text).parse()
    if isinstance(value, SkewMatrix):
        raise ParseError(f"expected a t-polynomial, got a matrix: "
                         f"{text.strip()!r}")
    coeffs = []
    for k in range(value.degree + 1):
        c = value.coefficient(k)
        if c.twist(1) != c:
            raise ParseError(
                f"coefficient {c} of t^{k} is not fixed by the twist; "
                "t-polynomial coefficients must lie in the base field")
        coeffs.append(c)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)
