"""Twisted polynomials, their matrices, and the expression parser.

A twisted polynomial is a finite sum ``sum_i a_i * v^i`` over a coefficient
domain, where the variable ``v`` is either ``tau`` (commuting past scalars
by the q-power twist: ``tau * c = c.twist(1) * tau``) or ``sigma`` (the
opposite twist: ``sigma * c = c.twist(-1) * sigma``).  The adjoint swaps
the two variables and is an anti-automorphism.
"""

from __future__ import annotations

from ._scan import _check_literals, _scan
from .coefficients import (
    FieldElement,
    SlottedValue,
    _Additive,
    _count,
    _printable,
    _new,
    _power,
    _power_text,
    _render_terms,
)
from .errors import (
    DimensionMismatch,
    MixedFields,
    ParseError,
    PolynomialTooLarge,
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


# ---------------------------------------------------------------------------
# Accumulator kernels on payloads, with the domain's ops object arith
# (FieldSpec._arith).  A polynomial stores its nonzero coefficients as
# ascending (degree, payload) pairs.  Products and sums add such pairs in
# place into maps {degree: payload} that may hold zeros, and _from_map keeps
# the nonzero ones; elements are built only where a coefficient leaves.


def _add_into(arith, acc, pairs):
    """Add (degree, payload) pairs into the accumulator acc; return it."""
    add = arith.add
    for d, c in pairs:
        cur = acc.get(d)
        acc[d] = c if cur is None else add(cur, c)
    return acc


def _mul_into(arith, acc, a, b, s):
    """Add the product of the payload pairs a and b into acc, for the twist
    sign s: (x v^i)(y v^j) = x y^(q^(s i)) v^(i+j); return acc."""
    add, mul, twist = arith.add, arith.mul, arith.twist
    for i, x in a:
        k = s * i
        for j, y in b:
            t = mul(x, twist(y, k))
            d = i + j
            cur = acc.get(d)
            acc[d] = t if cur is None else add(cur, t)
    return acc


def _apply_into(arith, acc, pairs, x, s):
    """acc plus the image of the payload x under the polynomial with the
    (degree, payload) pairs, acting as a twisting operator."""
    add, mul, twist = arith.add, arith.mul, arith.twist
    for i, a in pairs:
        acc = add(acc, mul(a, twist(x, s * i)))
    return acc


def _matmul_into(arith, accs, a, b, s):
    """Add the product of the grids a and b of (degree, payload) pairs into
    the grid of accumulators accs, one per output entry, in ascending k."""
    for acc_row, a_row in zip(accs, a):
        for x, b_row in zip(a_row, b):
            if x:
                for acc, y in zip(acc_row, b_row):
                    if y:
                        _mul_into(arith, acc, x, y, s)


# ---------------------------------------------------------------------------
# Twisted polynomials.


class SkewPoly(_Additive, SlottedValue):
    # _pairs: ((degree, payload), ...) ascending, nonzero payloads
    __slots__ = ("spec", "var", "_pairs")

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, spec, var):
        return cls(spec, var, ())

    @classmethod
    def const(cls, spec, var, c):
        return cls.term(spec, var, c, 0)

    @classmethod
    def term(cls, spec, var, c, deg):
        if isinstance(c, int):
            c = spec.from_int(c)
        if deg < 0:
            raise ParseError("negative twisted-polynomial degree")
        c = spec._payload(c)
        return cls(spec, var, () if spec._arith.is_zero(c) else ((deg, c),))

    @classmethod
    def from_pairs(cls, spec, var, pairs):
        return _from_map(spec, var, _add_into(
            spec._arith, {}, [(d, spec._payload(c)) for d, c in pairs]))

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self):
        """The nonzero coefficients as ascending (degree, element) pairs."""
        return tuple((d, self.spec._fe(c)) for d, c in self._pairs)

    @property
    def sign(self):
        return twist_sign(self.var)

    def is_zero(self):
        return not self._pairs

    def __bool__(self):
        return bool(self._pairs)

    @property
    def degree(self):
        return self._pairs[-1][0] if self._pairs else -1

    def coefficient(self, k):
        for deg, c in self._pairs:
            if deg == k:
                return self.spec._fe(c)
        return self.spec.zero()

    def leading(self):
        if not self._pairs:
            return None
        d, c = self._pairs[-1]
        return d, self.spec._fe(c)

    def is_constant(self):
        return self.degree <= 0

    def _check_compatible(self, other):
        if self.spec is not other.spec:
            raise MixedFields("twisted polynomials over different domains")
        if self.var != other.var:
            raise MixedFields(
                f"cannot combine a {self.var}-polynomial with a "
                f"{other.var}-polynomial")

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            self._check_compatible(other)
            return other
        if isinstance(other, (FieldElement, int)):
            return SkewPoly.const(self.spec, self.var, other)
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _from_map(self.spec, self.var, _add_into(
            self.spec._arith, dict(self._pairs), other._pairs))

    __radd__ = __add__

    def __neg__(self):
        neg = self.spec._arith.neg
        return SkewPoly(self.spec, self.var,
                        tuple((d, neg(c)) for d, c in self._pairs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _from_map(self.spec, self.var, _mul_into(
            self.spec._arith, {}, self._pairs, other._pairs, self.sign))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return _power(SkewPoly.const(self.spec, self.var, 1), self, n)

    # -- semilinear action ----------------------------------------------------

    def eval_linear(self, c):
        """Apply the polynomial to a coefficient as a twisting operator."""
        spec = self.spec
        arith = spec._arith
        return spec._fe(_apply_into(arith, arith.zero, self._pairs,
                                    spec._payload(c), self.sign))

    def adjoint(self):
        """The image under the anti-automorphism swapping tau and sigma."""
        s, twist = self.sign, self.spec._arith.twist
        var = SIGMA if self.var == TAU else TAU
        return SkewPoly(self.spec, var,
                        tuple((i, twist(a, -s * i)) for i, a in self._pairs))

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        render = self.spec._arith.render
        name = "tau" if self.var == TAU else "sig"
        return _render_terms([(render(c), _power_text(name, deg))
                              for deg, c in self._pairs], (" + ", "*", "/"))

    __repr__ = __str__

    def to_json(self):
        render = self.spec._arith.render
        return [[_printable(deg), render(c)] for deg, c in self._pairs]


_set_spec = SkewPoly.spec.__set__
_set_var = SkewPoly.var.__set__
_set_pairs = SkewPoly._pairs.__set__


def _from_map(spec, var, acc):
    """The polynomial storing an accumulator's nonzero payloads, sorted."""
    is_zero = spec._arith.is_zero
    p = _new(SkewPoly)
    _set_spec(p, spec)
    _set_var(p, var)
    _set_pairs(p, tuple([(d, c) for d, c in sorted(acc.items())
                         if not is_zero(c)]))
    return p


def _from_maps(spec, var, maps):
    """The matrix of a grid of accumulators."""
    return SkewMatrix(spec, var, tuple(
        tuple(_from_map(spec, var, acc) for acc in row) for row in maps))


# ---------------------------------------------------------------------------
# Matrices of twisted polynomials.


class SkewMatrix(_Additive, SlottedValue):
    __slots__ = ("spec", "var", "entries")  # entries: row tuples of SkewPoly

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
                if e.spec is not spec or e.var != var:
                    raise MixedFields("matrix entries over mixed domains or "
                                      "variables")
        return cls(spec, var, rows)

    @classmethod
    def from_const(cls, spec, var, grid):
        return cls.from_rows(spec, var, [
            [SkewPoly.const(spec, var, c) for c in row] for row in grid])

    @classmethod
    def from_slots(cls, spec, var, nrows, ncols, slots, values):
        """The nrows x ncols matrix holding each value at its slot (row,
        col, deg), the slots distinct, and zero elsewhere; one value per
        slot."""
        if len(values) != len(slots):
            raise DimensionMismatch(f"{len(values)} values for {len(slots)} "
                                    f"slots")
        maps = [[{} for _ in range(ncols)] for _ in range(nrows)]
        for (r, c, k), value in zip(slots, values):
            maps[r][c][k] = spec._payload(value)
        return _from_maps(spec, var, maps)

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

    @property
    def _pairs(self):
        """The grid of the entries' stored (degree, payload) pairs."""
        return [[e._pairs for e in row] for row in self.entries]

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

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
        if self.spec is not other.spec:
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

    def _check_product(self, other):
        """Refuse the product self * other unless it is defined."""
        self._check_compatible(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")

    def __mul__(self, other):
        if isinstance(other, SkewMatrix):
            self._check_product(other)
            accs = [[{} for _ in range(other.ncols)] for _ in self.entries]
            _matmul_into(self.spec._arith, accs, self._pairs, other._pairs,
                         twist_sign(self.var))
            return _from_maps(self.spec, self.var, accs)
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
        return _power(SkewMatrix.identity(self.spec, self.var, self.nrows),
                      self, n)

    # -- semilinear action ----------------------------------------------------

    def eval_linear(self, vec):
        """Apply the matrix to a coefficient vector, entries acting as
        twisting operators: out[i] = sum_j entry(i, j).eval_linear(vec[j]),
        summed on payloads and wrapped once per coordinate."""
        spec, s = self.spec, twist_sign(self.var)
        if len(vec) != self.ncols:
            raise DimensionMismatch(
                f"cannot apply a {self.shape} matrix to a vector of length "
                f"{len(vec)}")
        arith, xs = spec._arith, [spec._payload(c) for c in vec]
        out = []
        for row in self.entries:
            acc = arith.zero
            for e, x in zip(row, xs):
                acc = _apply_into(arith, acc, e._pairs, x, s)
            out.append(spec._fe(acc))
        return tuple(out)

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


def const_inverse(a):
    """Inverse of a square FieldElement grid by Gauss-Jordan elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("only square matrices can be inverted")
    ident = SkewMatrix.identity(a[0][0].spec, TAU, n).coefficient_matrix(0)
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, ident)]
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
    one whose exponent has reached n disproves it.  So a zero grid costs
    n^2 zero tests and builds no matrix, and any other is squared as one
    degree-0 SkewMatrix at most ceil(log2 n) times."""
    if not any(c for row in a for c in row):
        return True
    n = len(a)
    power, exponent = SkewMatrix.from_const(a[0][0].spec, TAU, a), 1
    while exponent < n:
        power = power * power
        exponent *= 2
        if power.is_zero():
            return True
    return False


# ---------------------------------------------------------------------------
# Expression parser.
#
# One Pratt parser covers scalar twisted polynomials, matrices of them, plain
# coefficients, and commutative t-polynomials, parameterized by which variable
# names are in scope.


_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25
# Each nesting level (parentheses, a unary minus, an operand, a matrix entry)
# costs the parser at most four stack frames, so this keeps deep input well
# inside the interpreter's recursion limit.
MAX_NESTING = 100
# The highest degree parse_apoly accepts: a(t) acts through a dense power
# series of Psi_t, quadratic in deg a.
MAX_APOLY_DEGREE = 2 ** 10


def _tokenize(text):
    _check_literals(text)
    tokens = [*_scan(text), ("end", "", len(text))]
    for kind, char, _ in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {char!r} in "
                             f"{text.strip()!r}")
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


_VAR_NAMES = {TAU: frozenset({"tau"}), SIGMA: frozenset({"sig", "sigma"})}


def parse_value(spec, text, var=TAU):
    """Parse an expression to a SkewPoly or SkewMatrix over spec."""
    return _Parser(spec, var, _VAR_NAMES[var], text).parse()


def _scalar(spec, text, var, names, what):
    """Parse text with names in scope, refusing a matrix as not `what`."""
    value = _Parser(spec, var, names, text).parse()
    if isinstance(value, SkewMatrix):
        raise ParseError(f"expected {what}, got a matrix: {text.strip()!r}")
    return value


def parse_poly(spec, text, var=TAU):
    return _scalar(spec, text, var, _VAR_NAMES[var], "a scalar")


def parse_matrix(spec, text, var=TAU):
    value = parse_value(spec, text, var)
    if isinstance(value, SkewPoly):
        return SkewMatrix.from_rows(spec, var, [[value]])
    return value


def parse_element(spec, text):
    """Parse a variable-free coefficient expression."""
    value = _scalar(spec, text, TAU, frozenset(), "a coefficient")
    return value.coefficient(0)


def parse_apoly(spec, text):
    """Parse a commutative polynomial in t with coefficients fixed by the
    twist, returned as a dense ascending coefficient tuple.  Above degree
    MAX_APOLY_DEGREE raises PolynomialTooLarge before the tuple is built."""
    value = _scalar(spec, text, TAU, frozenset({"t"}), "a t-polynomial")
    if value.degree > MAX_APOLY_DEGREE:
        raise PolynomialTooLarge(f"degree {_count(value.degree)} in t exceeds "
                                 f"MAX_APOLY_DEGREE = {MAX_APOLY_DEGREE}")
    coeffs = []
    for k in range(value.degree + 1):
        c = value.coefficient(k)
        if c.twist(1) != c:
            raise ParseError(
                f"coefficient {c} of t^{k} is not fixed by the twist; "
                "t-polynomial coefficients must lie in the base field")
        coeffs.append(c)
    return tuple(coeffs)
