"""t-modules: square twisted-polynomial matrices giving the action of t.

A module of dimension d is determined by the matrix ``t_matrix`` describing
the action of t on the d-dimensional additive group.  Its constant part must
be ``theta*I + N`` with N nilpotent; the rank is the top twisted degree.
Dimension-one modules whose constant is exactly theta and whose rank is
positive are Drinfeld modules; ``theta*I`` with no twisted part is the
trivial module on which t acts by scalars.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coefficients import FieldSpec
from .errors import (
    DimensionMismatch,
    InvalidModule,
    MixedFields,
    NonMonomialDenominator,
    NotAMorphism,
    NotNilpotent,
    ParseError,
    SingularLeading,
)
from .skewpoly import (
    TAU,
    SkewMatrix,
    SkewPoly,
    const_is_nilpotent,
    const_inverse,
    parse_poly,
    parse_value,
)


@dataclass(frozen=True)
class TModule:
    spec: FieldSpec
    t_matrix: SkewMatrix

    def __post_init__(self):
        m = self.t_matrix
        if not isinstance(m, SkewMatrix):
            raise InvalidModule("a module needs a matrix for the t-action")
        if m.spec != self.spec:
            raise MixedFields("module matrix over a different domain")
        if m.nrows != m.ncols:
            raise InvalidModule("the t-action matrix must be square")
        if not const_is_nilpotent(self.nilpotent_part()):
            raise NotNilpotent(
                "the constant part of the t-action must be theta*I plus a "
                "nilpotent matrix")

    # -- basic data ----------------------------------------------------------

    @property
    def var(self):
        return self.t_matrix.var

    @property
    def dim(self):
        return self.t_matrix.nrows

    @property
    def rank(self):
        return max(self.t_matrix.max_degree, 0)

    @property
    def is_drinfeld(self):
        return self.dim == 1 and self.t_matrix.max_degree >= 1

    def scalar_poly(self):
        if self.dim != 1:
            raise InvalidModule("not a dimension-one module")
        return self.t_matrix.entry(0, 0)

    def nilpotent_part(self):
        theta = self.spec.theta()
        const = self.t_matrix.coefficient_matrix(0)
        return tuple(
            tuple(const[i][j] - theta if i == j else const[i][j]
                  for j in range(self.dim))
            for i in range(self.dim))

    def leading_matrix(self):
        return self.t_matrix.coefficient_matrix(self.rank)

    def has_invertible_leading(self):
        if self.rank == 0:
            return False
        try:
            const_inverse(self.leading_matrix())
        except (SingularLeading, NonMonomialDenominator):
            # Singular, or over a formal domain a pivot that is not a unit.
            return False
        return True

    # -- structural shapes ---------------------------------------------------

    def is_lower_triangular(self):
        return all(self.t_matrix.entry(i, j).is_zero()
                   for i in range(self.dim)
                   for j in range(i + 1, self.dim))

    def is_diagonal(self):
        return all(self.t_matrix.entry(i, j).is_zero()
                   for i in range(self.dim)
                   for j in range(self.dim) if i != j)

    def diagonal_ranks(self):
        return tuple(self.t_matrix.entry(i, i).degree
                     for i in range(self.dim))

    def diagonal_is_drinfeld(self):
        """Every diagonal entry has constant term theta and positive
        degree."""
        theta = self.spec.theta()
        for i in range(self.dim):
            e = self.t_matrix.entry(i, i)
            if e.degree < 1 or e.coefficient(0) != theta:
                return False
        return True

    def is_carlitz_power(self):
        """Whether the t-action is theta*I + (superdiagonal 1s) + E(d,1)*tau,
        the d-th tensor power of the Carlitz module (d >= 1)."""
        d = self.dim
        if self.var != TAU:
            return False
        spec = self.spec
        theta = spec.theta()
        one = spec.one()
        for i in range(d):
            for j in range(d):
                e = self.t_matrix.entry(i, j)
                expected = []
                if i == j:
                    expected.append((0, theta))
                elif j == i + 1:
                    expected.append((0, one))
                if i == d - 1 and j == 0:
                    expected.append((1, one))
                if e != SkewPoly.from_pairs(spec, TAU, expected):
                    return False
        return True

    # -- actions and morphisms ------------------------------------------------

    def act(self, apoly):
        """The matrix of the action of a(t) = sum c_i t^i, for twist-fixed
        coefficients c_i."""
        spec = self.spec
        for c in apoly:
            if c.twist(1) != c:
                raise ParseError(
                    f"coefficient {c} is not fixed by the twist")
        acc = SkewMatrix.zeros(spec, self.var, self.dim, self.dim)
        power = SkewMatrix.identity(spec, self.var, self.dim)
        for c in apoly:
            acc = acc + SkewPoly.const(spec, self.var, c) * power
            power = power * self.t_matrix
        return acc

    def adjoint(self):
        """The module on the opposite twisted variable with the adjoint
        t-action."""
        return TModule(self.spec, self.t_matrix.adjoint())

    def describe(self):
        if self.dim == 1:
            return str(self.t_matrix.entry(0, 0))
        return str(self.t_matrix)

    def __str__(self):
        return self.describe()


# ---------------------------------------------------------------------------
# Constructors.


def drinfeld(spec, poly):
    if isinstance(poly, SkewMatrix):
        if poly.shape != (1, 1):
            raise InvalidModule("a Drinfeld module is one-dimensional")
        poly = poly.entry(0, 0)
    if poly.degree < 1:
        raise InvalidModule("a Drinfeld module needs a positive-degree "
                            "t-action")
    if poly.coefficient(0) != spec.theta():
        raise InvalidModule("a Drinfeld module's t-action must have constant "
                            "term theta")
    return TModule(spec, SkewMatrix.from_rows(spec, poly.var, [[poly]]))


def tmodule(spec, matrix):
    if isinstance(matrix, SkewPoly):
        matrix = SkewMatrix.from_rows(spec, matrix.var, [[matrix]])
    return TModule(spec, matrix)


def carlitz(spec, var=TAU):
    theta = SkewPoly.const(spec, var, spec.theta())
    return TModule(spec, SkewMatrix.from_rows(
        spec, var, [[theta + SkewPoly.term(spec, var, 1, 1)]]))


def carlitz_power(spec, e, var=TAU):
    if e < 1:
        raise InvalidModule("the Carlitz power exponent must be positive")
    theta = spec.theta()
    rows = []
    for i in range(e):
        row = []
        for j in range(e):
            pairs = []
            if i == j:
                pairs.append((0, theta))
            elif j == i + 1:
                pairs.append((0, spec.one()))
            if i == e - 1 and j == 0:
                pairs.append((1, spec.one()))
            row.append(SkewPoly.from_pairs(spec, var, pairs))
        rows.append(row)
    return TModule(spec, SkewMatrix.from_rows(spec, var, rows))


def trivial(spec, s, var=TAU):
    """The module theta*I on which t acts by scalar multiplication."""
    if s < 1:
        raise InvalidModule("dimension must be positive")
    theta = SkewPoly.const(spec, var, spec.theta())
    zero = SkewPoly.zero(spec, var)
    return TModule(spec, SkewMatrix.from_rows(spec, var, [
        [theta if i == j else zero for j in range(s)] for i in range(s)]))


# ---------------------------------------------------------------------------
# Morphisms.


def morphism_residual(f, source, target):
    """f * S_t - T_t * f for a candidate morphism f: source -> target."""
    if source.spec != target.spec or f.spec != source.spec:
        raise MixedFields("morphism data over mixed domains")
    if source.var != target.var or f.var != source.var:
        raise MixedFields("morphism data over mixed twisted variables")
    if f.shape != (target.dim, source.dim):
        raise DimensionMismatch(
            f"a morphism from a {source.dim}-dimensional module to a "
            f"{target.dim}-dimensional one must be a "
            f"{target.dim}x{source.dim} matrix, got {f.nrows}x{f.ncols}")
    return f * source.t_matrix - target.t_matrix * f


def check_morphism(f, source, target):
    residual = morphism_residual(f, source, target)
    if not residual.is_zero():
        raise NotAMorphism("the matrix does not commute with the t-actions",
                           residual=residual)
    return f


# ---------------------------------------------------------------------------
# Parsing.


_KEY_RE = re.compile(r"^\s*(drinfeld|tmodule|carlitz)\b(.*)$", re.S)
_OPT_RE = re.compile(r"^\s*([a-z]+)\s*=\s*([0-9]+)\b(.*)$", re.S)


def parse_module(spec, text, var=TAU):
    """Parse a module description.

    Accepted forms: a bare expression (scalar or matrix); ``drinfeld EXPR``;
    ``tmodule [dim=N] EXPR``; ``carlitz [e=N]``.
    """
    m = _KEY_RE.match(text)
    if not m:
        value = parse_value(spec, text, var)
        if isinstance(value, SkewPoly):
            if value.degree >= 1 and value.coefficient(0) == spec.theta():
                return drinfeld(spec, value)
            return tmodule(spec, value)
        return tmodule(spec, value)
    keyword, rest = m.groups()
    if keyword == "carlitz":
        e = 1
        opt = _OPT_RE.match(rest)
        if opt:
            key, num, rest = opt.groups()
            if key != "e":
                raise ParseError(f"unknown carlitz option {key!r}")
            e = int(num)
        if rest.strip():
            raise ParseError(f"unexpected text after carlitz: {rest.strip()!r}")
        return carlitz_power(spec, e, var)
    if keyword == "drinfeld":
        return drinfeld(spec, parse_poly(spec, rest, var))
    dim = None
    opt = _OPT_RE.match(rest)
    if opt:
        key, num, rest = opt.groups()
        if key != "dim":
            raise ParseError(f"unknown tmodule option {key!r}")
        dim = int(num)
    value = parse_value(spec, rest, var)
    mod = tmodule(spec, value)
    if dim is not None and mod.dim != dim:
        raise ParseError(f"module is {mod.dim}-dimensional, expected {dim}")
    return mod
