"""t-modules: square twisted-polynomial matrices giving the action of t.

A module of dimension d is determined by the matrix ``t_matrix`` describing
the action of t on the d-dimensional additive group.  Its constant part must
be ``theta*I + N`` with N nilpotent; the rank is the top twisted degree.
Dimension-one modules whose constant is exactly theta and whose rank is
positive are Drinfeld modules; ``theta*I`` with no twisted part is the
trivial module on which t acts by scalars.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice

from ._scan import _check_literals, _scan
from .coefficients import SlottedValue
from .errors import (
    CarrierTooLarge,
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
    _from_maps,
    _matmul_into,
    const_is_nilpotent,
    const_inverse,
    parse_poly,
    parse_value,
    twist_sign,
)


class TModule(SlottedValue):
    __slots__ = ("spec", "t_matrix", "__dict__")  # __dict__: cached shapes

    def __post_init__(self):
        m = self.t_matrix
        if not isinstance(m, SkewMatrix):
            raise InvalidModule("a module needs a matrix for the t-action")
        if m.spec is not self.spec:
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
        return self.dim == 1 and self.drinfeld_ranks is not None

    def nilpotent_part(self):
        theta = self.spec.theta()
        const = self.t_matrix.coefficient_matrix(0)
        return tuple(
            tuple(const[i][j] - theta if i == j else const[i][j]
                  for j in range(self.dim))
            for i in range(self.dim))

    @cached_property
    def leading_inverse(self):
        """The inverse of the leading matrix, computed once; None when it
        is singular or, over a formal domain, a pivot is not a unit."""
        try:
            return const_inverse(self.t_matrix.coefficient_matrix(self.rank))
        except (SingularLeading, NonMonomialDenominator):
            return None

    def has_invertible_leading(self):
        return self.rank > 0 and self.leading_inverse is not None

    # -- structural shapes ---------------------------------------------------

    @cached_property
    def drinfeld_ranks(self):
        """The diagonal degrees of a stack of Drinfeld modules (a lower
        triangular t-action with every diagonal degree positive; each
        diagonal constant is then theta), else None."""
        entry, d = self.t_matrix.entry, self.dim
        ranks = tuple(entry(i, i).degree for i in range(d))
        if min(ranks) < 1 or any(not entry(i, j).is_zero() for i in range(d)
                                 for j in range(i + 1, d)):
            return None
        return ranks

    def is_diagonal(self):
        return all(self.t_matrix.entry(i, j).is_zero()
                   for i in range(self.dim)
                   for j in range(self.dim) if i != j)

    def is_carlitz_power(self):
        """Whether the t-action is theta*I + (superdiagonal 1s) + E(d,1)*tau,
        the d-th tensor power of the Carlitz module (d >= 1)."""
        return self.var == TAU and self.t_matrix == _carlitz_matrix(
            self.spec, self.dim, TAU)

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
        for i, c in enumerate(apoly):
            if i:
                power = self.t_matrix if i == 1 else power * self.t_matrix
            if c:
                acc = acc + SkewPoly.const(spec, self.var, c) * power
        return acc

    def adjoint(self):
        """The module on the opposite twisted variable with the adjoint
        t-action."""
        return TModule(self.spec, self.t_matrix.adjoint())

    def __str__(self):
        if self.dim == 1:
            return str(self.t_matrix.entry(0, 0))
        return str(self.t_matrix)


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
    return carlitz_power(spec, 1, var)


def _carlitz_matrix(spec, e, var):
    """theta*I + (superdiagonal 1s) + E(e,1)*var."""
    theta, one = spec.theta(), spec.one()

    def entry(i, j):
        pairs = [(0, theta)] if i == j else [(0, one)] if j == i + 1 else []
        corner = [(1, one)] if (i, j) == (e - 1, 0) else []
        return SkewPoly.from_pairs(spec, var, pairs + corner)

    return SkewMatrix.from_rows(spec, var, [[entry(i, j) for j in range(e)]
                                            for i in range(e)])


# The largest Carlitz power exponent.  Ext(phi, C^(e)) has rank at least
# 2e (phi has rank 2 or more), so past e = 128 its Pi_t of rank^2 entries
# exceeds MAX_PI_ENTRIES = 2^16.
MAX_CARLITZ_POWER = 128


def carlitz_power(spec, e, var=TAU):
    if e < 1:
        raise InvalidModule("the Carlitz power exponent must be positive")
    if e > MAX_CARLITZ_POWER:
        raise CarrierTooLarge(f"the Carlitz power exponent exceeds "
                              f"MAX_CARLITZ_POWER = {MAX_CARLITZ_POWER}")
    return TModule(spec, _carlitz_matrix(spec, e, var))


def trivial(spec, s, var=TAU):
    """The module theta*I on which t acts by scalar multiplication."""
    if s < 1:
        raise InvalidModule("dimension must be positive")
    return TModule(spec, SkewMatrix.identity(spec, var, s) * spec.theta())


# ---------------------------------------------------------------------------
# Morphisms.


def _inner_into(arith, accs, u, phi, psi, s):
    """Add U*Phi_t - Psi_t*U into the grid of accumulators accs, one per
    entry; u, phi and psi are grids of stored (degree, payload) pairs and s
    is the twist sign."""
    neg = arith.neg
    _matmul_into(arith, accs, u, phi, s)
    _matmul_into(arith, accs, psi, [[[(d, neg(c)) for d, c in e]
                                     for e in row] for row in u], s)


def inner_matrix(source, target, u):
    """delta^(U) = U*Phi_t - Psi_t*U, the inner biderivation of U; it is also
    the residual of U as a candidate morphism source -> target, so Hom is
    its kernel.  Refuses U as the two products would."""
    phi, psi = source.t_matrix, target.t_matrix
    u._check_product(phi)
    psi._check_product(u)
    accs = [[{} for _ in range(u.ncols)] for _ in range(u.nrows)]
    _inner_into(u.spec._arith, accs, u._pairs, phi._pairs, psi._pairs,
                twist_sign(u.var))
    return _from_maps(u.spec, u.var, accs)


def morphism_residual(f, source, target):
    """inner_matrix(source, target, f) for a candidate morphism f."""
    if source.spec is not target.spec or f.spec is not source.spec:
        raise MixedFields("morphism data over mixed domains")
    if source.var != target.var or f.var != source.var:
        raise MixedFields("morphism data over mixed twisted variables")
    if f.shape != (target.dim, source.dim):
        raise DimensionMismatch(
            f"a morphism from a {source.dim}-dimensional module to a "
            f"{target.dim}-dimensional one must be a "
            f"{target.dim}x{source.dim} matrix, got {f.nrows}x{f.ncols}")
    return inner_matrix(source, target, f)


def check_morphism(f, source, target):
    residual = morphism_residual(f, source, target)
    if not residual.is_zero():
        raise NotAMorphism("the matrix does not commute with the t-actions",
                           residual=residual)
    return f


# ---------------------------------------------------------------------------
# Parsing.


def parse_module(spec, text, var=TAU):
    """Parse a module description.

    Accepted forms: a bare expression (scalar or matrix); ``drinfeld EXPR``;
    ``tmodule [dim=N] EXPR``; ``carlitz [e=N]``.
    """
    _check_literals(text)
    (_, word, at), *opt = [*islice(_scan(text), 4)] or [("end", "", 0)]
    rest = text[at + len(word):]
    # a keyword is a word: no letter or digit follows it
    if word not in ("drinfeld", "tmodule", "carlitz") or rest[:1].isalnum():
        return tmodule(spec, parse_value(spec, text, var))
    if word == "drinfeld":
        return drinfeld(spec, parse_poly(spec, rest, var))
    # an option key = N: letters a-z, digits 0-9, then no word character
    key = num = None
    if [v if k == "op" else k for k, v, _ in opt] == ["name", "=", "int"]:
        (_, name, _), _, (_, digits, at) = opt
        end = at + len(digits)
        if (name.isalpha() and name.islower() and digits.isascii()
                and not text[end:end + 1].replace("_", "a").isalnum()):
            key, num, rest = name, int(digits), text[end:]
    if word == "carlitz":
        if key not in (None, "e"):
            raise ParseError(f"unknown carlitz option {key!r}")
        if rest.strip():
            raise ParseError(f"unexpected text after carlitz: {rest.strip()!r}")
        return carlitz_power(spec, 1 if num is None else num, var)
    if key not in (None, "dim"):
        raise ParseError(f"unknown tmodule option {key!r}")
    mod = tmodule(spec, parse_value(spec, rest, var))
    if num is not None and mod.dim != num:
        raise ParseError(f"module is {mod.dim}-dimensional, expected {num}")
    return mod
