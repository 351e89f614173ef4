"""Operations on extension classes: sums, actions, base change, splitness,
Hom spaces, and the six-term exact sequence of a short exact sequence.

Classes are represented by canonical biderivations wherever a reduction
regime applies; group operations reduce after combining, so equal classes
compare equal as values.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .biderivations import (
    Biderivation,
    _memoized,
    assemble,
    reduce_canonical,
)
from .coefficients import SlottedValue, _count
from .errors import (
    CarrierTooLarge,
    InvariantViolation,
    NotAQthPower,
    UnboundedSearch,
    UnsupportedRegime,
)
from .ext_structures import ext_structure
from .modules_t import check_morphism, inner_matrix
from .skewpoly import SkewMatrix, SkewPoly


def class_of(delta):
    """The canonical representative of the extension class."""
    return reduce_canonical(delta).canonical


def baer_sum(d1, d2):
    """The sum of extension classes, reduced to canonical form."""
    return class_of(d1 + d2)


def t_action(apoly, delta):
    """The action of a(t), a coefficient tuple as parse_apoly gives, on the
    class of delta: push out along the target's a-action Psi_a, which the
    memo keeps per (target, a), and reduce."""
    target = delta.target
    psi_a = _memoized(("act", id(target), id(apoly)), target, apoly,
                      target.act, apoly)
    return class_of(Biderivation(delta.source, target, psi_a * delta.matrix))


def pullback(delta, g, gmod):
    """Restrict along a morphism g: gmod -> source."""
    check_morphism(g, gmod, delta.source)
    return Biderivation(gmod, delta.target, delta.matrix * g)


def pushout(delta, f, fmod):
    """Push forward along a morphism f: target -> fmod."""
    check_morphism(f, delta.target, fmod)
    return Biderivation(delta.source, fmod, f * delta.matrix)


# ---------------------------------------------------------------------------
# Kernel and solutions of the inner map U -> U*Phi_t - Psi_t*U on matrices U
# with entry degrees up to a bound, F_p-linear over GF(p^m): bounded Hom
# spaces and split witnesses, by one elimination mod p on sparse vectors
# {key: value} that hold nonzero F_p coordinates only.

# The most F_p unknowns (entries * (bound + 1) * m) a bounded search solves.
MAX_FP_UNKNOWNS = 2 ** 12


def _fp_vector(mat):
    """The nonzero F_p coordinates {(row, col, deg, comp): value} of a
    matrix over GF(p^m), read off its stored pairs."""
    fp_coords = mat.spec._fp_coords
    return {(r, c, d, k): v for r, row in enumerate(mat._pairs)
            for c, e in enumerate(row) for d, x in e
            for k, v in enumerate(fp_coords(x)) if v}


def _inner_columns(source, target, bound):
    """The unit matrices U of the F_p-basis, one per (i, j, deg, comp) in
    that order, and their images under the inner map as sparse vectors."""
    spec, var = source.spec, source.var
    spec._require_finite("a bounded search of the inner map requires")
    count = target.dim * source.dim * (bound + 1) * spec.m
    if count > MAX_FP_UNKNOWNS:
        raise CarrierTooLarge(f"{_count(count)} F_p unknowns exceed "
                              f"MAX_FP_UNKNOWNS = {MAX_FP_UNKNOWNS} "
                              f"(degree bound {bound})")
    basis = [spec.from_fp_coords([int(t == k) for t in range(spec.m)])
             for k in range(spec.m)]
    zero = SkewMatrix.zeros(spec, var, target.dim, source.dim)
    units = [zero.with_entry(i, j, SkewPoly.term(spec, var, c, deg))
             for i, j, deg, c in itertools.product(
                 range(target.dim), range(source.dim), range(bound + 1),
                 basis)]
    return units, [_fp_vector(inner_matrix(source, target, u))
                   for u in units]


def _fp_eliminate(columns, p, rhs=None):
    """Gaussian elimination mod p on sparse vectors, column by column in
    the given order, each reduced against the pivots before it.

    Returns (kernel, solution), combinations {column index: coefficient}: a
    kernel vector per column that reduces to zero, with 1 there and the
    rest on earlier pivot columns; and the combination of pivot columns
    summing to rhs, or None if rhs is None or does not reduce to zero.
    """
    pivots = []  # (key, 1 / its value there, vector, its combination)

    def reduce(vec, combo):
        # keeps vec == (rhs or 0) + sum of combo[k] * columns[k]
        for key, inv, pvec, pcombo in pivots:
            f = vec.get(key, 0) * inv % p
            if f:
                for acc, other in ((vec, pvec), (combo, pcombo)):
                    for k, v in other.items():
                        x = (acc.get(k, 0) - f * v) % p
                        if x:
                            acc[k] = x
                        else:
                            del acc[k]
        return vec, combo

    kernel = []
    for index, column in enumerate(columns):
        vec, combo = reduce(dict(column), {index: 1})
        if not vec:
            kernel.append(combo)
            continue
        key = next(iter(vec))
        pivots.append((key, pow(vec[key], -1, p), vec, combo))
    if rhs is None:
        return kernel, None
    vec, combo = reduce(dict(rhs), {})
    return kernel, (None if vec else {k: -v % p for k, v in combo.items()})


# ---------------------------------------------------------------------------
# Split testing.


class SplitWitness(SlottedValue):
    """The class splits: delta = delta^(witness)."""

    __slots__ = ("witness",)

    @property
    def kind(self):
        return "split"


class NotSplit(SlottedValue):
    """The class is nonzero; canonical is its reduced form when a regime
    applies, reason explains conclusions reached without one."""

    __slots__ = ("canonical", "reason")  # canonical: Biderivation or None

    @property
    def kind(self):
        return "not-split"


class Inconclusive(SlottedValue):
    """No witness with entry degrees up to bound; nothing larger was
    searched."""

    __slots__ = ("bound",)

    @property
    def kind(self):
        return "inconclusive"


def is_split(delta, bound=None):
    """Decide whether delta presents a split extension.

    With a reduction regime the answer is exact.  Without one (equal ranks),
    a witness is a solution U, entry degrees up to bound, of delta =
    U*Phi_t - Psi_t*U; the search needs a finite field (FiniteFieldRequired
    otherwise) and is inconclusive when no such U exists.
    """
    source, target = delta.source, delta.target
    try:
        reduced = reduce_canonical(delta)
    except UnsupportedRegime:
        pass  # no regime: search for a witness below
    except NotAQthPower as exc:
        return NotSplit(None, f"a forced witness coefficient has no "
                              f"q-th root: {exc}")
    else:
        if reduced.canonical.is_zero():
            return SplitWitness(reduced.witness)
        return NotSplit(reduced.canonical, "nonzero canonical form")
    if bound is None:
        bound = 2 * max(source.dim, target.dim)
    units, columns = _inner_columns(source, target, bound)
    _, solution = _fp_eliminate(columns, source.spec.p,
                                _fp_vector(delta.matrix))
    if solution is None:
        return Inconclusive(bound)
    witness = sum((units[k] * x for k, x in solution.items()),
                  Biderivation.zero(source, target).matrix)
    if inner_matrix(source, target, witness) != delta.matrix:
        raise InvariantViolation("the solved split witness does not "
                                 "reproduce the biderivation")
    return SplitWitness(witness)


# ---------------------------------------------------------------------------
# Hom spaces.


class HomSpace(SlottedValue):
    """Morphisms source -> target: an F_p-basis of those found.

    complete=True means the basis is provably everything (here: the zero
    space shown empty by a rank argument).  Otherwise the basis spans all
    morphisms with entry degrees up to bound.
    """

    __slots__ = ("source", "target", "basis", "complete", "bound")

    @property
    def fp_dimension(self):
        return len(self.basis)


def _rank_certificate(source, target):
    """True when a degree comparison forces Hom(source, target) = 0: both
    are stacks of Drinfeld modules, one of dimension one, sharing no
    rank."""
    src, tgt = source.drinfeld_ranks, target.drinfeld_ranks
    return bool(src and tgt and 1 in (source.dim, target.dim)
                and not set(src) & set(tgt))


def hom_space(source, target, bound=None):
    """Compute morphisms source -> target.

    A rank argument can certify the zero space exactly.  Otherwise, over a
    finite field, the morphisms with entry degrees up to bound are the
    kernel of the inner map U -> U*Phi_t - Psi_t*U; infinite domains raise
    UnboundedSearch.
    """
    if _rank_certificate(source, target):
        return HomSpace(source, target, (), True, None)
    if source.spec.kind != "finite":
        raise UnboundedSearch(
            "no degree bound certifies this Hom space over an infinite "
            "domain; only bounded searches over finite fields are "
            "supported")
    if bound is None:
        bound = 2 * max(source.dim, target.dim)
    units, columns = _inner_columns(source, target, bound)
    kernel, _ = _fp_eliminate(columns, source.spec.p)
    zero = Biderivation.zero(source, target).matrix
    basis = tuple(sum((units[k] * x for k, x in vec.items()), zero)
                  for vec in kernel)
    for f in basis:
        check_morphism(f, source, target)
    return HomSpace(source, target, basis, False, bound)


# ---------------------------------------------------------------------------
# The six-term sequence of 0 -> target -> middle -> source -> 0 against a
# partner module.


def _require_pair(delta, source, target):
    if delta.source != source or delta.target != target:
        raise InvariantViolation(
            "the class given at this six-term node is not a biderivation "
            "between the node's modules")


class SixTerm(SlottedValue):
    """Structure maps and induced maps of a short exact sequence.

    The sequence is 0 -> sub -> middle -> quotient -> 0 built from a
    biderivation delta (source = quotient, target = sub), probed against a
    partner module G.  Covariant maps act on Hom(G, -) and Ext(G, -);
    contravariant maps on Hom(-, G) and Ext(-, G).  Hom-level inputs are
    morphism matrices; Ext-level inputs and all outputs at Ext nodes are
    biderivations, returned in canonical form.
    """

    # __dict__: the cached negated structure maps and middle-node structure
    __slots__ = ("delta", "partner", "middle", "inclusion", "projection",
                 "__dict__")

    @property
    def quotient(self):
        return self.delta.source

    @property
    def sub(self):
        return self.delta.target

    # -- covariant: Hom(G, sub) -> Hom(G, middle) -> Hom(G, quotient)
    #               -> Ext(G, sub) -> Ext(G, middle) -> Ext(G, quotient) --

    def co_hom_sub(self, f):
        check_morphism(f, self.partner, self.sub)
        return self.inclusion * f

    def co_hom_quot(self, h):
        check_morphism(h, self.partner, self.middle)
        return self.projection * h

    def co_connect(self, f):
        check_morphism(f, self.partner, self.quotient)
        return class_of(Biderivation(self.partner, self.sub,
                                     self.delta.matrix * f))

    def co_ext_middle(self, eta):
        _require_pair(eta, self.partner, self.sub)
        return class_of(Biderivation(self.partner, self.middle,
                                     self._minus_inclusion * eta.matrix))

    def co_ext_quot(self, xi):
        _require_pair(xi, self.partner, self.middle)
        return class_of(Biderivation(self.partner, self.quotient,
                                     self._minus_projection * xi.matrix))

    # -- contravariant: Hom(quotient, G) -> Hom(middle, G) -> Hom(sub, G)
    #                   -> Ext(quotient, G) -> Ext(middle, G) -> Ext(sub, G)

    def contra_hom_quot(self, g):
        check_morphism(g, self.quotient, self.partner)
        return g * self.projection

    def contra_hom_sub(self, h):
        check_morphism(h, self.middle, self.partner)
        return h * self.inclusion

    def contra_connect(self, g):
        check_morphism(g, self.sub, self.partner)
        return class_of(Biderivation(self.quotient, self.partner,
                                     g * self.delta.matrix))

    def contra_ext_middle(self, eta):
        _require_pair(eta, self.quotient, self.partner)
        return class_of(Biderivation(self.middle, self.partner,
                                     eta.matrix * self._minus_projection))

    def contra_ext_sub(self, xi):
        _require_pair(xi, self.middle, self.partner)
        return class_of(Biderivation(self.sub, self.partner,
                                     xi.matrix * self._minus_inclusion))

    @cached_property
    def _minus_inclusion(self):
        return -self.inclusion

    @cached_property
    def _minus_projection(self):
        return -self.projection

    # -- structures -----------------------------------------------------------

    @cached_property
    def _omega(self):
        return ext_structure(self.middle, self.partner)

    def omega_structure(self):
        """The Ext structure at the contravariant middle node
        Ext(middle, partner), computed once per bundle."""
        return self._omega

    def delta_block(self):
        """The lower-left block of the middle-node structure matrix: the
        connecting data mixing the quotient-side coordinates into the
        sub-side ones."""
        omega = self.omega_structure()
        n_first = sum(1 for (_r, c, _k) in omega.basis
                      if c == omega.basis[0][1])
        rows = tuple(range(n_first, omega.rank))
        cols = tuple(range(n_first))
        return omega.pi.submatrix(rows, cols)


def six_term(delta, partner):
    asm = assemble(delta)
    return SixTerm(delta, partner, asm.middle, asm.inclusion, asm.projection)
