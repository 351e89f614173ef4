"""Operations on extension classes: sums, actions, base change, splitness,
Hom spaces, and the six-term exact sequence of a short exact sequence.

Classes are represented by canonical biderivations wherever a reduction
regime applies; group operations reduce after combining, so equal classes
compare equal as values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .biderivations import (
    Biderivation,
    assemble,
    inner_matrix,
    reduce_canonical,
    select_regime,
)
from .errors import (
    InvariantViolation,
    NotAQthPower,
    UnboundedSearch,
    UnsupportedRegime,
)
from .modules_t import TModule, check_morphism
from .skewpoly import SkewMatrix, SkewPoly


def class_of(delta):
    """The canonical representative of the extension class."""
    return reduce_canonical(delta).canonical


def baer_sum(d1, d2):
    """The sum of extension classes, reduced to canonical form."""
    return class_of(d1 + d2)


def t_action(apoly, delta):
    """The action of a(t) on the class of delta: push out along the
    target's a-action and reduce."""
    psi_a = delta.target.act(apoly)
    return class_of(Biderivation(delta.source, delta.target,
                                 psi_a * delta.matrix))


def pullback(delta, g, gmod):
    """Restrict along a morphism g: gmod -> source."""
    check_morphism(g, gmod, delta.source)
    return Biderivation(gmod, delta.target, delta.matrix * g)


def pushout(delta, f, fmod):
    """Push forward along a morphism f: target -> fmod."""
    check_morphism(f, delta.target, fmod)
    return Biderivation(delta.source, fmod, f * delta.matrix)


# ---------------------------------------------------------------------------
# F_p-linear solving for bounded searches over finite coefficient fields.


def _fp_unknown_matrices(spec, var, nrows, ncols, bound):
    """Basis of the F_p-space of nrows x ncols matrices with entry degrees
    at most bound, one SkewMatrix per F_p-basis vector."""
    out = []
    for i in range(nrows):
        for j in range(ncols):
            for deg in range(bound + 1):
                for comp in range(spec.m):
                    c = spec.from_fp_coords(
                        [1 if t == comp else 0 for t in range(spec.m)])
                    mat = SkewMatrix.zeros(spec, var, nrows, ncols)
                    mat = mat.with_entry(
                        i, j, SkewPoly.term(spec, var, c, deg))
                    out.append(mat)
    return out


def _flatten(mat, keys):
    """Flatten a SkewMatrix into an F_p vector on the given coefficient
    positions (i, j, deg, component)."""
    vec = []
    for (i, j, deg, comp) in keys:
        vec.append(mat.entry(i, j).coefficient(deg).fp_coords()[comp])
    return vec


def _collect_keys(mats):
    keys = set()
    for mat in mats:
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                for deg, c in mat.entry(i, j).coeffs:
                    for comp, val in enumerate(c.fp_coords()):
                        if val:
                            keys.add((i, j, deg, comp))
    return sorted(keys)


def _fp_gauss(columns, rhs, p):
    """Solve sum_k x_k * columns[k] = rhs over F_p.

    Returns (particular solution or None, nullspace basis), each solution a
    list of ints of length len(columns).
    """
    ncols = len(columns)
    nrows = len(rhs) if rhs is not None else (len(columns[0]) if columns
                                              else 0)
    if columns:
        nrows = len(columns[0])
    rows = [[columns[k][r] % p for k in range(ncols)] for r in range(nrows)]
    b = [(rhs[r] % p) if rhs is not None else 0 for r in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if rows[r][col]), None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        b[row], b[sel] = b[sel], b[row]
        inv = pow(rows[row][col], p - 2, p)
        rows[row] = [(x * inv) % p for x in rows[row]]
        b[row] = (b[row] * inv) % p
        for r in range(nrows):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r],
                                                           rows[row])]
                b[r] = (b[r] - f * b[row]) % p
        pivots.append(col)
        row += 1
    # consistency
    particular = None
    consistent = all(b[r] == 0 for r in range(row, nrows))
    if consistent:
        particular = [0] * ncols
        for r, col in enumerate(pivots):
            particular[col] = b[r]
    free = [c for c in range(ncols) if c not in set(pivots)]
    null_basis = []
    for fcol in free:
        vec = [0] * ncols
        vec[fcol] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rows[r][fcol]) % p
        null_basis.append(vec)
    return particular, null_basis


def _combine(unknowns, coeffs, zero):
    """The sum of x*mat over the nonzero coeffs, or the caller's zero of the
    result shape when there are none (also when there are no unknowns)."""
    acc = None
    for mat, x in zip(unknowns, coeffs):
        if x:
            term = mat * x
            acc = term if acc is None else acc + term
    return zero if acc is None else acc


# ---------------------------------------------------------------------------
# Split testing.


@dataclass(frozen=True)
class SplitWitness:
    """The class splits: delta = delta^(witness)."""

    witness: SkewMatrix

    @property
    def kind(self):
        return "split"


@dataclass(frozen=True)
class NotSplit:
    """The class is nonzero; canonical is its reduced form when a regime
    applies, reason explains conclusions reached without one."""

    canonical: Biderivation | None
    reason: str

    @property
    def kind(self):
        return "not-split"


@dataclass(frozen=True)
class Inconclusive:
    """No witness with entry degrees up to bound; nothing larger was
    searched."""

    bound: int

    @property
    def kind(self):
        return "inconclusive"


def is_split(delta, bound=None):
    """Decide whether delta presents a split extension.

    With a reduction regime the answer is exact.  Without one (equal ranks),
    finite coefficient fields get a bounded witness search; elsewhere the
    test is inconclusive.
    """
    source, target = delta.source, delta.target
    try:
        regime = select_regime(source, target)
    except UnsupportedRegime:
        regime = None
    if regime is not None:
        try:
            reduced = reduce_canonical(delta, regime)
        except NotAQthPower as exc:
            return NotSplit(None, f"a forced witness coefficient has no "
                                  f"q-th root: {exc}")
        if reduced.canonical.is_zero():
            return SplitWitness(reduced.witness)
        return NotSplit(reduced.canonical, "nonzero canonical form")
    if source.spec.kind != "finite":
        return Inconclusive(0)
    if bound is None:
        bound = 2 * max(source.dim, target.dim)
    spec, var = source.spec, source.var
    unknowns = _fp_unknown_matrices(spec, var, target.dim, source.dim, bound)
    images = [inner_matrix(source, target, u) for u in unknowns]
    keys = _collect_keys(images + [delta.matrix])
    columns = [_flatten(img, keys) for img in images]
    rhs = _flatten(delta.matrix, keys)
    particular, _ = _fp_gauss(columns, rhs, spec.p)
    if particular is None:
        return Inconclusive(bound)
    witness = _combine(unknowns, particular, SkewMatrix.zeros(
        spec, var, target.dim, source.dim))
    if inner_matrix(source, target, witness) != delta.matrix:
        raise InvariantViolation("the solved split witness does not "
                                 "reproduce the biderivation")
    return SplitWitness(witness)


# ---------------------------------------------------------------------------
# Hom spaces.


@dataclass(frozen=True)
class HomSpace:
    """Morphisms source -> target: an F_p-basis of those found.

    complete=True means the basis is provably everything (here: the zero
    space shown empty by a rank argument).  Otherwise the basis spans all
    morphisms with entry degrees up to bound.
    """

    source: TModule
    target: TModule
    basis: tuple
    complete: bool
    bound: int | None

    @property
    def fp_dimension(self):
        return len(self.basis)


def _rank_certificate(source, target):
    """True when a degree comparison forces Hom(source, target) = 0."""
    if source.dim == 1 and target.dim == 1:
        if source.is_drinfeld and target.is_drinfeld:
            return source.rank != target.rank
        return False
    if source.dim == 1 and source.is_drinfeld and \
            target.is_lower_triangular() and target.diagonal_is_drinfeld():
        return all(nv != source.rank for nv in target.diagonal_ranks())
    if target.dim == 1 and target.is_drinfeld and \
            source.is_lower_triangular() and source.diagonal_is_drinfeld():
        return all(nj != target.rank for nj in source.diagonal_ranks())
    return False


def hom_space(source, target, bound=None):
    """Compute morphisms source -> target.

    A rank argument can certify the zero space exactly; otherwise a finite
    coefficient field gets a bounded-degree linear solve, and infinite
    domains raise UnboundedSearch.
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
    spec, var = source.spec, source.var
    unknowns = _fp_unknown_matrices(spec, var, target.dim, source.dim, bound)
    residuals = [f * source.t_matrix - target.t_matrix * f for f in unknowns]
    keys = _collect_keys(residuals)
    columns = [_flatten(r, keys) for r in residuals]
    _, null_basis = _fp_gauss(columns, None, spec.p)
    zero = SkewMatrix.zeros(spec, var, target.dim, source.dim)
    basis = tuple(_combine(unknowns, vec, zero) for vec in null_basis)
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


@dataclass(frozen=True)
class SixTerm:
    """Structure maps and induced maps of a short exact sequence.

    The sequence is 0 -> sub -> middle -> quotient -> 0 built from a
    biderivation delta (source = quotient, target = sub), probed against a
    partner module G.  Covariant maps act on Hom(G, -) and Ext(G, -);
    contravariant maps on Hom(-, G) and Ext(-, G).  Hom-level inputs are
    morphism matrices; Ext-level inputs and all outputs at Ext nodes are
    biderivations, returned in canonical form.
    """

    delta: Biderivation
    partner: TModule
    middle: TModule
    inclusion: SkewMatrix
    projection: SkewMatrix

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
                                     (-self.inclusion) * eta.matrix))

    def co_ext_quot(self, xi):
        _require_pair(xi, self.partner, self.middle)
        return class_of(Biderivation(self.partner, self.quotient,
                                     (-self.projection) * xi.matrix))

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
                                     eta.matrix * (-self.projection)))

    def contra_ext_sub(self, xi):
        _require_pair(xi, self.middle, self.partner)
        return class_of(Biderivation(self.sub, self.partner,
                                     xi.matrix * (-self.inclusion)))

    # -- structures -----------------------------------------------------------

    def omega_structure(self):
        """The Ext structure at the contravariant middle node
        Ext(middle, partner)."""
        from .ext_structures import ext_structure

        return ext_structure(self.middle, self.partner)

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
