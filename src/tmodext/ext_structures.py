"""t-module structures on Ext groups.

For module pairs whose reduction regime is forward (the source outranks the
target), the canonical forms of biderivations make the Ext group a free
module over the coefficient domain with an explicit finite basis, and the
action of t on extension classes is itself given by a square matrix Pi_t of
twisted polynomials: acting on a class with coordinates (c_1, ..., c_r)
yields coordinates ``new[i] = sum_j Pi_t[i][j](c_j)``, each entry applied as
a twisting operator.

Pi_t is computed exactly by re-running the reduction with symbolic
coordinates: every matrix coefficient is carried as a semilinear form
``c_j -> sum_i w_i * c_j.twist(eps*i)`` ("trackers"), and forward reduction
steps only scale and shift trackers, never invert the twist, so the result
converts back to twisted polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .biderivations import (
    DIAGONAL_PAIRS,
    FORWARD_REGIMES,
    Biderivation,
    canonical_slots,
    reduce_canonical,
    reduction_plan,
    select_regime,
)
from .errors import InvariantViolation, UnsupportedRegime
from .modules_t import TModule, tmodule
from .skewpoly import (
    SkewMatrix,
    SkewPoly,
    const_inverse,
    const_twist,
    twist_sign,
)


# ---------------------------------------------------------------------------
# Tracked polynomials: coefficients are semilinear forms in named slots.
#
# A tracker {i: w_i} stands for the map c -> sum_i w_i * c.twist(sign*i);
# a linear form {slot: tracker} stands for the sum of trackers applied to
# the coordinates named by the slots.


def _lf_add(lf1, lf2):
    out = {slot: dict(tr) for slot, tr in lf1.items()}
    for slot, tr in lf2.items():
        dst = out.setdefault(slot, {})
        for i, w in tr.items():
            cur = dst.get(i)
            cur = w if cur is None else cur + w
            if cur:
                dst[i] = cur
            else:
                dst.pop(i, None)
        if not dst:
            out.pop(slot, None)
    return out


def _lf_scale(lf, e):
    if not e:
        return {}
    return {slot: {i: w * e for i, w in tr.items()}
            for slot, tr in lf.items()}


def _lf_twist_shift(lf, j, sign):
    """The form for s(c).twist(j): tracker keys move by sign*j and weights
    twist by j."""
    return {slot: {i + sign * j: w.twist(j) for i, w in tr.items()}
            for slot, tr in lf.items()}


class _Tracked:
    """A twisted polynomial with semilinear-form coefficients."""

    __slots__ = ("spec", "var", "coeffs")

    def __init__(self, spec, var, coeffs=None):
        self.spec = spec
        self.var = var
        self.coeffs = coeffs or {}

    @classmethod
    def zero(cls, spec, var):
        return cls(spec, var)

    @classmethod
    def basis(cls, spec, var, slot, deg):
        return cls(spec, var, {deg: {slot: {0: spec.one()}}})

    @classmethod
    def from_linform(cls, spec, var, lf, deg):
        return cls(spec, var, {deg: lf} if lf else {})

    @property
    def sign(self):
        return twist_sign(self.var)

    @property
    def top_degree(self):
        return max(self.coeffs, default=-1)

    def linform(self, deg):
        return self.coeffs.get(deg, {})

    def add(self, other):
        out = dict(self.coeffs)
        for deg, lf in other.coeffs.items():
            merged = _lf_add(out.get(deg, {}), lf)
            if merged:
                out[deg] = merged
            else:
                out.pop(deg, None)
        return _Tracked(self.spec, self.var, out)

    def neg(self):
        return self.scale(-self.spec.one())

    def scale(self, e):
        out = {}
        for deg, lf in self.coeffs.items():
            scaled = _lf_scale(lf, e)
            if scaled:
                out[deg] = scaled
        return _Tracked(self.spec, self.var, out)

    def lmul_term(self, a, j):
        """(a * var^j) * self: the form twists by sign*j (so tracker keys
        move by +j in either variable) and degrees shift by j."""
        if not a:
            return _Tracked(self.spec, self.var)
        s = self.sign
        out = {}
        for deg, lf in self.coeffs.items():
            shifted = _lf_scale(_lf_twist_shift(lf, s * j, s), a)
            if shifted:
                out[deg + j] = shifted
        return _Tracked(self.spec, self.var, out)

    def lmul_poly(self, p):
        acc = _Tracked(self.spec, self.var)
        for j, a in p.coeffs:
            acc = acc.add(self.lmul_term(a, j))
        return acc

    def rmul_term(self, b, l):
        """self * (b * var^l)."""
        if not b:
            return _Tracked(self.spec, self.var)
        s = self.sign
        out = {}
        for deg, lf in self.coeffs.items():
            scaled = _lf_scale(lf, b.twist(s * deg))
            if scaled:
                out[deg + l] = scaled
        return _Tracked(self.spec, self.var, out)

    def rmul_poly(self, p):
        acc = _Tracked(self.spec, self.var)
        for l, b in p.coeffs:
            acc = acc.add(self.rmul_term(b, l))
        return acc


def _t_zeros(spec, var, nrows, ncols):
    return [[_Tracked.zero(spec, var) for _ in range(ncols)]
            for _ in range(nrows)]


def _t_lmul_skew(mat, tracked):
    """Concrete SkewMatrix times tracked matrix."""
    spec, var = mat.spec, mat.var
    out = _t_zeros(spec, var, mat.nrows, len(tracked[0]))
    for i in range(mat.nrows):
        for j in range(len(tracked[0])):
            acc = _Tracked.zero(spec, var)
            for k in range(mat.ncols):
                acc = acc.add(tracked[k][j].lmul_poly(mat.entry(i, k)))
            out[i][j] = acc
    return out


# ---------------------------------------------------------------------------
# Tracked reduction: the two loops of the reduction plans, for forward
# regimes only, so that every solve only scales trackers.


def _t_step(source, target, tracked, r, c, u):
    """Subtract delta^(u) = u*Phi - Psi*u for u alone at (r, c): only row r
    and column c change.  Each changed entry's share is summed before it is
    subtracted, as in a matrix product: subtracting term by term builds
    more weights by addition, which costs memory with dense F_q(th)
    numerators."""
    inner = {(r, l): u.rmul_poly(p)
             for l, p in enumerate(source.t_matrix.entries[c]) if p}
    for w, psi_row in enumerate(target.t_matrix.entries):
        if psi_row[r]:
            term = u.lmul_poly(psi_row[r]).neg()
            inner[w, c] = inner[w, c].add(term) if (w, c) in inner else term
    for (i, j), part in inner.items():
        tracked[i][j] = tracked[i][j].add(part.neg())


def _t_reduce_layered(source, target, tracked):
    spec, var = source.spec, source.var
    sign = twist_sign(var)
    n = source.rank
    lead_inv = const_inverse(source.leading_matrix())
    d = source.dim
    while True:
        deg = max(e.top_degree for row in tracked for e in row)
        if deg < n:
            return
        k = deg - n
        ainv = const_twist(lead_inv, sign * k)
        u = _t_zeros(spec, var, len(tracked), d)
        for w in range(len(tracked)):
            for j in range(d):
                lf = {}
                for l in range(d):
                    lf = _lf_add(lf, _lf_scale(tracked[w][l].linform(deg),
                                               ainv[l][j]))
                u[w][j] = _Tracked.from_linform(spec, var, lf, k)
        for w, row in enumerate(u):
            for j, uwj in enumerate(row):
                if uwj.coeffs:
                    _t_step(source, target, tracked, w, j, uwj)


def _t_reduce_entrywise(source, target, entries, tracked):
    spec, var = source.spec, source.var
    sign = twist_sign(var)
    for r, c in entries:
        n, lead = source.t_matrix.entry(c, c).leading()
        while tracked[r][c].top_degree >= n:
            deg = tracked[r][c].top_degree
            k = deg - n
            lf = _lf_scale(tracked[r][c].linform(deg),
                           lead.twist(sign * k).inverse())
            _t_step(source, target, tracked, r, c,
                    _Tracked.from_linform(spec, var, lf, k))


# ---------------------------------------------------------------------------
# The structure object.


@dataclass(frozen=True)
class ExtStructure:
    """The Ext group of a module pair as a t-module in coordinates.

    ``basis`` lists the free coefficient slots (row, col, deg) of the
    canonical form, and ``pi`` is the matrix of the t-action in those
    coordinates: t sends coordinates c to ``new[i] = sum_j pi[i][j](c_j)``
    with entries applied as twisting operators.
    """

    source: TModule
    target: TModule
    regime: str
    basis: tuple
    pi: SkewMatrix

    @property
    def spec(self):
        return self.source.spec

    @property
    def var(self):
        return self.source.var

    @property
    def rank(self):
        return len(self.basis)

    def module(self):
        """The Ext group as a t-module (validates theta*I + nilpotent)."""
        return tmodule(self.spec, self.pi)

    def nilpotent_part(self):
        return self.module().nilpotent_part()

    # -- coordinates ----------------------------------------------------------

    def coords_of(self, delta):
        """Coordinates of the class of a biderivation."""
        reduced = reduce_canonical(delta, self.regime)
        mat = reduced.canonical.matrix
        return tuple(mat.entry(r, c).coefficient(k)
                     for (r, c, k) in self.basis)

    def from_coords(self, coords):
        grids = [[dict() for _ in range(self.source.dim)]
                 for _ in range(self.target.dim)]
        for (r, c, k), value in zip(self.basis, coords):
            if value:
                grids[r][c][k] = value
        rows = [[SkewPoly.from_pairs(self.spec, self.var,
                                     list(grids[r][c].items()))
                 for c in range(self.source.dim)]
                for r in range(self.target.dim)]
        return Biderivation(self.source, self.target,
                            SkewMatrix.from_rows(self.spec, self.var, rows))

    def basis_delta(self, index):
        coords = [self.spec.zero()] * self.rank
        coords[index] = self.spec.one()
        return self.from_coords(coords)

    def act_coords(self, coords):
        """Apply t to a coordinate vector through pi."""
        return tuple(
            sum((self.pi.entry(i, j).eval_linear(coords[j])
                 for j in range(1, self.rank)),
                self.pi.entry(i, 0).eval_linear(coords[0]))
            for i in range(self.rank))

    def to_json(self):
        return {
            "regime": self.regime,
            "basis": [list(slot) for slot in self.basis],
            "pi_t": self.pi.to_json(),
        }


def ext_structure(source, target, regime=None):
    """Compute the t-module structure on Ext(source, target)."""
    if regime is None:
        regime = select_regime(source, target)
    if regime not in FORWARD_REGIMES:
        raise UnsupportedRegime(
            f"the t-module structure is only computed for forward regimes, "
            f"not {regime!r}; reversed pairs still have canonical forms and "
            f"a split test, and their structure is available on the adjoint "
            f"side")
    spec, var = source.spec, source.var
    basis = canonical_slots(source, target, regime)
    index = {slot: a for a, slot in enumerate(basis)}
    tracked = _t_zeros(spec, var, target.dim, source.dim)
    for slot in basis:
        r, c, k = slot
        tracked[r][c] = tracked[r][c].add(
            _Tracked.basis(spec, var, slot, k))
    acted = _t_lmul_skew(target.t_matrix, tracked)  # reduced in place
    layered, entries = reduction_plan(source, target, regime)
    if layered:
        _t_reduce_layered(source, target, acted)
    else:
        _t_reduce_entrywise(source, target, entries, acted)

    zero = SkewPoly.zero(spec, var)
    grid = [[zero for _ in range(len(basis))] for _ in range(len(basis))]
    for r in range(target.dim):
        for c in range(source.dim):
            for deg, lf in acted[r][c].coeffs.items():
                if not lf:
                    continue
                out_slot = (r, c, deg)
                if out_slot not in index:
                    raise InvariantViolation(
                        f"tracked reduction left a coefficient outside the "
                        f"canonical slots at {out_slot}")
                a = index[out_slot]
                for slot, tracker in lf.items():
                    b = index[slot]
                    if any(i < 0 for i in tracker):
                        raise InvariantViolation(
                            "tracked reduction produced a negative twist "
                            "index in a forward regime")
                    grid[a][b] = SkewPoly.from_pairs(
                        spec, var, list(tracker.items()))
    pi = SkewMatrix.from_rows(spec, var, grid)
    structure = ExtStructure(source, target, regime, basis, pi)
    structure.module()  # validates theta*I + nilpotent
    return structure


def duality_transport(source, target):
    """The opposite-variable structure carried by Ext(source, target).

    Ext on one variable is isomorphic to Ext of the adjoint modules, in the
    opposite order, on the other variable.  For a reversed pair (source rank
    below target rank) the swapped adjoint pair is forward, so this is where
    a reversed pair's t-module structure lives."""
    return ext_structure(target.adjoint(), source.adjoint())


def ext_product(sources, targets):
    """The structure on Ext(diag(sources), diag(targets)) when every pair
    (source_i, target_j) is forward, assembled blockwise from the pairwise
    structures."""
    if not sources or not targets:
        raise UnsupportedRegime("the product needs at least one module on "
                                "each side")
    spec, var = sources[0].spec, sources[0].var
    for mod in list(sources) + list(targets):
        if mod.dim != 1 or not mod.is_drinfeld:
            raise UnsupportedRegime(
                "the product construction takes dimension-one Drinfeld "
                "modules")
    pairwise = {}
    for i, src in enumerate(sources):
        for j, tgt in enumerate(targets):
            if src.rank <= tgt.rank:
                raise UnsupportedRegime(
                    f"pair ({i}, {j}) is not forward: source rank "
                    f"{src.rank} <= target rank {tgt.rank}")
            pairwise[(i, j)] = ext_structure(src, tgt)

    def diag(mods):
        d = len(mods)
        zero = SkewPoly.zero(spec, var)
        return tmodule(spec, SkewMatrix.from_rows(spec, var, [
            [mods[i].scalar_poly() if i == j else zero for j in range(d)]
            for i in range(d)]))

    big_source = diag(list(sources))
    big_target = diag(list(targets))
    basis = canonical_slots(big_source, big_target, DIAGONAL_PAIRS)
    index = {slot: a for a, slot in enumerate(basis)}
    r = len(basis)
    zero = SkewPoly.zero(spec, var)
    grid = [[zero] * r for _ in range(r)]
    for (i, j), st in pairwise.items():
        offsets = [index[(j, i, k)] for k in range(sources[i].rank)]
        for a_local, a_global in enumerate(offsets):
            for b_local, b_global in enumerate(offsets):
                grid[a_global][b_global] = st.pi.entry(a_local, b_local)
    pi = SkewMatrix.from_rows(spec, var, grid)
    structure = ExtStructure(big_source, big_target, DIAGONAL_PAIRS, basis,
                             pi)
    structure.module()
    return structure


# ---------------------------------------------------------------------------
# The trivial-quotient sequence of a structure.


@dataclass(frozen=True)
class GaSequence:
    """The short exact sequence splitting off the scalar part of an Ext
    structure: rows of pi equal to theta*e_r are "pure"; they map onto a
    trivial module, and the complementary principal block is the
    sub-t-module."""

    structure: ExtStructure
    pure: tuple
    g: SkewMatrix | None
    inclusion: SkewMatrix | None
    sub_pi: SkewMatrix | None

    @property
    def s(self):
        return len(self.pure)

    def quotient(self):
        from .modules_t import trivial

        if not self.pure:
            return None
        return trivial(self.structure.spec, len(self.pure),
                       self.structure.var)

    def to_json(self):
        return {
            "s": self.s,
            "pure": [list(self.structure.basis[i]) for i in self.pure],
            "g": self.g.to_json() if self.g is not None else None,
            "inclusion": (self.inclusion.to_json()
                          if self.inclusion is not None else None),
            "pi0": self.sub_pi.to_json() if self.sub_pi is not None else None,
        }


def ga_sequence(structure):
    spec, var = structure.spec, structure.var
    r = structure.rank
    theta = SkewPoly.const(spec, var, spec.theta())
    zero = SkewPoly.zero(spec, var)
    pure = []
    for a in range(r):
        row = structure.pi.entries[a]
        if all(row[b] == (theta if b == a else zero) for b in range(r)):
            pure.append(a)
    pure = tuple(pure)
    rest = tuple(a for a in range(r) if a not in pure)
    one = SkewPoly.const(spec, var, 1)
    g = None
    if pure:
        g = SkewMatrix.from_rows(spec, var, [
            [one if b == a else zero for b in range(r)] for a in pure])
    inclusion = None
    sub_pi = None
    if rest:
        inclusion = SkewMatrix.from_rows(spec, var, [
            [one if rest[c] == a else zero for c in range(len(rest))]
            for a in range(r)])
        sub_pi = structure.pi.submatrix(rest, rest)
    return GaSequence(structure, pure, g, inclusion, sub_pi)
