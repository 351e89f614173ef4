"""Biderivations between t-modules and their reduction to canonical form.

A biderivation from a source module Phi (dimension s) to a target module Psi
(dimension d) is a d x s matrix delta of twisted polynomials; it presents the
extension whose t-action is the block matrix [[Phi_t, 0], [delta, Psi_t]].
The inner biderivations delta^(U) = U*Phi_t - Psi_t*U (U any d x s matrix)
present split extensions, and two biderivations present the same extension
class exactly when they differ by an inner one.

``reduce_canonical`` rewrites a biderivation as (canonical + inner witness)
for a family of module shapes where the canonical form is unique, so that
canonical forms are literal representatives of extension classes.

``select_regime`` names the shape of a module pair, and one table maps each
regime label to a reduction plan: layered or entrywise, plus an order of the
(row, col) entries.  A layered plan (matrix-source, carlitz-target) kills
whole top layers of the matrix with the inverse of the source's leading
matrix.  An entrywise plan reduces one entry at a time, killing its leading
coefficient against the higher of the two diagonal entries that meet there:
forward against the source's, reversed against the target's.  A step at
(row, col) changes only that row and that column, and the entry order puts
every such change on an entry not yet reduced.  The plan marks each entry
forward or reversed, layered entries forward (they divide by the source's
leading matrix); a pair whose entries are all forward has a t-module
structure on Ext (``ext_structures``).

``reduction_plan`` builds a ``ReductionPlan`` once per (source, target,
regime) and keeps it in a small memo keyed by the identity of the modules,
with the a(t)-actions of ``homological.t_action``, so class operations
between one pair select the regime once.  The memo holds at most MAX_MEMO
values and clears when full.

The plan fixes the canonical slots and drives one reduction, run over two
coefficient domains: the domain's own scalars for ``reduce_canonical``,
and linear forms in the canonical coordinates for the t-action on Ext
(``ext_structures``).  A step or layer that does not lower the degree it
works on, and an entry left with a coefficient outside the slots, are
InvariantViolations (a plan that does not fit the pair ends at once), and
``reduce_canonical`` checks by products that the canonical form and witness
recombine to the input (with the inner map of ``modules_t``); with the
uniqueness of the canonical form, a fault in the loops raises instead of
returning a wrong representative.  A reduction that took no step left an
empty witness and a grid equal to the input, which is that identity for a
zero witness, so the input itself is returned.
"""

from __future__ import annotations

from .coefficients import SlottedValue, _Additive, _count
from .errors import (
    CarrierTooLarge,
    InvariantViolation,
    MixedPairs,
    SingularLeading,
    UnsupportedRegime,
)
from .modules_t import TModule, _inner_into
from .skewpoly import (
    SkewMatrix,
    _add_into,
    _from_maps,
    _matmul_into,
    twist_sign,
)

DRINFELD_FORWARD = "drinfeld-forward"
DRINFELD_REVERSED = "drinfeld-reversed"
MATRIX_SOURCE = "matrix-source"
TRIANGULAR_SOURCE = "triangular-source"
CARLITZ_TARGET = "carlitz-target"
TRIANGULAR_TARGET_REVERSED = "triangular-target-reversed"
DIAGONAL_PAIRS = "diagonal-pairs"


class Biderivation(_Additive, SlottedValue):
    __slots__ = ("source", "target", "matrix")

    def __post_init__(self):
        src, tgt, mat = self.source.t_matrix, self.target.t_matrix, self.matrix
        if self.source.spec is not self.target.spec or \
                mat.spec is not self.source.spec:
            raise MixedPairs("biderivation data over mixed domains")
        if src.var != tgt.var or mat.var != src.var:
            raise MixedPairs("biderivation data over mixed twisted variables")
        shape = (len(mat.entries), len(mat.entries[0]))
        want = (len(tgt.entries), len(src.entries))
        if shape != want:
            raise MixedPairs(
                f"a biderivation here is a {want[0]}x{want[1]} matrix, got "
                f"{shape[0]}x{shape[1]}")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, SkewMatrix.zeros(
            source.spec, source.var, target.dim, source.dim))

    def is_zero(self):
        return self.matrix.is_zero()

    def __add__(self, other):
        if not isinstance(other, Biderivation):
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            raise MixedPairs("biderivations between different module pairs")
        return Biderivation(self.source, self.target,
                            self.matrix + other.matrix)

    def __neg__(self):
        return Biderivation(self.source, self.target, -self.matrix)


# ---------------------------------------------------------------------------
# Extension assembly.


class Assembly(SlottedValue):
    """The extension module of a biderivation with its structure maps.

    The middle module has t-action [[Phi_t, 0], [delta, Psi_t]]; inclusion
    embeds the target as the lower block and projection maps onto the
    source coordinates, giving 0 -> target -> middle -> source -> 0.
    """

    __slots__ = ("middle", "inclusion", "projection")


def assemble(delta):
    source, target = delta.source, delta.target
    spec, var = source.spec, source.var
    s, d = source.dim, target.dim
    gamma = SkewMatrix.block([
        [source.t_matrix, SkewMatrix.zeros(spec, var, s, d)],
        [delta.matrix, target.t_matrix],
    ])
    inclusion = SkewMatrix.block([
        [SkewMatrix.zeros(spec, var, s, d)],
        [SkewMatrix.identity(spec, var, d)],
    ])
    projection = SkewMatrix.block([
        [SkewMatrix.identity(spec, var, s), SkewMatrix.zeros(spec, var, s, d)],
    ])
    return Assembly(TModule(spec, gamma), inclusion, projection)


# ---------------------------------------------------------------------------
# Regime selection.


def select_regime(source, target):
    """Choose the reduction strategy for the module pair, or explain why
    none applies."""
    if source.spec is not target.spec:
        raise MixedPairs("source and target over different domains")
    if source.var != target.var:
        raise MixedPairs("source and target over different twisted variables")

    if source.dim == 1 and target.dim == 1:
        if source.is_drinfeld and target.is_drinfeld:
            n, m = source.rank, target.rank
            if n > m:
                return DRINFELD_FORWARD
            if n < m:
                return DRINFELD_REVERSED
            raise UnsupportedRegime(
                "equal-rank pairs have no unique canonical form here; "
                "use the split test or a bounded search instead")
        raise UnsupportedRegime(
            "dimension-one reduction needs Drinfeld modules on both sides")

    if target.is_drinfeld and source.dim > 1:
        m = target.rank
        if source.rank > m and source.has_invertible_leading():
            return MATRIX_SOURCE
        ranks = source.drinfeld_ranks
        if ranks and min(ranks) > m:
            return TRIANGULAR_SOURCE
        raise UnsupportedRegime(
            "the source must have an invertible leading matrix of rank above "
            "the target's, or be lower triangular with diagonal ranks above "
            "the target's")

    if target.is_carlitz_power() and target.dim >= 2:
        if source.rank >= 2 and source.has_invertible_leading():
            return CARLITZ_TARGET
        raise UnsupportedRegime(
            "reduction into a Carlitz tensor power needs a source of rank "
            "at least 2 with invertible leading matrix")

    if source.is_drinfeld and target.dim > 1:
        ranks = target.drinfeld_ranks
        if ranks and min(ranks) > source.rank:
            return TRIANGULAR_TARGET_REVERSED
        raise UnsupportedRegime(
            "a higher-dimensional target must be lower triangular with "
            "diagonal ranks above the source's rank")

    src, tgt = source.drinfeld_ranks, target.drinfeld_ranks
    if source.is_diagonal() and target.is_diagonal() and src and tgt:
        if not set(src) & set(tgt):
            return DIAGONAL_PAIRS
        raise UnsupportedRegime(
            "diagonal pairs need every source rank different from every "
            "target rank")

    raise UnsupportedRegime(
        f"no reduction strategy for a {source.dim}-dimensional source of "
        f"rank {source.rank} and a {target.dim}-dimensional target of rank "
        f"{target.rank}")


# ---------------------------------------------------------------------------
# Reduction plans: how each regime reaches its canonical form, and a memo.


# regime -> (layered?, order of the (row, col) entries).  On a one-column
# matrix, column-major order runs down column 0 with rows ascending.
_PLANS = {
    DRINFELD_FORWARD: (False, "column-major"),
    DRINFELD_REVERSED: (False, "column-major"),
    MATRIX_SOURCE: (True, "row-major"),
    TRIANGULAR_SOURCE: (False, "row-zero-leftward"),
    CARLITZ_TARGET: (True, "row-major"),
    TRIANGULAR_TARGET_REVERSED: (False, "column-major"),
    DIAGONAL_PAIRS: (False, "column-major"),
}

# At most MAX_MEMO values (plans, a(t)-actions) stay in the memo, which
# clears when full; canonical_slots builds at most MAX_CANONICAL_SLOTS,
# ext_structure a Pi_t of at most MAX_PI_ENTRIES (rank^2) entries, and
# _reduce_maps starts no reduction that calls for over MAX_REDUCTION_STEPS.
MAX_MEMO = 64
MAX_CANONICAL_SLOTS = 2 ** 10
MAX_PI_ENTRIES = 2 ** 16
MAX_REDUCTION_STEPS = 2 ** 16
_memo = {}


def _memoized(key, objs, build):
    """build(), kept under key, which names the objects objs by id.  A hit
    must find objs again by identity, so a recycled id never serves another
    object's value; what build raises is not kept."""
    hit = _memo.get(key)
    if hit is not None and all(a is b for a, b in zip(hit[0], objs)):
        return hit[1]
    value = build()
    if len(_memo) >= MAX_MEMO:
        _memo.clear()
    _memo[key] = objs, value
    return value


class ReductionPlan(SlottedValue):
    """What a reduction between one module pair reads besides the
    biderivation; shared, so read only.  entries are (row, col, bound,
    forward, lead) in reduction order: an entry keeps degrees below bound,
    and an entrywise plan kills its leading coefficient against lead, the
    payload of the source's diagonal entry if forward, else the target's.
    A forward entry divides only by source data; layered entries are
    forward, with lead None.
    phi, psi and lead_inv are grids of the stored (degree, payload) pairs
    of their entries."""

    __slots__ = ("regime", "layered", "entries", "sign", "phi", "psi",
                 "lead_inv")  # lead_inv: None unless layered


def reduction_plan(source, target, regime=None):
    """The plan of regime (by default the pair's, from select_regime),
    built once per (source, target, regime) while the memo keeps it."""
    return _memoized((id(source), id(target), regime), (source, target),
                     lambda: _build_plan(source, target, regime))


def _build_plan(source, target, regime):
    """The plan's entries in order; an entry is forward when it divides by
    the source: every entry of a layered plan, and an entrywise one whose
    source diagonal entry is at least as high as the target's."""
    if regime is None:
        regime = select_regime(source, target)
    if regime not in _PLANS:
        raise UnsupportedRegime(f"unknown regime {regime!r}")
    layered, how = _PLANS[regime]
    src, tgt = source.t_matrix, target.t_matrix
    rows, cols = range(target.dim), range(source.dim)
    order = {"column-major": [(r, c) for c in cols for r in rows],
             "row-major": [(r, c) for r in rows for c in cols],
             "row-zero-leftward": [(0, c) for c in reversed(cols)]}[how]
    entries = []
    for r, c in order:
        if layered:
            entries.append((r, c, source.rank, True, None))
            continue
        # the higher of the two diagonal entries that meet at (r, c)
        forward = src.entry(c, c).degree >= tgt.entry(r, r).degree
        pivot = src.entry(c, c) if forward else tgt.entry(r, r)
        bound, lead = pivot._pairs[-1]
        entries.append((r, c, bound, forward, lead))
    lead_inv = None
    if layered:
        if source.leading_inverse is None:
            raise SingularLeading("matrix is singular")
        lead_inv = SkewMatrix.from_const(source.spec, source.var,
                                         source.leading_inverse)._pairs
    return ReductionPlan(regime, layered, tuple(entries),
                         twist_sign(source.var), src._pairs, tgt._pairs,
                         lead_inv)


def canonical_slots(source, target, regime=None):
    """The free positions of the canonical form, in basis order.  A slot
    (row, col, deg) addresses the coefficient of var^deg in the matrix
    entry at (row, col).  Over MAX_CANONICAL_SLOTS raises CarrierTooLarge."""
    entries = reduction_plan(source, target, regime).entries
    count = sum(e[2] for e in entries)
    if count > MAX_CANONICAL_SLOTS:
        raise CarrierTooLarge(f"{_count(count)} canonical slots exceed "
                              f"MAX_CANONICAL_SLOTS = {MAX_CANONICAL_SLOTS}")
    return tuple((r, c, k) for r, c, bound, _, _ in entries
                 for k in range(bound))


# ---------------------------------------------------------------------------
# The two reduction loops.  Both work in place on a grid of accumulator maps
# {degree: payload} (the biderivation's stored pairs, which become the
# canonical form) and on the witness maps, with an ops object arith: the
# domain's own for canonical forms, or ext_structures' form domain for
# Pi_t.  The loops add, negate and twist payloads and multiply them only by
# scalars (the stored payloads of Phi_t, Psi_t and the inverse leading
# matrix, and the inverted leading coefficients), so one loop serves both.


def _degree(acc, is_zero):
    """The degree of an accumulator, dropping the zeros at its top."""
    while acc:
        d = max(acc)
        if not is_zero(acc[d]):
            return d
        del acc[d]
    return -1


def _step(arith, phi, psi, grid, witness, r, c, k, a, s):
    """Add u = a*v^k to the witness at (r, c) and subtract delta^(u) =
    u*Phi - Psi*u, which touches only row r and column c, from the grid;
    phi and psi are the pair grids of Phi_t and Psi_t.  The one-term
    products go straight into the accumulators: (-a v^k)(y v^j) =
    -a y^(q^(s k)) v^(k+j) along row r, and (x v^i)(a v^k) =
    x a^(q^(s i)) v^(i+k) down column c."""
    add, mul, twist = arith.add, arith.mul, arith.twist
    minus_a, sk = arith.neg(a), s * k
    for acc, pairs in zip(grid[r], phi[c]):
        for j, y in pairs:
            t = mul(minus_a, twist(y, sk))
            cur = acc.get(j + k)
            acc[j + k] = t if cur is None else add(cur, t)
    for row, psi_row in zip(grid, psi):
        acc = row[c]
        for i, x in psi_row[r]:
            t = mul(x, twist(a, s * i))
            cur = acc.get(i + k)
            acc[i + k] = t if cur is None else add(cur, t)
    _add_into(arith, witness[r][c], ((k, a),))


def _reduce_layered(arith, plan, grid, witness):
    sign, phi, psi, twist = plan.sign, plan.phi, plan.psi, arith.twist
    n = plan.entries[0][2]  # every entry's bound: the source's rank
    last = None
    while True:
        deg = max(_degree(acc, arith.is_zero) for row in grid for acc in row)
        if deg < n:
            return
        if last is not None and deg >= last:
            raise InvariantViolation(f"the plan does not fit the pair: a "
                                     f"layer left the top degree at {deg}")
        last = deg
        k = deg - n
        # the top layer times the twisted inverse leading matrix
        top = [[[(0, acc[deg])] if deg in acc else [] for acc in row]
               for row in grid]
        ainv = [[[(0, twist(x, sign * k)) for _, x in e] for e in row]
                for row in plan.lead_inv]
        coeffs = [[{} for _ in phi] for _ in grid]
        _matmul_into(arith, coeffs, top, ainv, sign)
        for r, row in enumerate(coeffs):
            for c, acc in enumerate(row):
                if 0 in acc and not arith.is_zero(acc[0]):
                    _step(arith, phi, psi, grid, witness, r, c, k, acc[0],
                          sign)


def _reduce_entrywise(arith, plan, grid, witness):
    sign, phi, psi = plan.sign, plan.phi, plan.psi
    for r, c, bound, forward, lead in plan.entries:
        acc, last = grid[r][c], None
        while (deg := _degree(acc, arith.is_zero)) >= bound:
            if last is not None and deg >= last:
                raise InvariantViolation(f"the plan does not fit the pair: a "
                                         f"step left entry {(r, c)} at degree "
                                         f"{deg}")
            last = deg
            a = acc[deg]
            k = deg - bound
            if forward:  # a / lead^(q^(sign k))
                a = arith.mul(a, arith.inv(arith.twist(lead, sign * k)))
            else:  # (-a / lead)^(q^(-sign bound))
                a = arith.twist(arith.mul(arith.neg(a), arith.inv(lead)),
                                -sign * bound)
            _step(arith, phi, psi, grid, witness, r, c, k, a, sign)


def _reduce_maps(arith, plan, grid):
    """Reduce the accumulator grid of a biderivation in place by the plan;
    return the witness maps.  Raises CarrierTooLarge before the first step
    when the entries call for more than MAX_REDUCTION_STEPS (the sum of
    deg - bound + 1), and InvariantViolation when an entry keeps a
    coefficient outside the canonical slots."""
    steps = 0
    for r, c, bound, _, _ in plan.entries:
        if (deg := _degree(grid[r][c], arith.is_zero)) >= bound:
            steps += deg - bound + 1
    if steps > MAX_REDUCTION_STEPS:
        raise CarrierTooLarge(f"{_count(steps)} reduction steps exceed "
                              f"MAX_REDUCTION_STEPS = {MAX_REDUCTION_STEPS}")
    witness = [[{} for _ in plan.phi] for _ in plan.psi]
    loop = _reduce_layered if plan.layered else _reduce_entrywise
    loop(arith, plan, grid, witness)
    for r, c, bound, _, _ in plan.entries:
        if (deg := _degree(grid[r][c], arith.is_zero)) >= bound:
            raise InvariantViolation(
                f"reduction left a coefficient outside the canonical slots "
                f"at {(r, c, deg)}")
    return witness


def _holds(arith, accs, pairs):
    """Whether the grid of accumulators holds, zeros aside, the grid of
    stored pairs."""
    return all({d: c for d, c in acc.items() if not arith.is_zero(c)}
               == dict(want)
               for acc_row, want_row in zip(accs, pairs)
               for acc, want in zip(acc_row, want_row))


def _recombines(arith, plan, pairs, witness, canonical):
    """Whether canonical + (W*Phi - Psi*W) == delta for the witness W,
    summed from the stored pairs with one accumulator per entry and
    compared with delta's stored pairs."""
    accs = [[dict(e) for e in row] for row in canonical._pairs]
    _inner_into(arith, accs, witness._pairs, plan.phi, plan.psi, plan.sign)
    return _holds(arith, accs, pairs)


# ---------------------------------------------------------------------------
# Top-level reduction.


class ReductionResult(SlottedValue):
    __slots__ = ("canonical", "witness", "regime")


def reduce_canonical(delta, regime=None):
    """Rewrite delta as canonical + delta^(witness) with the canonical form
    unique in its extension class."""
    source, target = delta.source, delta.target
    plan = reduction_plan(source, target, regime)
    spec, var, arith = source.spec, source.var, source.spec._arith
    pairs = delta.matrix._pairs
    grid = [[dict(e) for e in row] for row in pairs]
    witness = _reduce_maps(arith, plan, grid)
    if not any(any(row) for row in witness) and _holds(arith, grid, pairs):
        # no step was taken: with the witness zero, the recombination
        # identity delta - delta^(0) = canonical is the check just made
        return ReductionResult(delta, SkewMatrix.zeros(
            spec, var, target.dim, source.dim), plan.regime)
    canonical = _from_maps(spec, var, grid)
    witness = _from_maps(spec, var, witness)
    if not _recombines(arith, plan, pairs, witness, canonical):
        raise InvariantViolation("reduction self-check failed: the "
                                 "canonical form and witness do not "
                                 "recombine to the input")
    return ReductionResult(Biderivation(source, target, canonical), witness,
                           plan.regime)
