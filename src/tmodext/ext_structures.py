"""t-module structures on Ext groups.

For module pairs whose reduction plan is forward at every entry (each entry
divides by the source's data, as when the source outranks the target; see
``biderivations``), the canonical forms of biderivations make the Ext group
a free module over the coefficient domain with an explicit finite basis, and
the action of t on extension classes is itself given by a square matrix
Pi_t of twisted polynomials: acting on a class with coordinates (c_1, ...,
c_r) yields coordinates ``new[i] = sum_j Pi_t[i][j](c_j)``, each entry
applied as a twisting operator.  Direct sums of Drinfeld modules are one
such pair: their diagonal pair is reduced like any other.

Pi_t comes from the reduction that gives canonical forms, run over a
second coefficient domain: Psi_t times the generic canonical form is
reduced with every matrix coefficient a semilinear form
``sum w * c_slot.twist(eps*i)`` in the coordinates c_slot, held as a map
``{(slot, i): w}`` of payloads (``_FormOps``).  Forward reduction steps
only add forms, scale them by scalars and twist them, shifting their twist
indices up; they never invert a form, so the reduced forms read back as
twisted polynomials: the weights at (slot, i) are the coefficients of var^i
in one entry of Pi_t.  Pi_t stores the weights as they are, so no field
element is built.
"""

from __future__ import annotations

from .biderivations import (
    DIAGONAL_PAIRS,
    MAX_PI_ENTRIES,
    Biderivation,
    _reduce_maps,
    canonical_slots,
    reduce_canonical,
    reduction_plan,
)
from .coefficients import SlottedValue
from .errors import CarrierTooLarge, InvariantViolation, UnsupportedRegime
from .modules_t import tmodule, trivial
from .skewpoly import SkewMatrix, SkewPoly, _from_maps, _matmul_into


# ---------------------------------------------------------------------------
# The form domain: Pi_t is the shared reduction run over linear forms.


class _FormOps:
    """An ops object for the reduction loops whose payloads are linear
    forms next to the scalars of the domain's ops object arith.  A form is
    a map {(slot, i): w} with no zero weight, standing for the semilinear
    map c -> sum w * c_slot.twist(sign*i) of the canonical coordinates.
    Forward reduction only adds forms, negates and twists them, and
    multiplies a form by a scalar; it inverts scalars only."""

    def __init__(self, arith, sign):
        self.arith, self.sign, self.inv = arith, sign, arith.inv

    def is_zero(self, form):
        return not form

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        add, is_zero, out = self.arith.add, self.arith.is_zero, dict(a)
        for key, w in b.items():
            cur = out.get(key)
            if cur is None:
                out[key] = w
            elif is_zero(w := add(cur, w)):
                del out[key]
            else:
                out[key] = w
        return out

    def neg(self, form):
        neg = self.arith.neg
        return {key: neg(w) for key, w in form.items()}

    def twist(self, a, j):
        """A scalar's twist, or a form's: w * c.twist(sign*i) goes to
        w.twist(j) * c.twist(sign*i + j)."""
        twist = self.arith.twist
        if not isinstance(a, dict):
            return twist(a, j)
        shift = self.sign * j
        return {(slot, i + shift): twist(w, j) for (slot, i), w in a.items()}

    def mul(self, a, b):
        """The product of a form and a scalar, in either order.  The loops
        multiply only by nonzero scalars, so no weight becomes zero."""
        form, e = (a, b) if isinstance(a, dict) else (b, a)
        if e == self.arith.one:  # monic pivots and leading coefficients
            return form
        mul = self.arith.mul
        return {key: mul(w, e) for key, w in form.items()}


# ---------------------------------------------------------------------------
# The structure object.


class _DataclassFields:
    """``ExtStructure.__dataclass_fields__``, so that ``dataclasses.replace``,
    ``fields`` and ``is_dataclass`` treat a structure as a frozen dataclass.
    The first read imports ``dataclasses`` (only a caller that has imported
    it reads the attribute), takes the field table of a frozen dataclass
    with the same fields and caches it on the class.  It goes once the
    benchmark set-up in ``perfbench/`` stops calling ``dataclasses.replace``
    on a structure."""

    def __get__(self, instance, owner):
        import dataclasses

        table = dataclasses.make_dataclass(
            owner.__name__, owner._fields, frozen=True).__dataclass_fields__
        owner.__dataclass_fields__ = table
        return table


class ExtStructure(SlottedValue):
    """The Ext group of a module pair as a t-module in coordinates.

    ``basis`` lists the free coefficient slots (row, col, deg) of the
    canonical form, and ``pi`` is the matrix of the t-action in those
    coordinates: t sends coordinates c to ``new[i] = sum_j pi[i][j](c_j)``
    with entries applied as twisting operators.  The action is the push-out
    along the target's t-action, delta -> Psi_t*delta, reduced to the
    canonical slots.
    """

    __slots__ = ("source", "target", "regime", "basis", "pi")
    __dataclass_fields__ = _DataclassFields()

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
        """Coordinates of the class of a biderivation.  A coefficient of the
        canonical form at no basis slot raises InvariantViolation: the
        coordinates would not determine the class."""
        pairs = reduce_canonical(delta, self.regime).canonical.matrix._pairs
        spec = self.spec
        where = {slot: a for a, slot in enumerate(self.basis)}.get
        coords = [spec._arith.zero] * self.rank
        for r, row in enumerate(pairs):
            for c, entry in enumerate(row):
                for k, x in entry:
                    a = where((r, c, k))
                    if a is None:
                        raise InvariantViolation(
                            f"the canonical form has a coefficient outside "
                            f"the basis at {(r, c, k)}")
                    coords[a] = x
        return tuple(map(spec._fe, coords))

    def from_coords(self, coords):
        return Biderivation(self.source, self.target, SkewMatrix.from_slots(
            self.spec, self.var, self.target.dim, self.source.dim,
            self.basis, coords))

    def basis_delta(self, index):
        coords = [self.spec.zero()] * self.rank
        coords[index] = self.spec.one()
        return self.from_coords(coords)

    def act_coords(self, coords):
        """Apply t to a coordinate vector through pi."""
        return self.pi.eval_linear(coords)

    def to_json(self):
        return {
            "regime": self.regime,
            "basis": [list(slot) for slot in self.basis],
            "pi_t": self.pi.to_json(),
        }


def ext_structure(source, target, regime=None):
    """Compute the t-module structure on Ext(source, target); the pair's
    plan must be forward at every entry."""
    plan = reduction_plan(source, target, regime)
    forward = [f for _, _, _, f, _ in plan.entries]
    if not all(forward):
        why = ("this plan mixes forward and reversed entries, as does its "
               "adjoint pair's, so neither side has a structure; its classes "
               "still have canonical forms and a split test" if any(forward)
               else "reversed pairs still have canonical forms and a split "
               "test, and their structure is available on the adjoint side")
        raise UnsupportedRegime(f"the t-module structure is only computed "
                                f"for forward regimes, not {plan.regime!r}; "
                                f"{why}")
    spec, var = source.spec, source.var
    basis = canonical_slots(source, target, regime)
    if len(basis) ** 2 > MAX_PI_ENTRIES:
        raise CarrierTooLarge(f"{len(basis) ** 2} Pi_t entries exceed "
                              f"MAX_PI_ENTRIES = {MAX_PI_ENTRIES}")
    index = {slot: a for a, slot in enumerate(basis)}
    # Psi_t times the generic canonical form, each slot's coordinate as a
    # unit form; reduced in place
    generic = [[[] for _ in range(source.dim)] for _ in range(target.dim)]
    for slot in basis:
        r, c, k = slot
        generic[r][c].append((k, {(slot, 0): spec._arith.one}))
    forms = _FormOps(spec._arith, plan.sign)
    acted = [[{} for _ in range(source.dim)] for _ in range(target.dim)]
    _matmul_into(forms, acted, plan.psi, generic, plan.sign)
    _reduce_maps(forms, plan, acted)

    grid = [[{} for _ in basis] for _ in basis]
    for r, row in enumerate(acted):
        for c, entry in enumerate(row):
            for deg, form in entry.items():
                for (slot, i), w in form.items():
                    if i < 0:
                        raise InvariantViolation(
                            "reduction produced a negative twist index in "
                            "a forward regime")
                    grid[index[r, c, deg]][index[slot]][i] = w
    pi = _from_maps(spec, var, grid)
    structure = ExtStructure(source, target, plan.regime, basis, pi)
    structure.module()  # validates theta*I + nilpotent
    return structure


def duality_transport(source, target):
    """The opposite-variable structure carried by Ext(source, target).

    Ext on one variable is isomorphic to Ext of the adjoint modules, in the
    opposite order, on the other variable.  For a reversed pair (source rank
    below target rank) the swapped adjoint pair is forward, so this is where
    a reversed pair's t-module structure lives; a forward pair is
    refused.  The pair's own plan is consulted only once the adjoint pair
    has been refused, so a pair with no regime of its own whose adjoint
    pair has one is still served."""
    try:
        return ext_structure(target.adjoint(), source.adjoint())
    except UnsupportedRegime as refusal:
        try:
            plan = reduction_plan(source, target)
        except UnsupportedRegime:
            raise refusal from None
        if all(forward for _, _, _, forward, _ in plan.entries):
            raise UnsupportedRegime(
                f"the pair is forward ({plan.regime!r}), so its structure "
                f"comes from ext_structure directly; duality_transport "
                f"serves reversed pairs") from None
        raise


def ext_product(sources, targets):
    """The structure on Ext(diag(sources), diag(targets)) for dimension-one
    Drinfeld modules, every source rank above every target rank: one
    reduction of the diagonal pair."""
    if not sources or not targets:
        raise UnsupportedRegime("the product needs at least one module on "
                                "each side")
    spec, var = sources[0].spec, sources[0].var
    for mod in list(sources) + list(targets):
        if not mod.is_drinfeld:
            raise UnsupportedRegime(
                "the product construction takes dimension-one Drinfeld "
                "modules")
    for i, src in enumerate(sources):
        for j, tgt in enumerate(targets):
            if src.rank <= tgt.rank:
                raise UnsupportedRegime(
                    f"pair ({i}, {j}) is not forward: source rank "
                    f"{src.rank} <= target rank {tgt.rank}")

    def diag(mods):
        zero = SkewPoly.zero(spec, var)
        return tmodule(spec, SkewMatrix.from_rows(spec, var, [
            [m.t_matrix.entry(0, 0) if i == j else zero
             for j in range(len(mods))] for i, m in enumerate(mods)]))

    return ext_structure(diag(sources), diag(targets), DIAGONAL_PAIRS)


# ---------------------------------------------------------------------------
# The trivial-quotient sequence of a structure.


class GaSequence(SlottedValue):
    """The short exact sequence splitting off the scalar part of an Ext
    structure: rows of pi equal to theta*e_r are "pure"; they map onto a
    trivial module, and the complementary principal block is the
    sub-t-module."""

    __slots__ = ("structure", "pure", "g", "inclusion", "sub_pi")

    @property
    def s(self):
        return len(self.pure)

    def quotient(self):
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
    spec, var, r = structure.spec, structure.var, structure.rank
    ident = SkewMatrix.identity(spec, var, r)
    theta_rows = (ident * spec.theta()).entries
    pure = tuple(a for a in range(r)
                 if structure.pi.entries[a] == theta_rows[a])
    rest = tuple(a for a in range(r) if a not in pure)
    g = ident.submatrix(pure, range(r)) if pure else None
    inclusion = sub_pi = None
    if rest:
        inclusion = ident.submatrix(range(r), rest)
        sub_pi = structure.pi.submatrix(rest, rest)
    return GaSequence(structure, pure, g, inclusion, sub_pi)
