"""Independent verification over finite coefficient fields.

Everything here checks claims made elsewhere in the package using only the
plain reducer and direct twisted-polynomial arithmetic: structure matrices
are validated against freshly reduced samples, quotient sequences and
six-term sequences by enumerating every element, and adjoint transport by
exact operator identities on random inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .biderivations import (
    Biderivation,
    canonical_slots,
    inner_matrix,
    reduce_canonical,
)
from .errors import CarrierTooLarge, FiniteFieldRequired
from .homological import class_of
from .skewpoly import SkewMatrix, SkewPoly

ENUMERATION_LIMIT = 2 ** 20


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Report:
    ok: bool
    checks: tuple

    @classmethod
    def from_checks(cls, checks):
        return cls(all(c.passed for c in checks), tuple(checks))

    def to_json(self):
        return {"ok": self.ok,
                "checks": [{"name": c.name, "passed": c.passed,
                            "detail": c.detail} for c in self.checks]}


def _require_finite(spec, what):
    if spec.kind != "finite":
        raise FiniteFieldRequired(f"{what} needs a finite coefficient field")


def _guard_carrier(count, what):
    if count > ENUMERATION_LIMIT:
        raise CarrierTooLarge(
            f"{what} would enumerate {count} elements "
            f"(limit {ENUMERATION_LIMIT})")


# ---------------------------------------------------------------------------
# Random data.


def random_poly(spec, var, rng, max_deg):
    pairs = [(d, spec.random_element(rng)) for d in range(max_deg + 1)]
    return SkewPoly.from_pairs(spec, var, pairs)


def random_matrix(spec, var, rng, nrows, ncols, max_deg):
    return SkewMatrix.from_rows(spec, var, [
        [random_poly(spec, var, rng, max_deg) for _ in range(ncols)]
        for _ in range(nrows)])


def random_biderivation(source, target, rng, max_deg=None):
    if max_deg is None:
        max_deg = max(source.rank, target.rank) + 2
    return Biderivation(source, target, random_matrix(
        source.spec, source.var, rng, target.dim, source.dim, max_deg))


def apply_matrix(mat, vec):
    """Apply a twisted-polynomial matrix to a coefficient vector, entries
    acting as twisting operators."""
    return mat.eval_linear(vec)


# ---------------------------------------------------------------------------
# Enumeration of Ext groups through canonical coordinates.


def coordinate_vectors(spec, length):
    _require_finite(spec, "coordinate enumeration")
    _guard_carrier(spec.carrier_size() ** length, "coordinate enumeration")
    elements = list(spec.enumerate_elements())
    return itertools.product(elements, repeat=length)


def enumerate_ext(source, target):
    """All canonical representatives of Ext(source, target)."""
    slots = canonical_slots(source, target)
    spec, var = source.spec, source.var
    return [Biderivation(source, target, SkewMatrix.from_slots(
        spec, var, target.dim, source.dim, slots, coords))
        for coords in coordinate_vectors(spec, len(slots))]


# ---------------------------------------------------------------------------
# Structure verification.


def verify_structure(structure, samples=200, seed=0, mode="sample"):
    """Check a computed Ext structure against the plain reducer: t-action
    through pi must match reducing t * delta directly (on random classes, or
    on every class with mode="enumerate"), coordinates must be stable under
    inner shifts, and the constant part of pi must be theta*I + nilpotent."""
    spec = structure.spec
    _require_finite(spec, "structure verification")
    rng = random.Random(seed)
    checks = []

    try:
        structure.module()
        checks.append(Check("constant-structure", True,
                            "pi is theta*I + nilpotent at degree zero"))
    except Exception as exc:  # noqa: BLE001 - report any failure
        checks.append(Check("constant-structure", False, str(exc)))

    source, target = structure.source, structure.target
    if mode == "enumerate":
        pool = coordinate_vectors(spec, structure.rank)
    elif mode == "sample":
        pool = (tuple(spec.random_element(rng)
                      for _ in range(structure.rank))
                for _ in range(samples))
    else:
        raise ValueError(f"unknown verification mode {mode!r}")
    mismatches = 0
    total = 0
    for coords in pool:
        total += 1
        delta = structure.from_coords(coords)
        acted = Biderivation(source, target,
                             target.t_matrix * delta.matrix)
        direct = structure.coords_of(acted)
        via_pi = apply_matrix(structure.pi, coords)
        if direct != via_pi:
            mismatches += 1
    checks.append(Check(
        "action-samples", mismatches == 0,
        f"{total} classes, {mismatches} disagreements between "
        f"pi and direct reduction"))

    drift = 0
    for _ in range(samples):
        coords = tuple(spec.random_element(rng)
                       for _ in range(structure.rank))
        delta = structure.from_coords(coords)
        u = random_matrix(spec, structure.var, rng, target.dim, source.dim,
                          max(source.rank, 1))
        shifted = Biderivation(source, target,
                               delta.matrix + inner_matrix(source, target,
                                                           u))
        if structure.coords_of(shifted) != coords:
            drift += 1
    checks.append(Check(
        "inner-invariance", drift == 0,
        f"{samples} inner shifts, {drift} coordinate changes"))

    return Report.from_checks(checks)


# ---------------------------------------------------------------------------
# Quotient-sequence verification.


def verify_ga(seq, seed=0):
    """Enumerate the whole Ext carrier and check the quotient map onto the
    scalar part: kernel = classes vanishing at the pure slots,
    t-equivariance on both maps, and the image size."""
    structure = seq.structure
    spec = structure.spec
    _require_finite(spec, "quotient-sequence verification")
    r = structure.rank
    checks = []
    pure = set(seq.pure)

    kernel_bad = 0
    equivariance_bad = 0
    images = set()
    theta = spec.theta()
    for coords in coordinate_vectors(spec, r):
        acted = apply_matrix(structure.pi, coords)
        if seq.g is not None:
            gv = apply_matrix(seq.g, coords)
            images.add(gv)
            vanishes = all(not coords[a] for a in pure)
            if (all(not x for x in gv)) != vanishes:
                kernel_bad += 1
            if apply_matrix(seq.g, acted) != tuple(theta * x for x in gv):
                equivariance_bad += 1
    if seq.g is not None:
        checks.append(Check(
            "kernel", kernel_bad == 0,
            f"g vanishes exactly on classes with zero pure coordinates "
            f"({kernel_bad} exceptions)"))
        checks.append(Check(
            "t-equivariance", equivariance_bad == 0,
            f"g(t*x) = theta*g(x) on the whole carrier "
            f"({equivariance_bad} exceptions)"))
        expected = spec.carrier_size() ** seq.s
        checks.append(Check(
            "image-count", len(images) == expected,
            f"image has {len(images)} elements, expected {expected}"))
    else:
        checks.append(Check("kernel", True, "no pure rows; nothing to map"))

    if seq.inclusion is not None:
        sub_r = seq.sub_pi.nrows
        incl_bad = 0
        for coords in coordinate_vectors(spec, sub_r):
            left = apply_matrix(structure.pi,
                                apply_matrix(seq.inclusion, coords))
            right = apply_matrix(seq.inclusion,
                                 apply_matrix(seq.sub_pi, coords))
            if left != right:
                incl_bad += 1
        checks.append(Check(
            "inclusion-equivariance", incl_bad == 0,
            f"inclusion commutes with the t-actions ({incl_bad} "
            f"exceptions)"))

    return Report.from_checks(checks)


# ---------------------------------------------------------------------------
# Six-term verification.


def _node_hom(bundle, source, target):
    from .homological import hom_space

    space = hom_space(source, target)
    if space.complete and not space.basis:
        return [SkewMatrix.zeros(source.spec, source.var, target.dim,
                                 source.dim)]
    spec = source.spec
    _guard_carrier(spec.p ** len(space.basis), "Hom-node enumeration")
    out = []
    for coeffs in itertools.product(range(spec.p), repeat=len(space.basis)):
        acc = SkewMatrix.zeros(source.spec, source.var, target.dim,
                               source.dim)
        for x, f in zip(coeffs, space.basis):
            if x:
                acc = acc + f * x
        out.append(acc)
    return out


def verify_sixterm(bundle, seed=0, inner_samples=20):
    """Fully enumerate every node of both six-term sequences of the bundle
    and check exactness, plus surjectivity of the final maps and
    well-definedness of the Ext-level maps under inner shifts."""
    spec = bundle.delta.source.spec
    _require_finite(spec, "six-term verification")
    rng = random.Random(seed)
    G = bundle.partner
    E, X, F = bundle.quotient, bundle.middle, bundle.sub
    checks = []

    def ext_elements(src, tgt):
        return [class_of(d) for d in enumerate_ext(src, tgt)]

    def image(elems, fn):
        return {fn(e).matrix for e in elems}

    def kernel(elems, fn):
        return {e.matrix for e in elems if fn(e).is_zero()}

    # covariant side ---------------------------------------------------------
    hom_GF = _node_hom(bundle, G, F)
    hom_GX = _node_hom(bundle, G, X)
    hom_GE = _node_hom(bundle, G, E)
    ext_GF = ext_elements(G, F)
    ext_GX = ext_elements(G, X)
    ext_GE = ext_elements(G, E)

    inj = len({bundle.co_hom_sub(f) for f in hom_GF}) == len(hom_GF)
    checks.append(Check("co-hom-injective", inj,
                        f"Hom(G,sub) ({len(hom_GF)} elements) embeds"))
    im1 = {bundle.co_hom_sub(f) for f in hom_GF}
    ker1 = {h for h in hom_GX if bundle.co_hom_quot(h).is_zero()}
    checks.append(Check("co-exact-hom-middle", im1 == ker1,
                        f"image {len(im1)} vs kernel {len(ker1)}"))
    im2 = {bundle.co_hom_quot(h) for h in hom_GX}
    ker2 = {f for f in hom_GE if bundle.co_connect(f).is_zero()}
    checks.append(Check("co-exact-hom-quot", im2 == ker2,
                        f"image {len(im2)} vs kernel {len(ker2)}"))
    im3 = {bundle.co_connect(f).matrix for f in hom_GE}
    ker3 = kernel(ext_GF, bundle.co_ext_middle)
    checks.append(Check("co-exact-ext-sub", im3 == ker3,
                        f"image {len(im3)} vs kernel {len(ker3)}"))
    im4 = image(ext_GF, bundle.co_ext_middle)
    ker4 = kernel(ext_GX, bundle.co_ext_quot)
    checks.append(Check("co-exact-ext-middle", im4 == ker4,
                        f"image {len(im4)} vs kernel {len(ker4)}"))
    im5 = image(ext_GX, bundle.co_ext_quot)
    all5 = {e.matrix for e in ext_GE}
    checks.append(Check("co-final-surjective", im5 == all5,
                        f"image {len(im5)} of {len(all5)} classes"))

    # contravariant side ------------------------------------------------------
    hom_EG = _node_hom(bundle, E, G)
    hom_XG = _node_hom(bundle, X, G)
    hom_FG = _node_hom(bundle, F, G)
    ext_EG = ext_elements(E, G)
    ext_XG = ext_elements(X, G)
    ext_FG = ext_elements(F, G)

    inj_c = len({bundle.contra_hom_quot(g) for g in hom_EG}) == len(hom_EG)
    checks.append(Check("contra-hom-injective", inj_c,
                        f"Hom(quot,G) ({len(hom_EG)} elements) embeds"))
    cim1 = {bundle.contra_hom_quot(g) for g in hom_EG}
    cker1 = {h for h in hom_XG if bundle.contra_hom_sub(h).is_zero()}
    checks.append(Check("contra-exact-hom-middle", cim1 == cker1,
                        f"image {len(cim1)} vs kernel {len(cker1)}"))
    cim2 = {bundle.contra_hom_sub(h) for h in hom_XG}
    cker2 = {g for g in hom_FG if bundle.contra_connect(g).is_zero()}
    checks.append(Check("contra-exact-hom-sub", cim2 == cker2,
                        f"image {len(cim2)} vs kernel {len(cker2)}"))
    cim3 = {bundle.contra_connect(g).matrix for g in hom_FG}
    cker3 = kernel(ext_EG, bundle.contra_ext_middle)
    checks.append(Check("contra-exact-ext-quot", cim3 == cker3,
                        f"image {len(cim3)} vs kernel {len(cker3)}"))
    cim4 = image(ext_EG, bundle.contra_ext_middle)
    cker4 = kernel(ext_XG, bundle.contra_ext_sub)
    checks.append(Check("contra-exact-ext-middle", cim4 == cker4,
                        f"image {len(cim4)} vs kernel {len(cker4)}"))
    cim5 = image(ext_XG, bundle.contra_ext_sub)
    call5 = {e.matrix for e in ext_FG}
    checks.append(Check("contra-final-surjective", cim5 == call5,
                        f"image {len(cim5)} of {len(call5)} classes"))

    # well-definedness under inner shifts -------------------------------------
    bad_shift = 0
    for _ in range(inner_samples):
        eta = rng.choice(ext_GF)
        u = random_matrix(spec, eta.matrix.var, rng, F.dim, G.dim, 2)
        shifted = Biderivation(G, F, eta.matrix + inner_matrix(G, F, u))
        if bundle.co_ext_middle(shifted) != bundle.co_ext_middle(eta):
            bad_shift += 1
        xi = rng.choice(ext_EG)
        v = random_matrix(spec, xi.matrix.var, rng, G.dim, E.dim, 2)
        shifted_c = Biderivation(E, G, xi.matrix + inner_matrix(E, G, v))
        if bundle.contra_ext_middle(shifted_c) != \
                bundle.contra_ext_middle(xi):
            bad_shift += 1
    checks.append(Check("ext-maps-well-defined", bad_shift == 0,
                        f"{2 * inner_samples} inner shifts, {bad_shift} "
                        f"class changes"))

    return Report.from_checks(checks)


# ---------------------------------------------------------------------------
# Duality verification.


def verify_duality(source, target, classes=100, seed=0):
    """Check the adjoint transport on random biderivations by exact operator
    identities.

    With delta a biderivation for (source, target) on one variable, its
    adjoint matrix is a biderivation for the swapped adjoint pair
    (target*, source*), and: inner maps transport to negated inner maps,
    the t-actions on both sides agree up to an explicit inner shift, the
    transport is well defined on classes, and the double adjoint returns
    the original."""
    spec = source.spec
    _require_finite(spec, "duality verification")
    rng = random.Random(seed)
    checks = []

    src_ad = source.adjoint()
    tgt_ad = target.adjoint()

    def swapped_inner(v):
        return inner_matrix(tgt_ad, src_ad, v)

    bad_inner = 0
    bad_action = 0
    bad_double = 0
    bad_antihom = 0
    bad_classes = 0
    for _ in range(classes):
        u = random_matrix(spec, source.var, rng, target.dim, source.dim, 3)
        lhs = inner_matrix(source, target, u).adjoint()
        rhs = -swapped_inner(u.adjoint())
        if lhs != rhs:
            bad_inner += 1

        delta = random_biderivation(source, target, rng)
        t_delta = (target.t_matrix * delta.matrix).adjoint()
        t_ad = src_ad.t_matrix * delta.matrix.adjoint()
        gap = t_delta - t_ad
        if gap != swapped_inner(delta.matrix.adjoint()):
            bad_action += 1

        if delta.matrix.adjoint().adjoint() != delta.matrix:
            bad_double += 1

        a = random_matrix(spec, source.var, rng, 2, 2, 2)
        b = random_matrix(spec, source.var, rng, 2, 2, 2)
        if (a * b).adjoint() != b.adjoint() * a.adjoint():
            bad_antihom += 1

        shift = random_matrix(spec, source.var, rng, target.dim,
                              source.dim, 2)
        shifted = delta.matrix + inner_matrix(source, target, shift)
        d1 = reduce_canonical(Biderivation(tgt_ad, src_ad,
                                           shifted.adjoint()))
        d2 = reduce_canonical(Biderivation(tgt_ad, src_ad,
                                           delta.matrix.adjoint()))
        if d1.canonical.matrix != d2.canonical.matrix:
            bad_classes += 1

    checks.append(Check(
        "inner-transport", bad_inner == 0,
        f"{classes} samples: (delta^(U))* = -(U*-inner) on the swapped "
        f"pair ({bad_inner} failures)"))
    checks.append(Check(
        "action-transport", bad_action == 0,
        f"{classes} samples: (t*delta)* - t*(delta*) is the inner map of "
        f"delta* ({bad_action} failures)"))
    checks.append(Check(
        "double-adjoint", bad_double == 0,
        f"{classes} samples round-trip ({bad_double} failures)"))
    checks.append(Check(
        "anti-homomorphism", bad_antihom == 0,
        f"{classes} samples: (AB)* = B*A* ({bad_antihom} failures)"))
    checks.append(Check(
        "class-transport", bad_classes == 0,
        f"{classes} samples: inner shifts keep the adjoint class "
        f"({bad_classes} failures)"))

    t_both = 0
    for _ in range(classes):
        delta = random_biderivation(source, target, rng)
        lhs = reduce_canonical(Biderivation(
            tgt_ad, src_ad, (target.t_matrix * delta.matrix).adjoint()))
        rhs = reduce_canonical(Biderivation(
            tgt_ad, src_ad,
            src_ad.t_matrix * delta.matrix.adjoint()))
        if lhs.canonical.matrix != rhs.canonical.matrix:
            t_both += 1
    checks.append(Check(
        "action-classes", t_both == 0,
        f"{classes} samples: both t-actions give the same adjoint class "
        f"({t_both} failures)"))

    return Report.from_checks(checks)
