"""Independent verification over finite coefficient fields.

Everything here checks claims made elsewhere in the package using only the
plain reducer and direct twisted-polynomial arithmetic: structure matrices
are validated against freshly reduced samples, quotient sequences and
six-term sequences by enumerating every element, and adjoint transport by
exact operator identities on random inputs.  Classes are compared through
homological.class_of or ExtStructure.coords_of, six-term Ext nodes as
enumerate_ext lists them, and _shifted alone makes another representative
of a class.
"""

from __future__ import annotations

import itertools
import random

from .biderivations import Biderivation, canonical_slots
from .coefficients import SlottedValue, _random_code
from .errors import CarrierTooLarge
from .homological import class_of, hom_space
from .modules_t import inner_matrix
from .skewpoly import SkewMatrix, SkewPoly

ENUMERATION_LIMIT = 2 ** 20


class Check(SlottedValue):
    __slots__ = ("name", "passed", "detail")


class Report(SlottedValue):
    __slots__ = ("ok", "checks")

    @classmethod
    def from_checks(cls, checks):
        return cls(all(c.passed for c in checks), tuple(checks))

    def to_json(self):
        return {"ok": self.ok,
                "checks": [{"name": c.name, "passed": c.passed,
                            "detail": c.detail} for c in self.checks]}


def _guard_carrier(count, what):
    if count > ENUMERATION_LIMIT:
        raise CarrierTooLarge(
            f"{what} would enumerate {count} elements "
            f"(limit {ENUMERATION_LIMIT})")


# ---------------------------------------------------------------------------
# Random data.


# Each coefficient is one code of _random_code, the draw of random_element,
# drawn in the order of SkewPoly.from_pairs and SkewMatrix.from_rows over
# random elements and stored as its payload without building an element.


def random_poly(spec, var, rng, max_deg):
    spec._require_finite("random sampling requires")
    p, m = spec.p, spec.m
    pairs = [(d, code) for d in range(max_deg + 1)
             if (code := _random_code(rng, p, m))]
    return SkewPoly(spec, var, tuple(pairs))


def random_matrix(spec, var, rng, nrows, ncols, max_deg):
    return SkewMatrix(spec, var, tuple(
        tuple(random_poly(spec, var, rng, max_deg) for _ in range(ncols))
        for _ in range(nrows)))


def random_biderivation(source, target, rng, max_deg=None):
    if max_deg is None:
        max_deg = max(source.rank, target.rank) + 2
    return Biderivation(source, target, random_matrix(
        source.spec, source.var, rng, target.dim, source.dim, max_deg))


def _random_coords(spec, rank, rng):
    return tuple(spec.random_element(rng) for _ in range(rank))


def _shifted(delta, rng, max_deg):
    """Another representative of the class of delta: delta + delta^(U) for
    a random U of entry degrees up to max_deg."""
    source, target = delta.source, delta.target
    u = random_biderivation(source, target, rng, max_deg).matrix
    return Biderivation(source, target,
                        delta.matrix + inner_matrix(source, target, u))


# ---------------------------------------------------------------------------
# Enumeration of Ext groups through canonical coordinates.


def coordinate_vectors(spec, length):
    spec._require_finite("coordinate enumeration needs")
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
    spec._require_finite("structure verification needs")
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
        pool = (_random_coords(spec, structure.rank, rng)
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
        via_pi = structure.pi.eval_linear(coords)
        if direct != via_pi:
            mismatches += 1
    checks.append(Check(
        "action-samples", mismatches == 0,
        f"{total} classes, {mismatches} disagreements between "
        f"pi and direct reduction"))

    drift = 0
    for _ in range(samples):
        coords = _random_coords(spec, structure.rank, rng)
        shifted = _shifted(structure.from_coords(coords), rng,
                           max(source.rank, 1))
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
    t-equivariance on both maps, and the image size.  Nothing is drawn at
    random: seed is accepted only so that all four verifiers take the same
    call."""
    structure = seq.structure
    spec = structure.spec
    spec._require_finite("quotient-sequence verification needs")
    r = structure.rank
    checks = []
    pure = set(seq.pure)

    kernel_bad = 0
    equivariance_bad = 0
    images = set()
    theta = spec.theta()
    for coords in coordinate_vectors(spec, r):
        acted = structure.pi.eval_linear(coords)
        if seq.g is not None:
            gv = seq.g.eval_linear(coords)
            images.add(gv)
            vanishes = all(not coords[a] for a in pure)
            if (all(not x for x in gv)) != vanishes:
                kernel_bad += 1
            if seq.g.eval_linear(acted) != tuple(theta * x for x in gv):
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
            left = structure.pi.eval_linear(seq.inclusion.eval_linear(coords))
            right = seq.inclusion.eval_linear(seq.sub_pi.eval_linear(coords))
            if left != right:
                incl_bad += 1
        checks.append(Check(
            "inclusion-equivariance", incl_bad == 0,
            f"inclusion commutes with the t-actions ({incl_bad} "
            f"exceptions)"))

    return Report.from_checks(checks)


# ---------------------------------------------------------------------------
# Six-term verification.


def _node_hom(source, target):
    """Every morphism of the node: the F_p-span of the Hom basis."""
    basis = hom_space(source, target).basis
    p = source.spec.p
    _guard_carrier(p ** len(basis), "Hom-node enumeration")
    zero = SkewMatrix.zeros(source.spec, source.var, target.dim, source.dim)
    return [sum((f * x for x, f in zip(coeffs, basis) if x), zero)
            for coeffs in itertools.product(range(p), repeat=len(basis))]


def verify_sixterm(bundle, seed=0, inner_samples=20):
    """Fully enumerate every node of both six-term sequences of the bundle
    and check exactness, plus surjectivity of the final maps and
    well-definedness of the Ext-level maps under inner shifts."""
    spec = bundle.delta.source.spec
    spec._require_finite("six-term verification needs")
    rng = random.Random(seed)
    G = bundle.partner
    E, X, F = bundle.quotient, bundle.middle, bundle.sub
    b = bundle
    # one row per side: check prefix, its three nodes, the label of its
    # first Hom node, the (source, target) pair at each node, and its maps
    # Hom0 -> Hom1 -> Hom2 -> Ext0 -> Ext1 -> Ext2
    sides = (
        ("co", ("sub", "middle", "quot"), "Hom(G,sub)",
         ((G, F), (G, X), (G, E)),
         (b.co_hom_sub, b.co_hom_quot, b.co_connect, b.co_ext_middle,
          b.co_ext_quot)),
        ("contra", ("quot", "middle", "sub"), "Hom(quot,G)",
         ((E, G), (X, G), (F, G)),
         (b.contra_hom_quot, b.contra_hom_sub, b.contra_connect,
          b.contra_ext_middle, b.contra_ext_sub)),
    )
    checks = []
    first_ext = []  # per side: the graph of the map out of Ext0, the map

    def key(x):
        return x.matrix if isinstance(x, Biderivation) else x

    for prefix, nodes, hom_label, pairs, maps in sides:
        # the six nodes: the Hom spans, then the Ext nodes as enumerated
        six = ([_node_hom(*pair) for pair in pairs]
               + [enumerate_ext(*pair) for pair in pairs])
        # each map's (element, value) pairs on its domain node, each value
        # computed once and read for both its image and its kernel
        graphs = [[(x, fn(x)) for x in dom] for fn, dom in zip(maps, six)]
        images = [{key(y) for _, y in g} for g in graphs]
        kernels = [{key(x) for x, y in g if y.is_zero()} for g in graphs[1:]]
        first_ext.append((graphs[3], maps[3]))
        checks.append(Check(f"{prefix}-hom-injective",
                            len(images[0]) == len(six[0]),
                            f"{hom_label} ({len(six[0])} elements) embeds"))
        labels = (f"hom-{nodes[1]}", f"hom-{nodes[2]}", f"ext-{nodes[0]}",
                  f"ext-{nodes[1]}")
        for node, im, ker in zip(labels, images, kernels):
            checks.append(Check(f"{prefix}-exact-{node}", im == ker,
                                f"image {len(im)} vs kernel {len(ker)}"))
        last = {key(e) for e in six[5]}
        checks.append(Check(f"{prefix}-final-surjective", images[4] == last,
                            f"image {len(images[4])} of {len(last)} classes"))

    # well-definedness under inner shifts -------------------------------------
    bad_shift = 0
    for _ in range(inner_samples):
        for graph, ext_in in first_ext:
            eta, value = rng.choice(graph)
            if ext_in(_shifted(eta, rng, 2)) != value:
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
    spec._require_finite("duality verification needs")
    rng = random.Random(seed)
    checks = []

    src_ad = source.adjoint()
    tgt_ad = target.adjoint()

    def swapped_inner(v):
        return inner_matrix(tgt_ad, src_ad, v)

    def same_class(a, b):
        """Whether two matrices of the swapped pair lie in one class."""
        return class_of(Biderivation(tgt_ad, src_ad, a)) == \
            class_of(Biderivation(tgt_ad, src_ad, b))

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
        delta_ad = delta.matrix.adjoint()
        t_delta = (target.t_matrix * delta.matrix).adjoint()
        t_ad = src_ad.t_matrix * delta_ad
        gap = t_delta - t_ad
        if gap != swapped_inner(delta_ad):
            bad_action += 1

        if delta_ad.adjoint() != delta.matrix:
            bad_double += 1

        a = random_matrix(spec, source.var, rng, 2, 2, 2)
        b = random_matrix(spec, source.var, rng, 2, 2, 2)
        if (a * b).adjoint() != b.adjoint() * a.adjoint():
            bad_antihom += 1

        if not same_class(_shifted(delta, rng, 2).matrix.adjoint(),
                          delta_ad):
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
        if not same_class((target.t_matrix * delta.matrix).adjoint(),
                          src_ad.t_matrix * delta.matrix.adjoint()):
            t_both += 1
    checks.append(Check(
        "action-classes", t_both == 0,
        f"{classes} samples: both t-actions give the same adjoint class "
        f"({t_both} failures)"))

    return Report.from_checks(checks)
