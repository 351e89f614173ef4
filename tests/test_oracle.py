"""Tests for the brute-force finite-field verification oracle."""

import dataclasses
import random

import pytest

from tmodext import (
    SIGMA,
    TAU,
    Biderivation,
    CarrierTooLarge,
    Check,
    FiniteFieldRequired,
    InvariantViolation,
    Report,
    SkewMatrix,
    SixTerm,
    SkewPoly,
    carlitz,
    check_morphism,
    class_of,
    drinfeld,
    enumerate_ext,
    ext_structure,
    ga_sequence,
    parse_field,
    parse_matrix,
    parse_poly,
    six_term,
    tmodule,
    verify_duality,
    verify_ga,
    verify_sixterm,
    verify_structure,
)
from tmodext import coefficients, homological, oracle
from tmodext.ext_structures import ExtStructure, GaSequence
from tmodext.homological import hom_space
from tmodext.oracle import coordinate_vectors

F2 = parse_field("GF(2)")
F4 = parse_field("GF(2^2)")
F8 = parse_field("GF(2^3)")
F9 = parse_field("GF(3^2)")
F16 = parse_field("GF(2^4)")
Q3 = parse_field("GF(3)(th)")


def _drin(spec, text):
    return drinfeld(spec, parse_poly(spec, text))


def _structure(spec, src_text, tgt_text):
    return ext_structure(_drin(spec, src_text), _drin(spec, tgt_text))


def twist_one_coefficient(matrix):
    """Return a copy of the matrix with a single coefficient replaced by its
    Frobenius twist, picking one the twist actually moves."""
    spec, var = matrix.spec, matrix.var
    for i in range(matrix.nrows):
        for j in range(matrix.ncols):
            p = matrix.entry(i, j)
            for k in range(p.degree + 1):
                c = p.coefficient(k)
                if not c.is_zero() and c.twist(1) != c:
                    bumped = p + SkewPoly.term(spec, var, c.twist(1) - c, k)
                    rows = [[matrix.entry(r, s) for s in range(matrix.ncols)]
                            for r in range(matrix.nrows)]
                    rows[i][j] = bumped
                    return SkewMatrix.from_rows(spec, var, rows)
    raise AssertionError("no twist-sensitive coefficient found")


# ---------------------------------------------------------------------------
# Structure verification.


def test_verify_structure_passes_and_is_deterministic():
    S = _structure(F9, "g + tau^3", "g + tau^2")
    rep1 = verify_structure(S, samples=50, seed=7)
    rep2 = verify_structure(S, samples=50, seed=7)
    assert rep1.ok
    assert [c.name for c in rep1.checks] == [
        "constant-structure", "action-samples", "inner-invariance"]
    assert rep1.to_json() == rep2.to_json()


def test_verify_structure_full_enumeration():
    S = _structure(F4, "g + tau^2", "g + tau")
    rep = verify_structure(S, seed=0, mode="enumerate")
    assert rep.ok


def test_verify_structure_rejects_twisted_matrix():
    S = _structure(F9, "g + tau^3", "g + tau^2")
    mutated = dataclasses.replace(S, pi=twist_one_coefficient(S.pi))
    assert mutated.pi != S.pi
    rep = verify_structure(mutated, samples=50, seed=7)
    assert not rep.ok
    failed = [c.name for c in rep.checks if not c.passed]
    assert "action-samples" in failed



def _failed(report):
    return [c.name for c in report.checks if not c.passed]


def _pi_off_theta(structure, monkeypatch):
    """Pi_t + I: its constant part is (theta + 1)*I + nilpotent."""
    return dataclasses.replace(structure, pi=structure.pi + SkewMatrix.identity(
        structure.spec, TAU, structure.rank))


def _coords_unreduced(structure, monkeypatch):
    """coords_of reading the slots of delta itself, not of its class."""
    monkeypatch.setattr(ExtStructure, "coords_of", lambda self, delta: tuple(
        delta.matrix.entry(r, c).coefficient(k) for (r, c, k) in self.basis))
    return structure


@pytest.mark.parametrize("plant, failed", [
    pytest.param(_pi_off_theta, ["constant-structure", "action-samples"],
                 id="pi-off-theta"),
    pytest.param(_coords_unreduced, ["action-samples", "inner-invariance"],
                 id="coords-unreduced"),
])
def test_verify_structure_planted_faults(monkeypatch, plant, failed):
    S = _structure(F9, "g + tau^3", "g + tau^2")
    rep = verify_structure(plant(S, monkeypatch), samples=50, seed=7)
    assert _failed(rep) == failed


@pytest.mark.parametrize("mode", ["sample", "enumerate"])
def test_verify_structure_refuses_a_basis_missing_a_slot(mode):
    """The structure with slot (0, 0, 2) and its row and column of Pi_t
    removed has the wrong rank; coords_of cannot read a canonical form with
    a coefficient there, so verification raises instead of passing."""
    S = _structure(F9, "g + tau^3", "g + tau^2")
    keep = tuple(a for a, slot in enumerate(S.basis) if slot != (0, 0, 2))
    fewer = dataclasses.replace(S, basis=tuple(S.basis[a] for a in keep),
                                pi=S.pi.submatrix(keep, keep))
    with pytest.raises(InvariantViolation) as err:
        verify_structure(fewer, samples=50, seed=7, mode=mode)
    assert str(err.value) == ("the canonical form has a coefficient outside "
                              "the basis at (0, 0, 2)")


def test_structure_verification_needs_finite_field():
    S = _structure(Q3, "th + tau^3", "th + tau^2")
    with pytest.raises(FiniteFieldRequired):
        verify_structure(S)


# ---------------------------------------------------------------------------
# Enumeration guards.


def test_carrier_guard():
    with pytest.raises(CarrierTooLarge):
        coordinate_vectors(F16, 6)
    assert len(list(coordinate_vectors(F4, 3))) == 64


def test_enumerate_ext_counts_and_canonicity():
    classes = enumerate_ext(_drin(F4, "g + tau^2"), _drin(F4, "g + tau"))
    assert len(classes) == 16
    assert len({c.matrix for c in classes}) == 16
    for c in classes[:6]:
        assert class_of(c).matrix == c.matrix


# ---------------------------------------------------------------------------
# Sequence verification.


def test_verify_ga_sequences():
    for src, tgt in (("g + tau^2", "g + tau"), ("g + tau^3", "g + tau"),
                     ("g + tau^3", "g + tau^2")):
        seq = ga_sequence(_structure(F4, src, tgt))
        rep = verify_ga(seq, seed=1)
        assert rep.ok, [c for c in rep.checks if not c.passed]
        assert [c.name for c in rep.checks] == [
            "kernel", "t-equivariance", "image-count",
            "inclusion-equivariance"]


def test_verify_ga_rejects_a_mistwisted_action():
    """Pi_t with tau added at (0, 0) breaks g(t*x) = theta*g(x) on the
    pure row; the kernel, the image and the inclusion still check out."""
    S = _structure(F8, "g + tau^3", "g + tau^2")
    seq = ga_sequence(S)
    r = S.rank
    bump = SkewMatrix.from_rows(F8, TAU, [
        [parse_poly(F8, "tau") if (i, j) == (0, 0) else SkewPoly.zero(F8, TAU)
         for j in range(r)] for i in range(r)])
    broken = GaSequence(dataclasses.replace(S, pi=S.pi + bump), seq.pure,
                        seq.g, seq.inclusion, seq.sub_pi)
    assert verify_ga(seq, seed=1).ok
    failed = [c.name for c in verify_ga(broken, seed=1).checks
              if not c.passed]
    assert failed == ["t-equivariance"]



def _pure_row_misplaced(seq):
    """pure names a row of the sub-t-module instead of the pure row."""
    rest = [a for a in range(seq.structure.rank) if a not in seq.pure]
    return GaSequence(seq.structure, (rest[0],), seq.g, seq.inclusion,
                      seq.sub_pi)


def _pure_row_twice(seq):
    """pure lists its row twice, so s counts it twice."""
    return GaSequence(seq.structure, seq.pure * 2, seq.g, seq.inclusion,
                      seq.sub_pi)


def _sub_action_shifted(seq):
    """The sub-t-module's action plus the identity."""
    return GaSequence(seq.structure, seq.pure, seq.g, seq.inclusion,
                      seq.sub_pi + SkewMatrix.identity(
                          seq.structure.spec, TAU, seq.sub_pi.nrows))


@pytest.mark.parametrize("plant, failed", [
    pytest.param(_pure_row_misplaced, ["kernel"], id="pure-row-misplaced"),
    pytest.param(_pure_row_twice, ["image-count"], id="pure-row-twice"),
    pytest.param(_sub_action_shifted, ["inclusion-equivariance"],
                 id="sub-action-shifted"),
])
def test_verify_ga_planted_faults(plant, failed):
    seq = ga_sequence(_structure(F4, "g + tau^3", "g + tau^2"))
    assert seq.pure == (0,)
    assert _failed(verify_ga(plant(seq), seed=1)) == failed

def test_verify_sixterm_bundle():
    E = _drin(F2, "1 + tau^2")
    F = _drin(F2, "1 + tau^3")
    d = Biderivation(E, F, parse_matrix(F2, "[[1]]"))
    rep = verify_sixterm(six_term(d, carlitz(F2)), seed=1, inner_samples=5)
    assert rep.ok, [c for c in rep.checks if not c.passed]
    assert [c.name for c in rep.checks] == _SIXTERM_CHECKS


_SIXTERM_CHECKS = [
    "co-hom-injective", "co-exact-hom-middle", "co-exact-hom-quot",
    "co-exact-ext-sub", "co-exact-ext-middle", "co-final-surjective",
    "contra-hom-injective", "contra-exact-hom-middle",
    "contra-exact-hom-sub", "contra-exact-ext-quot",
    "contra-exact-ext-middle", "contra-final-surjective",
    "ext-maps-well-defined"]


@pytest.mark.parametrize("broken, zero_class", [
    ("contra_ext_sub", lambda b: Biderivation.zero(b.sub, b.partner)),
    ("co_ext_quot", lambda b: Biderivation.zero(b.partner, b.quotient)),
])
def test_verify_sixterm_reads_each_side_its_own_maps(monkeypatch, broken,
                                                     zero_class):
    """A final Ext map sending every class to zero fails that side's
    surjectivity and leaves every check of the other side passing."""
    E = _drin(F2, "1 + tau^2")
    F = _drin(F2, "1 + tau^3")
    bundle = six_term(Biderivation(E, F, parse_matrix(F2, "[[1]]")),
                      carlitz(F2))
    monkeypatch.setattr(SixTerm, broken, lambda b, xi: zero_class(b))
    side = broken.split("_")[0]
    other = "co-" if side == "contra" else "contra-"
    passed = {c.name: c.passed
              for c in verify_sixterm(bundle, seed=1, inner_samples=5).checks}
    assert not passed[f"{side}-final-surjective"]
    assert all(ok for name, ok in passed.items() if name.startswith(other))


def test_verify_sixterm_rejects_ext_maps_that_skip_reduction(monkeypatch):
    """Criterion 9's bundle with co_ext_middle returning the unreduced
    biderivation: inner shifts of one class land on different matrices."""
    E = _drin(F2, "1 + tau^2")
    F = _drin(F2, "1 + tau^3")
    bundle = six_term(Biderivation(E, F, parse_matrix(F2, "[[1]]")),
                      carlitz(F2))
    monkeypatch.setattr(SixTerm, "co_ext_middle", lambda b, eta: Biderivation(
        b.partner, b.middle, (-b.inclusion) * eta.matrix))
    checks = {c.name: c
              for c in verify_sixterm(bundle, seed=9, inner_samples=20).checks}
    assert not checks["ext-maps-well-defined"].passed
    assert checks["ext-maps-well-defined"].detail == \
        "40 inner shifts, 17 class changes"


def test_verify_sixterm_enumerates_uncertified_hom_nodes(monkeypatch):
    """A two-dimensional partner: no rank certificate covers the Hom nodes
    between it and the two-dimensional middle, so they come from the
    bounded search and _node_hom's enumeration of its span."""
    E = _drin(F2, "1 + tau^2")
    F = _drin(F2, "1 + tau")
    G = tmodule(F2, parse_matrix(F2, "[[1 + tau^3, 0], [0, 1 + tau^3]]"))
    bundle = six_term(Biderivation(E, F, parse_matrix(F2, "[[0]]")), G)
    assert not hom_space(G, bundle.middle).complete
    shapes = []
    node_hom = oracle._node_hom

    def recorded(source, target):
        shapes.append((source.dim, target.dim))
        return node_hom(source, target)

    monkeypatch.setattr(oracle, "_node_hom", recorded)
    rep = verify_sixterm(bundle, seed=1, inner_samples=5)
    assert rep.ok, [c for c in rep.checks if not c.passed]
    assert shapes.count((2, 2)) == 2



def test_node_hom_is_the_span_of_the_bounded_basis():
    """Hom(phi, phi) for phi = 1 + tau^3 over GF(2) has the bounded basis
    1, tau, tau^2; the node is all 8 of their F_2-combinations."""
    phi = _drin(F2, "1 + tau^3")
    one, tau, tau2 = (parse_matrix(F2, f"[[{x}]]")
                      for x in ("1", "tau", "tau^2"))
    assert hom_space(phi, phi).basis == (one, tau, tau2)
    node = oracle._node_hom(phi, phi)
    assert len(node) == 8
    assert set(node) == {a * one + b * tau + c * tau2
                         for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    for f in node:
        check_morphism(f, phi, phi)


def _criterion_nine_bundle():
    E = _drin(F2, "1 + tau^2")
    F = _drin(F2, "1 + tau^3")
    return six_term(Biderivation(E, F, parse_matrix(F2, "[[1]]")),
                    carlitz(F2))


_ONE = parse_matrix(F2, "[[1]]")


def _maps(**maps):
    """A plant replacing SixTerm maps; each takes (bundle, input)."""
    def plant(bundle, monkeypatch):
        for name, fn in maps.items():
            monkeypatch.setattr(SixTerm, name, fn)
    return plant


def _two_element_node(side, **maps):
    """A plant giving the side's first Hom node the two elements 0 and 1
    (as if it were Hom(G, sub) or Hom(quot, G) = F_2), and replacing
    SixTerm maps as _maps does."""
    def plant(bundle, monkeypatch):
        pair = ((bundle.partner, bundle.sub) if side == "co"
                else (bundle.quotient, bundle.partner))
        node_hom = oracle._node_hom
        monkeypatch.setattr(oracle, "_node_hom", lambda s, t: (
            [0 * _ONE, _ONE] if (s, t) == pair else node_hom(s, t)))
        _maps(**maps)(bundle, monkeypatch)
    return plant


def _slots(edit):
    """A plant making enumerate_ext build each Ext node on the slots that
    edit makes of the true ones."""
    def plant(bundle, monkeypatch):
        slots = oracle.canonical_slots
        monkeypatch.setattr(oracle, "canonical_slots",
                            lambda s, t: edit(slots(s, t)))
    return plant


@pytest.mark.parametrize("plant, failed", [
    pytest.param(_two_element_node(
        "co", co_hom_sub=lambda b, f: 0 * b.inclusion),
        ["co-hom-injective"], id="co-hom-sub-zero-on-two-elements"),
    pytest.param(_maps(co_hom_sub=lambda b, f: b.inclusion),
                 ["co-exact-hom-middle"], id="co-hom-sub-not-linear"),
    pytest.param(_maps(co_connect=lambda b, f: class_of(
        Biderivation(b.partner, b.sub, _ONE))),
        ["co-exact-hom-quot", "co-exact-ext-sub"], id="co-connect-constant"),
    pytest.param(_maps(co_ext_middle=lambda b, eta: Biderivation.zero(
        b.partner, b.middle)),
        ["co-exact-ext-sub", "co-exact-ext-middle"], id="co-ext-middle-zero"),
    pytest.param(_two_element_node(
        "contra", contra_hom_quot=lambda b, g: 0 * b.projection),
        ["contra-hom-injective"], id="contra-hom-quot-zero-on-two-elements"),
    pytest.param(_maps(contra_hom_quot=lambda b, g: b.projection),
                 ["contra-exact-hom-middle"], id="contra-hom-quot-not-linear"),
    pytest.param(_maps(contra_connect=lambda b, g: class_of(
        Biderivation(b.quotient, b.partner, _ONE))),
        ["contra-exact-hom-sub", "contra-exact-ext-quot"],
        id="contra-connect-constant"),
    pytest.param(_maps(contra_ext_middle=lambda b, eta: Biderivation.zero(
        b.middle, b.partner)),
        ["contra-exact-ext-quot", "contra-exact-ext-middle"],
        id="contra-ext-middle-zero"),
    pytest.param(_maps(contra_ext_middle=lambda b, eta: Biderivation(
        b.middle, b.partner, eta.matrix * (-b.projection))),
        ["ext-maps-well-defined"], id="contra-ext-middle-unreduced"),
    pytest.param(_slots(lambda slots: slots + (
        slots[-1][:2] + (slots[-1][2] + 1,),)),
        ["co-exact-ext-sub", "co-exact-ext-middle", "co-final-surjective",
         "contra-exact-ext-quot", "contra-exact-ext-middle",
         "contra-final-surjective"], id="extra-slot"),
    pytest.param(_slots(lambda slots: slots[:-1]),
                 ["co-final-surjective", "contra-final-surjective"],
                 id="missing-slot"),
])
def test_verify_sixterm_planted_faults(monkeypatch, plant, failed):
    bundle = _criterion_nine_bundle()
    plant(bundle, monkeypatch)
    assert _failed(verify_sixterm(bundle, seed=1, inner_samples=5)) == failed


def _enumerate_ext_reference(source, target):
    """Every Ext node as enumerate_ext built it through
    SkewMatrix.from_slots, one matrix per coordinate vector."""
    slots = oracle.canonical_slots(source, target)
    spec, var = source.spec, source.var
    return [Biderivation(source, target, SkewMatrix.from_slots(
        spec, var, target.dim, source.dim, slots, coords))
        for coords in coordinate_vectors(spec, len(slots))]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda slots: slots, id="true-slots"),
    pytest.param(lambda slots: slots + (slots[-1][:2] + (slots[-1][2] + 1,),),
                 id="extra-slot"),
    pytest.param(lambda slots: slots[:-1], id="missing-slot"),
])
def test_enumerate_ext_matches_the_slot_construction(monkeypatch, edit):
    """enumerate_ext lists the reference's representatives in its order, on
    the six Ext nodes of criterion 9's bundle and a matrix-source pair over
    GF(3^2), also on the slots that the planted faults above make."""
    slots = oracle.canonical_slots
    monkeypatch.setattr(oracle, "canonical_slots",
                        lambda s, t: edit(slots(s, t)))
    b = _criterion_nine_bundle()
    G, E, X, F = b.partner, b.quotient, b.middle, b.sub
    mat = tmodule(F9, parse_matrix(
        F9, "[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^2"))
    pairs = [(G, F), (G, X), (G, E), (E, G), (X, G), (F, G),
             (mat, _drin(F9, "g + tau"))]
    for source, target in pairs:
        got = enumerate_ext(source, target)
        want = _enumerate_ext_reference(source, target)
        assert len(got) == len(want) > 1
        assert all(x == y for x, y in zip(got, want))


@pytest.mark.parametrize("inner_samples", [0, 10])
def test_verify_sixterm_evaluates_each_map_once_per_element(monkeypatch,
                                                            inner_samples):
    """On oracle-verify's GF(2) bundle each of the ten SixTerm maps runs
    once per element of its domain node, whose value serves both the image
    there and the kernel at the node before; the map out of Ext0 runs once
    more per inner shift, on the shifted class only."""
    bundle = _criterion_nine_bundle()
    G, E, X, F = bundle.partner, bundle.quotient, bundle.middle, bundle.sub
    node_hom = oracle._node_hom
    domains = {
        "co_hom_sub": node_hom(G, F), "co_hom_quot": node_hom(G, X),
        "co_connect": node_hom(G, E), "co_ext_middle": enumerate_ext(G, F),
        "co_ext_quot": enumerate_ext(G, X),
        "contra_hom_quot": node_hom(E, G), "contra_hom_sub": node_hom(X, G),
        "contra_connect": node_hom(F, G),
        "contra_ext_middle": enumerate_ext(E, G),
        "contra_ext_sub": enumerate_ext(X, G)}
    calls = dict.fromkeys(domains, 0)
    for name in domains:
        def counted(b, x, name=name, real=getattr(SixTerm, name)):
            calls[name] += 1
            return real(b, x)
        monkeypatch.setattr(SixTerm, name, counted)
    rep = verify_sixterm(bundle, seed=1, inner_samples=inner_samples)
    assert rep.ok, [c for c in rep.checks if not c.passed]
    shifts = dict.fromkeys(("co_ext_middle", "contra_ext_middle"),
                           inner_samples)
    assert calls == {name: len(dom) + shifts.get(name, 0)
                     for name, dom in domains.items()}


def test_verify_sixterm_reduces_only_the_values_of_ext_maps(monkeypatch):
    """On oracle-verify's GF(2) bundle with 4 inner shifts per side, the
    oracle reduces 86 times: once per evaluation of a map into an Ext node
    (78) and once per shifted class (8).  The enumerated Ext nodes are
    compared as they are, not reduced again."""
    calls = 0
    reduce_canonical = homological.reduce_canonical

    def counted(delta, regime=None):
        nonlocal calls
        calls += 1
        return reduce_canonical(delta, regime)

    monkeypatch.setattr(homological, "reduce_canonical", counted)
    assert verify_sixterm(_criterion_nine_bundle(), seed=1,
                          inner_samples=4).ok
    assert calls == 86


def test_verify_duality_passes_and_is_deterministic():
    rep1 = verify_duality(_drin(F8, "g + tau^3"), _drin(F8, "g + tau^2"),
                          classes=30, seed=2)
    rep2 = verify_duality(_drin(F8, "g + tau^3"), _drin(F8, "g + tau^2"),
                          classes=30, seed=2)
    assert rep1.ok
    assert rep1.to_json() == rep2.to_json()
    assert [c.name for c in rep1.checks] == [
        "inner-transport", "action-transport", "double-adjoint",
        "anti-homomorphism", "class-transport", "action-classes"]


def test_verify_duality_rejects_a_mistwisted_adjoint(monkeypatch):
    """An adjoint twisting coefficient i by +s*i instead of -s*i.  Over
    GF(p^2) twist(a, i) == twist(a, -i), so GF(2^3) is needed to see it."""
    def mistwisted(self):
        var = SIGMA if self.var == TAU else TAU
        return SkewPoly.from_pairs(self.spec, var, [
            (i, self.coefficient(i).twist(self.sign * i))
            for i in range(self.degree + 1)])

    monkeypatch.setattr(SkewPoly, "adjoint", mistwisted)
    rep = verify_duality(_drin(F8, "g + tau^3"), _drin(F8, "g + tau^2"),
                         classes=30, seed=2)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["inner-transport", "action-transport",
                      "anti-homomorphism", "class-transport",
                      "action-classes"]



def _sigma_adjoint_negated(self, adjoint=SkewPoly.adjoint):
    """The adjoint of a sigma-polynomial negated: tau -> sigma is right,
    but the way back is not its inverse."""
    return -adjoint(self) if self.var == SIGMA else adjoint(self)


def _untransposed_adjoint(self):
    """Entrywise adjoint without the transposition."""
    return SkewMatrix(self.spec, SIGMA if self.var == TAU else TAU, tuple(
        tuple(p.adjoint() for p in row) for row in self.entries))


@pytest.mark.parametrize("cls, adjoint, failed", [
    pytest.param(SkewPoly, _sigma_adjoint_negated, ["double-adjoint"],
                 id="not-an-involution"),
    pytest.param(SkewMatrix, _untransposed_adjoint, ["anti-homomorphism"],
                 id="untransposed"),
])
def test_verify_duality_planted_faults(monkeypatch, cls, adjoint, failed):
    """Over GF(3^2), where -1 != 1."""
    monkeypatch.setattr(cls, "adjoint", adjoint)
    rep = verify_duality(_drin(F9, "g + tau^3"), _drin(F9, "g + tau^2"),
                         classes=30, seed=2)
    assert _failed(rep) == failed

def test_verify_duality_needs_finite_field():
    with pytest.raises(FiniteFieldRequired):
        verify_duality(_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))


# ---------------------------------------------------------------------------
# Seeded samples: the oracle's samplers draw what a reference built from
# randrange and the public constructors draws, element for element.


def _ref_element(spec, rng):
    return spec.from_fp_coords([rng.randrange(spec.p)
                                for _ in range(spec.m)])


def _ref_poly(spec, var, rng, max_deg):
    return SkewPoly.from_pairs(spec, var, [
        (d, _ref_element(spec, rng)) for d in range(max_deg + 1)])


def _ref_matrix(spec, var, rng, nrows, ncols, max_deg):
    return SkewMatrix.from_rows(spec, var, [
        [_ref_poly(spec, var, rng, max_deg) for _ in range(ncols)]
        for _ in range(nrows)])


def _ref_biderivation(source, target, rng, max_deg=None):
    if max_deg is None:
        max_deg = max(source.rank, target.rank) + 2
    return Biderivation(source, target, _ref_matrix(
        source.spec, source.var, rng, target.dim, source.dim, max_deg))


def _ref_coords(spec, rank, rng):
    return tuple(_ref_element(spec, rng) for _ in range(rank))


_REFERENCE_SAMPLERS = {"random_poly": _ref_poly,
                       "random_matrix": _ref_matrix,
                       "random_biderivation": _ref_biderivation,
                       "_random_coords": _ref_coords}


def _draws(spec, rng, element, samplers):
    """One of each sampler's draws, then the generator's next float, which
    tells whether both consumed the same random bits."""
    th = str(spec.theta())
    src, tgt = _drin(spec, f"{th} + tau^3"), _drin(spec, f"{th} + tau")
    return [element(spec, rng),
            samplers["random_poly"](spec, TAU, rng, 4),
            samplers["random_poly"](spec, SIGMA, rng, 0),
            samplers["random_matrix"](spec, SIGMA, rng, 2, 3, 2),
            samplers["random_biderivation"](src, tgt, rng),
            samplers["random_biderivation"](src, tgt, rng, 1),
            samplers["_random_coords"](spec, 4, rng),
            rng.random()]


@pytest.mark.parametrize("header", ["GF(5)", "GF(3^2)", "GF(2^3)",
                                    "GF(2^13)"])
def test_samplers_draw_what_randrange_and_the_constructors_draw(header):
    """GF(2^13) is above ZECH_LIMIT, so its arithmetic is _PolyOps'."""
    spec = parse_field(header)
    assert header != "GF(2^13)" or isinstance(spec._ops,
                                              coefficients._PolyOps)
    ours = {name: getattr(oracle, name) for name in _REFERENCE_SAMPLERS}
    for seed in range(20):
        got = _draws(spec, random.Random(seed),
                     lambda spec, rng: spec.random_element(rng), ours)
        want = _draws(spec, random.Random(seed), _ref_element,
                      _REFERENCE_SAMPLERS)
        assert got == want, seed
        assert [str(x) for x in got] == [str(x) for x in want]


def test_samplers_need_a_finite_field():
    src, tgt = _drin(Q3, "th + tau^3"), _drin(Q3, "th + tau")
    rng = random.Random(0)
    for draw in (lambda: Q3.random_element(rng),
                 lambda: oracle.random_poly(Q3, TAU, rng, 2),
                 lambda: oracle.random_matrix(Q3, TAU, rng, 1, 1, 2),
                 lambda: oracle.random_biderivation(src, tgt, rng),
                 lambda: oracle._random_coords(Q3, 2, rng)):
        with pytest.raises(FiniteFieldRequired):
            draw()


def _verdict_cases():
    """(name, verify(seed)) for every verifier that draws at random: the
    three criterion-4 pairs over both fields, one mis-twisted structure,
    duality over GF(2^3) and GF(3^2), and the criterion-9 bundle."""
    cases = []
    for spec in (F9, F8):
        two_dim = tmodule(spec, parse_matrix(
            spec, "[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^2"))
        for src, tgt in ((_drin(spec, "g + tau^3"), _drin(spec, "g + tau^2")),
                         (_drin(spec, "g + tau^2"), _drin(spec, "g + tau")),
                         (two_dim, _drin(spec, "g + tau"))):
            S = ext_structure(src, tgt)
            cases.append((f"structure {spec.header()} {src}", lambda seed, S=S:
                          verify_structure(S, samples=30, seed=seed)))
        cases.append((f"duality {spec.header()}", lambda seed, spec=spec:
                      verify_duality(_drin(spec, "g + tau^3"),
                                     _drin(spec, "g + tau^2"), classes=10,
                                     seed=seed)))
    S = _structure(F9, "g + tau^3", "g + tau^2")
    wrong = dataclasses.replace(S, pi=twist_one_coefficient(S.pi))
    cases.append(("mistwisted", lambda seed: verify_structure(
        wrong, samples=30, seed=seed)))
    bundle = _criterion_nine_bundle()
    cases.append(("sixterm", lambda seed: verify_sixterm(
        bundle, seed=seed, inner_samples=5)))
    return cases


def test_seeded_verdicts_match_the_reference_sampler(monkeypatch):
    """Every seeded report equals the one made with the reference samplers
    in the oracle's place; the mis-twisted structure is rejected."""
    cases = _verdict_cases()
    ours = {name: [case(seed).to_json() for seed in range(5)]
            for name, case in cases}
    for name, fn in _REFERENCE_SAMPLERS.items():
        monkeypatch.setattr(oracle, name, fn)
    for name, case in cases:
        assert ours[name] == [case(seed).to_json() for seed in range(5)], name
    assert not any(report["ok"] for report in ours["mistwisted"])
    assert all(report["ok"] for name, reports in ours.items()
               if name != "mistwisted" for report in reports)


# ---------------------------------------------------------------------------
# Report plumbing.


def test_report_aggregation():
    good = Check("a", True, "fine")
    bad = Check("b", False, "broken")
    rep = Report.from_checks([good, bad])
    assert not rep.ok
    assert Report.from_checks([good]).ok
    data = rep.to_json()
    assert data["ok"] is False
    assert data["checks"][1] == {"name": "b", "passed": False,
                                 "detail": "broken"}
