"""Biderivations: inner maps, regimes, canonical reduction, assembly."""

import os
import random
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import tmodext
import tmodext.biderivations as biderivations
from tmodext import (
    SIGMA,
    TAU,
    Biderivation,
    DimensionMismatch,
    InvalidModule,
    InvariantViolation,
    MixedFields,
    MixedPairs,
    NotAQthPower,
    ParseError,
    SkewMatrix,
    SkewPoly,
    TModule,
    UnsupportedRegime,
    assemble,
    canonical_slots,
    carlitz,
    carlitz_power,
    check_morphism,
    drinfeld,
    ext_product,
    ext_structure,
    inner_matrix,
    make_finite,
    make_formal,
    make_rational,
    morphism_residual,
    parse_apoly,
    parse_element,
    parse_field,
    parse_matrix,
    parse_module,
    parse_poly,
    parse_value,
    reduce_canonical,
    select_regime,
    six_term,
    tmodule,
    trivial,
    verify_structure,
)
from tmodext.ext_structures import _FormOps
from tmodext.oracle import random_biderivation, random_matrix
from tmodext.skewpoly import _add_into, _mul_into, const_inverse, twist_sign

F9 = make_finite(3, 2)
F4 = make_finite(2, 2)
Q3 = make_rational(3)
FC = make_formal(3, generators=("c",))
FCT = FC  # th is always appended to the generators

SRC3 = drinfeld(FC, parse_poly(FC, "th[0] + tau^3"))
TGT2 = drinfeld(FC, parse_poly(FC, "th[0] + tau^2"))


def _c(i=0):
    return FC.symbol("c", i)


# ---------------------------------------------------------------------------
# Inner biderivations.


def test_inner_constant_golden():
    u = SkewMatrix.from_const(FC, TAU, ((_c(),),))
    inner = inner_matrix(SRC3, TGT2, u)
    assert str(inner.entry(0, 0)) == "(2*c[2])*tau^2 + c[0]*tau^3"


def test_inner_degree_one_golden():
    u = SkewMatrix.from_rows(FC, TAU, [[parse_poly(FC, "c[0]*tau")]])
    inner = inner_matrix(SRC3, TGT2, u)
    th = FC.theta()
    f = inner.entry(0, 0)
    assert f.coefficient(1) == _c() * (th.twist(1) - th)
    assert f.coefficient(3) == -_c(2)
    assert f.coefficient(4) == _c()
    assert f.degree == 4


def test_inner_is_linear():
    rng = random.Random(0)
    src = drinfeld(F9, parse_poly(F9, "g + tau^3"))
    tgt = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    for _ in range(10):
        u = random_matrix(F9, TAU, rng, 1, 1, 3)
        v = random_matrix(F9, TAU, rng, 1, 1, 3)
        assert inner_matrix(src, tgt, u + v) == \
            inner_matrix(src, tgt, u) + inner_matrix(src, tgt, v)


# ---------------------------------------------------------------------------
# Regime selection.


def test_regime_classification():
    C = carlitz(Q3)
    r2 = drinfeld(Q3, parse_poly(Q3, "th + tau^2"))
    r3 = drinfeld(Q3, parse_poly(Q3, "th + tau^3"))
    tri = tmodule(Q3, parse_matrix(Q3, "[[th + tau^2, 0], [1, th + tau^3]]"))
    c2 = carlitz_power(Q3, 2)
    mat = tmodule(Q3, parse_matrix(
        Q3, "[[th, 1], [0, th]] + [[1, 0], [0, 1]]*tau^2"))
    diag = tmodule(Q3, parse_matrix(Q3, "[[th + tau^3, 0], [0, th + tau^2]]"))

    assert select_regime(r3, r2) == "drinfeld-forward"
    assert select_regime(r2, r3) == "drinfeld-reversed"
    assert select_regime(mat, C) == "matrix-source"
    assert select_regime(tri, C) == "triangular-source"
    assert select_regime(r3, c2) == "carlitz-target"
    assert select_regime(C, tri) == "triangular-target-reversed"
    # a diagonal source over a one-dimensional target is already
    # triangular-source; diagonal-pairs needs both sides multi-dimensional
    assert select_regime(diag, C) == "triangular-source"
    mixed = tmodule(Q3, parse_matrix(Q3, "[[th + tau^3, 0], [0, th + tau]]"))
    tgt2 = tmodule(Q3, parse_matrix(Q3, "[[th + tau^2, 0], [0, th + tau^2]]"))
    assert select_regime(mixed, tgt2) == "diagonal-pairs"
    with pytest.raises(UnsupportedRegime):
        select_regime(mixed, r2)
    with pytest.raises(UnsupportedRegime):
        select_regime(r2, r2)
    with pytest.raises(UnsupportedRegime):
        select_regime(C, C)


def test_canonical_slot_orders():
    C = carlitz(Q3)
    r2 = drinfeld(Q3, parse_poly(Q3, "th + tau^2"))
    r3 = drinfeld(Q3, parse_poly(Q3, "th + tau^3"))
    assert canonical_slots(r3, r2) == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    assert canonical_slots(r2, r3) == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    tri = tmodule(Q3, parse_matrix(Q3, "[[th + tau^2, 0], [1, th + tau^3]]"))
    assert canonical_slots(tri, C) == (
        (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 0), (0, 0, 1))
    assert canonical_slots(C, tri) == (
        (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 0, 2))
    diag = tmodule(Q3, parse_matrix(Q3, "[[th + tau^3, 0], [0, th + tau^2]]"))
    assert canonical_slots(diag, C) == (
        (0, 1, 0), (0, 1, 1), (0, 0, 0), (0, 0, 1), (0, 0, 2))
    # diagonal pairs: source column major, then target row, then degree
    # below the larger of the two ranks meeting at that entry
    mixed = tmodule(Q3, parse_matrix(Q3, "[[th + tau^3, 0], [0, th + tau]]"))
    tgt2 = tmodule(Q3, parse_matrix(Q3, "[[th + tau^2, 0], [0, th + tau^2]]"))
    assert canonical_slots(mixed, tgt2) == (
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 0, 1), (1, 0, 2),
        (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1))


def test_mixed_fields_rejected_in_biderivation():
    src = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    tgt = drinfeld(F4, parse_poly(F4, "g + tau"))
    with pytest.raises(MixedPairs):
        Biderivation(src, tgt, parse_matrix(F9, "[[tau]]"))


def test_equal_but_distinct_specs_combine():
    """Two parses of one header give one spec object: everything built over
    one parse combines with everything built over the other.  Unequal specs
    still raise at every site that compares them."""
    one, two = parse_field("GF(3^2)"), parse_field("GF(3^2)")
    assert one is two and one == two and hash(one) == hash(two)
    assert len({one, two, parse_field("GF(3^2; mod=g^2+2*g+2)")}) == 2
    assert one != "GF(3^2)"
    assert parse_element(one, "g") * parse_element(two, "g + 1") == \
        parse_element(one, "g^2 + g")
    assert parse_poly(one, "g*tau") * parse_poly(two, "tau + 1") == \
        parse_poly(one, "g*tau + g*tau^2")
    assert parse_poly(one, "tau") * parse_element(two, "g") == \
        parse_element(two, "g") * parse_poly(one, "g^2*tau")
    m1, m2 = parse_matrix(one, "[[g, tau]]"), parse_matrix(two, "[[1], [g]]")
    assert m1 * m2 == parse_matrix(one, "[[g + g^3*tau]]")
    assert m1 * parse_element(two, "g") == parse_element(two, "g") * \
        parse_matrix(one, "[[g, g^2*tau]]")
    assert SkewMatrix.from_rows(one, TAU, [[parse_poly(two, "tau")]]) == \
        parse_matrix(one, "[[tau]]")
    src = drinfeld(one, parse_poly(one, "g + tau^3"))
    tgt = drinfeld(two, parse_poly(two, "g + tau^2"))
    assert tmodule(one, parse_matrix(two, "[[g + tau]]")).dim == 1
    assert select_regime(src, tgt) == "drinfeld-forward"
    assert morphism_residual(parse_matrix(two, "[[0]]"), src, tgt).is_zero()
    delta = Biderivation(src, tgt, parse_matrix(two, "[[tau^4]]"))
    assert reduce_canonical(delta).canonical.matrix.max_degree < 3

    other = parse_field("GF(3^2; mod=g^2+2*g+2)")
    assert other != one
    for combine in (
            lambda: parse_element(one, "g") * parse_element(other, "g"),
            lambda: parse_poly(one, "tau") * parse_poly(other, "tau"),
            lambda: parse_poly(one, "tau") * parse_element(other, "g"),
            lambda: parse_element(other, "g") * parse_poly(one, "tau"),
            lambda: parse_poly(one, "tau") + parse_element(other, "g"),
            lambda: parse_poly(one, "tau") * parse_element(
                parse_field("GF(3)(th)"), "th"),
            lambda: parse_matrix(one, "[[tau, 0]]") * parse_element(
                other, "g"),
            lambda: parse_element(other, "g") * parse_matrix(
                one, "[[tau, 0]]"),
            lambda: parse_matrix(one, "[[tau]]") * parse_matrix(
                other, "[[tau]]"),
            lambda: SkewMatrix.from_rows(one, TAU, [[parse_poly(
                other, "tau")]]),
            lambda: tmodule(one, parse_matrix(other, "[[g + tau]]")),
            lambda: morphism_residual(parse_matrix(one, "[[0]]"), src,
                                      drinfeld(other, parse_poly(
                                          other, "g + tau^2")))):
        with pytest.raises(MixedFields):
            combine()
    far = drinfeld(other, parse_poly(other, "g + tau^2"))
    with pytest.raises(MixedPairs, match="different domains"):
        select_regime(src, far)
    with pytest.raises(MixedPairs, match="mixed domains"):
        Biderivation(src, far, parse_matrix(one, "[[tau]]"))
    with pytest.raises(MixedPairs, match="mixed domains"):
        Biderivation(src, tgt, parse_matrix(other, "[[tau]]"))


# ---------------------------------------------------------------------------
# Reduction: witness identity, idempotence, linearity.


def _pairs_f9():
    C = carlitz(F9)
    r2 = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    r3 = drinfeld(F9, parse_poly(F9, "g + tau^3"))
    tri = tmodule(F9, parse_matrix(F9, "[[g + tau^2, 0], [1, g + tau^3]]"))
    c2 = carlitz_power(F9, 2)
    mat = tmodule(F9, parse_matrix(
        F9, "[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^2"))
    diag = tmodule(F9, parse_matrix(F9, "[[g + tau^3, 0], [0, g + tau^2]]"))
    mixed = tmodule(F9, parse_matrix(F9, "[[g + tau^3, 0], [0, g + tau]]"))
    tgt24 = tmodule(F9, parse_matrix(F9, "[[g + tau^2, 0], [0, g + tau^4]]"))
    return [(r3, r2), (r2, r3), (mat, C), (tri, C), (r3, c2), (C, tri),
            (diag, C), (mixed, tgt24)]


def test_pairs_cover_every_regime():
    regimes = {select_regime(src, tgt) for src, tgt in _pairs_f9()}
    assert regimes == set(biderivations._PLANS)


def test_reduction_witness_identity_all_regimes():
    rng = random.Random(11)
    for src, tgt in _pairs_f9():
        slots = set(canonical_slots(src, tgt))
        for _ in range(8):
            delta = random_biderivation(src, tgt, rng)
            result = reduce_canonical(delta)
            recomputed = delta.matrix - inner_matrix(src, tgt,
                                                     result.witness)
            assert recomputed == result.canonical.matrix
            for r in range(tgt.dim):
                for c in range(src.dim):
                    for deg, _coeff in \
                            result.canonical.matrix.entry(r, c).coeffs:
                        assert (r, c, deg) in slots
            again = reduce_canonical(result.canonical)
            assert again.canonical.matrix == result.canonical.matrix
            assert again.witness.is_zero()


def test_reduction_is_linear():
    rng = random.Random(5)
    src = drinfeld(F9, parse_poly(F9, "g + tau^3"))
    tgt = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    for _ in range(20):
        d1 = random_biderivation(src, tgt, rng)
        d2 = random_biderivation(src, tgt, rng)
        lhs = reduce_canonical(Biderivation(
            src, tgt, d1.matrix + d2.matrix)).canonical.matrix
        rhs = reduce_canonical(d1).canonical.matrix + \
            reduce_canonical(d2).canonical.matrix
        assert lhs == rhs


def test_inner_reduces_to_zero():
    rng = random.Random(3)
    for src, tgt in _pairs_f9():
        for _ in range(5):
            u = random_matrix(F9, TAU, rng, tgt.dim, src.dim,
                              max(src.rank, tgt.rank))
            delta = Biderivation(src, tgt, inner_matrix(src, tgt, u))
            assert reduce_canonical(delta).canonical.is_zero()


def test_scalar_action_reduction_golden():
    delta = Biderivation(SRC3, TGT2, SkewMatrix.from_rows(
        FC, TAU, [[parse_poly(FC, "c[0]*tau^2")]]))
    acted = Biderivation(SRC3, TGT2, TGT2.t_matrix * delta.matrix)
    result = reduce_canonical(acted)
    th = FC.theta()
    f = result.canonical.matrix.entry(0, 0)
    assert f.coefficient(1) == _c(2) * (th - th.twist(1))
    assert f.coefficient(2) == th * _c() + _c(6)
    assert f.degree == 2


# Seeded reductions over each domain kind, on the entrywise plans (forward
# and reversed) and the layered matrix-source plan, pinned to the canonical
# forms and witnesses printed before the kernels moved to payloads.
FCI = make_formal(3, generators=("c",), invertibles=("c",))
_PINNED_DOMAINS = {
    "finite": (F9, "g", ("0", "1", "2", "g", "2*g + 1", "g + 2")),
    "rational": (Q3, "th", ("0", "1", "2", "th", "1/th",
                            "(1 + th)/(2 + th^2)")),
    "formal": (FCI, "th[0]", ("0", "1", "2", "c[0]", "th[1] + c[-1]",
                              "1/c[2]")),
}
_PINNED_SOURCES = {
    "drinfeld-forward": "{th} + tau^3",
    "drinfeld-reversed": "{th} + tau^2",
    "matrix-source": "[[{th}, 1], [0, {th}]] + [[1, 0], [0, 1]]*tau^3",
}
_PINNED_TARGETS = {"drinfeld-reversed": "{th} + tau^3"}
_PINNED = {
    ("finite", "drinfeld-forward"): (
        "[[g*tau + (2 + g)*tau^4 + 2*tau^5]]",
        "[[tau + (1 + g)*tau^2]]",
        "[[1 + g + (1 + g)*tau + 2*tau^2]]"),
    ("finite", "drinfeld-reversed"): (
        "[[g*tau + (2 + g)*tau^4 + 2*tau^5]]",
        "[[(1 + 2*g)*tau + (1 + g)*tau^2]]",
        "[[2 + 2*g + (2 + g)*tau + tau^2]]"),
    ("finite", "matrix-source"): (
        "[[g*tau + (2 + g)*tau^4 + 2*tau^5, g + (2 + g)*tau + tau^2 + g*tau^3"
        " + tau^4 + 2*tau^5]]",
        "[[tau + (1 + g)*tau^2, 2 + tau + (2 + g)*tau^2]]",
        "[[1 + g + (1 + g)*tau + 2*tau^2, g + 2*tau^2]]"),
    ("rational", "drinfeld-forward"): (
        "[[th*tau + (1/(2 + th))*tau^4 + 2*tau^5]]",
        "[[(2*th + 2*th^2 + th^3)*tau + ((2 + th + 2*th^9 + 2*th^81 + 2*th^82"
        " + th^90)/(2 + th^81))*tau^2]]",
        "[[(2 + 2*th^9)/(2 + th^9) + ((2 + 2*th)/(2 + th))*tau + 2*tau^2]]"),
    ("rational", "matrix-source"): (
        "[[th*tau + (1/(2 + th))*tau^4 + 2*tau^5, th + (1/(2 + th))*tau"
        " + tau^2 + th*tau^3 + tau^4 + 2*tau^5]]",
        "[[(2*th + 2*th^2 + th^3)*tau + ((2 + th + 2*th^9 + 2*th^81 + 2*th^82"
        " + th^90)/(2 + th^81))*tau^2, (1 + 2*th + th^9 + th^10)/(2 + th^9)"
        " + tau + (2 + 2*th + 2*th^9)*tau^2]]",
        "[[(2 + 2*th^9)/(2 + th^9) + ((2 + 2*th)/(2 + th))*tau + 2*tau^2, th"
        " + 2*tau^2]]"),
    ("formal", "drinfeld-forward"): (
        "[[c[0]*tau + (1/c[2])*tau^4 + 2*tau^5]]",
        "[[((c[0]*c[2] + 2*c[2]*th[0] + c[2]*th[1] + th[0]"
        " + 2*th[1])/c[2])*tau + ((1 + 2*c[6] + 2*c[6]*th[0]"
        " + c[6]*th[2])/c[6])*tau^2]]",
        "[[(1 + 2*c[4])/c[4] + ((1 + 2*c[2])/c[2])*tau + 2*tau^2]]"),
    ("formal", "drinfeld-reversed"): (
        "[[c[0]*tau + (1/c[2])*tau^4 + 2*tau^5]]",
        "[[((c[-1]*c[0] + c[-1]*th[0] + 2*c[-1]*th[1] + 2*th[0]"
        " + th[1])/c[-1])*tau + ((1 + 2*c[-4] + c[-4]*th[0]"
        " + 2*c[-4]*th[2])/c[-4])*tau^2]]",
        "[[(2 + c[-4])/c[-4] + ((2 + c[-1])/c[-1])*tau + tau^2]]"),
    ("formal", "matrix-source"): (
        "[[c[0]*tau + (1/c[2])*tau^4 + 2*tau^5, c[0] + (1/c[2])*tau + tau^2"
        " + c[0]*tau^3 + tau^4 + 2*tau^5]]",
        "[[((c[0]*c[2] + 2*c[2]*th[0] + c[2]*th[1] + th[0]"
        " + 2*th[1])/c[2])*tau + ((1 + 2*c[6] + 2*c[6]*th[0]"
        " + c[6]*th[2])/c[6])*tau^2, (2 + c[0]*c[4] + c[4])/c[4] + tau + (2"
        " + c[2] + 2*th[0] + th[2])*tau^2]]",
        "[[(1 + 2*c[4])/c[4] + ((1 + 2*c[2])/c[2])*tau + 2*tau^2, c[0]"
        " + 2*tau^2]]"),
}


def _pinned_delta(kind, regime):
    spec, th, texts = _PINNED_DOMAINS[kind]
    rng = random.Random(2027)
    pool = [parse_element(spec, text) for text in texts]
    src = tmodule(spec, parse_matrix(
        spec, _PINNED_SOURCES[regime].format(th=th)))
    tgt = drinfeld(spec, parse_poly(
        spec, _PINNED_TARGETS.get(regime, "{th} + tau^2").format(th=th)))
    return Biderivation(src, tgt, SkewMatrix.from_rows(spec, TAU, [[
        SkewPoly.from_pairs(spec, TAU, [(d, rng.choice(pool))
                                        for d in range(6)])
        for _ in range(src.dim)]]))


@pytest.mark.parametrize("kind, regime", sorted(_PINNED))
def test_reduction_pinned_over_every_domain_kind(kind, regime):
    delta = _pinned_delta(kind, regime)
    result = reduce_canonical(delta)
    assert result.regime == regime
    assert (str(delta.matrix), str(result.canonical.matrix),
            str(result.witness)) == _PINNED[kind, regime]


# The self-check must survive ``python -O``, which strips assert statements.
_WRONG_WITNESS = textwrap.dedent("""
    import tmodext.biderivations as biderivations
    from tmodext import (Biderivation, InvariantViolation, drinfeld,
                         make_finite, parse_matrix, parse_poly)
    from tmodext.skewpoly import _add_into

    real = biderivations._reduce_entrywise


    def wrong_witness(arith, plan, grid, witness):
        real(arith, plan, grid, witness)
        _add_into(arith, witness[0][0], [(0, arith.one)])


    F9 = make_finite(3, 2)
    src = drinfeld(F9, parse_poly(F9, "g + tau^3"))
    tgt = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    delta = Biderivation(src, tgt, parse_matrix(F9, "[[g*tau^4 + 1]]"))
""")


def test_reduction_self_check_raises_invariant_violation(monkeypatch):
    scope = {}
    exec(_WRONG_WITNESS, scope)
    monkeypatch.setattr(biderivations, "_reduce_entrywise",
                        scope["wrong_witness"])
    with pytest.raises(InvariantViolation, match="self-check"):
        reduce_canonical(scope["delta"])

    script = _WRONG_WITNESS + textwrap.dedent("""
        import sys
        biderivations._reduce_entrywise = wrong_witness
        try:
            biderivations.reduce_canonical(delta)
        except InvariantViolation:
            print("InvariantViolation", sys.flags.optimize)
    """)
    src_dir = os.path.dirname(os.path.dirname(tmodext.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["InvariantViolation", "1"]


# The same check on the layered plan: a matrix-source pair whose loop is
# wrapped to leave a wrong witness, or a canonical entry tampered with.
_LAYERED_FAULTS = textwrap.dedent("""
    import tmodext.biderivations as biderivations
    from tmodext import (Biderivation, InvariantViolation, drinfeld,
                         make_finite, parse_matrix, parse_poly, tmodule)
    from tmodext.skewpoly import _add_into

    real = biderivations._reduce_layered


    def wrong_witness(arith, plan, grid, witness):
        real(arith, plan, grid, witness)
        _add_into(arith, witness[0][1], [(0, arith.one)])


    def tampered_canonical(arith, plan, grid, witness):
        real(arith, plan, grid, witness)
        _add_into(arith, grid[0][0], [(0, arith.one)])


    F9 = make_finite(3, 2)
    src = tmodule(F9, parse_matrix(
        F9, "[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^3"))
    tgt = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    delta = Biderivation(src, tgt, parse_matrix(
        F9, "[[g*tau^4 + 1, tau^5 + g*tau^3]]"))
""")


@pytest.mark.parametrize("fault", ["wrong_witness", "tampered_canonical"])
def test_layered_self_check_raises_invariant_violation(monkeypatch, fault):
    scope = {}
    exec(_LAYERED_FAULTS, scope)
    assert select_regime(scope["src"], scope["tgt"]) == "matrix-source"
    assert reduce_canonical(scope["delta"]).witness.max_degree >= 1
    monkeypatch.setattr(biderivations, "_reduce_layered", scope[fault])
    with pytest.raises(InvariantViolation, match="self-check"):
        reduce_canonical(scope["delta"])

    script = _LAYERED_FAULTS + textwrap.dedent(f"""
        import sys
        biderivations._reduce_layered = {fault}
        try:
            biderivations.reduce_canonical(delta)
        except InvariantViolation:
            print("InvariantViolation", sys.flags.optimize)
    """)
    src_dir = os.path.dirname(os.path.dirname(tmodext.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["InvariantViolation", "1"]


# A loop that leaves a coefficient at or above its bound fails the slot
# check, though delta - 0 == delta passes the self-check.
@pytest.mark.parametrize("loop", ["_reduce_entrywise", "_reduce_layered"])
def test_unreduced_coefficient_raises_invariant_violation(monkeypatch, loop):
    scope = {}
    exec(_LAYERED_FAULTS if loop == "_reduce_layered" else _WRONG_WITNESS,
         scope)
    monkeypatch.setattr(biderivations, loop, lambda *args: None)
    with pytest.raises(InvariantViolation,
                       match="outside the canonical slots"):
        reduce_canonical(scope["delta"])


# A reduction that takes no step returns its input: with no witness, the
# recombination identity delta - delta^(0) = canonical is grid == input.
_NO_STEP_DELTAS = {
    "GF(3^2)": "g*tau^5 + tau^4 + 1",
    "GF(3)(th)": "th*tau^5 + tau^4 + 1",
    "FTF(3; gens=a,th; inv=a)": "a[0]*tau^5 + th[1]*tau^4 + 1",
}


def _no_step_delta(header):
    spec = parse_field(header)
    th = str(spec.theta())
    src = drinfeld(spec, parse_poly(spec, f"{th} + tau^3"))
    tgt = drinfeld(spec, parse_poly(spec, f"{th} + tau^2"))
    return Biderivation(src, tgt, parse_matrix(
        spec, f"[[{_NO_STEP_DELTAS[header]}]]"))


@pytest.mark.parametrize("header", sorted(_NO_STEP_DELTAS))
def test_canonical_input_comes_back_as_itself(header):
    reduced = reduce_canonical(_no_step_delta(header))
    canonical = reduced.canonical
    assert not canonical.is_zero() and not reduced.witness.is_zero()
    again = reduce_canonical(canonical)
    assert again.canonical is canonical
    assert again.witness == Biderivation.zero(canonical.source,
                                              canonical.target).matrix
    assert again.regime == reduced.regime


@pytest.mark.parametrize("header", sorted(_NO_STEP_DELTAS))
def test_no_step_exit_keeps_a_dropped_witness_update(monkeypatch, header):
    """Steps whose witness update adds nothing leave the witness maps empty,
    but the grid has moved off the input, so the self-check still runs and
    raises."""
    delta = _no_step_delta(header)
    monkeypatch.setattr(biderivations, "_add_into",
                        lambda arith, acc, pairs: acc)
    with pytest.raises(InvariantViolation,
                       match="^reduction self-check failed"):
        reduce_canonical(delta)


def test_forced_entrywise_tie_ends_at_once():
    """A forced diagonal-pairs plan whose (0, 1) entry ties at degree 2
    cannot lower that entry; the loop raises instead of stepping forever.
    It runs in a child with a timeout, so that a regression fails rather
    than hangs."""
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.dirname(os.path.dirname(
            tmodext.__file__))!r})
        from tmodext import (Biderivation, InvariantViolation, make_finite,
                             parse_matrix, reduce_canonical, tmodule)
        from tmodext.biderivations import DIAGONAL_PAIRS
        F4 = make_finite(2, 2)
        src = tmodule(F4, parse_matrix(F4, "[[g + tau^3, 0], "
                                           "[tau, g + tau^2]]"))
        tgt = tmodule(F4, parse_matrix(F4, "[[g + tau^2, 0], [1, g + tau]]"))
        delta = Biderivation(src, tgt, parse_matrix(
            F4, "[[tau^5, tau^4], [tau^3, g*tau^6]]"))
        try:
            reduce_canonical(delta, DIAGONAL_PAIRS)
        except InvariantViolation as exc:
            print(type(exc).__name__, exc)
    """)
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "InvariantViolation the plan does not fit the pair: a step left "
        "entry (0, 1) at degree 4"]


def test_reversed_regime_obstruction_over_rational():
    src = drinfeld(Q3, parse_poly(Q3, "th + tau"))
    tgt = drinfeld(Q3, parse_poly(Q3, "th + tau^2"))
    delta = Biderivation(src, tgt, parse_matrix(Q3, "[[th*tau^2]]"))
    with pytest.raises(NotAQthPower):
        reduce_canonical(delta)
    fine = Biderivation(src, tgt, parse_matrix(Q3, "[[th^9*tau^2]]"))
    result = reduce_canonical(fine)
    assert result.regime == "drinfeld-reversed"
    assert result.canonical.matrix.max_degree < 2


# One reduction step: u = a*v^k into the witness at (r, c) and -(u*Phi -
# Psi*u) into the grid, as the product and sum kernels compose it.


def _kernel_step(arith, phi, psi, grid, witness, r, c, k, a, s):
    minus_u, u = ((k, arith.neg(a)),), ((k, a),)
    for l, p in enumerate(phi[c]):
        _mul_into(arith, grid[r][l], minus_u, p, s)
    for w, psi_row in enumerate(psi):
        _mul_into(arith, grid[w][c], psi_row[r], u, s)
    _add_into(arith, witness[r][c], u)


def _q3_payloads(nonzero):
    """Payloads of sums of c*th^e, over th + 1 or not."""
    th, one = Q3.theta(), Q3.one()
    terms = st.lists(st.tuples(st.integers(1, 2), st.integers(0, 4)),
                     min_size=int(nonzero), max_size=3)
    return st.tuples(terms, st.booleans()).map(
        lambda t: sum((Q3.from_int(c) * th ** e for c, e in t[0]),
                      Q3.zero()) / (th + one if t[1] else one)
    ).filter(lambda x: not (nonzero and x.is_zero())).map(
        lambda x: x.payload)


_F8 = make_finite(2, 3)
_FORMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-2, 2)),
                         st.integers(1, 8), max_size=3)
# name -> (ops object for the sign, nonzero scalar payloads, accumulator
# payloads, signs)
_STEP_DOMAINS = {
    "GF(3^2)": (lambda s: F9._arith, st.integers(1, 8), st.integers(0, 8),
                (1, -1)),
    "GF(2^3)": (lambda s: _F8._arith, st.integers(1, 7), st.integers(0, 7),
                (1, -1)),
    # the twists of th by negative indices are no elements, so tau only
    "GF(3)(th)": (lambda s: Q3._arith, _q3_payloads(True),
                  _q3_payloads(False), (1,)),
    "forms over GF(3^2)": (lambda s: _FormOps(F9._arith, s),
                           st.integers(1, 8), _FORMS, (1, -1)),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_step_matches_the_kernel_composition(data):
    """_step adds its one-term products into the accumulators itself; grid
    and witness come out as the product and sum kernels leave them."""
    name = data.draw(st.sampled_from(sorted(_STEP_DOMAINS)))
    ops, nonzero, values, signs = _STEP_DOMAINS[name]
    s = data.draw(st.sampled_from(signs))
    arith = ops(s)
    sdim, tdim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def pairs():
        degrees = data.draw(st.lists(st.integers(0, 4), unique=True,
                                     max_size=3))
        return [(d, data.draw(nonzero)) for d in sorted(degrees)]

    def accumulators():
        return [[data.draw(st.dictionaries(st.integers(0, 6), values,
                                           max_size=3))
                 for _ in range(sdim)] for _ in range(tdim)]

    phi = [[pairs() for _ in range(sdim)] for _ in range(sdim)]
    psi = [[pairs() for _ in range(tdim)] for _ in range(tdim)]
    grid, witness = accumulators(), accumulators()
    r, c = data.draw(st.integers(0, tdim - 1)), data.draw(
        st.integers(0, sdim - 1))
    k = data.draw(st.integers(0, 3))
    a = data.draw(_FORMS.filter(bool) if "forms" in name else nonzero)
    want_grid = [[dict(acc) for acc in row] for row in grid]
    want_witness = [[dict(acc) for acc in row] for row in witness]
    _kernel_step(arith, phi, psi, want_grid, want_witness, r, c, k, a, s)
    biderivations._step(arith, phi, psi, grid, witness, r, c, k, a, s)
    assert grid == want_grid
    assert witness == want_witness


# ---------------------------------------------------------------------------
# Assembly of the middle term.


def test_assemble_golden():
    delta = Biderivation(SRC3, TGT2, SkewMatrix.from_rows(
        FC, TAU, [[parse_poly(FC, "c[0]*tau^2")]]))
    built = assemble(delta)
    assert str(built.middle.t_matrix) == (
        "[[th[0] + tau^3, 0],\n"
        " [c[0]*tau^2, th[0] + tau^2]]")
    check_morphism(built.inclusion, TGT2, built.middle)
    check_morphism(built.projection, built.middle, SRC3)
    assert (built.projection * built.inclusion).is_zero()


def test_assemble_block_shapes():
    src = tmodule(F9, parse_matrix(F9, "[[g, 1], [0, g]] + "
                                       "[[1, 0], [0, 1]]*tau^2"))
    tgt = carlitz(F9)
    delta = Biderivation(src, tgt, parse_matrix(F9, "[[tau, 0]]"))
    built = assemble(delta)
    assert built.middle.dim == 3
    assert built.inclusion.shape == (3, 1)
    assert built.projection.shape == (2, 3)


# ---------------------------------------------------------------------------
# Subtraction, the same identity on every value type.


def _values(spec):
    """Two values of each type over spec, keyed by type name."""
    src = drinfeld(spec, parse_poly(spec, "g + tau^2"))
    tgt = drinfeld(spec, parse_poly(spec, "g + tau"))
    return {
        "element": (parse_element(spec, "g"), parse_element(spec, "g + 1")),
        "poly": (parse_poly(spec, "g + tau"), parse_poly(spec, "1 + tau^2")),
        "matrix": (parse_matrix(spec, "[[g, tau]]"),
                   parse_matrix(spec, "[[1, g*tau^2]]")),
        "biderivation": (
            Biderivation(src, tgt, parse_matrix(spec, "[[tau]]")),
            Biderivation(src, tgt, parse_matrix(spec, "[[g + tau^3]]"))),
    }


_OTHER_F9 = parse_field("GF(3^2; mod=g^2+2*g+2)")


@pytest.mark.parametrize("kind, mixed", [
    ("element", MixedFields), ("poly", MixedFields), ("matrix", MixedFields),
    ("biderivation", MixedPairs)])
def test_subtraction_is_adding_the_negative(kind, mixed):
    """The values of another domain are refused as by +, and so is an
    operand of no supported type on either side."""
    a, b = _values(F9)[kind]
    assert a - b == a + (-b)
    assert (a - b) + b == a and (a - a).is_zero()
    if kind in ("element", "poly"):
        assert 2 - a == -a + 2 and a - 2 == a + (-2)
    with pytest.raises(mixed):
        a - _values(_OTHER_F9)[kind][0]
    for bad in ("a", 1.5) + ((1,) if kind in ("matrix", "biderivation")
                             else ()):
        with pytest.raises(TypeError):
            a - bad
        with pytest.raises(TypeError):
            bad - a


# ---------------------------------------------------------------------------
# Refusals.


SRC9 = drinfeld(F9, parse_poly(F9, "g + tau^2"))
TGT9 = drinfeld(F9, parse_poly(F9, "g + tau"))
SIG9 = drinfeld(F9, parse_poly(F9, "g + sig", SIGMA))
FF = parse_field("FTF(3; gens=a,th; inv=a)")


_REFUSALS = {
    "biderivation-over-sig": (
        lambda: Biderivation(SRC9, TGT9, parse_matrix(F9, "[[sig]]", SIGMA)),
        MixedPairs, "biderivation data over mixed twisted variables"),
    "regime-tau-sig": (
        lambda: select_regime(SRC9, drinfeld(
            F9, parse_poly(F9, "g + sig", SIGMA))),
        MixedPairs, "source and target over different twisted variables"),
    "unknown-regime": (
        lambda: biderivations.reduction_plan(SRC9, TGT9, "no-such-regime"),
        UnsupportedRegime, "unknown regime 'no-such-regime'"),
    "sum-of-two-pairs": (
        lambda: Biderivation.zero(SRC9, TGT9) + Biderivation.zero(TGT9, SRC9),
        MixedPairs, "biderivations between different module pairs"),
    "matrix-no-rows": (
        lambda: SkewMatrix.from_rows(F9, TAU, []),
        DimensionMismatch, "empty matrix"),
    "matrix-ragged": (
        lambda: SkewMatrix.from_rows(F9, TAU, [[SkewPoly.zero(F9, TAU)], [
            SkewPoly.zero(F9, TAU), SkewPoly.zero(F9, TAU)]]),
        DimensionMismatch, "ragged matrix rows"),
    "matrix-int-entry": (
        lambda: SkewMatrix.from_rows(F9, TAU, [[1]]),
        DimensionMismatch, "matrix entries must be twisted polynomials"),
    "module-of-an-int": (
        lambda: TModule(F9, 5),
        InvalidModule, "a module needs a matrix for the t-action"),
    "module-not-square": (
        lambda: TModule(F9, parse_matrix(F9, "[[g, tau]]")),
        InvalidModule, "the t-action matrix must be square"),
    "carlitz-option": (
        lambda: parse_module(F9, "carlitz d=2"),
        ParseError, "unknown carlitz option 'd'"),
    "carlitz-trailing-text": (
        lambda: parse_module(F9, "carlitz e=2 x"),
        ParseError, "unexpected text after carlitz: 'x'"),
    "tmodule-option": (
        lambda: parse_module(F9, "tmodule e=2 g + tau"),
        ParseError, "unknown tmodule option 'e'"),
    "parse-juxtaposed": (
        lambda: parse_poly(F9, "1 2"),
        ParseError, "unexpected '2' at position 2 in '1 2'"),
    "parse-scalar-plus-matrix": (
        lambda: parse_value(F9, "1 + [[1]]"),
        ParseError,
        "cannot add a scalar and a matrix at position 2 in '1 + [[1]]'"),
    "parse-divide-by-matrix": (
        lambda: parse_value(F9, "1/[[1]]"),
        ParseError, "cannot divide by a matrix at position 1 in '1/[[1]]'"),
    "parse-symbol-index": (
        lambda: parse_value(FF, "a[b]"),
        ParseError,
        "symbol index must be an integer at position 2 in 'a[b]'"),
    "parse-nested-matrix": (
        lambda: parse_value(F9, "[[[[1]]]]"),
        ParseError, "nested matrix entries in '[[[[1]]]]'"),
    "parse-g-over-formal": (
        lambda: parse_value(FF, "g"),
        ParseError, "the name 'g' requires a finite scalar field of "
                    "extension degree at least 2"),
    "parse-poly-of-a-matrix": (
        lambda: parse_poly(F9, "[[1]]"),
        ParseError, "expected a scalar, got a matrix: '[[1]]'"),
    "parse-element-of-a-matrix": (
        lambda: parse_element(F9, "[[1]]"),
        ParseError, "expected a coefficient, got a matrix: '[[1]]'"),
    "parse-apoly-of-a-matrix": (
        lambda: parse_apoly(F9, "[[t]]"),
        ParseError, "expected a t-polynomial, got a matrix: '[[t]]'"),
    "header-duplicate-generators": (
        lambda: parse_field("FTF(3; gens=a,a)"),
        ParseError, "duplicate generator names"),
    "header-empty-modulus": (
        lambda: parse_field("GF(3^2; mod=)"),
        ParseError, "empty polynomial"),
    "header-malformed-modulus": (
        lambda: parse_field("GF(3^2; mod=g^2++1)"),
        ParseError, "malformed polynomial 'g^2++1'"),
    "header-option-without-value": (
        lambda: parse_field("GF(3^2; mod)"),
        ParseError, "malformed option 'mod' in field header"),
    "header-duplicate-option": (
        lambda: parse_field("GF(3^2; mod=g^2+1; mod=g^2+1)"),
        ParseError, "duplicate option 'mod' in field header"),
    "header-ftf-th-suffix": (
        lambda: parse_field("FTF(3)(th)"),
        ParseError, "FTF headers do not take a (th) suffix"),
    "header-ftf-option": (
        lambda: parse_field("FTF(3; theta=1)"),
        ParseError, "unknown field options ['theta']"),
    "modulus-not-monic": (
        lambda: make_finite(3, 2, (1, 0, 0, 1)),
        ParseError, "modulus must be monic of degree 2"),
    "trivial-of-dimension-zero": (
        lambda: trivial(F9, 0),
        InvalidModule, "dimension must be positive"),
    "drinfeld-of-a-matrix": (
        lambda: drinfeld(F9, parse_matrix(F9, "[[g, 0], [0, g]]")),
        InvalidModule, "a Drinfeld module is one-dimensional"),
    "biderivation-wrong-shape": (
        lambda: Biderivation(SRC9, TGT9, parse_matrix(F9, "[[1, 1]]")),
        MixedPairs, "a biderivation here is a 1x1 matrix, got 1x2"),
    "morphism-tau-sig": (
        lambda: morphism_residual(parse_matrix(F9, "[[1]]"), SRC9, SIG9),
        MixedFields, "morphism data over mixed twisted variables"),
    "morphism-wrong-shape": (
        lambda: morphism_residual(parse_matrix(F9, "[[1, 1]]"), SRC9, TGT9),
        DimensionMismatch, "a morphism from a 1-dimensional module to a "
                           "1-dimensional one must be a 1x1 matrix, got 1x2"),
    "product-empty-side": (
        lambda: ext_product([], [TGT9]),
        UnsupportedRegime,
        "the product needs at least one module on each side"),
    "product-carlitz-factor": (
        lambda: ext_product([SRC9], [carlitz_power(F9, 2)]),
        UnsupportedRegime,
        "the product construction takes dimension-one Drinfeld modules"),
    "poly-tau-sig": (
        lambda: parse_poly(F9, "tau") + parse_poly(F9, "sig", SIGMA),
        MixedFields, "cannot combine a tau-polynomial with a "
                     "sigma-polynomial"),
    "poly-negative-degree": (
        lambda: SkewPoly.term(F9, TAU, 1, -1),
        ParseError, "negative twisted-polynomial degree"),
    "matrix-tau-sig": (
        lambda: parse_matrix(F9, "[[tau]]")
        + parse_matrix(F9, "[[sig]]", SIGMA),
        MixedFields, "matrices over different twisted variables"),
    "matrix-sum-shapes": (
        lambda: parse_matrix(F9, "[[1]]") + parse_matrix(F9, "[[1, 1]]"),
        DimensionMismatch, "cannot add a (1, 1) matrix and a (1, 2) matrix"),
    "matrix-power-not-square": (
        lambda: parse_matrix(F9, "[[1, 1]]") ** 2,
        DimensionMismatch, "only square matrices have powers"),
    "const-inverse-not-square": (
        lambda: const_inverse(
            parse_matrix(F9, "[[1, 1]]").coefficient_matrix(0)),
        DimensionMismatch, "only square matrices can be inverted"),
    "block-row-heights": (
        lambda: SkewMatrix.block([[SkewMatrix.identity(F9, TAU, 1),
                                   SkewMatrix.identity(F9, TAU, 2)]]),
        DimensionMismatch, "block row heights disagree"),
    "block-column-widths": (
        lambda: SkewMatrix.block([[SkewMatrix.identity(F9, TAU, 1)],
                                  [SkewMatrix.identity(F9, TAU, 2)]]),
        DimensionMismatch, "block column widths disagree"),
    "symbol-over-a-finite-field": (
        lambda: F9.symbol("a", 0),
        ParseError,
        "indexed symbol a[0] requires a formal-twist coefficient domain"),
    "symbol-unknown-name": (
        lambda: FC.symbol("z", 0),
        ParseError, "unknown symbol 'z'; generators are c, th"),
    "twist-sign-of-another-variable": (
        lambda: twist_sign("x"),
        ValueError, "unknown variable 'x'"),
    "sixterm-class-of-another-pair": (
        lambda: six_term(Biderivation.zero(SRC9, TGT9), TGT9).co_ext_middle(
            Biderivation.zero(SRC9, TGT9)),
        InvariantViolation, "the class given at this six-term node is not a "
                            "biderivation between the node's modules"),
    "inner-wrong-columns": (
        lambda: inner_matrix(SRC9, TGT9, parse_matrix(F9, "[[1, 1]]")),
        DimensionMismatch, "cannot multiply (1, 2) by (1, 1)"),
    "inner-wrong-rows": (
        lambda: inner_matrix(SRC9, TGT9, parse_matrix(F9, "[[1], [1]]")),
        DimensionMismatch, "cannot multiply (1, 1) by (2, 1)"),
    "inner-over-another-domain": (
        lambda: inner_matrix(SRC9, TGT9, parse_matrix(_OTHER_F9, "[[1]]")),
        MixedFields, "matrices over different domains"),
    "inner-over-sig": (
        lambda: inner_matrix(SRC9, TGT9, parse_matrix(F9, "[[sig]]", SIGMA)),
        MixedFields, "matrices over different twisted variables"),
    "verify-unknown-mode": (
        lambda: verify_structure(ext_structure(SRC9, TGT9), mode="bogus"),
        ValueError, "unknown verification mode 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals(case):
    build, error, message = _REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
