"""Tests for the t-module structure carried by spaces of extension classes."""

import time

import pytest

from tmodext import (
    Biderivation,
    DimensionMismatch,
    TAU,
    FieldSpec,
    InvariantViolation,
    SkewMatrix,
    UnsupportedRegime,
    carlitz,
    carlitz_power,
    drinfeld,
    duality_transport,
    ext_product,
    ext_structure,
    ga_sequence,
    parse_field,
    parse_matrix,
    parse_poly,
    tmodule,
    verify_structure,
)
from tmodext import biderivations

Q3 = parse_field("GF(3)(th)")
FF = parse_field("FTF(3; gens=a,b,th; inv=a)")
F9 = parse_field("GF(3^2)")


def _drin(spec, text):
    return drinfeld(spec, parse_poly(spec, text))


# ---------------------------------------------------------------------------
# The rank-3 over rank-2 structure over GF(3)(th).


def test_ladder_rung_16_corner_entry():
    """Regression pin, not a proof: on the ladder th + th*tau + tau^n over
    th + th*tau + tau^(n-1), the corner entry of Pi_t follows this formula
    at every rung recorded in the benchmark's digests (n <= 12).  At n = 16
    its coefficients are th^(3^14) and th^(3^15)."""
    n = 16
    S = ext_structure(_drin(Q3, f"th + th*tau + tau^{n}"),
                      _drin(Q3, f"th + th*tau + tau^{n - 1}"))
    assert str(S.pi.entry(n - 1, n - 1)) == (
        f"th + (2*th^{3 ** (n - 2)})*tau^{n - 1} + "
        f"(th + th^{3 ** (n - 1)})*tau^{n} + tau^{n * (n - 1)}")



def test_structure_rank3_over_rank2():
    S = ext_structure(_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))
    assert S.regime == "drinfeld-forward"
    assert S.rank == 3
    assert S.basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    assert str(S.pi) == (
        "[[th, 0, 0],\n"
        " [0, th, (th + 2*th^3)*tau^2],\n"
        " [tau^2, tau^4, th + tau^6]]")
    # a Drinfeld-forward structure is a genuine t-module with no
    # nilpotent defect
    assert all(x.is_zero() for row in S.nilpotent_part() for x in row)
    assert S.module().t_matrix == S.pi


def test_structure_formal_coefficients():
    S = ext_structure(_drin(FF, "th[0] + a[0]*tau^3"),
                      _drin(FF, "th[0] + b[0]*tau^2"))
    assert str(S.pi) == (
        "[[th[0], 0, 0],\n"
        " [0, th[0], ((b[0]*th[0] + 2*b[0]*th[1])/a[1])*tau^2],\n"
        " [b[0]*tau^2, (b[0]*b[2]/a[2])*tau^4,"
        " th[0] + (b[0]*b[2]*b[4]/(a[2]*a[5]))*tau^6]]")


def test_duality_transport_of_reversed_pair():
    # a reversed pair has no structure on its own variable, but the swapped
    # adjoint pair is forward on the opposite variable
    D = duality_transport(_drin(FF, "th[0] + b[0]*tau^2"),
                          _drin(FF, "th[0] + a[0]*tau^3"))
    assert D.regime == "drinfeld-forward"
    assert D.var == "sigma"
    assert str(D.pi) == (
        "[[th[0], 0, 0],\n"
        " [0, th[0], ((2*b[-2]*th[-1] + b[-2]*th[0])/a[-4])*sig^2],\n"
        " [b[-2]*sig^2, (b[-4]*b[-2]/a[-5])*sig^4,"
        " th[0] + (b[-6]*b[-4]*b[-2]/(a[-8]*a[-5]))*sig^6]]")


def test_duality_transport_rejects_forward_input():
    with pytest.raises(UnsupportedRegime) as info:
        duality_transport(_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))
    assert str(info.value) == (
        "the pair is forward ('drinfeld-forward'), so its structure comes "
        "from ext_structure directly; duality_transport serves reversed "
        "pairs")


def test_duality_transport_serves_a_pair_with_no_regime_of_its_own():
    # an upper-triangular target has no regime on tau, but the swapped
    # adjoint pair has a rank-2 matrix source with leading matrix I over a
    # rank-1 target, which is forward on sigma
    source = _drin(Q3, "th + tau")
    target = tmodule(Q3, parse_matrix(
        Q3, "[[th + tau^2, tau], [0, th + tau^2]]"))
    with pytest.raises(UnsupportedRegime, match="lower triangular"):
        ext_structure(source, target)
    D = duality_transport(source, target)
    assert (D.regime, D.var) == ("matrix-source", "sigma")
    assert str(D.pi) == (
        "[[th, 0, 0, 0],\n"
        " [sig, th + sig^2, 0, 2*sig],\n"
        " [0, 0, th, 0],\n"
        " [0, 0, sig, th + sig^2]]")


# ---------------------------------------------------------------------------
# Triangular sources.


def test_structure_triangular_source():
    X = tmodule(Q3, parse_matrix(
        Q3, "[[th + tau^2, 0], [1 + tau, th + tau^3]]"))
    S = ext_structure(X, carlitz(Q3))
    assert S.regime == "triangular-source"
    assert S.basis == ((0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 0), (0, 0, 1))
    assert str(S.pi) == (
        "[[th, 0, 0, 0, 0],\n"
        " [tau, th, tau^2, 0, 0],\n"
        " [0, tau, th, 0, 0],\n"
        " [0, 0, 2*tau, th, 0],\n"
        " [0, 0, 2*tau, tau, th + tau^2]]")


def test_structure_triangular_source_formal():
    X = tmodule(FF, parse_matrix(
        FF, "[[th[0] + a[0]*tau^2, 0], [1 + b[0]*tau, th[0] + tau^3]]"))
    S = ext_structure(X, carlitz(FF))
    assert S.regime == "triangular-source"
    assert S.basis == ((0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 0), (0, 0, 1))
    assert str(S.pi) == (
        "[[th[0], 0, 0, 0, 0],\n"
        " [tau, th[0], tau^2, 0, 0],\n"
        " [0, tau, th[0], 0, 0],\n"
        " [0, 0, 2*tau, th[0], 0],\n"
        " [0, 0, (2*b[0])*tau, tau, th[0] + (1/a[1])*tau^2]]")


# ---------------------------------------------------------------------------
# Matrix sources: the layered reduction.

MATRIX_SOURCE_Q3 = "[[th, 1], [tau, th]] + [[1, th], [0, 1]]*tau^3"
MATRIX_SOURCE_FF = ("[[th[0] + a[0]*tau^3, tau], "
                    "[b[0]*tau^2, th[0] + a[0]*tau^3]]")


def test_structure_matrix_source():
    S = ext_structure(tmodule(Q3, parse_matrix(Q3, MATRIX_SOURCE_Q3)),
                      _drin(Q3, "th + tau^2"))
    assert S.regime == "matrix-source"
    assert S.basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2),
                       (0, 1, 0), (0, 1, 1), (0, 1, 2))
    assert str(S.pi) == (
        "[[th, 0, 0, 0, 0, 0],\n"
        " [0, th + th*tau^2, (th + 2*th^3)*tau^2 + (th + th^27)*tau^4, 0,"
        " 2*tau^2, 2*tau^4],\n"
        " [tau^2, tau^4, th + th^3*tau^2 + tau^6, 0, 0, 2*tau^2],\n"
        " [0, 2*tau^2, 2*tau^4, th, 0, 0],\n"
        " [0, 0, (2 + 2*th^4 + th^6)*tau^2, 0, th,"
        " (th + 2*th^3)*tau^2],\n"
        " [0, (2*th^9)*tau^4, (2*th^9 + 2*th^243)*tau^6, tau^2, tau^4,"
        " th + tau^6]]")


def test_structure_matrix_source_formal():
    S = ext_structure(tmodule(FF, parse_matrix(FF, MATRIX_SOURCE_FF)),
                      _drin(FF, "th[0] + b[0]*tau^2"))
    assert S.regime == "matrix-source"
    assert str(S.pi) == (
        "[[th[0], 0, 0, 0, 0, 0],\n"
        " [0, th[0], ((b[0]*th[0] + 2*b[0]*th[1])/a[1])*tau^2, 0, 0, 0],\n"
        " [b[0]*tau^2, (b[0]*b[2]/a[2])*tau^4,"
        " th[0] + (b[0]*b[2]*b[4]/(a[2]*a[5]))*tau^6, 0,"
        " (2*b[0]^2/a[0])*tau^2,"
        " ((2*a[0]*b[0]*b[2]*b[3] + 2*a[2]*b[0]^2*b[2])/(a[0]*a[2]*a[3]))"
        "*tau^4],\n"
        " [0, 0, 0, th[0], 0, 0],\n"
        " [0, (2*b[0]/a[0])*tau^2, (2*b[0]*b[2]/(a[0]*a[3]))*tau^4, 0, th[0],"
        " ((a[0]*b[0]*th[0] + 2*a[0]*b[0]*th[1] + b[0]*b[1])/(a[0]*a[1]))"
        "*tau^2],\n"
        " [0, 0, (2*b[0]/a[1])*tau^2, b[0]*tau^2, (b[0]*b[2]/a[2])*tau^4,"
        " th[0] + (b[0]*b[2]*b[4]/(a[2]*a[5]))*tau^6]]")


# ---------------------------------------------------------------------------
# Over linear forms, the shared reduction loops compute on payloads.


def _count_built(monkeypatch, module, names):
    """Wrap the named functions of module so that each call records the
    number of elements FieldSpec._fe builds inside it."""
    counts = {name: [] for name in names}
    real_fe = FieldSpec._fe
    live = []

    def counting_fe(spec, payload):
        for tally in live:
            tally[0] += 1
        return real_fe(spec, payload)

    def wrap(name, real):
        def counted(*args):
            tally = [0]
            live.append(tally)
            try:
                return real(*args)
            finally:
                live.remove(tally)
                counts[name].append(tally[0])
        return counted

    monkeypatch.setattr(FieldSpec, "_fe", counting_fe)
    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return counts


def test_tracked_reduction_builds_no_element_per_weight(monkeypatch):
    counts = _count_built(monkeypatch, biderivations, (
        "_reduce_entrywise", "_reduce_layered", "_step"))
    ext_structure(_drin(Q3, "th + th*tau + tau^8"),
                  _drin(Q3, "th + th*tau + tau^7"))
    assert counts["_reduce_entrywise"] == [0]

    # the layered loop twists the stored inverse leading matrix on payloads
    steps = len(counts["_step"])
    ext_structure(tmodule(Q3, parse_matrix(Q3, MATRIX_SOURCE_Q3)),
                  _drin(Q3, "th + tau^2"))
    assert counts["_reduce_layered"] == [0]
    assert len(counts["_step"]) - steps >= 2
    assert not any(counts["_step"])


def test_tracked_reduction_checks_what_it_reads_back(monkeypatch):
    real = biderivations._reduce_entrywise

    def untwisted(arith, plan, grid, witness):
        real(arith, plan, grid, witness)
        for entry in grid[0]:
            for deg, form in entry.items():
                entry[deg] = {(slot, -1 - i): w
                              for (slot, i), w in form.items()}

    pair = (_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))
    for loop, why in ((lambda *args: None, "outside the canonical slots"),
                      (untwisted, "negative twist index")):
        monkeypatch.setattr(biderivations, "_reduce_entrywise", loop)
        with pytest.raises(InvariantViolation, match=why):
            ext_structure(*pair)


# ---------------------------------------------------------------------------
# Carlitz tensor powers as targets.


@pytest.mark.parametrize("e", [2, 3])
def test_structure_carlitz_target_nilpotent(e):
    S = ext_structure(_drin(Q3, "th + tau^3"), carlitz_power(Q3, e))
    assert S.regime == "carlitz-target"
    assert S.rank == 3 * e
    N = S.nilpotent_part()
    n = len(N)
    # strictly upper triangular, and e-th power zero
    for i in range(n):
        for j in range(n):
            if j <= i:
                assert N[i][j].is_zero()
    rows = [[x for x in row] for row in N]
    power = rows
    for _ in range(e - 1):
        power = [[sum((power[i][k] * rows[k][j] for k in range(n)),
                      start=Q3.zero()) for j in range(n)]
                 for i in range(n)]
    assert all(x.is_zero() for row in power for x in row)


def test_structure_carlitz_square_target():
    S = ext_structure(_drin(Q3, "th + tau^3"), carlitz_power(Q3, 2))
    assert S.basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2),
                       (1, 0, 0), (1, 0, 1), (1, 0, 2))
    assert str(S.pi) == (
        "[[th, 0, tau, 1, 0, 0],\n"
        " [0, th, 0, 0, 1, 0],\n"
        " [0, 0, th, 0, 0, 1],\n"
        " [0, 0, 0, th, 0, 0],\n"
        " [tau, 0, 0, 0, th, 0],\n"
        " [0, tau, 0, 0, 0, th]]")


def test_rank_50_structure_validates_its_nilpotent_part_quickly():
    """Validating Pi_t's constant part costs what N holds: squaring stops
    at the first zero power, and zero entries are never multiplied (the
    n - 1 dense products of N^50 took about a minute)."""
    start = time.perf_counter()
    S = ext_structure(_drin(Q3, "th + tau^10"), carlitz_power(Q3, 5))
    assert time.perf_counter() - start < 2.0
    assert S.rank == 50
    N = S.nilpotent_part()
    assert all(N[i][j].is_zero() for i in range(50) for j in range(i + 1))
    M = SkewMatrix.from_const(Q3, TAU, N)
    power = M
    for _ in range(3):
        power = power * M
    assert not power.is_zero()  # N^4 != 0
    assert (power * M).is_zero()


# ---------------------------------------------------------------------------
# Coordinates.


def test_coordinates_round_trip():
    S = ext_structure(_drin(F9, "g + tau^3"), _drin(F9, "g + tau^2"))
    for index in range(S.rank):
        d = S.basis_delta(index)
        coords = S.coords_of(d)
        assert [str(c) for c in coords] == [
            "1" if k == index else "0" for k in range(S.rank)]
        assert S.from_coords(coords).matrix == d.matrix


def test_coordinates_of_the_wrong_length_are_refused():
    """from_coords, like act_coords, takes exactly one coordinate per basis
    slot; 1 or 5 of them over a rank-3 structure raise."""
    S = ext_structure(_drin(F9, "g + tau^3"), _drin(F9, "g + tau^2"))
    assert S.rank == 3
    for n in (0, 1, 2, 4, 5):
        coords = [F9.one()] * n
        with pytest.raises(DimensionMismatch):
            S.from_coords(coords)
        with pytest.raises(DimensionMismatch):
            S.act_coords(coords)


# Per domain: a rank-3 over rank-2 Drinfeld pair, a matrix source and a
# lower triangular source (diagonal ranks 3 and 4, singular leading matrix).
_FORWARD_PAIRS = {
    "q3": (Q3, "th + tau^3", "th + tau^2", MATRIX_SOURCE_Q3,
           "[[th + tau^3, 0], [tau, th + tau^4]]"),
    "ftf": (FF, "th[0] + a[0]*tau^3", "th[0] + b[0]*tau^2", MATRIX_SOURCE_FF,
            "[[th[0] + a[0]*tau^3, 0], [tau, th[0] + a[0]*tau^4]]"),
    "f9": (F9, "g + tau^3", "g + tau^2",
           "[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^3",
           "[[g + tau^3, 0], [tau, g + tau^4]]"),
}


def _forward_pair(domain, regime):
    spec, phi, psi, matrix, triangular = _FORWARD_PAIRS[domain]
    return spec, {
        "drinfeld-forward": lambda: (_drin(spec, phi), _drin(spec, psi)),
        "matrix-source": lambda: (tmodule(spec, parse_matrix(spec, matrix)),
                                  _drin(spec, psi)),
        "triangular-source": lambda: (
            tmodule(spec, parse_matrix(spec, triangular)), _drin(spec, psi)),
        "carlitz-target": lambda: (_drin(spec, phi), carlitz_power(spec, 2)),
    }[regime]()


# Pi_t is read off the reduction over linear forms; coords_of reduces
# concrete scalars.  Both must agree at every basis index, on coordinates
# that the twists move.
@pytest.mark.parametrize("domain", sorted(_FORWARD_PAIRS))
@pytest.mark.parametrize("regime", ["drinfeld-forward", "matrix-source",
                                    "triangular-source", "carlitz-target"])
def test_act_coords_matches_reduction(domain, regime):
    spec, (source, target) = _forward_pair(domain, regime)
    S = ext_structure(source, target)
    assert S.regime == regime
    theta = spec.theta()
    values = [theta, spec.one() + theta * theta]
    if spec.kind == "formal":
        values.append(spec.symbol("b", 0))
    for index in range(S.rank):
        for value in values:
            coords = [spec.zero()] * S.rank
            coords[index] = value
            d = S.from_coords(coords)
            pushed = Biderivation(S.source, S.target,
                                  S.target.t_matrix * d.matrix)
            assert list(S.act_coords(coords)) == list(S.coords_of(pushed))


# ---------------------------------------------------------------------------
# The additive-group piece inside the structure.


def test_ga_sequence_of_rank3_over_rank2():
    S = ext_structure(_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))
    seq = ga_sequence(S)
    assert seq.pure == (0,)
    assert seq.s == 1
    assert str(seq.g) == "[[1, 0, 0]]"
    assert str(seq.inclusion) == "[[0, 0],\n [1, 0],\n [0, 1]]"
    assert str(seq.sub_pi) == (
        "[[th, (th + 2*th^3)*tau^2],\n [tau^4, th + tau^6]]")
    assert str(seq.quotient().t_matrix) == "[[th]]"
    # the two defining identities: g is t-equivariant onto the scalar
    # action, and the inclusion intertwines the sub-structure
    theta = Q3.theta()
    assert seq.g * S.pi == seq.g.map_entries(
        lambda p: p * p.__class__.term(Q3, p.var, theta, 0))
    assert S.pi * seq.inclusion == seq.inclusion * seq.sub_pi


def test_ga_rank_one_for_carlitz_targets():
    for e in (2, 3):
        S = ext_structure(_drin(Q3, "th + tau^3"), carlitz_power(Q3, e))
        assert ga_sequence(S).s == 1


# ---------------------------------------------------------------------------
# Products.


def test_ext_product_blocks():
    r2 = _drin(Q3, "th + tau^2")
    r3 = _drin(Q3, "th + tau^3")
    r4 = _drin(Q3, "th + tau^4")
    P = ext_product([r3, r4], [r2])
    assert P.regime == "diagonal-pairs"
    assert P.source.dim == 2 and P.target.dim == 1
    A = ext_structure(r3, r2).pi
    B = ext_structure(r4, r2).pi
    assert P.rank == A.nrows + B.nrows
    for i in range(P.rank):
        for j in range(P.rank):
            entry = P.pi.entry(i, j)
            if i < A.nrows and j < A.nrows:
                assert entry == A.entry(i, j)
            elif i >= A.nrows and j >= A.nrows:
                assert entry == B.entry(i - A.nrows, j - A.nrows)
            else:
                assert entry.is_zero()


def test_ext_product_rejects_reversed_factor():
    r2 = _drin(Q3, "th + tau^2")
    r3 = _drin(Q3, "th + tau^3")
    with pytest.raises(UnsupportedRegime):
        ext_product([r2], [r3])


def _diagonal(spec, texts):
    d = len(texts)
    return tmodule(spec, parse_matrix(spec, "[" + ", ".join(
        "[" + ", ".join(texts[i] if i == j else "0" for j in range(d)) + "]"
        for i in range(d)) + "]"))


_PRODUCT_CASES = {
    "rational": (Q3, ["th + tau^3", "th + tau^4"], ["th + tau", "th + tau^2"]),
    "finite": (F9, ["g + tau^3", "g + g*tau + tau^4"],
               ["g + tau^2", "g + tau"]),
    "formal": (FF, ["th[0] + a[0]*tau^3", "th[0] + b[0]*tau + tau^4"],
               ["th[0] + a[0]*tau^2", "th[0] + tau"]),
}


@pytest.mark.parametrize("case", list(_PRODUCT_CASES))
def test_all_forward_diagonal_pair_has_the_product_structure(case):
    """A diagonal pair whose plan is forward at every entry gets the
    structure of ext_product on its factors (refused before the plan
    decided forwardness)."""
    spec, sources, targets = _PRODUCT_CASES[case]
    S = ext_structure(_diagonal(spec, sources), _diagonal(spec, targets))
    P = ext_product([_drin(spec, s) for s in sources],
                    [_drin(spec, t) for t in targets])
    assert S.regime == P.regime == "diagonal-pairs"
    assert S.basis == P.basis
    assert S.pi == P.pi
    assert S.to_json() == P.to_json()
    if spec.kind == "finite":
        assert verify_structure(S, samples=20, seed=3).ok


def test_diagonal_pair_with_a_reversed_entry_is_refused():
    """A plan with forward and reversed entries: its adjoint pair's plan
    mixes them too, so neither ext_structure nor duality_transport points
    to the other side."""
    source = _diagonal(Q3, ["th + tau^3", "th + tau^2"])
    target = _diagonal(Q3, ["th + tau", "th + tau^4"])
    for build in (ext_structure, duality_transport):
        with pytest.raises(UnsupportedRegime) as err:
            build(source, target)
        assert str(err.value) == (
            "the t-module structure is only computed for forward regimes, "
            "not 'diagonal-pairs'; this plan mixes forward and reversed "
            "entries, as does its adjoint pair's, so neither side has a "
            "structure; its classes still have canonical forms and a split "
            "test")


def test_reversed_pair_is_refused_with_advice_for_the_adjoint_side():
    with pytest.raises(UnsupportedRegime) as err:
        ext_structure(_drin(Q3, "th + tau"), _drin(Q3, "th + tau^2"))
    assert str(err.value) == (
        "the t-module structure is only computed for forward regimes, not "
        "'drinfeld-reversed'; reversed pairs still have canonical forms and "
        "a split test, and their structure is available on the adjoint side")
