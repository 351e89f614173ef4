"""Tests for the t-module structure carried by spaces of extension classes."""

import time

import pytest

from tmodext import (
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
    reduce_canonical,
    tmodule,
)
from tmodext.skewpoly import const_mul

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
    with pytest.raises(UnsupportedRegime):
        duality_transport(_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))


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
    power = N
    for _ in range(3):
        power = const_mul(power, N)
    assert any(x for row in power for x in row)  # N^4 != 0
    assert all(x.is_zero() for row in const_mul(power, N) for x in row)


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


def test_act_coords_matches_reduction():
    S = ext_structure(_drin(Q3, "th + tau^3"), _drin(Q3, "th + tau^2"))
    d = S.basis_delta(1)
    acted = S.act_coords(S.coords_of(d))
    shifted = reduce_canonical(
        d.__class__(S.source, S.target, S.target.t_matrix * d.matrix))
    assert list(acted) == list(S.coords_of(shifted.canonical))


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
