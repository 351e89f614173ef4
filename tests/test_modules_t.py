"""t-modules: validation, constructors, action, adjoints, morphisms."""

import pytest

import tmodext.modules_t as modules_t
from tmodext import (
    SIGMA,
    TAU,
    InvalidModule,
    InvariantViolation,
    NotAMorphism,
    NotNilpotent,
    carlitz,
    carlitz_power,
    check_morphism,
    drinfeld,
    make_finite,
    make_formal,
    make_rational,
    morphism_residual,
    parse_apoly,
    parse_matrix,
    parse_module,
    parse_poly,
    tmodule,
    trivial,
)

F9 = make_finite(3, 2)
Q3 = make_rational(3)


# ---------------------------------------------------------------------------
# Validation.


def test_drinfeld_requires_theta_constant_term():
    drinfeld(Q3, parse_poly(Q3, "th + tau"))
    with pytest.raises(InvalidModule):
        drinfeld(Q3, parse_poly(Q3, "1 + tau"))
    with pytest.raises(InvalidModule):
        drinfeld(Q3, parse_poly(Q3, "th"))  # no positive-degree term


def test_tmodule_requires_nilpotent_offset():
    tmodule(Q3, parse_matrix(Q3, "[[th, 1], [0, th]]"))
    with pytest.raises(NotNilpotent):
        tmodule(Q3, parse_matrix(Q3, "[[th, 0], [0, th + 1]]"))
    with pytest.raises(NotNilpotent):
        tmodule(Q3, parse_matrix(Q3, "[[1 + tau]]"))


def test_invertible_leading_catches_only_singular_or_non_unit_pivots():
    assert tmodule(F9, parse_matrix(F9, "[[g + tau, 0], [0, g + tau]]")
                   ).has_invertible_leading()
    assert not tmodule(F9, parse_matrix(
        F9, "[[g + tau, tau], [0, g]]")).has_invertible_leading()
    FT = make_formal(3, generators=("a", "th"), invertibles=("a",))
    assert tmodule(FT, parse_matrix(FT, "[[th + a*tau]]")
                   ).has_invertible_leading()
    assert not tmodule(FT, parse_matrix(FT, "[[th + (1 + a)*tau]]")
                       ).has_invertible_leading()


def test_invertible_leading_lets_a_bug_propagate(monkeypatch):
    def broken(_grid):
        raise InvariantViolation("injected")

    M = tmodule(F9, parse_matrix(F9, "[[g + tau]]"))
    monkeypatch.setattr(modules_t, "const_inverse", broken)
    with pytest.raises(InvariantViolation, match="injected"):
        M.has_invertible_leading()


def test_basic_shape_queries():
    mod = tmodule(Q3, parse_matrix(
        Q3, "[[th + tau^2, 0], [tau, th + tau^3]]"))
    assert mod.dim == 2
    assert mod.rank == 3
    assert mod.is_lower_triangular()
    assert not mod.is_diagonal()
    assert mod.diagonal_ranks() == (2, 3)
    assert mod.diagonal_is_drinfeld()
    scalar = drinfeld(Q3, parse_poly(Q3, "th + tau^2"))
    assert scalar.is_drinfeld and scalar.rank == 2 and scalar.dim == 1


# ---------------------------------------------------------------------------
# Constructors.


def test_carlitz_power_golden():
    C3 = carlitz_power(Q3, 3)
    assert str(C3.t_matrix) == ("[[th, 1, 0],\n"
                                " [0, th, 1],\n"
                                " [tau, 0, th]]")
    assert carlitz_power(Q3, 1).t_matrix == carlitz(Q3).t_matrix
    assert carlitz_power(Q3, 2).is_carlitz_power()
    assert not trivial(Q3, 2).is_carlitz_power()


def test_trivial_module_is_theta_scalar():
    mod = trivial(Q3, 2)
    assert str(mod.t_matrix) == "[[th, 0],\n [0, th]]"
    assert mod.rank == 0


# ---------------------------------------------------------------------------
# Action by polynomials in t.


def test_act_golden():
    C = carlitz(Q3)
    assert str(C.act(parse_apoly(Q3, "t^2")).entry(0, 0)) == \
        "th^2 + (th + th^3)*tau + tau^2"
    assert C.act(parse_apoly(Q3, "t")) == C.t_matrix
    assert C.act(parse_apoly(Q3, "1")).entry(0, 0).is_constant


def test_act_is_multiplicative():
    C = carlitz_power(F9, 2)
    a2 = C.act(parse_apoly(F9, "t^2"))
    assert a2 == C.t_matrix * C.t_matrix
    a_sum = C.act(parse_apoly(F9, "t^2 + 2*t + 1"))
    ident = C.act(parse_apoly(F9, "1"))
    assert a_sum == a2 + C.t_matrix * 2 + ident


# ---------------------------------------------------------------------------
# Adjoint.


def test_module_adjoint_round_trip():
    mod = tmodule(F9, parse_matrix(
        F9, "[[g + tau^2, 0], [tau, g + tau^3]]"))
    ad = mod.adjoint()
    assert ad.var == SIGMA
    assert ad.adjoint().t_matrix == mod.t_matrix
    assert ad.t_matrix == mod.t_matrix.adjoint()


# ---------------------------------------------------------------------------
# Morphisms.


def test_t_matrix_is_a_self_morphism():
    mod = drinfeld(F9, parse_poly(F9, "g + tau^3"))
    check_morphism(mod.t_matrix, mod, mod)


def test_non_morphism_reports_residual():
    src = drinfeld(F9, parse_poly(F9, "g + tau^3"))
    tgt = drinfeld(F9, parse_poly(F9, "g + tau^2"))
    f = parse_matrix(F9, "[[tau]]")
    residual = morphism_residual(f, src, tgt)
    assert not residual.is_zero()
    with pytest.raises(NotAMorphism) as err:
        check_morphism(f, src, tgt)
    assert err.value.residual == residual


# ---------------------------------------------------------------------------
# Parsing.


def test_parse_module_forms():
    assert parse_module(Q3, "th + tau^2").is_drinfeld
    assert parse_module(Q3, "drinfeld th + tau^2").is_drinfeld
    assert parse_module(Q3, "th").dim == 1 and parse_module(Q3, "th").rank == 0
    mat = parse_module(Q3, "[[th, 1], [0, th]] + [[0, 0], [1, 0]]*tau")
    assert mat.dim == 2 and mat.rank == 1
    assert parse_module(Q3, "carlitz").t_matrix == carlitz(Q3).t_matrix
    assert parse_module(Q3, "carlitz e=3").t_matrix == \
        carlitz_power(Q3, 3).t_matrix
    assert parse_module(
        Q3, "tmodule dim=2 [[th, 1], [0, th]] + [[0, 0], [1, 0]]*tau"
    ).t_matrix == mat.t_matrix


def test_parse_module_rejects_bad_input():
    with pytest.raises(NotNilpotent):
        parse_module(Q3, "1 + tau")
    with pytest.raises(InvalidModule):
        parse_module(Q3, "drinfeld 1 + tau")
    from tmodext import ParseError
    with pytest.raises(ParseError):
        parse_module(Q3, "tmodule dim=3 [[th, 1], [0, th]]")


def test_carlitz_tensor_square_parse_matches_text_form():
    given = parse_module(Q3, "[[th, 1], [0, th]] + [[0, 0], [1, 0]]*tau")
    assert given.t_matrix == carlitz_power(Q3, 2).t_matrix
