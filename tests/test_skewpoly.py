"""Twisted polynomials and matrices over them."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import tmodext.skewpoly as skewpoly
from tmodext import (
    SIGMA,
    TAU,
    DimensionMismatch,
    NotAQthPower,
    ParseError,
    SingularLeading,
    SkewMatrix,
    SkewPoly,
    make_finite,
    make_formal,
    make_rational,
    parse_apoly,
    parse_matrix,
    parse_poly,
    parse_value,
    tmodule,
)
from tmodext.skewpoly import (
    const_inverse,
    const_is_nilpotent,
    const_mul,
    parse_element,
)

F9 = make_finite(3, 2)
F8 = make_finite(2, 3)
Q3 = make_rational(3)
FT = make_formal(3, generators=("a", "b"), invertibles=("a", "b"))


def _nth_elt(spec, n):
    pool = list(spec.enumerate_elements())
    return pool[n % len(pool)]


def polys(spec, var, max_deg=3):
    return st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=0, max_size=max_deg + 1).map(
        lambda ns: SkewPoly.from_pairs(
            spec, var, [(d, _nth_elt(spec, n)) for d, n in enumerate(ns)]))


# ---------------------------------------------------------------------------
# Ring structure.


def test_twist_rule_golden():
    g = F9.gen()
    tau = SkewPoly.term(F9, TAU, F9.one(), 1)
    assert tau * g == SkewPoly.term(F9, TAU, g ** 3, 1)
    sig = SkewPoly.term(F9, SIGMA, F9.one(), 1)
    assert sig * (g ** 3) == SkewPoly.term(F9, SIGMA, g, 1)


@settings(max_examples=50, deadline=None)
@given(polys(F9, TAU), polys(F9, TAU), polys(F9, TAU))
def test_tau_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert f + (-f) == SkewPoly.zero(F9, TAU)


@settings(max_examples=50, deadline=None)
@given(polys(F8, SIGMA), polys(F8, SIGMA), polys(F8, SIGMA))
def test_sigma_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_degrees_and_leading():
    f = parse_poly(Q3, "th + 2*tau^3")
    assert f.degree == 3
    assert f.leading() == (3, Q3.from_int(2))
    assert f.coefficient(0) == Q3.theta()
    assert f.coefficient(1) == Q3.zero()
    assert SkewPoly.zero(Q3, TAU).degree == -1


# ---------------------------------------------------------------------------
# Evaluation as a twisting operator.


@settings(max_examples=50, deadline=None)
@given(polys(F9, TAU), polys(F9, TAU),
       st.integers(min_value=0, max_value=10 ** 6))
def test_eval_linear_composes(f, g, n):
    c = _nth_elt(F9, n)
    assert (f * g).eval_linear(c) == f.eval_linear(g.eval_linear(c))


def test_eval_linear_sigma_uses_negative_twists():
    f = SkewPoly.term(F8, SIGMA, F8.one(), 2)
    c = F8.gen()
    assert f.eval_linear(c) == c.twist(-2)


# ---------------------------------------------------------------------------
# Adjoint.


@settings(max_examples=50, deadline=None)
@given(polys(F9, TAU), polys(F9, TAU))
def test_adjoint_is_an_involutive_antihomomorphism(f, g):
    assert (f * g).adjoint() == g.adjoint() * f.adjoint()
    assert f.adjoint().adjoint() == f
    assert f.adjoint().var == SIGMA


def test_adjoint_formal_golden():
    f = parse_poly(FT, "a[0]*tau^2 + b[1]*tau^5")
    ad = f.adjoint()
    assert str(ad) == "a[-2]*sig^2 + b[-4]*sig^5"
    assert ad.adjoint() == f


def test_adjoint_partial_over_rational():
    assert str(parse_poly(Q3, "th^3*tau").adjoint()) == "th*sig"
    with pytest.raises(NotAQthPower):
        parse_poly(Q3, "th*tau").adjoint()


# ---------------------------------------------------------------------------
# Matrices.


def test_matrix_product_and_shape_checks():
    m = parse_matrix(F9, "[[g, tau], [0, 1]]")
    n = parse_matrix(F9, "[[1], [tau]]")
    assert (m * n).shape == (2, 1)
    with pytest.raises(DimensionMismatch):
        n * m


def test_matrix_adjoint_is_transpose_of_entrywise():
    m = parse_matrix(FT, "[[a[0]*tau, 1], [0, b[0]*tau^2]]")
    ad = m.adjoint()
    assert str(ad) == "[[a[-1]*sig, 0],\n [1, b[-2]*sig^2]]"
    assert ad.adjoint() == m


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                min_size=9, max_size=9))
def test_matrix_adjoint_antihomomorphism(ns):
    pool = list(F9.enumerate_elements())

    def mat(chunk):
        return SkewMatrix.from_rows(F9, TAU, [
            [SkewPoly.from_pairs(F9, TAU, [(0, pool[chunk[0] % 9]),
                                           (1, pool[chunk[1] % 9])]),
             SkewPoly.const(F9, TAU, pool[chunk[2] % 9])],
            [SkewPoly.const(F9, TAU, pool[chunk[3] % 9]),
             SkewPoly.from_pairs(F9, TAU, [(2, pool[chunk[4] % 9])])],
        ])
    a, b = mat(ns[:5]), mat(ns[4:])
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_const_inverse_and_nilpotence():
    m = parse_matrix(F9, "[[g, 1], [1, 2]]")
    const = m.coefficient_matrix(0)
    inv = const_inverse(const)
    ident = SkewMatrix.from_const(F9, TAU, inv) * m
    assert ident == SkewMatrix.identity(F9, TAU, 2)
    with pytest.raises(SingularLeading):
        const_inverse(parse_matrix(F9, "[[1, 1], [1, 1]]")
                      .coefficient_matrix(0))
    nil = parse_matrix(F9, "[[0, 1], [0, 0]]").coefficient_matrix(0)
    assert const_is_nilpotent(nil)
    assert not const_is_nilpotent(parse_matrix(F9, "[[1, 0], [0, 0]]")
                                  .coefficient_matrix(0))


# ---------------------------------------------------------------------------
# Constant grids: the zero-skipping product and nilpotence by squaring,
# against the textbook triple sum and the n-th power it gives.


F2 = make_finite(2)

# Small F_3(th) entries, zero first, with denominators so that products
# and sums exercise the gcd normalization.
_Q3_POOL = tuple(parse_element(Q3, text) for text in (
    "0", "1", "2", "th", "1 + th", "2 + th^2", "1/th", "(1 + th)/(2 + th^2)"))


def _pool(spec):
    return _Q3_POOL if spec is Q3 else tuple(spec.enumerate_elements())


def _textbook_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, len(b))),
                  a[i][0] * b[0][j])
              for j in range(len(b[0])))
        for i in range(len(a)))


def _textbook_power_is_zero(a):
    power = a
    for _ in range(len(a) - 1):
        power = _textbook_mul(power, a)
    return all(c.is_zero() for row in power for c in row)


def _shift(spec, n):
    one, zero = spec.one(), spec.zero()
    return tuple(tuple(one if j == i + 1 else zero for j in range(n))
                 for i in range(n))


@st.composite
def _grids(draw, spec, nrows, ncols, shape="full"):
    """An nrows x ncols grid; zero weighs half of every draw, and "strict"
    keeps only the entries above the diagonal."""
    pool = _pool(spec)
    rows = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            if shape == "strict" and j <= i or draw(st.booleans()):
                row.append(spec.zero())
            else:
                row.append(pool[draw(st.integers(0, len(pool) - 1))])
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def _square_grids(draw):
    """Random, strictly triangular (either side) or dense nilpotent
    P*T*P^-1 grids, with P = L*U unit lower times invertible upper."""
    spec = draw(st.sampled_from([F2, F9, Q3]))
    n = draw(st.integers(1, 5 if spec is Q3 else 7))
    kind = draw(st.sampled_from(["random", "upper", "lower", "conjugate"]))
    if kind == "random":
        return draw(_grids(spec, n, n))
    t = draw(_grids(spec, n, n, "strict"))
    if kind == "lower":
        return tuple(zip(*t))
    if kind == "upper":
        return t
    units = [x for x in _pool(spec) if x]
    low = draw(_grids(spec, n, n, "strict"))  # transposed below
    up = draw(_grids(spec, n, n, "strict"))
    low = tuple(tuple(spec.one() if i == j else low[j][i] for j in range(n))
                for i in range(n))
    up = tuple(tuple(units[draw(st.integers(0, len(units) - 1))] if i == j
                     else up[i][j] for j in range(n)) for i in range(n))
    p = _textbook_mul(low, up)
    return _textbook_mul(_textbook_mul(p, t), const_inverse(p))


@settings(max_examples=150, deadline=None)
@given(_square_grids())
def test_nilpotence_by_squaring_agrees_with_the_nth_power(a):
    assert const_is_nilpotent(a) == _textbook_power_is_zero(a)


@pytest.mark.parametrize("n", range(1, 10))
def test_single_jordan_shift_has_index_exactly_n(n):
    """The shift of size n has index n, the largest possible, so squaring
    must run until 2^k >= n; wrapped into a cyclic permutation it is never
    nilpotent."""
    for spec in (F2, F9, Q3):
        shift = _shift(spec, n)
        assert const_is_nilpotent(shift)
        if n > 1:
            power = shift
            for _ in range(n - 2):
                power = _textbook_mul(power, shift)
            assert any(c for row in power for c in row)  # shift^(n-1) != 0
        cycle = tuple(tuple(spec.one() if (i, j) == (n - 1, 0) else c
                            for j, c in enumerate(row))
                      for i, row in enumerate(shift))
        assert not const_is_nilpotent(cycle)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_zero_skipping_product_matches_the_triple_sum(data):
    spec = data.draw(st.sampled_from([F2, F9, Q3]))
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(_grids(spec, r, k))
    b = data.draw(_grids(spec, k, c))
    assert const_mul(a, b) == _textbook_mul(a, b)


@pytest.mark.parametrize("n", range(1, 13))
def test_module_validation_multiplies_at_most_log2_n_times(monkeypatch, n):
    calls = []

    def counting(a, b):
        calls.append(1)
        return const_mul(a, b)

    monkeypatch.setattr(skewpoly, "const_mul", counting)
    theta = Q3.theta()

    def validate(grid):
        calls.clear()
        tmodule(Q3, SkewMatrix.from_const(Q3, TAU, tuple(
            tuple(c + theta if i == j else c for j, c in enumerate(row))
            for i, row in enumerate(grid))))
        return len(calls)

    zero = tuple(tuple(Q3.zero() for _ in range(n)) for _ in range(n))
    assert validate(zero) == 0  # theta*I: zero tests only
    assert validate(_shift(Q3, n)) <= math.ceil(math.log2(n))


def test_block_assembly():
    a = parse_matrix(F9, "[[g]]")
    b = parse_matrix(F9, "[[tau]]")
    z = SkewMatrix.zeros(F9, TAU, 1, 1)
    blocked = SkewMatrix.block([[a, z], [b, a]])
    assert str(blocked) == "[[g, 0],\n [tau, g]]"


# ---------------------------------------------------------------------------
# Parsing and rendering.


def test_parser_precedence_and_unary_minus():
    f = parse_poly(Q3, "th + 2*tau^2 - tau")
    assert str(f) == "th + 2*tau + 2*tau^2"
    assert parse_poly(Q3, "-tau^2") == -parse_poly(Q3, "tau^2")
    assert parse_poly(Q3, "(1 + th)*tau^2") != parse_poly(Q3, "1 + th*tau^2")


def test_parser_division_golden():
    assert str(parse_poly(Q3, "tau/th")) == "(1/th^3)*tau"
    with pytest.raises(ParseError):
        parse_poly(Q3, "1/tau")


def test_parse_value_matrix_vs_scalar():
    v = parse_value(Q3, "[[th, 0], [1, th]]")
    assert isinstance(v, SkewMatrix)
    assert isinstance(parse_value(Q3, "th + tau"), SkewPoly)
    with pytest.raises(ParseError):
        parse_value(Q3, "[[th], [1, th]]")  # ragged rows
    with pytest.raises(ParseError):
        parse_value(Q3, "th + + tau")


def test_sigma_parse_and_render():
    f = parse_poly(FT, "th[0] + a[-1]*sig^2", SIGMA)
    assert f.var == SIGMA
    assert str(f) == "th[0] + a[-1]*sig^2"
    assert parse_poly(FT, str(f), SIGMA) == f


def test_poly_render_parse_round_trip():
    for spec, text in [
        (F9, "g + (1 + g)*tau + 2*tau^4"),
        (Q3, "th + (th + 2*th^3)*tau^2"),
        (FT, "th[0] + (b[0]*b[2]/a[2])*tau^4"),
    ]:
        f = parse_poly(spec, text)
        assert parse_poly(spec, str(f)) == f
        assert str(parse_poly(spec, str(f))) == str(f)


def test_parse_apoly_requires_twist_fixed_coefficients():
    assert parse_apoly(Q3, "t^2 + 2*t + 1") == (Q3.one(), Q3.from_int(2),
                                                Q3.one())
    with pytest.raises(ParseError):
        parse_apoly(Q3, "th*t")
    with pytest.raises(ParseError):
        parse_apoly(F9, "g*t")  # g is not fixed by the twist


def test_json_shapes():
    f = parse_poly(F9, "g + tau^2")
    m = SkewMatrix.from_rows(F9, TAU, [[f]])
    j = m.to_json()
    assert j["var"] == "tau"
    assert j["entries"] == [[[[0, "g"], [2, "1"]]]]
    s = parse_poly(F9, "g*sig", SIGMA)
    assert SkewMatrix.from_rows(F9, SIGMA, [[s]]).to_json()["var"] == "sigma"
