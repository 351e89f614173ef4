"""Twisted polynomials and matrices over them."""

import copy
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import tmodext.skewpoly as skewpoly
from tmodext import (
    SIGMA,
    TAU,
    DimensionMismatch,
    FieldSpec,
    MixedFields,
    NotAQthPower,
    ParseError,
    SingularLeading,
    SkewMatrix,
    SkewPoly,
    inner_matrix,
    make_finite,
    make_formal,
    make_rational,
    parse_apoly,
    parse_field,
    parse_matrix,
    parse_poly,
    parse_value,
    tmodule,
)
from tmodext.skewpoly import (
    const_inverse,
    const_is_nilpotent,
    parse_element,
)

F9 = make_finite(3, 2)
F8 = make_finite(2, 3)
Q3 = make_rational(3)
FT = make_formal(3, generators=("a", "b"), invertibles=("a", "b"))
F7 = make_finite(7)
F2_13 = make_finite(2, 13)  # above ZECH_LIMIT: polynomial products


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
    assert SkewPoly.zero(Q3, TAU).leading() is None


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
    A, B = (SkewMatrix.from_const(spec, TAU, g) for g in (a, b))
    assert (A * B).coefficient_matrix(0) == _textbook_mul(a, b)


def test_product_kernel_runs_once_per_pair_of_nonzero_factors(monkeypatch):
    """A zero factor costs no kernel call, so the product of two sparse
    grids makes one call per nonzero pair, not one per (i, k, j)."""
    calls = []
    kernel = skewpoly._mul_into

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(skewpoly, "_mul_into", counting)
    for n in (1, 5, 12):
        N = _shift(Q3, n)
        pairs = sum(1 for i in range(n) for k in range(n) for j in range(n)
                    if N[i][k] and N[k][j])
        M = SkewMatrix.from_const(Q3, TAU, N)
        calls.clear()
        assert (M * M).coefficient_matrix(0) == _textbook_mul(N, N)
        assert len(calls) == pairs == max(n - 2, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_module_validation_multiplies_at_most_log2_n_times(monkeypatch, n):
    calls = []
    kernel = skewpoly._matmul_into

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(skewpoly, "_matmul_into", counting)
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


# ---------------------------------------------------------------------------
# The accumulator kernels behind + and * against the textbook formulas, on
# three domain kinds and both twisted variables.


# Under sigma a product twists the coefficients of its right factor by up
# to -3 here, so the F_3(th) entries are taken as q^3-th powers.
_FT_POOL = tuple(parse_element(FT, text) for text in (
    "0", "1", "2", "a[0]", "b[1] + th[0]", "a[-1]*b[2]", "1/a[0]",
    "(1 + b[0])/(a[1]*b[-1])"))
_F2_13_POOL = tuple(F2_13.from_fp_coords([(x >> i) & 1 for i in range(13)])
                    for x in (0, 1, 2, 0x123, 0x1abc, 0x1fff))
_KERNEL_POOLS = {
    (F9, TAU): tuple(F9.enumerate_elements()),
    (F9, SIGMA): tuple(F9.enumerate_elements()),
    (F7, TAU): tuple(F7.enumerate_elements()),
    (F7, SIGMA): tuple(F7.enumerate_elements()),
    (F2_13, TAU): _F2_13_POOL,
    (F2_13, SIGMA): _F2_13_POOL,
    (Q3, TAU): _Q3_POOL,
    (Q3, SIGMA): tuple(c.twist(3) for c in _Q3_POOL),
    (FT, TAU): _FT_POOL,
    (FT, SIGMA): _FT_POOL,
}


@st.composite
def _poly_grids(draw, spec, var, nrows, ncols):
    """Entries from (degree, element) pairs, repeated degrees included."""
    pool = _KERNEL_POOLS[spec, var]
    pairs = st.lists(st.tuples(st.integers(0, 3),
                               st.sampled_from(pool)), max_size=4)
    return [[SkewPoly.from_pairs(spec, var, draw(pairs))
             for _ in range(ncols)] for _ in range(nrows)]


def _textbook_poly_mul(f, g):
    """Degree by degree: the coefficient of v^d in f*g is the sum of
    x * y^(q^(s i)) over the terms x v^i of f and y v^j of g, i + j = d."""
    s, zero = f.sign, f.spec.zero()
    out = []
    for d in range(f.degree + g.degree + 1):
        c = zero
        for i, x in f.coeffs:
            for j, y in g.coeffs:
                if i + j == d:
                    c = c + x * y.twist(s * i)
        if c:
            out.append((d, c))
    return tuple(out)


def _textbook_poly_add(f, g):
    return tuple((d, f.coefficient(d) + g.coefficient(d))
                 for d in range(max(f.degree, g.degree) + 1)
                 if f.coefficient(d) + g.coefficient(d))


def _is_normal(f):
    degrees = [d for d, _c in f.coeffs]
    return (all(c for _d, c in f.coeffs)
            and all(d1 < d2 for d1, d2 in zip(degrees, degrees[1:])))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernels_agree_with_the_textbook_formulas(data):
    spec, var = data.draw(st.sampled_from(sorted(
        _KERNEL_POOLS, key=lambda sv: (sv[0].kind, sv[1]))))
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(_poly_grids(spec, var, r, k))
    b = data.draw(_poly_grids(spec, var, k, c))
    product = (SkewMatrix.from_rows(spec, var, a)
               * SkewMatrix.from_rows(spec, var, b))
    for i in range(r):
        for j in range(c):
            textbook = sum((a[i][m] * b[m][j] for m in range(1, k)),
                           a[i][0] * b[0][j])
            assert product.entry(i, j) == textbook
            assert _is_normal(product.entry(i, j))
    # Two more summands, a[i][0] * b[0][j] and a[i][0] * (-b[0][j]), cancel
    # inside every sum.
    a_pad = [row + row[:1] * 2 for row in a]
    b_pad = b + [b[0], [-e for e in b[0]]]
    padded = (SkewMatrix.from_rows(spec, var, a_pad)
              * SkewMatrix.from_rows(spec, var, b_pad))
    assert padded == product
    entries = [e for row in a + b for e in row]
    for f, g in zip(entries, entries[1:] + entries[:1]):
        for result, textbook in ((f * g, _textbook_poly_mul(f, g)),
                                 (f + g, _textbook_poly_add(f, g)),
                                 ((f + g) * (g - f), _textbook_poly_mul(
                                     f + g, g - f))):
            assert result.coeffs == textbook
            assert _is_normal(result)
        assert (f + (-f)).coeffs == ()
        assert (f * g + (-f) * g).coeffs == ()


# inner_matrix sums U*Phi_t - Psi_t*U in one grid of accumulators; the
# textbook formula builds both products and subtracts.  Over F_3(th) a sigma
# product twists Phi_t's theta by a negative power, which has no q-th root,
# so that pool is left out.
def _textbook_inner(source, target, u):
    return u * source.t_matrix - target.t_matrix * u


@pytest.mark.parametrize("spec, var", [
    pytest.param(spec, var, id=f"{spec.header()}-{var}")
    for spec, var in _KERNEL_POOLS if (spec, var) != (Q3, SIGMA)])
def test_inner_matrix_is_the_textbook_formula(spec, var):
    rng = random.Random(29)
    pool = _KERNEL_POOLS[spec, var]
    theta, one = spec.theta(), spec.one()

    def poly(*pairs):
        return SkewPoly.from_pairs(spec, var, pairs)

    def module(rows):
        return tmodule(spec, SkewMatrix.from_rows(spec, var, rows))

    def random_u(nrows, ncols):
        return SkewMatrix.from_rows(spec, var, [[poly(*[
            (rng.randrange(4), rng.choice(pool))
            for _ in range(rng.randrange(5))]) for _ in range(ncols)]
            for _ in range(nrows)])

    rank3 = module([[poly((0, theta), (1, rng.choice(pool)), (3, one))]])
    rank2 = module([[poly((0, theta), (2, one))]])
    two_dim = module([[poly((0, theta), (2, rng.choice(pool))), poly()],
                      [poly((0, one)), poly((0, theta), (3, one))]])
    for source, target in ((rank3, rank2), (two_dim, rank2),
                           (rank2, two_dim)):
        for _ in range(6):
            u = random_u(target.dim, source.dim)
            assert inner_matrix(source, target, u) == \
                _textbook_inner(source, target, u)


def _elements_built(run):
    """run() and the number of elements FieldSpec._fe built meanwhile."""
    built = []
    real = FieldSpec._fe

    def counting(spec, payload):
        built.append(payload)
        return real(spec, payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FieldSpec, "_fe", counting)
        result = run()
    return result, len(built)


def _textbook_eval(f, c):
    return sum((a * c.twist(f.sign * i) for i, a in f.coeffs), f.spec.zero())


# Polynomials store payloads, so products and sums build no element: none
# per term product, twist or partial sum, and none per result coefficient
# either.  Applying a polynomial builds one, its value.
_KERNEL_KEYS = sorted(_KERNEL_POOLS,
                      key=lambda sv: (sv[0].kind, sv[0].p, sv[1]))


@pytest.mark.parametrize("spec, var", _KERNEL_KEYS, ids=[
    f"{spec.header()}-{var}" for spec, var in _KERNEL_KEYS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_products_build_one_element_per_result_coefficient(spec, var, data):
    a = data.draw(_poly_grids(spec, var, 2, 2))
    b = data.draw(_poly_grids(spec, var, 2, 2))
    f, g = a[0][0], b[0][0]
    for run in (lambda: f * g, lambda: f + g,
                lambda: SkewMatrix.from_rows(spec, var, a)
                * SkewMatrix.from_rows(spec, var, b)):
        assert _elements_built(run)[1] == 0
    c = data.draw(st.sampled_from(_KERNEL_POOLS[spec, var]))
    value, built = _elements_built(lambda: f.eval_linear(c))
    assert built == 1 and value == _textbook_eval(f, c)


@pytest.mark.parametrize("spec, var", _KERNEL_KEYS, ids=[
    f"{spec.header()}-{var}" for spec, var in _KERNEL_KEYS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_matrix_action_builds_one_element_per_coordinate(spec, var, data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mat = SkewMatrix.from_rows(spec, var,
                               data.draw(_poly_grids(spec, var, rows, cols)))
    vec = tuple(data.draw(st.lists(st.sampled_from(_KERNEL_POOLS[spec, var]),
                                   min_size=cols, max_size=cols)))
    value, built = _elements_built(lambda: mat.eval_linear(vec))
    assert built == rows
    assert value == tuple(
        sum((_textbook_eval(mat.entry(i, j), vec[j]) for j in range(cols)),
            spec.zero())
        for i in range(rows))


def test_matrix_action_rejects_foreign_and_misshapen_vectors():
    mat = parse_matrix(F9, "[[g*tau + 1, tau^2]]")
    with pytest.raises(MixedFields):
        mat.eval_linear((F9.one(), F8.one()))
    with pytest.raises(DimensionMismatch):
        mat.eval_linear((F9.one(),))


def test_constructors_refuse_elements_of_another_domain():
    """Before, the foreign payload was stored and failed later in str()
    or a product with a TypeError."""
    th = Q3.theta()
    with pytest.raises(MixedFields):
        SkewPoly.term(F9, TAU, th, 1)
    with pytest.raises(MixedFields):
        SkewPoly.from_pairs(F9, TAU, [(0, F9.one()), (1, th)])
    with pytest.raises(MixedFields):
        SkewMatrix.from_slots(F9, TAU, 1, 2, [(0, 0, 0), (0, 1, 2)],
                              [F9.gen(), F8.gen()])
    twin = make_finite(3, 2)  # a second call gives F9 itself
    assert SkewPoly.from_pairs(F9, TAU, [(1, twin.gen())]) == \
        SkewPoly.term(F9, TAU, F9.gen(), 1)


def test_constructors_refuse_the_zero_of_another_domain():
    """A foreign zero raises as a foreign nonzero element does; before, it
    was taken for the zero of the polynomial's own domain."""
    f9, zero = make_finite(3, 2), make_finite(2, 2).zero()
    with pytest.raises(MixedFields, match="different coefficient domains"):
        SkewPoly.term(f9, TAU, zero, 1)
    with pytest.raises(MixedFields, match="different coefficient domains"):
        SkewPoly.const(f9, TAU, zero)
    with pytest.raises(MixedFields, match="different coefficient domains"):
        SkewMatrix.from_const(f9, TAU, [[zero]])


# ---------------------------------------------------------------------------
# Field elements and twisted polynomials are immutable values.


_VALUE_TEXTS = {
    "finite": (F9, "g + 2", "g*tau^2 + 1"),
    "rational": (Q3, "(1 + th)/(2 + th^2)", "th*tau^2 + 1/th"),
    "formal": (FT, "a[1]/b[0] + th[0]", "a[0]*tau^2 + b[-1]"),
}


@pytest.mark.parametrize("kind", sorted(_VALUE_TEXTS))
def test_elements_and_polynomials_stay_values(kind):
    spec, element_text, poly_text = _VALUE_TEXTS[kind]
    for parse, text, fields in (
            (parse_element, element_text, ("spec", "payload")),
            (parse_poly, poly_text, ("spec", "var", "coeffs"))):
        value, twin = parse(spec, text), parse(spec, text)
        assert value is not twin
        assert value == twin and hash(value) == hash(twin)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(twin, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == twin
        for other in (0, 1, "1", text):
            assert (value == other) is False and (value != other) is True
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)
            assert str(copied) == str(value)


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


def test_nesting_budget_names_its_constant():
    """The parser refuses the level past MAX_NESTING, naming the constant
    as the other budget messages do; the level below it parses."""
    depth = skewpoly.MAX_NESTING
    assert depth == 100
    nested = "(" * (depth - 1) + "th" + ")" * (depth - 1)
    assert parse_poly(Q3, nested) == parse_poly(Q3, "th")
    with pytest.raises(ParseError) as info:
        parse_poly(Q3, "(" + nested + ")")
    assert str(info.value) == ("expression nests deeper than 100 levels at "
                               "position 100 (MAX_NESTING = 100)")


def _tokens_one_match_at_a_time(text):
    """The reference tokenizer: one anchored match per token, and the
    first non-space character of an unmatched tail is the bad one."""
    skewpoly._check_literals(text)
    tokens, pos = [], 0
    while pos < len(text):
        m = re.compile(_TOKEN).match(text, pos)
        if not m:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError(f"unexpected character {tail[0]!r} in "
                             f"{text.strip()!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_TOKEN = (r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
          r"|(?P<op>\^|[+\-*/(),;\[\]=]))")


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


# Digits, names and operators, ASCII and Unicode whitespace, a non-ASCII
# digit and letter, and characters no token starts with.
_TOKEN_ALPHABET = ("07th_xZ+-*/^(),;[]= \t\n\u00a0\u2003\x1c"
                   "$.'\u0663\u00e9")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=30))
def test_tokenizer_matches_one_match_per_token(text):
    assert _outcome(skewpoly._tokenize, text) == \
        _outcome(_tokens_one_match_at_a_time, text)


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


# ---------------------------------------------------------------------------
# Printing: every sum goes through one term printer, each caller with its
# own parenthesis rule.  The texts are goldens, one per rule: the CLI and
# the README print them.

Q9 = parse_field("GF(3^2)(th)")
FT9 = parse_field("FTF(3^2; gens=a,th; inv=a)")
# The formal constant 1 + g, which no text names: g is refused there.
_ONE_PLUS_G = FT9._fe(((((), 4),), ()))

_PRINTED = [
    ("finite-sum", lambda: parse_element(F9, "1 + 2*g"), "1 + 2*g"),
    ("finite-unit-power", lambda: parse_element(F9, "g"), "g"),
    ("poly-ops-element", lambda: F2_13.gen() ** 14, "g + g^2 + g^4 + g^5"),
    ("mod-header", lambda: parse_field("GF(3^3; mod=g^3+2*g+1)").header(),
     "GF(3^3; mod=1+2*g+g^3)"),
    ("theta-header", lambda: parse_field("GF(5^2; theta=2*g+1)").header(),
     "GF(5^2; mod=2+g^2; theta=1 + 2*g)"),
    ("prime-theta-header", lambda: parse_field("GF(5; theta=3)").header(),
     "GF(5; theta=3)"),
    ("rational-constant-sum", lambda: parse_element(Q9, "1 + g"), "1 + g"),
    ("rational-constant-sum-in-a-sum",
     lambda: parse_element(Q9, "th + g + 1"), "1 + g + th"),
    ("rational-sum-coefficient", lambda: parse_element(Q9, "(1 + g)*th^2"),
     "(1 + g)*th^2"),
    ("rational-unit-coefficient", lambda: parse_element(Q9, "th + 2*th^3"),
     "th + 2*th^3"),
    ("rational-fraction", lambda: parse_element(Q9, "(1 + th)/(g + th^2)"),
     "(1 + th)/(g + th^2)"),
    ("rational-over-a-power", lambda: parse_element(Q9, "g/th^3"), "g/th^3"),
    ("formal-constant-sum", lambda: _ONE_PLUS_G, "(1 + g)"),
    ("formal-constant-sum-in-a-sum",
     lambda: _ONE_PLUS_G + FT9.symbol("a", 0), "(1 + g) + a[0]"),
    ("formal-sum-coefficient", lambda: _ONE_PLUS_G * FT9.symbol("a", 1),
     "(1 + g)*a[1]"),
    ("formal-constant-sum-over-a-monomial",
     lambda: _ONE_PLUS_G / FT9.symbol("a", 0), "((1 + g))/a[0]"),
    ("formal-fraction",
     lambda: parse_element(FT9, "(1 + th[1])/(a[0]*a[2])"),
     "(1 + th[1])/(a[0]*a[2])"),
    ("formal-powers", lambda: parse_element(FT9, "2*a[-1]^2*th[3]"),
     "2*a[-1]^2*th[3]"),
    ("poly-product-coefficient",
     lambda: parse_poly(F9, "1 + 2*g*tau + tau^2"), "1 + (2*g)*tau + tau^2"),
    ("poly-quotient-coefficient", lambda: parse_poly(Q9, "tau/th"),
     "(1/th^9)*tau"),
    ("poly-sum-coefficient", lambda: parse_poly(Q9, "(th + 1)*tau"),
     "(1 + th)*tau"),
    ("poly-constant-sum", lambda: parse_poly(Q9, "th + 1 + tau"),
     "1 + th + tau"),
    ("poly-formal-coefficients",
     lambda: parse_poly(FT9, "a[0]*a[1]*tau + th[2]*tau^2"),
     "(a[0]*a[1])*tau + th[2]*tau^2"),
    ("sig", lambda: parse_poly(F9, "g*sig + sig^3", SIGMA), "g*sig + sig^3"),
    ("json", lambda: parse_poly(Q9, "th + (1 + th)/th*tau^2").to_json(),
     [[0, "th"], [2, "(1 + th)/th"]]),
    ("finite-zero", F9.zero, "0"),
    ("rational-zero", Q9.zero, "0"),
    ("formal-zero", FT9.zero, "0"),
    ("poly-zero", lambda: SkewPoly.zero(Q9, TAU), "0"),
]


@pytest.mark.parametrize("value, text", [row[1:] for row in _PRINTED],
                         ids=[row[0] for row in _PRINTED])
def test_printed_texts_are_pinned(value, text):
    value = value()
    assert (value if isinstance(value, list) else str(value)) == text


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
