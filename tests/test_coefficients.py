"""Coefficient fields: finite, rational function, and formal twist."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tmodext import (
    DivisionByZero,
    FieldElement,
    FiniteFieldRequired,
    MixedFields,
    NonMonomialDenominator,
    NotAQthPower,
    ParseError,
    PolynomialTooLarge,
    make_finite,
    make_formal,
    make_rational,
    parse_element,
    parse_field,
)
from tmodext.coefficients import (
    MAX_POLY_TERMS,
    ZECH_LIMIT,
    _PolyOps,
    _ZechOps,
    default_modulus,
)

F4 = make_finite(2, 2)
F8 = make_finite(2, 3)
F9 = make_finite(3, 2)
F16 = make_finite(2, 4)
Q3 = make_rational(3)
FT = make_formal(3, generators=("a", "b"), invertibles=("a",))


def elements(spec):
    return st.integers(min_value=0, max_value=10 ** 6).map(
        lambda n: _nth(spec, n))


def _nth(spec, n):
    pool = list(spec.enumerate_elements())
    return pool[n % len(pool)]


# ---------------------------------------------------------------------------
# Default moduli and headers.


def test_default_moduli_are_the_first_irreducibles():
    assert default_modulus(2, 2) == (1, 1, 1)          # 1 + g + g^2
    assert default_modulus(2, 3) == (1, 1, 0, 1)       # 1 + g + g^3
    assert default_modulus(3, 2) == (1, 0, 1)          # 1 + g^2
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)    # 1 + g + g^4
    assert default_modulus(5, 1) == (0, 1)


def test_headers_round_trip():
    for spec in (F4, F8, F9, F16, Q3, FT):
        assert parse_field(spec.header()) == spec
    assert F9.header() == "GF(3^2; mod=1+g^2)"
    assert F16.header() == "GF(2^4; mod=1+g+g^4)"
    assert Q3.header() == "GF(3)(th)"
    assert FT.header() == "FTF(3; gens=a,b,th; inv=a)"


def test_parse_field_rejections():
    with pytest.raises(ParseError):
        parse_field("GF(4)")  # composite characteristic
    with pytest.raises(ParseError):
        parse_field("GF(3; mod=g^2+1)")  # modulus at degree one
    with pytest.raises(ParseError):
        parse_field("nonsense")
    with pytest.raises(ParseError):
        parse_field("GF(3^0)")


def test_theta_defaults():
    assert str(F9.theta()) == "g"
    assert str(make_finite(5).theta()) == "1"
    assert str(parse_field("GF(5; theta=2)").theta()) == "2"
    assert str(Q3.theta()) == "th"
    assert str(FT.theta()) == "th[0]"


# ---------------------------------------------------------------------------
# Field axioms on a finite field.


@settings(max_examples=60, deadline=None)
@given(elements(F9), elements(F9), elements(F9))
def test_finite_field_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == F9.zero()
    if a:
        assert a * a.inverse() == F9.one()


@settings(max_examples=40, deadline=None)
@given(elements(F8))
def test_frobenius_twist_is_a_ring_map(a):
    assert a.twist(1) == a * a  # q = 2
    assert a.twist(3) == a      # full orbit in F_8
    assert a.twist(-1).twist(1) == a


def test_enumerate_and_from_int():
    assert len(list(F4.enumerate_elements())) == 4
    assert len(list(F16.enumerate_elements())) == 16
    assert sorted(str(x) for x in F4.enumerate_elements()) == \
        ["0", "1", "1 + g", "g"]
    assert F9.from_int(3) == F9.zero()
    assert F9.from_int(-1) + F9.one() == F9.zero()


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        F9.one() + F8.one()


# ---------------------------------------------------------------------------
# The scalar layer: GF(p^m) elements are integer codes served by one of
# three arithmetic paths (residues, log/Zech tables, polynomial products).


def _just_over_limit(p):
    m = 2
    while p ** m <= ZECH_LIMIT:
        m += 1
    return make_finite(p, m)


SCALAR_FIELDS = (
    make_finite(7),
    F16,
    F9,
    make_finite(5, 3),
    parse_field("GF(3^2; mod=g^2+2*g+2)"),
    _just_over_limit(2),
    _just_over_limit(3),
)


def test_scalar_fields_cover_every_arithmetic_path():
    kinds = [type(spec._ops).__name__ for spec in SCALAR_FIELDS]
    assert kinds == ["_PrimeOps"] + ["_ZechOps"] * 4 + ["_PolyOps"] * 2


def _field_elements(spec):
    return st.lists(st.integers(0, spec.p - 1), min_size=spec.m,
                    max_size=spec.m).map(spec.from_fp_coords)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCALAR_FIELDS).flatmap(
    lambda spec: st.tuples(*[_field_elements(spec)] * 3)))
def test_scalar_field_laws_twists_and_round_trip(abc):
    a, b, c = abc
    spec = a.spec
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b) and a + (-a) == spec.zero()
    if a:
        assert a * a.inverse() == spec.one()
    if b:
        assert (a / b) * b == a
    for i in range(spec.m + 1):
        assert a.twist(i) == a ** (spec.p ** i)
    assert a.twist(spec.m) == a and a.twist(-1).twist(1) == a
    assert parse_element(spec, str(a)) == a
    assert spec.from_fp_coords(a.fp_coords()) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([spec for spec in SCALAR_FIELDS
                        if isinstance(spec._ops, _ZechOps)]).flatmap(
    lambda spec: st.tuples(st.just(spec),
                           st.integers(0, spec.carrier_size() - 1),
                           st.integers(0, spec.carrier_size() - 1),
                           st.integers(-3, 3))))
def test_zech_tables_agree_with_polynomial_products(case):
    spec, a, b, i = case
    tables, poly = spec._ops, _PolyOps(spec.p, spec.modulus)
    for op in ("add", "sub", "mul"):
        assert getattr(tables, op)(a, b) == getattr(poly, op)(a, b)
    assert tables.neg(a) == poly.neg(a)
    assert tables.frob(a, i) == poly.frob(a, i)
    if a:
        assert tables.inv(a) == poly.inv(a)


def test_scalar_zero_has_no_inverse():
    for spec in SCALAR_FIELDS:
        with pytest.raises(DivisionByZero):
            spec.zero().inverse()
    with pytest.raises(FiniteFieldRequired):
        Q3.one().fp_coords()


def test_enumeration_and_sampling_orders_are_pinned():
    first = [str(x) for x in make_finite(3, 2).enumerate_elements()][:6]
    assert first == ["0", "g", "2*g", "1", "1 + g", "1 + 2*g"]
    rng = random.Random(7)
    drawn = [str(F8.random_element(rng)) for _ in range(5)]
    assert drawn == ["1 + g^2", "0", "1", "g^2", "1"]


def test_large_field_builds_no_tables():
    """GF(2^16) is above the table limit and multiplies polynomials; the
    time bound fails a limit whose table build takes seconds."""
    start = time.perf_counter()
    spec = make_finite(2, 16)
    assert isinstance(spec._ops, _PolyOps)
    g = spec.gen()
    x = spec.zero()
    for _ in range(100):
        x = x * g + g
    assert x * x.inverse() == spec.one()
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# Rational function field.


def test_rational_normalization_cancels_common_factors():
    assert str(parse_element(Q3, "(th^2 + 2)/(th + 2)")) == "1 + th"
    assert str(parse_element(Q3, "(2*th)/(2)")) == "th"
    assert parse_element(Q3, "th/th") == Q3.one()


def test_rational_twist_stretches_exponents():
    th = Q3.theta()
    assert str(th.twist(1)) == "th^3"
    assert (th + 1).twist(1) == th ** 3 + 1
    assert (th ** 9).twist(-2) == th
    with pytest.raises(NotAQthPower):
        th.twist(-1)
    with pytest.raises(NotAQthPower):
        (th ** 3 + th).twist(-1)  # th^3 + th = (th + ...)^3 fails


def test_rational_twist_higher_base():
    Q9 = make_rational(3, 2)  # q = 9, coefficients in F_9 fixed by Frobenius
    th = Q9.theta()
    assert th.twist(1) == th ** 9
    with pytest.raises(NotAQthPower):
        (th ** 3).twist(-1)


def test_rational_gcd_skips_a_huge_exponent_gap():
    start = time.perf_counter()
    e = parse_element(Q3, "(1 + th^1000000000)/(2 + th^2)")
    assert time.perf_counter() - start < 1.0
    assert str(e) == "(1 + th^1000000000)/(2 + th^2)"


def test_dense_exact_quotient_is_refused_at_the_term_budget():
    """(1 + th^N)/(2 + th^2) with odd N cancels th + 1 and leaves a dense
    quotient of about N terms; at N = 3^40 building it exhausts memory."""
    start = time.perf_counter()
    with pytest.raises(PolynomialTooLarge, match=str(MAX_POLY_TERMS)):
        parse_element(Q3, "(1 + th^12157665459056928801)/(2 + th^2)")
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PolynomialTooLarge):
        parse_element(Q3, f"(1 + th^{2 * MAX_POLY_TERMS + 1})/(2 + th^2)")
    # within the budget: the quotient by th + 1 keeps all N terms
    n = MAX_POLY_TERMS - 1
    num, den = str(parse_element(Q3, f"(1 + th^{n})/(2 + th^2)")).split(")/(")
    assert num.count(" + ") + 1 == n and den == "2 + th)"


def test_sparse_exact_quotient_of_huge_degree_parses():
    """The budget counts terms, not degree: (th^2N - 1)/(th^N - 1) is
    th^N + 1."""
    n = 10 ** 9
    e = parse_element(Q3, f"(th^{2 * n} - 1)/(th^{n} - 1)")
    assert str(e) == f"1 + th^{n}"


def test_rational_deep_twists_reindex_exponents():
    th = Q3.theta()
    deep = th.twist(40)
    assert str(deep) == f"th^{3 ** 40}" == "th^12157665459056928801"
    assert deep.twist(-40) == th
    with pytest.raises(NotAQthPower):
        (deep + th).twist(-1)
    assert (1 / deep).twist(-40) == 1 / th
    with pytest.raises(NotAQthPower):
        (1 / (deep + th)).twist(-1)


Q9TH = make_rational(3, 2)


def _scalars(spec):
    g = spec.gen() if spec.m > 1 else spec.zero()
    return st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda ab: ab[0] + ab[1] * g)


def rationals(spec):
    """Small fractions with sparse numerators; denominators are single
    terms c*th^k or general polynomials, so both gcd paths run."""
    th = spec.theta()

    def poly(terms):
        return sum((c * th ** e for e, c in terms.items()), spec.zero())

    polys = st.dictionaries(st.integers(0, 10), _scalars(spec), max_size=3)
    single = st.tuples(st.integers(0, 4), _scalars(spec)).map(
        lambda ec: ec[1] * th ** ec[0])
    dens = st.one_of(single, polys.map(poly)).filter(bool)
    return st.builds(lambda n, d: n / d, polys.map(poly), dens)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((Q3, Q9TH)).flatmap(
           lambda spec: st.tuples(*[rationals(spec)] * 3)),
       st.sampled_from((1, 2, 3)))
def test_rational_field_laws_twists_and_round_trip(abc, i):
    a, b, c = abc
    spec = a.spec
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == spec.zero() and (a - a).is_zero()
    if a:
        assert a * a.inverse() == spec.one()
    assert (a * b).twist(i) == a.twist(i) * b.twist(i)
    assert (a + b).twist(i) == a.twist(i) + b.twist(i)
    assert a.twist(i).twist(-i) == a
    assert parse_element(spec, str(a)) == a


# ---------------------------------------------------------------------------
# Formal twist field.


def test_formal_twist_shifts_indices():
    e = parse_element(FT, "b[0]/a[2]")
    assert str(e.twist(1)) == "b[1]/a[3]"
    assert str(e.twist(-6)) == "b[-6]/a[-4]"
    assert e.twist(5).twist(-5) == e


def test_negate_indices_conjugates_the_twist():
    e = parse_element(FT, "b[0]*b[2]/a[-1]")
    assert e.negate_indices().negate_indices() == e
    for i in (-3, -1, 1, 4):
        assert e.twist(i).negate_indices() == e.negate_indices().twist(-i)


def test_formal_inverses_require_invertible_monomials():
    assert parse_element(FT, "1/a[0]") * parse_element(FT, "a[0]") == FT.one()
    with pytest.raises(NonMonomialDenominator):
        parse_element(FT, "1/b[0]")
    with pytest.raises(NonMonomialDenominator):
        parse_element(FT, "1/(a[0] + a[1])")


def test_formal_arithmetic_normal_form():
    x = parse_element(FT, "a[0]*b[1]/a[2]")
    y = parse_element(FT, "b[1]/a[2]")
    assert x / parse_element(FT, "a[0]") == y
    assert str(x + x) == "2*a[0]*b[1]/a[2]"
    assert (x - x) == FT.zero()


# ---------------------------------------------------------------------------
# Rendering.


def test_rendering_is_ascending_and_stable():
    assert str(parse_element(Q3, "th^3 + 1 + 2*th")) == "1 + 2*th + th^3"
    assert str(parse_element(FT, "b[2]*b[0]")) == "b[0]*b[2]"
    e = parse_element(Q3, "(1 + th)/(th^2)")
    assert str(e) == "(1 + th)/th^2"
    assert parse_element(Q3, str(e)) == e


def test_element_parse_render_round_trip():
    for spec, text in [
        (F9, "2 + g"),
        (Q3, "(2 + th^2)/(th + th^3)"),
        (FT, "2*a[-1]*b[3]/a[0]"),
    ]:
        e = parse_element(spec, text)
        assert parse_element(spec, str(e)) == e


def test_field_element_is_hashable_value_type():
    a = parse_element(F9, "g + 1")
    b = parse_element(F9, "1 + g")
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, FieldElement)
