"""Coefficient fields: finite, rational function, and formal twist."""

import itertools
import random
import time
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tmodext import (
    DimensionMismatch,
    DivisionByZero,
    FieldElement,
    FieldSpec,
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
from tmodext import coefficients
from tmodext.coefficients import (
    MAX_POLY_TERMS,
    MAX_TH_EXPONENT_DIGITS,
    ZECH_LIMIT,
    _ftf_normal,
    _is_irreducible_fp,
    _mono_mul,
    _PolyOps,
    _prime_factors,
    _rat_normal,
    _rp_add,
    _rp_divmod,
    _rp_gcd,
    _rp_mul,
    _rp_rem,
    _rp_scale,
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


def _remainder(a, mod, p):
    """The reference remainder of a modulo a monic mod over F_p: long
    division on dense coefficient lists, lowest degree first."""
    a = [x % p for x in a]
    while len(a) >= len(mod):
        c, off = a[-1], len(a) - len(mod)
        for j, y in enumerate(mod):
            a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def _irreducible_by_trial_division(f, p):
    """The reference: no monic polynomial of degree 1..m//2 divides the
    monic f of degree m >= 1."""
    return not any(not _remainder(f, lower + (1,), p)
                   for d in range(1, (len(f) - 1) // 2 + 1)
                   for lower in itertools.product(range(p), repeat=d))


@pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 4), (7, 4)])
def test_rabin_agrees_with_trial_division(p, top):
    """Every monic polynomial of degree 1..top over F_p, degree 1 and
    multiples of g included."""
    for m in range(1, top + 1):
        for lower in itertools.product(range(p), repeat=m):
            f = lower + (1,)
            assert _is_irreducible_fp(f, p) == \
                _irreducible_by_trial_division(f, p), f


@pytest.mark.parametrize("header, modulus", [
    ("GF(2^32)", "1+g^2+g^3+g^7+g^32"),
    ("GF(2^33)", "1+g+g^3+g^6+g^33"),
    ("GF(3^20)", "1+2*g+g^3+g^20"),
    ("GF(65521^2)", "17+g^2"),
])
def test_large_headers_set_up_within_a_second(header, modulus):
    """The search for the default modulus took seconds by trial division
    just inside MAX_FIELD_SEARCH; it finds the same modulus."""
    default_modulus.cache_clear()
    start = time.perf_counter()
    spec = parse_field(header)
    assert time.perf_counter() - start < 1
    assert spec.header() == f"{header[:-1]}; mod={modulus})"


def test_headers_round_trip():
    for spec in (F4, F8, F9, F16, Q3, FT):
        assert parse_field(spec.header()) == spec
    assert F9.header() == "GF(3^2; mod=1+g^2)"
    assert parse_field("GF(3^2; mod=g^2-2)").header() == "GF(3^2; mod=1+g^2)"
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


@pytest.mark.parametrize("header", [
    "GF(4294967291)", "GF(3^2)(th)", "FTF(3^2; gens=a,th; inv=a)",
    "GF(5^2; mod=g^2+2; theta=2*g+1)",
])
def test_a_header_tests_p_and_m_once(header):
    with mock.patch.object(coefficients, "_check_pm",
                           wraps=coefficients._check_pm) as check:
        parse_field(header)
    assert check.call_count == 1


@pytest.mark.parametrize("options", ["", "; theta=g+1"])
def test_a_header_tests_its_modulus_once(options):
    """Rabin's test runs once on a mod= modulus, theta= or not."""
    with mock.patch.object(coefficients, "_is_irreducible_fp",
                           wraps=coefficients._is_irreducible_fp) as rabin:
        spec = parse_field(f"GF(3^3; mod=g^3+2*g+1{options})")
    assert rabin.call_count == 1
    assert spec.modulus == (1, 2, 0, 1)


@pytest.mark.parametrize("header, message", [
    ("GF(4^2; mod=x; theta=y)", "4 is not prime"),
    ("GF(3; mod=g^2+1; theta=y)", "a mod= option requires an extension"),
    ("GF(3^2; mod=x; theta=y)", "bad term 'x'"),
    ("GF(3^2; mod=g^2+g+1; theta=y)", "modulus is not irreducible"),
    ("GF(3^2; mod=g^2+1; theta=y)", "bad term 'y'"),
    ("GF(3^2; mod=g^2+g+1; theta=y)(th)", "unknown field options"),
    ("FTF(3^2; mod=x; gens=tau)", "bad term 'x'"),
    ("FTF(3^2; mod=g^2+g+1; gens=tau)", "invalid generator name 'tau'"),
    ("FTF(3^2; mod=g^2+g+1; gens=a; inv=b)", "invertible symbols ['b']"),
    ("FTF(3^2; mod=g^2+g+1; gens=a)", "modulus is not irreducible"),
])
def test_a_header_with_several_faults_reports_the_first(header, message):
    """Faults are reported in reading order: p and m, the options, the
    modulus text, generators, the modulus itself, then theta."""
    with pytest.raises(ParseError) as err:
        parse_field(header)
    assert str(err.value).startswith(message)


def test_from_fp_coords_refuses_more_than_m_coordinates():
    """Shorter vectors are zero-padded; a longer one would be a code outside
    the field, printed like a field element but equal to none."""
    assert F9.from_fp_coords([2]) == F9.from_int(2)
    assert F9.from_fp_coords([]) == F9.zero()
    for spec, coords in ((F9, [1, 2, 1]), (make_finite(3), [1, 1])):
        with pytest.raises(DimensionMismatch):
            spec.from_fp_coords(coords)


def test_theta_defaults():
    assert str(F9.theta()) == "g"
    assert str(make_finite(5).theta()) == "1"
    assert str(parse_field("GF(5; theta=2)").theta()) == "2"
    assert str(Q3.theta()) == "th"
    assert str(FT.theta()) == "th[0]"


def test_a_bare_finite_spec_has_the_default_theta():
    """FieldSpec("finite", ...) without a theta payload is the domain
    make_finite builds, theta included."""
    for p, m in ((3, 1), (3, 2)):
        bare = FieldSpec("finite", p, m, default_modulus(p, m))
        assert bare is make_finite(p, m)
    assert str(FieldSpec("finite", 3, 1, (0, 1)).theta()) == "1"
    assert str(FieldSpec("finite", 3, 2, F9.modulus).theta()) == "g"


def test_prime_factors_match_a_naive_reference():
    primes = [d for d in range(2, 5000)
              if all(d % e for e in range(2, isqrt(d) + 1))]
    assert _prime_factors(0) == []  # so GF(0) is refused as not prime
    for n in range(1, 5000):
        assert _prime_factors(n) == [d for d in primes if n % d == 0], n
    assert _prime_factors(4294967291) == [4294967291]
    assert _prime_factors(2 ** 32 - 1) == [3, 5, 17, 257, 65537]


def test_theta_is_reduced_modulo_the_modulus():
    assert str(parse_field("GF(3^2; theta=g^5)").theta()) == "g"
    assert str(parse_field("GF(2^32; theta=g^33+1)").theta()) == \
        "1 + g + g^3 + g^4 + g^8"


def test_polynomials_in_g_of_huge_degree_are_read_term_by_term():
    """A mod= polynomial above degree m is refused, after the generator
    names, and a theta= one reduced with g^e by squaring: neither builds
    its dense coefficients (g has order 8 in GF(3^2))."""
    with pytest.raises(ParseError, match="modulus must be monic of degree 2"):
        parse_field("GF(3^2; mod=g^1000000000000+1)")
    with pytest.raises(ParseError, match="invalid generator name 'tau'"):
        parse_field("FTF(3^2; mod=g^1000000000000+1; gens=tau)")
    assert str(parse_field("GF(3^2; theta=g^3000000000000+g)").theta()) == \
        "1 + g"
    assert str(parse_field("GF(3^2; theta=g^3000000000003)").theta()) == \
        str(parse_field("GF(3^2; theta=g^3)").theta())


def test_theta_exponents_are_reduced_modulo_the_order_of_g():
    """For m >= 2, g is a unit whose order divides p^m - 1, so an exponent
    is reduced modulo p^m - 1 before any squaring: a 4200-digit one costs
    a few dozen products, and a multiple of p^m - 1 gives g^0 = 1.  For
    m = 1, g is 0 and g^e is 0 for every e >= 1."""
    parse_field("GF(2^32)")  # the modulus search, outside the timing
    e = int("7" * 4200)
    start = time.perf_counter()
    spec = parse_field(f"GF(2^32; theta=g^{'7' * 4200}+1)")
    assert time.perf_counter() - start < 0.1
    assert spec is parse_field(f"GF(2^32; theta=g^{e % (2 ** 32 - 1)}+1)")
    for header in ("GF(2^32)", "GF(3^2)", "GF(5^3)"):
        spec = parse_field(header)
        q = spec.p ** spec.m
        for k in (1, 2, 10 ** 30):
            reduced = parse_field(header[:-1] + f"; theta=g^{k * (q - 1)})")
            assert str(reduced.theta()) == "1"
    assert str(parse_field("GF(5; theta=g^4+2)").theta()) == "2"
    assert str(parse_field("GF(5; theta=g^0+2)").theta()) == "3"


@pytest.mark.parametrize("header", ["GF(2^32)", "GF(3^9)", "GF(65521^2)"])
def test_poly_ops_products_match_schoolbook(header):
    """_PolyOps.mul, which subtracts only the modulus' nonzero terms,
    against the schoolbook product reduced by long division."""
    spec = parse_field(header)
    p, m = spec.p, spec.m
    ring, q = _PolyOps(p, spec.modulus), p ** m
    rng = random.Random(header)
    pairs = [(0, q - 1), (1, q - 1), (q - 1, q - 1)] + [
        (rng.randrange(q), rng.randrange(q)) for _ in range(200)]
    for a, b in pairs:
        da = [a // p ** i % p for i in range(m)]
        db = [b // p ** i % p for i in range(m)]
        product = [sum(da[i] * db[k - i] for i in range(m) if 0 <= k - i < m)
                   for k in range(2 * m - 1)]
        want = sum(c * p ** i
                   for i, c in enumerate(_remainder(product, spec.modulus, p)))
        assert ring.mul(a, b) == want, (a, b)


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
    for op in ("add", "mul"):
        assert getattr(tables, op)(a, b) == getattr(poly, op)(a, b)
    assert tables.neg(a) == poly.neg(a)
    assert tables.frob(a, i) == poly.frob(a, i)
    if a:
        assert tables.inv(a) == poly.inv(a)


@pytest.mark.parametrize("spec, text", [
    (F9, "g + 1"), (Q3, "th^2 + 1"), (FT, "a[0]*a[1]")])
def test_negative_powers_are_powers_of_the_inverse(spec, text):
    x = parse_element(spec, text)
    for n in (1, 2, 5):
        assert x ** -n == x.inverse() ** n
    assert x ** -2 * x ** 2 == spec.one()


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


def test_huge_twists_in_f_q_th_end_at_once():
    """Constants are fixed by every twist, q^-i above the top exponent
    cannot divide it, and 3^9013 has more than MAX_TH_EXPONENT_DIGITS
    digits; none of these forms q^|i|."""
    th, deep = Q3.theta(), Q3.theta().twist(9012)
    start = time.perf_counter()
    for i in (10 ** 9, -10 ** 9):
        assert Q3.from_int(2).twist(i) == Q3.from_int(2)
        assert Q9TH.gen().twist(i) == Q9TH.gen()
    assert deep.twist(-9012) == th and str(deep) == f"th^{3 ** 9012}"
    with pytest.raises(NotAQthPower):
        deep.twist(-9013)
    with pytest.raises(NotAQthPower):
        (1 / th).twist(-10 ** 9)
    for base, i in ((th, 9013), (th, 10 ** 9), (deep, 1)):
        with pytest.raises(PolynomialTooLarge) as info:
            base.twist(i)
        message = str(info.value)
        assert f"twist by {i} " in message and "\n" not in message
        assert f"MAX_TH_EXPONENT_DIGITS = {MAX_TH_EXPONENT_DIGITS} digits" \
            in message
    assert len(str(3 ** 9012)) == MAX_TH_EXPONENT_DIGITS
    assert time.perf_counter() - start < 1


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


FT9 = make_formal(3, 2, generators=("a", "b"), invertibles=("a", "b"))


def _formal_texts(spec):
    """Expressions in the symbols of a formal domain: sums of scaled
    monomials with negative indices and repeated symbols, over a monomial
    in the invertible symbols (so parsing never divides by a sum)."""
    def power(names):
        return st.builds(
            lambda s, i, e: f"{s}[{i}]" + (f"^{e}" if e > 1 else ""),
            st.sampled_from(names), st.integers(-4, 4), st.integers(1, 3))

    term = st.builds(
        lambda c, ps: "*".join([c] + ps), st.sampled_from(["1", "2"]),
        st.lists(power(spec.generators), max_size=3))
    num = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    den = st.lists(power(sorted(spec.invertibles)), max_size=2).map(
        lambda ps: f"/({'*'.join(ps)})" if ps else "")
    return st.builds(lambda n, d: f"({n}){d}", num, den)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((FT, FT9)).flatmap(
           lambda spec: st.tuples(*[_formal_texts(spec)] * 2).map(
               lambda texts: [parse_element(spec, t) for t in texts])),
       st.integers(-3, 3), st.integers(-3, 3))
def test_formal_round_trip_and_payload_twist_laws(ab, i, j):
    """parse -> render -> parse is the identity on formal elements, and the
    ops object obeys the laws the reduction over linear forms works by:
    twists compose and are ring maps, negation is an additive inverse that
    commutes with twisting, and one is the unit payload."""
    a, b = ab
    spec, arith = a.spec, a.spec._arith
    for x in (a, b, a / spec.symbol("a", i), a.negate_indices()):
        text = str(x)
        again = parse_element(spec, text)
        assert again == x and str(again) == text
    x, y, one = a.payload, b.payload, arith.one
    twist, neg = arith.twist, arith.neg
    assert twist(twist(x, i), j) == twist(x, i + j)
    assert twist(arith.mul(x, y), i) == arith.mul(twist(x, i), twist(y, i))
    assert twist(arith.add(x, y), i) == arith.add(twist(x, i), twist(y, i))
    assert arith.is_zero(arith.add(x, neg(x))) and neg(neg(x)) == x
    assert neg(twist(x, i)) == twist(neg(x), i)
    assert one == spec.from_int(1).payload and twist(one, i) == one
    assert arith.mul(x, one) == x and arith.mul(one, y) == y


@pytest.mark.parametrize("spec", [F9, F16, Q3, Q9TH, FT], ids=str)
def test_unit_payload_of_every_ops_object(spec):
    arith = spec._arith
    assert arith.one == spec.from_int(1).payload == spec.one().payload
    assert not arith.is_zero(arith.one)
    pool = list(spec.enumerate_elements()) if spec.kind == "finite" else [
        spec.theta(), spec.theta() ** 3 + spec.one(), -spec.theta()]
    for x in pool:
        assert arith.mul(x.payload, arith.one) == x.payload
        assert arith.twist(arith.one, 2) == arith.one


# ---------------------------------------------------------------------------
# Single-term shortcuts of the fraction domains.  Their products (and the
# rational gcd division) have exact shortcuts for single-term operands; these
# tests hold them to the general formulas and to the payload contract:
# lowest terms, and a monic denominator.


F4TH = make_rational(2, 2)
FTH = parse_field("FTF(3; gens=a,b,th; inv=a)")


def _general_rational(num, den, ops):
    """num/den in lowest terms by Euclid's gcd and long division, the
    general path with no single-term shortcut."""
    if not num:
        return ((), ((0, ops.one),))
    g = _rp_gcd(num, den, ops)
    num, den = _rp_divmod(num, g, ops)[0], _rp_divmod(den, g, ops)[0]
    inv = ops.inv(den[-1][1])
    return (_rp_scale(num, inv, ops), _rp_scale(den, inv, ops))


def _rational_payloads(spec):
    """Reduced payloads of spec: single terms c*th^e/th^f, or fractions of
    sparse polynomials with up to three terms each."""
    ops, codes = spec._ops, st.integers(1, spec.p ** spec.m - 1)
    single = st.builds(
        lambda c, e, f: (((e - min(e, f), c),), ((f - min(e, f), ops.one),)),
        codes, st.integers(0, 6), st.integers(0, 6))
    poly = st.dictionaries(st.integers(0, 6), codes, min_size=1,
                           max_size=3).map(lambda d: tuple(sorted(d.items())))
    general = st.builds(lambda n, d: _general_rational(n, d, ops), poly, poly)
    return st.one_of(single, general)


def _formal_payloads(spec):
    """Reduced payloads of spec: one-term or multi-term numerators over a
    monomial in the invertible symbols."""
    def mono(names):
        return st.dictionaries(
            st.tuples(st.sampled_from(names), st.integers(-2, 2)),
            st.integers(1, 3), max_size=3).map(
                lambda d: tuple(sorted(d.items())))

    term = st.tuples(mono(spec.generators),
                     st.integers(1, spec.p ** spec.m - 1))
    return st.builds(
        lambda terms, den: _ftf_normal(terms, den, spec._ops),
        st.lists(term, min_size=1, max_size=3),
        mono(sorted(spec.invertibles)))


def _assert_reduced(spec, payload):
    """The payload contract: lowest terms and a monic denominator (for a
    formal domain, a bare monomial in invertible symbols, each of which
    some numerator term lacks)."""
    ops, (num, den) = spec._ops, payload
    if spec.kind == "rational":
        assert den and den[-1][1] == ops.one
        unit = ((0, ops.one),)
        assert (_rp_gcd(num, den, ops) if num else den) == unit
        return
    assert all(e > 0 and key[0] in spec.invertibles for key, e in den)
    assert all(min(dict(m).get(key, 0) for m, _c in num) == 0
               for key, _e in den)
    assert num or not den


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((Q3, F4TH, FTH)).flatmap(
           lambda spec: st.tuples(st.just(spec), *[
               (_rational_payloads if spec.kind == "rational"
                else _formal_payloads)(spec)] * 2)))
def test_fraction_shortcuts_agree_with_the_general_formulas(case):
    spec, a, b = case
    arith, ops = spec._arith, spec._ops
    (n1, d1), (n2, d2) = a, b
    if spec.kind == "rational":
        want_mul = _general_rational(_rp_mul(n1, n2, ops),
                                     _rp_mul(d1, d2, ops), ops)
        want_add = _general_rational(
            _rp_add(_rp_mul(n1, d2, ops), _rp_mul(n2, d1, ops), ops),
            _rp_mul(d1, d2, ops), ops)
        want_inv = _general_rational(d1, n1, ops)
    else:
        want_mul = _ftf_normal(
            [(_mono_mul(m1, m2), ops.mul(c1, c2))
             for m1, c1 in n1 for m2, c2 in n2], _mono_mul(d1, d2), ops)
        want_add = _ftf_normal(
            [(_mono_mul(m, d2), c) for m, c in n1]
            + [(_mono_mul(m, d1), c) for m, c in n2], _mono_mul(d1, d2), ops)
        want_inv = None
        if len(n1) == 1 and all(key[0] in spec.invertibles
                                for key, _e in n1[0][0]):
            want_inv = _ftf_normal(((d1, ops.inv(n1[0][1])),), n1[0][0], ops)
    for got, want in ((arith.mul(a, b), want_mul),
                      (arith.add(a, b), want_add)):
        assert got == want
        _assert_reduced(spec, got)
    if not n1:
        with pytest.raises(DivisionByZero):
            arith.inv(a)
    elif want_inv is None:
        with pytest.raises(NonMonomialDenominator):
            arith.inv(a)
    else:
        assert arith.inv(a) == want_inv
        _assert_reduced(spec, want_inv)


@pytest.mark.parametrize("spec", [Q3, F4TH], ids=["GF(3)(th)", "GF(2^2)(th)"])
def test_single_term_sums_over_one_denominator_agree_with_the_general_sum(
        spec):
    """Seeded single-term fractions c*th^e/th^f in lowest terms, added over
    one denominator: the shortcut gives the general value for unequal
    exponents (only over th^0), equal ones, and sums that cancel."""
    arith, ops, rng = spec._arith, spec._ops, random.Random(20)
    codes = range(1, spec.p ** spec.m)
    seen = set()
    for _ in range(400):
        f = rng.choice((0, 0, rng.randint(1, 6)))
        e1, e2 = (0, 0) if f else (rng.randint(0, 6), rng.randint(0, 6))
        c1 = rng.choice(codes)
        c2 = ops.neg(c1) if rng.random() < 0.25 else rng.choice(codes)
        den = ((f, ops.one),)
        a, b = (((e1, c1),), den), (((e2, c2),), den)
        got = arith.add(a, b)
        assert got == _rat_normal(_rp_add(a[0], b[0], ops), den, ops)
        _assert_reduced(spec, got)
        seen.add("unequal" if e1 != e2 else "equal" if got[0] else "cancel")
    assert seen == {"unequal", "equal", "cancel"}


def _count_calls(monkeypatch, names):
    """Wrap the named functions of the coefficients module so that each
    call is counted."""
    counts = dict.fromkeys(names, 0)

    def wrap(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    for name in names:
        monkeypatch.setattr(coefficients, name,
                            wrap(name, getattr(coefficients, name)))
    return counts


def _sparse_terms(spec, exponents):
    """Up to four terms {exponent: nonzero code} of a polynomial in th."""
    return st.dictionaries(exponents, st.integers(1, spec.p ** spec.m - 1),
                           max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([make_finite(3), F9]).flatmap(lambda spec: st.tuples(
    st.just(spec),
    _sparse_terms(spec, st.integers(0, 10 ** 4)),
    st.integers(2000, 10 ** 4),
    st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), _sparse_terms(spec, st.integers(0, d - 1)))),
    st.integers(1, spec.p ** spec.m - 1))))
def test_remainder_by_powering_agrees_with_long_division(case):
    """a of degree 2000..10^4 and b of degree 1..4 are far enough apart
    that _rp_rem reduces th^e mod b by binary powering."""
    spec, a_terms, top, (d, b_terms), lead = case
    ops = spec._ops
    a = tuple(sorted({**a_terms, top: lead}.items()))
    b = tuple(sorted(b_terms.items())) + ((d, lead),)
    with mock.patch.object(coefficients, "_power",
                           wraps=coefficients._power) as power:
        rem = _rp_rem(a, b, ops)
    assert power.called
    assert rem == _rp_divmod(a, b, ops)[1]


def test_single_term_products_take_the_shortcut(monkeypatch):
    x, y = parse_element(Q3, "2*th^5"), parse_element(Q3, "1/th^7")
    u = parse_element(FTH, "2*a[1]*b[0]^2/a[3]")
    v = parse_element(FTH, "a[3]^2*th[1]/a[1]")
    w, z = parse_element(Q3, "(1 + th)/th^3"), parse_element(Q3, "2/th^3")
    counts = _count_calls(monkeypatch, ("_rp_gcd", "_rp_divmod",
                                        "_ftf_normal"))
    assert str(x * y) == "2/th^2" and str(y * y) == "1/th^14"
    assert str(u * v) == "2*a[3]*b[0]^2*th[1]"
    assert counts == {"_rp_gcd": 0, "_rp_divmod": 0, "_ftf_normal": 0}
    # a sum over a single-term gcd shifts exponents: no long division
    assert str(w + z) == "1/th^2"
    assert counts["_rp_divmod"] == 0 and counts["_rp_gcd"] == 1


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
