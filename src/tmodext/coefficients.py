"""Exact coefficient domains with q-power twisting.

Three kinds of domain share one element interface:

* finite fields F_{p^m}, presented as F_p[g]/(modulus), with q = p;
* rational function fields F_{p^m}(th), with q = p^m;
* fraction fields of indexed symbols ("formal twist" domains) over F_{p^m},
  with q = p^m, where the i-th twist of a symbol s[j] is s[j+i].

Twisting an element by i means raising it to the q-th power i times
(taking q-th roots for negative i).

Each domain is one ops object on raw payloads, chosen once per
``FieldSpec``.  It does the arithmetic (zero, one, is_zero, add, neg, mul,
inv and twist(a, i)), makes constants (const(c), the payload of an
F_{p^m} code c; theta, the payload of th or th[0], in the two fraction
domains) and prints (render(a), the text of a payload).  ``FieldElement``
wraps each of its calls in one element, and ``skewpoly`` calls it on
payloads directly, so its inner loops and its printing build no element.

Every scalar of F_{p^m} (a finite element, a coefficient of F_q(th) or of
a formal twist domain) is an int: the code sum(c_i * p^i) of its
coefficient vector (c_0, ..., c_{m-1}) over F_p in the basis 1, g, ...,
g^(m-1).  Codes stay private to this module; other layers read and build
F_p coordinates through ``FieldElement.fp_coords`` and
``FieldSpec.from_fp_coords``.  The arithmetic on codes is chosen once per
field from m and q:

* m = 1: residues mod p;
* m >= 2 and q <= ZECH_LIMIT: exp/log tables of a primitive element, so
  multiplication, inversion and the Frobenius are lookups, and addition
  is one Zech-logarithm lookup (XOR when p = 2);
* m >= 2 and q > ZECH_LIMIT: polynomial products reduced modulo the
  modulus, on the codes' base-p digits (``_PolyOps``, which also serves
  field set-up: Rabin's test, the search for a primitive element and the
  build of the Zech tables).

ZECH_LIMIT = 2^12 keeps a table build to about 10 ms at most.

An element of F_{p^m}(th) is a reduced fraction whose numerator and monic
denominator are sparse: tuples of (exponent, coefficient) pairs with
nonzero coefficients only.  Twisting multiplies every exponent by q^i, so
th^(q^k) costs one pair however large q^k is.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from functools import lru_cache
from math import isqrt

from ._scan import MAX_LITERAL_DIGITS, _check_literals, _scan
from .errors import (
    CarrierTooLarge,
    DimensionMismatch,
    DivisionByZero,
    FiniteFieldRequired,
    MixedFields,
    NonMonomialDenominator,
    NotAQthPower,
    ParseError,
    PolynomialTooLarge,
)


def _power(one, base, n, mul=operator.mul):
    """base^n (n >= 0) by squaring, from the unit one, under the product
    mul: the one square-and-multiply, for elements, codes, polynomials and
    matrices."""
    while n:
        if n & 1:
            one = mul(one, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one


# ---------------------------------------------------------------------------
# Polynomials over F_p on ascending integer coefficient tuples (used for
# moduli and for the arithmetic of F_{p^m}).


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


# The most trial divisors a field's set-up may try: the isqrt(p) integers
# that test p for primality.  p^(m//2), the divisors a brute-force test of a
# degree-m modulus would try, is held to it too, so that the same headers
# are refused whichever way irreducibility is decided.
MAX_FIELD_SEARCH = 2 ** 16


def _is_irreducible_fp(f, p):
    """Rabin's test: a monic f of degree m >= 2 is irreducible over F_p iff
    it divides x^(p^m) - x and is coprime to x^(p^(m/r)) - x for every
    prime r dividing m.  x is the code p in F_p[g]/(f)."""
    m = len(f) - 1
    if m <= 1 or not f[0]:  # x divides f
        return m == 1
    ring, ops = _PolyOps(p, f), _PrimeOps(p)
    if ring.pow(p, p ** m) != p:
        return False
    sparse_f = tuple((e, c) for e, c in enumerate(f) if c)
    for r in _prime_factors(m):
        h = _digits(ring.add(ring.pow(p, p ** (m // r)), ring.neg(p)), p, m)
        h = tuple((e, c) for e, c in enumerate(h) if c)
        if _rp_gcd(sparse_f, h, ops) != ((0, 1),):
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p, m):
    """The monic irreducible of degree m over F_p whose coefficient vector,
    read as the base-p integer sum(c_i * p^i), is smallest."""
    if m == 1:
        return (0, 1)
    for n in range(p ** m):
        f = tuple(_digits(n, p, m)) + (1,)
        if _is_irreducible_fp(f, p):
            return f
    raise ParseError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# Arithmetic of F_{p^m} on integer codes (see the module docstring).  Each
# ops object offers add, neg, mul, inv, frob(a, i) = a ** (p**i),
# from_int, zero and one; with is_zero, twist = frob, const and render it is
# also the ops object of the finite-field domain, whose q is p.

# The largest q = p^m (m >= 2) served by log/Zech tables; building them
# costs a few microseconds per element.
ZECH_LIMIT = 2 ** 12


def _digits(code, p, m):
    """The m coefficients over F_p of a code, lowest degree first."""
    out = []
    for _ in range(m):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _encode(digits, p):
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


def _prime_factors(n):
    """The distinct prime factors of n, ascending ([] below 2), by trial
    division by 2 and then by odd numbers only."""
    out, d, step = [], 2, 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d, step = d + step, 2
    return out + ([n] if n > 1 else [])


class _Ops:
    """The product kernel of an ops object on add, mul and twist, which
    every domain runs but the Zech-table fields (_ZechOps overrides it)."""

    def mul_into(self, acc, a, b, s):
        """Add the product of the payload pairs a and b into the accumulator
        map acc, for the twist sign s: (x v^i)(y v^j) = x y^(q^(s i))
        v^(i+j); return acc."""
        add, mul, twist = self.add, self.mul, self.twist
        for i, x in a:
            k = s * i
            for j, y in b:
                t = mul(x, twist(y, k))
                d = i + j
                cur = acc.get(d)
                acc[d] = t if cur is None else add(cur, t)
        return acc


class _PrimeOps(_Ops):
    """F_p: codes are residues mod p."""

    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a:
            raise DivisionByZero("division by zero")
        return pow(a, self.p - 2, self.p)

    def frob(self, a, i):
        return a

    twist = frob

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return n % self.p

    def const(self, c):
        return c

    def render(self, a):
        return str(a)


class _ExtOps(_PrimeOps):
    """What both extension-field paths share: digitwise addition on codes
    (XOR when p = 2)."""

    def __init__(self, p, modulus):
        self.p = p
        self.m = len(modulus) - 1
        if p == 2:
            self.add = operator.xor
            self.neg = operator.pos

    def add(self, a, b):
        p, m = self.p, self.m
        return _encode([(x + y) % p for x, y in zip(_digits(a, p, m),
                                                     _digits(b, p, m))], p)

    def neg(self, a):
        p = self.p
        return _encode([-x % p for x in _digits(a, p, self.m)], p)

    def render(self, a):
        return str(a) if a < self.p else _render_g(a, self.p, self.m)


class _PolyOps(_ExtOps):
    """Arithmetic in F_p[g]/(modulus) on codes: polynomial products reduced
    modulo the modulus, on the codes' base-p digits.  It is F_{p^m} when
    the modulus is irreducible, and serves the fields with q above
    ZECH_LIMIT; field set-up runs it on any monic modulus, reducible ones
    included (Rabin's test)."""

    def __init__(self, p, modulus):
        super().__init__(p, modulus)
        # The modulus is sparse as a rule (GF(2^32)'s has 5 terms of 33),
        # so a reduction subtracts only its nonzero terms below the top.
        self.low = tuple((j, c) for j, c in enumerate(modulus[:-1]) if c)

    def reduce(self, a):
        """The coefficients a (integers, lowest degree first) reduced mod p
        and modulo the modulus, trailing zeros trimmed."""
        p, m, low = self.p, self.m, self.low
        a = [x % p for x in a]
        while len(a) > m:
            c = a.pop()
            if c:
                off = len(a) - m
                for j, y in low:
                    a[off + j] = (a[off + j] - c * y) % p
        return _poly_trim(a)

    def _mul_digits(self, a, b):
        """a * b mod the modulus, on digit sequences: the product is
        summed over the integers and reduced mod p once, by reduce."""
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.reduce(out)

    def mul(self, a, b):
        p, m = self.p, self.m
        return _encode(self._mul_digits(_digits(a, p, m), _digits(b, p, m)),
                       p)

    def pow(self, a, n):
        p = self.p
        return _encode(_power((1,), _digits(a, p, self.m), n,
                              self._mul_digits), p)

    def inv(self, a):
        if not a:
            raise DivisionByZero("division by zero")
        return self.pow(a, self.p ** self.m - 2)

    def frob(self, a, i):
        i %= self.m
        return self.pow(a, self.p ** i) if i else a

    twist = frob


class _ZechOps(_ExtOps):
    """F_{p^m} with q <= ZECH_LIMIT, following FLINT's fq_zech: exp/log
    tables of a primitive element alpha make mul, inv and frob lookups,
    and Zech logarithms log(1 + alpha^k) make addition one.

    exp is indexed up to 4n (n = q - 1) and log[0] = 2n, so a product
    involving zero lands in exp's zero upper half without a test.

    mul_into, the product kernel, works on the tables directly: the term
    of (x v^i)(y v^j) is exp[log x + log y * p^(s i mod m) mod n], added
    to the accumulator by XOR when p = 2 and by one Zech lookup otherwise,
    and an accumulator value of 0 takes the term.  Its operand pairs must
    hold nonzero payloads, as stored pairs do; accumulators may hold
    zeros."""

    def __init__(self, p, modulus):
        super().__init__(p, modulus)
        m, q = self.m, p ** self.m
        n = q - 1
        self.n = n
        powers = _alpha_powers(p, modulus)
        exp = powers + powers + [0] * (2 * n + 1)
        log = [2 * n] * q
        for k, code in enumerate(powers):
            log[code] = k
        self.exp, self.log = exp, log
        self.p_powers = [p ** i % n for i in range(m)]
        if p == 2:
            return
        # zech[k] = log(1 + alpha^k); 2n (exp's zero half) when that sum is
        # 0.  Adding 1 to a code steps its constant digit modulo p.
        self.zech = [log[c + 1 if c % p != p - 1 else c + 1 - p]
                     for c in exp[:n]]
        self.half = n // 2

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        return self.exp[la + self.zech[self.log[b] - la]]

    def neg(self, a):  # -1 = alpha^(n/2) for odd p
        return self.exp[self.log[a] + self.half]

    def mul(self, a, b):
        log = self.log
        return self.exp[log[a] + log[b]]

    def inv(self, a):
        if not a:
            raise DivisionByZero("division by zero")
        return self.exp[self.n - self.log[a]]

    def mul_into(self, acc, a, b, s):
        exp, log, n, m = self.exp, self.log, self.n, self.m
        powers = self.p_powers
        if self.p == 2:
            for i, x in a:
                lx, e = log[x], powers[s * i % m]
                for j, y in b:
                    d = i + j
                    acc[d] = acc.get(d, 0) ^ exp[(lx + log[y] * e) % n]
            return acc
        zech = self.zech
        for i, x in a:
            lx, e = log[x], powers[s * i % m]
            for j, y in b:
                t = (lx + log[y] * e) % n
                d = i + j
                cur = acc.get(d)
                if cur:
                    c = log[cur]
                    acc[d] = exp[c + zech[t - c]]
                else:
                    acc[d] = exp[t]
        return acc

    def frob(self, a, i):
        if not a:
            return 0
        return self.exp[self.log[a] * self.p_powers[i % self.m] % self.n]

    twist = frob


def _alpha_powers(p, modulus):
    """The codes of alpha^0, ..., alpha^(q-2) for the primitive element
    alpha of _primitive_element."""
    m = len(modulus) - 1
    n = p ** m - 1
    alpha = _primitive_element(p, modulus)
    out = [1] * n
    if p == 2:
        # Horner in g on codes: shift one degree up, fold g^m back by XOR;
        # alpha's bits are walked from its top set bit down.
        top, mod_code = 1 << m, _encode(modulus, 2)
        bits = _digits(alpha, 2, alpha.bit_length())[::-1]
        x = 1
        for k in range(1, n):
            acc = 0
            for a in bits:
                acc <<= 1
                if acc & top:
                    acc ^= mod_code
                if a:
                    acc ^= x
            out[k] = x = acc
        return out
    # x -> x * alpha is F_p-linear: column j of its matrix holds the
    # digits of g^j * alpha.
    ring = _PolyOps(p, modulus)
    rows = list(zip(*(_digits(ring.mul(p ** j, alpha), p, m)
                      for j in range(m))))
    place = [p ** i for i in range(m)]
    x = [1] + [0] * (m - 1)
    for k in range(1, n):
        x = [sum(map(operator.mul, row, x)) % p for row in rows]
        out[k] = sum(map(operator.mul, x, place))
    return out


def _primitive_element(p, modulus):
    """The code of the generator of F_{p^m}^* whose code is smallest."""
    m = len(modulus) - 1
    n = p ** m - 1
    ring = _PolyOps(p, modulus)
    cofactors = [n // r for r in _prime_factors(n)]
    for code in range(2, p ** m):
        if all(ring.pow(code, e) != 1 for e in cofactors):
            return code
    raise ParseError(f"GF({p}^{m}) has no primitive element")


@lru_cache(maxsize=None)
def _get_ops(p, modulus):
    if len(modulus) == 2:
        return _PrimeOps(p)
    if p ** (len(modulus) - 1) <= ZECH_LIMIT:
        return _ZechOps(p, modulus)
    return _PolyOps(p, modulus)


# ---------------------------------------------------------------------------
# Sparse polynomials in th over F_{p^m}: tuples of (exponent, coefficient)
# pairs, ascending in the exponent, holding nonzero coefficients only.  The
# q^k-th powers of th that twisting produces are single pairs, so a twist
# re-indexes exponents and never allocates the gaps between them.
#
# Single terms, the common case, skip gcds and long division.  The product
# of c1*th^e1/th^f1 and c2*th^e2/th^f2 is c1*c2*th^(e-t)/th^(f-t), where
# e = e1 + e2, f = f1 + f2 and t = min(e, f): one exponent is 0, so it is in
# lowest terms, and its denominator is monic, as a reduced single-term one
# is a bare power of th.  A single-term gcd th^k divides by a shift.


# The most terms a quotient in th may hold.  An exact quotient by a gcd can
# be dense where both operands are sparse: (1 + th^N)/(2 + th^2) over
# GF(3)(th) divides out th + 1 and leaves about N terms.
MAX_POLY_TERMS = 2 ** 16
# The most decimal digits an exponent of th made by a twist may have: the
# most Python converts between int and str by default, so every exponent
# can still be printed and parsed back.
MAX_TH_EXPONENT_DIGITS = 4300
_TH_EXPONENT_CAP = 10 ** MAX_TH_EXPONENT_DIGITS
_LITERAL_CAP = 10 ** MAX_LITERAL_DIGITS


def _printable(n):
    """n, an exponent, degree or symbol index to print; one of more digits
    than MAX_LITERAL_DIGITS could not be parsed back, so it is refused."""
    if abs(n) >= _LITERAL_CAP:
        raise PolynomialTooLarge(f"an exponent or index has more than "
                                 f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} "
                                 f"digits to print")
    return n


def _count(n):
    """n, a count for a message: itself, or its order of magnitude when it
    has more digits than MAX_LITERAL_DIGITS, which Python does not print."""
    return n if n < _LITERAL_CAP else f"more than 10^{MAX_LITERAL_DIGITS}"


def _rp_collect(terms, ops):
    """The sparse polynomial summing the (exponent, coefficient) pairs; any
    sortable keys in place of exponents work too."""
    acc = {}
    for e, c in terms:
        cur = acc.get(e)
        acc[e] = c if cur is None else ops.add(cur, c)
    return tuple(sorted((e, c) for e, c in acc.items() if c != ops.zero))


def _rp_add(a, b, ops):
    return _rp_collect(itertools.chain(a, b), ops)


def _rp_mul(a, b, ops):
    return _rp_collect(((ea + eb, ops.mul(ca, cb))
                        for ea, ca in a for eb, cb in b), ops)


def _rp_scale(a, s, ops):
    """a times a nonzero scalar s."""
    return tuple((e, ops.mul(c, s)) for e, c in a)


def _rp_divmod(a, b, ops):
    """Long division that steps only through the exponents the remainder
    holds: its terms sit in a dict, and a max-heap of their exponents (with
    stale entries skipped) yields the leading one.  A quotient of more than
    MAX_POLY_TERMS terms raises PolynomialTooLarge before it is built."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db, lead = b[-1]
    binv = ops.inv(lead)
    rem = dict(a)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quot = []
    while heap and -heap[0] >= db:
        e = -heapq.heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue
        if len(quot) == MAX_POLY_TERMS:
            raise PolynomialTooLarge(
                f"a quotient in th would hold more than {MAX_POLY_TERMS} "
                f"terms (MAX_POLY_TERMS)")
        f = ops.mul(c, binv)
        quot.append((e - db, f))
        for eb, cb in b[:-1]:
            k = e - db + eb
            cur = rem.get(k)
            if cur is None:
                rem[k] = ops.neg(ops.mul(f, cb))
                heapq.heappush(heap, -k)
                continue
            cur = ops.add(cur, ops.neg(ops.mul(f, cb)))
            if cur == ops.zero:
                del rem[k]
            else:
                rem[k] = cur
    return tuple(reversed(quot)), tuple(sorted(rem.items()))


def _rp_rem(a, b, ops):
    """a mod b.  Long division walks the degree gap between a and b, so a
    sparse a of much higher degree is reduced term by term instead, with
    th^e mod b by binary powering: O(log e) products of degree < 2 deg b."""
    da, db = a[-1][0], b[-1][0]
    if da - db <= 2 * len(a) * db * da.bit_length():
        return _rp_divmod(a, b, ops)[1]

    def mul_mod(x, y):
        return _rp_divmod(_rp_mul(x, y, ops), b, ops)[1]

    th = _rp_divmod(((1, ops.one),), b, ops)[1]
    out = ()
    for e, c in a:
        power = _power(((0, ops.one),), th, e, mul_mod)
        out = _rp_add(out, _rp_scale(power, c, ops), ops)
    return out


def _rp_gcd(a, b, ops):
    """The monic gcd of two polynomials, not both zero.  A single-term
    operand c*th^k shares exactly th^min(k, v) with a nonzero partner whose
    lowest exponent is v; answering that at once spares Euclid a walk down
    through a huge exponent."""
    while a and b:
        if len(a) == 1 or len(b) == 1:
            return ((min(a[0][0], b[0][0]), ops.one),)
        a, b = b, _rp_rem(a, b, ops)
    g = a or b
    return _rp_scale(g, ops.inv(g[-1][1]), ops)


def _rat_normal(num, den, ops):
    """num/den in lowest terms with a monic denominator."""
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return ((), ((0, ops.one),))
    g = _rp_gcd(num, den, ops)
    if len(g) > 1:
        num = _rp_divmod(num, g, ops)[0]
        den = _rp_divmod(den, g, ops)[0]
    elif g[0][0]:  # th^k: shift the exponents
        k = g[0][0]
        num, den = (tuple((e - k, c) for e, c in p) for p in (num, den))
    lead = den[-1][1]
    if lead != ops.one:
        li = ops.inv(lead)
        num = _rp_scale(num, li, ops)
        den = _rp_scale(den, li, ops)
    return (num, den)


# ---------------------------------------------------------------------------
# Formal-twist fraction helpers.  A monomial is a sorted tuple of
# ((symbol, index), exponent) with positive exponents; a numerator is a
# sorted tuple of (monomial, coefficient) terms with nonzero coefficients;
# a denominator is a single monomial in invertible symbols.


def _mono_mul(m1, m2):
    d = dict(m1)
    for key, e in m2:
        d[key] = d.get(key, 0) + e
    return tuple(sorted((k, e) for k, e in d.items() if e))


def _mono_shift(mono, i):
    return tuple(sorted((((sym, idx + i), e) for (sym, idx), e in mono)))


def _mono_map_index(mono, fn):
    return tuple(sorted((((sym, fn(idx)), e) for (sym, idx), e in mono)))


def _ftf_normal(num_terms, den_mono, ops):
    """The fraction of (monomial, coefficient) terms, like terms summed, over
    den_mono, with common symbol powers cancelled."""
    terms = dict(_rp_collect(num_terms, ops))
    if not terms:
        return ((), ())
    den = dict(den_mono)
    for key in list(den):
        cmin = min(dict(mono).get(key, 0) for mono in terms)
        t = min(den[key], cmin)
        if t:
            den[key] -= t
            terms = {_mono_mul(mono, ((key, -t),)): coeff
                     for mono, coeff in terms.items()}
    den_out = tuple(sorted((k, e) for k, e in den.items() if e))
    num_out = tuple(sorted(terms.items()))
    return (num_out, den_out)


# ---------------------------------------------------------------------------
# The ops objects of the two fraction domains, on payloads (num, den) over
# the F_{p^m} ops object ops.


class _FractionOps(_Ops):
    """What both fraction domains share: a numerator is a sorted tuple of
    (key, coefficient) terms, empty exactly for zero; the constant c is
    (((key, c),), den) for the constant key and the den of 1."""

    def __init__(self, ops, key, den):
        self.ops, self.key, self.den = ops, key, den
        self.zero = ((), den)
        self.one = self.const(ops.one)

    def const(self, c):
        if c == self.ops.zero:
            return self.zero
        return (((self.key, c),), self.den)

    def is_zero(self, a):
        return not a[0]

    def neg(self, a):
        neg = self.ops.neg
        return (tuple((k, neg(c)) for k, c in a[0]), a[1])


class _RationalOps(_FractionOps):
    """F_{p^m}(th): num/den in lowest terms, den monic, both sparse."""

    def __init__(self, ops, q):
        super().__init__(ops, 0, ((0, ops.one),))
        self.q, self.theta = q, (((1, ops.one),), self.den)

    def add(self, a, b):
        ops, (n1, d1), (n2, d2) = self.ops, a, b
        if d1 == d2:
            if len(n1) == len(n2) == len(d1) == 1:
                # in lowest terms, unequal exponents force d1 == 1
                (e1, c1), (e2, c2) = n1[0], n2[0]
                if e1 != e2:
                    return (n1 + n2 if e1 < e2 else n2 + n1, d1)
                c = ops.add(c1, c2)
                return self.zero if c == ops.zero else (((e1, c),), d1)
            return _rat_normal(_rp_add(n1, n2, ops), d1, ops)
        num = _rp_add(_rp_mul(n1, d2, ops), _rp_mul(n2, d1, ops), ops)
        return _rat_normal(num, _rp_mul(d1, d2, ops), ops)

    def mul(self, a, b):
        ops, (n1, d1), (n2, d2) = self.ops, a, b
        if len(n1) == len(n2) == len(d1) == len(d2) == 1:
            e, f = n1[0][0] + n2[0][0], d1[0][0] + d2[0][0]
            t, c = min(e, f), ops.mul(n1[0][1], n2[0][1])
            return (((e - t, c),), ((f - t, ops.one),))
        return _rat_normal(_rp_mul(n1, n2, ops), _rp_mul(d1, d2, ops), ops)

    def inv(self, a):
        if not a[0]:
            raise DivisionByZero("division by zero")
        return _rat_normal(a[1], a[0], self.ops)

    def twist(self, a, i):
        """Coefficients in F_q are fixed by the q-th power, so twisting
        scales every exponent by q^i and leaves constants as they are; a
        negative twist needs each exponent divisible by q^-i, and a
        positive one whose top exponent would have more than
        MAX_TH_EXPONENT_DIGITS digits raises PolynomialTooLarge.  No q^|i|
        of more than twice the cap's bits, or above the top exponent, is
        formed."""
        n, d = a
        top = max(n[-1][0] if n else 0, d[-1][0])
        if not i or not top:
            return a
        if i > 0:
            # q^i has at least i * (bitlength(q) - 1) bits
            if i * (self.q.bit_length() - 1) < _TH_EXPONENT_CAP.bit_length():
                step = self.q ** i
                if top * step < _TH_EXPONENT_CAP:
                    return (tuple((e * step, c) for e, c in n),
                            tuple((e * step, c) for e, c in d))
            raise PolynomialTooLarge(
                f"a twist by {i} makes an exponent of th of more than "
                f"MAX_TH_EXPONENT_DIGITS = {MAX_TH_EXPONENT_DIGITS} digits")
        step = self.q ** min(-i, top.bit_length())  # if capped, above top
        if any(e % step for e, _c in n + d):
            raise NotAQthPower(f"element is not a q^{-i}-th power in F_q(th)")
        return (tuple((e // step, c) for e, c in n),
                tuple((e // step, c) for e, c in d))

    def _poly(self, terms):
        render = self.ops.render
        return _render_terms([(render(c), _power_text("th", e))
                              for e, c in terms], (" + ",))

    def render(self, a):
        num, den = a
        return _fraction(self._poly(num),
                         "" if den == self.den else self._poly(den))


class _FormalOps(_FractionOps):
    """Formal twist domains: den is a monomial in invertible symbols, and
    the i-th twist shifts every symbol index by i."""

    def __init__(self, ops, invertibles):
        super().__init__(ops, (), ())
        self.invertibles = invertibles
        th = ((("th", 0), 1),)  # the monomial th[0]
        self.theta = (((th, ops.one),), ())

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        num = [(_mono_mul(m, d2), c) for m, c in n1]
        num += [(_mono_mul(m, d1), c) for m, c in n2]
        return _ftf_normal(num, _mono_mul(d1, d2), self.ops)

    def mul(self, a, b):
        mul, (n1, d1), (n2, d2) = self.ops.mul, a, b
        if len(n1) == len(n2) == 1:
            # one term each: cancel every denominator symbol in one pass
            num, den = dict(_mono_mul(n1[0][0], n2[0][0])), []
            for key, e in _mono_mul(d1, d2):
                t = min(e, num.get(key, 0))
                if t:
                    num[key] -= t
                if e > t:
                    den.append((key, e - t))
            mono = tuple((key, e) for key, e in num.items() if e)
            return (((mono, mul(n1[0][1], n2[0][1])),), tuple(den))
        num = [(_mono_mul(m1, m2), mul(c1, c2))
               for m1, c1 in n1 for m2, c2 in n2]
        return _ftf_normal(num, _mono_mul(d1, d2), self.ops)

    def inv(self, a):
        n, d = a
        if not n:
            raise DivisionByZero("division by zero")
        if len(n) != 1:
            raise NonMonomialDenominator(
                "can only divide by a single monomial term in a formal-twist "
                "domain")
        mono, coeff = n[0]
        bad = [key for (key, _e) in mono if key[0] not in self.invertibles]
        if bad:
            sym, idx = bad[0]
            raise NonMonomialDenominator(
                f"symbol {sym}[{idx}] is not invertible in this domain")
        return _ftf_normal(((d, self.ops.inv(coeff)),), mono, self.ops)

    def twist(self, a, i):
        if not i:
            return a
        n, d = a
        num = tuple(sorted((_mono_shift(m, i), c) for m, c in n))
        return (num, _mono_shift(d, i))

    def render(self, a):
        render, terms = self.ops.render, []
        for mono, c in a[0]:
            cs = render(c)
            if not mono and " + " in cs:  # a constant sum is grouped too
                cs = f"({cs})"
            terms.append((cs, _render_mono(mono)))
        return _fraction(_render_terms(terms, (" + ",)), _render_mono(a[1]))


# ---------------------------------------------------------------------------
# Immutable values.


_new = object.__new__


class SlottedValue:
    """Immutable records whose fields live in slots: built positionally in
    field order (then checked by the class's ``__post_init__``, if any),
    compared, hashed and pickled by the tuple of their fields, and shown as
    ``Name(field=value, ...)``.  The fields are the ``__slots__`` other than
    ``__dict__`` (a slot that lets ``cached_property`` cache) unless the
    class names them in ``_fields``.  Only ``__init__`` is compiled, once
    per class, so that it writes each slot directly (hot constructors may
    also write the slots through their descriptors); ``__eq__`` and
    ``__hash__`` read the fields through one getter.  A class's own
    ``__init__``, ``__eq__`` or ``__hash__`` is kept."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = vars(cls).get("_fields") or tuple(
            n for n in cls.__slots__ if n != "__dict__")
        cls._fields = names
        source = [f"def __init__(self, {', '.join(names)}):"]
        source += [f" _set_{n}(self, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            source.append(" self.__post_init__()")
        namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
        exec("\n".join(source), namespace)
        get = operator.attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

        for method in (namespace["__init__"], __eq__, __hash__):
            name = method.__name__
            if vars(cls).get(name) is None:  # __eq__ alone sets __hash__ None
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__


class _Additive:
    """a - b as a + (-b) and n - a as -a + n for every value type; each
    type's own ``__add__`` coerces the other operand and refuses mixing."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other


# ---------------------------------------------------------------------------
# Field specification.


# The spec of each distinct set of fields built so far (FieldSpec.__new__).
_SPECS = {}
_RESERVED_NAMES = frozenset({"tau", "sig", "sigma", "t", "g"})


class FieldSpec(SlottedValue):
    """Description of a coefficient domain.

    kind is one of "finite", "rational", "formal".  p is the
    characteristic, m the extension degree of the scalar field F_{p^m},
    and modulus its defining polynomial over F_p (ascending coefficients,
    monic).  theta_payload (an F_{p^m} code; by default g, or 1 if m = 1)
    fixes theta for finite fields; generators/invertibles only apply to
    formal domains.  _ops is the F_{p^m} ops object and _arith the
    domain's ops object on payloads, both derived from the fields.  A
    domain is one object: FieldSpec(...) returns the spec already built for
    equal fields, and specs compare and hash by identity.
    """

    __slots__ = ("kind", "p", "m", "modulus", "theta_payload", "generators",
                 "invertibles", "_ops", "_arith")
    _fields = __slots__[:-2]

    def __new__(cls, kind, p, m, modulus, theta_payload=None, generators=(),
                invertibles=frozenset()):
        if theta_payload is None and kind == "finite":
            theta_payload = _default_theta(p, m)
        key = (kind, p, m, modulus, theta_payload, generators, invertibles)
        spec = _SPECS.get(key)
        if spec is None:
            ops = _get_ops(p, modulus)
            arith = (ops if kind == "finite"
                     else _RationalOps(ops, p ** m) if kind == "rational"
                     else _FormalOps(ops, invertibles))
            spec = _new(cls)
            for name, value in zip(cls.__slots__, key + (ops, arith)):
                object.__setattr__(spec, name, value)
            spec = _SPECS.setdefault(key, spec)  # one winner between threads
        return spec

    def __init__(self, *fields, **named):
        """Nothing: __new__ built or found the spec."""

    __eq__, __hash__ = object.__eq__, object.__hash__

    def _payload(self, c):
        """The payload of c, an element of this domain; an element of
        another domain raises MixedFields."""
        if c.spec is not self:
            raise MixedFields("elements of different coefficient domains")
        return c.payload

    # -- basic data --------------------------------------------------------

    def _require_finite(self, what):
        if self.kind != "finite":
            raise FiniteFieldRequired(f"{what} a finite coefficient field")

    def carrier_size(self):
        self._require_finite("element enumeration requires")
        return self.p ** self.m

    # -- element constructors ----------------------------------------------

    def _fe(self, payload):
        e = _new(FieldElement)
        _set_spec(e, self)
        _set_payload(e, payload)
        return e

    def zero(self):
        return self._fe(self._arith.zero)

    def one(self):
        return self._fe(self._arith.one)

    def from_int(self, n):
        return self._fe(self._arith.const(self._ops.from_int(n)))

    def gen(self):
        if self.kind == "formal" or self.m < 2:
            raise ParseError("the name 'g' requires a finite scalar field of "
                             "extension degree at least 2")
        return self._fe(self._arith.const(self.p))  # p is the code of g

    def theta(self):
        theta = self.theta_payload  # None but in finite fields
        return self._fe(self._arith.theta if theta is None else theta)

    def symbol(self, name, idx):
        if self.kind != "formal":
            raise ParseError(f"indexed symbol {name}[{idx}] requires a "
                             "formal-twist coefficient domain")
        if name not in self.generators:
            raise ParseError(f"unknown symbol {name!r}; generators are "
                             f"{', '.join(self.generators)}")
        ops = self._ops
        mono = (((name, idx), 1),)
        return self._fe((((mono, ops.one),), ()))

    # -- sampling / enumeration --------------------------------------------

    def enumerate_elements(self):
        self._require_finite("element enumeration requires")
        for t in itertools.product(range(self.p), repeat=self.m):
            yield self._fe(_encode(t, self.p))

    def random_element(self, rng):
        self._require_finite("random sampling requires")
        return self._fe(_random_code(rng, self.p, self.m))

    # -- F_p coordinates ------------------------------------------------------

    def _fp_coords(self, payload):
        self._require_finite("F_p coordinates require")
        return _digits(payload, self.p, self.m)

    def from_fp_coords(self, coords):
        """The element of F_{p^m} with coordinates coords (ascending in g)
        over F_p; the inverse of FieldElement.fp_coords."""
        self._require_finite("F_p coordinates require")
        coords = [c % self.p for c in coords]
        if len(coords) > self.m:
            raise DimensionMismatch(f"{len(coords)} coordinates over F_p for "
                                    f"a field of degree {self.m}")
        return self._fe(_encode(coords, self.p))

    # -- rendering ----------------------------------------------------------

    def header(self):
        base = ("FTF(" if self.kind == "formal" else "GF(") + str(self.p)
        if self.m > 1:
            mod = _encode(self.modulus, self.p)
            base += f"^{self.m}; mod={_render_g(mod, self.p, self.m + 1, '+')}"
        if self.kind == "formal":
            base += f"; gens={','.join(self.generators)}"
            if self.invertibles:
                base += f"; inv={','.join(sorted(self.invertibles))}"
        elif self.kind == "finite" and self.theta_payload != _default_theta(
                self.p, self.m):
            base += f"; theta={self._ops.render(self.theta_payload)}"
        return base + (")(th)" if self.kind == "rational" else ")")


def _default_theta(p, m):
    return p if m >= 2 else 1  # the codes of g and 1


def _random_code(rng, p, m):
    """A uniformly drawn code of F_{p^m}: its m digits lowest first, each by
    rejection on p.bit_length() random bits, the stream rng.randrange(p)
    draws."""
    getrandbits, bits = rng.getrandbits, p.bit_length()
    code, unit = 0, 1
    for _ in range(m):
        digit = getrandbits(bits)
        while digit >= p:
            digit = getrandbits(bits)
        code += digit * unit
        unit *= p
    return code


# ---------------------------------------------------------------------------
# Elements.


class FieldElement(_Additive, SlottedValue):
    __slots__ = ("spec", "payload")

    # -- structure ----------------------------------------------------------

    # Written out, as the record getters are slower; domains are interned.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.spec is other.spec and self.payload == other.payload

    def __hash__(self):
        return hash((self.spec, self.payload))

    def is_zero(self):
        return self.spec._arith.is_zero(self.payload)

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            self.spec._payload(other)  # MixedFields for another domain
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        return spec._fe(spec._arith.add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return self.spec._fe(self.spec._arith.neg(self.payload))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        return spec._fe(spec._arith.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def inverse(self):
        return self.spec._fe(self.spec._arith.inv(self.payload))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.spec.one(), self, n)

    # -- twisting ------------------------------------------------------------

    def twist(self, i):
        """The q^i-th power of the element (q-th roots for negative i)."""
        if i == 0:
            return self
        spec = self.spec
        return spec._fe(spec._arith.twist(self.payload, i))

    def fp_coords(self):
        """The coordinates over F_p (ascending in g) of an element of
        F_{p^m}."""
        return tuple(self.spec._fp_coords(self.payload))

    def negate_indices(self):
        """The automorphism of a formal-twist domain sending s[j] to s[-j]."""
        spec = self.spec
        if spec.kind != "formal":
            raise MixedFields("negate_indices only applies to formal-twist "
                              "domains")
        n, d = self.payload
        num = tuple(sorted((_mono_map_index(m, lambda j: -j), c)
                           for m, c in n))
        return spec._fe((num, _mono_map_index(d, lambda j: -j)))

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        return self.spec._arith.render(self.payload)

    __repr__ = __str__


_set_spec = FieldElement.spec.__set__
_set_payload = FieldElement.payload.__set__


# ---------------------------------------------------------------------------
# Rendering helpers (ascending degrees throughout).


def _power_text(name, e):
    """name^e as printed: "" for e = 0, the bare name for e = 1."""
    return "" if not e else name if e == 1 else f"{name}^{_printable(e)}"


def _render_terms(terms, grouped, sep=" + "):
    """The one term printer: the sum of the (coefficient text, power text)
    terms, the power "" for a constant, which prints bare.  1*x prints as
    x, and c*x as (c)*x where c holds one of the marks in grouped."""
    parts = []
    for cs, power in terms:
        if not power:
            parts.append(cs)
        elif cs == "1":
            parts.append(power)
        elif grouped and any(map(cs.__contains__, grouped)):
            parts.append(f"({cs})*{power}")
        else:
            parts.append(f"{cs}*{power}")
    return sep.join(parts) or "0"


def _render_g(code, p, n, sep=" + "):
    """The polynomial in g with the n base-p digits of code."""
    terms = []
    for j in range(n):
        code, c = divmod(code, p)
        if c:
            terms.append((str(c), f"g^{j}" if j > 1 else "g" * j))
    return _render_terms(terms, (), sep)


def _fraction(num, den):
    """num/den of two texts, with a sum, or a product below the bar, in
    parentheses; num alone for the denominator ""."""
    if not den:
        return num
    if " + " in num:
        num = f"({num})"
    if " + " in den or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"


def _render_mono(mono):
    return "*".join(_power_text(f"{sym}[{_printable(idx)}]", e)
                    for (sym, idx), e in mono)


# ---------------------------------------------------------------------------
# Factories and header parsing.  Each make_* tests p and m (_check_pm) and
# builds its domain; parse_field tests them before it reads the rest of a
# header and then builds the domain itself, so that no test runs twice.


def make_finite(p, m=1, modulus=None, theta=None):
    _check_pm(p, m)
    return FieldSpec("finite", p, m, _resolve_modulus(p, m, modulus), theta)


def make_rational(p, m=1, modulus=None):
    _check_pm(p, m)
    return FieldSpec("rational", p, m, _resolve_modulus(p, m, modulus))


def make_formal(p, m=1, generators=(), invertibles=(), modulus=None):
    _check_pm(p, m)
    return _formal(p, m, generators, invertibles, modulus)


def _formal(p, m, generators, invertibles, modulus):
    """The formal domain, its generators tested before its modulus."""
    gens = list(generators)
    if "th" not in gens:
        gens.append("th")
    for name in gens:
        n = name.removesuffix("\n")  # as a $ ends a regular expression
        if (name in _RESERVED_NAMES or not (n[:1].islower() and n.islower())
                or [*_scan(n)] != [("name", n, 0)]):
            raise ParseError(f"invalid generator name {name!r}")
    if len(set(gens)) != len(gens):
        raise ParseError("duplicate generator names")
    inv = frozenset(invertibles)
    extra = inv - set(gens)
    if extra:
        raise ParseError(f"invertible symbols {sorted(extra)} are not "
                         "generators")
    return FieldSpec("formal", p, m, _resolve_modulus(p, m, modulus),
                     generators=tuple(gens), invertibles=inv)


def _check_pm(p, m):
    # p^k > MAX_FIELD_SEARCH for every p >= 2 once k reaches its bit length,
    # so the power is formed with k capped there.
    k = min(m // 2, MAX_FIELD_SEARCH.bit_length())
    if p > 0 and max(isqrt(p), p ** k) > MAX_FIELD_SEARCH:
        raise CarrierTooLarge(f"setting up the field would try more than "
                              f"MAX_FIELD_SEARCH = {MAX_FIELD_SEARCH} trial "
                              f"divisors")
    if _prime_factors(p) != [p]:
        raise ParseError(f"{p} is not prime")
    if m < 1:
        raise ParseError("extension degree must be at least 1")


def _resolve_modulus(p, m, modulus):
    """The default modulus, or the given one (dense, lowest degree first,
    or a {degree: coefficient} dict) if monic of degree m and irreducible."""
    if modulus is None:
        return default_modulus(p, m)
    if not isinstance(modulus, dict):
        modulus = dict(enumerate(modulus))
    if (max((e for e, c in modulus.items() if c % p), default=None) != m
            or modulus[m] % p != 1):
        raise ParseError(f"modulus must be monic of degree {m}")
    modulus = tuple(modulus.get(e, 0) % p for e in range(m + 1))
    if not _is_irreducible_fp(modulus, p):
        raise ParseError("modulus is not irreducible")
    return modulus


def _parse_g_poly(text, p):
    """The polynomial in g as a {degree: coefficient mod p} dict of its
    nonzero terms, so that a high degree costs no dense coefficients."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    terms = s.replace("-", "+-").split("+")  # terms[0] is "" after a sign
    if "" in terms[1:] or "-" in terms:
        raise ParseError(f"malformed polynomial {text!r}")
    coeffs = {}
    for tok in filter(None, terms):
        sign = -1 if tok[0] == "-" else 1
        tok = tok.removeprefix("-")
        # c*g^e (c* and ^e optional) or c, which is c*g^0, before the one
        # final newline that a regular expression's $ allows
        c, g, e = tok.removesuffix("\n").partition("g")
        if not g:
            c, e = c + "*", "^0"
        if (c and not (c[-1] == "*" and c[:-1].isdecimal())
                or e and not (e[0] == "^" and e[1:].isdecimal())):
            raise ParseError(f"bad term {tok!r} in polynomial {text!r}")
        deg = int(e[1:] or 1)
        coeffs[deg] = (coeffs.get(deg, 0) + sign * int(c[:-1] or 1)) % p
    return {deg: c for deg, c in coeffs.items() if c}


def parse_field(text):
    """Parse a coefficient-domain header such as GF(3), GF(3^2; mod=g^2+1),
    GF(3)(th), or FTF(3; gens=a,b,th; inv=a)."""
    _check_literals(text)
    head, close, tail = text.partition(")")
    head, _, opts_s = head.partition(";")
    words = [tok[1] for tok in _scan(head)]  # the class, "(", p and ^m
    shape = [0 if w.isascii() and w.isdecimal() else w for w in words]
    th_suffix = [tok[1] for tok in _scan(tail)]
    if (not close or "(" in opts_s or shape[:1] not in (["GF"], ["FTF"])
            or shape[1:] not in (["(", 0], ["(", 0, "^", 0])
            or th_suffix not in ([], ["(", "th", ")"])):
        raise ParseError(f"malformed field header {text!r}")
    klass, p, m = words[0], int(words[2]), int(words[-1]) if words[3:] else 1
    opts = {}
    for chunk in filter(None, map(str.strip, opts_s.split(";"))):
        key, eq, value = map(str.strip, chunk.partition("="))
        if not eq:
            raise ParseError(f"malformed option {chunk!r} in field header")
        if key in opts:
            raise ParseError(f"duplicate option {key!r} in field header")
        opts[key] = value
    _check_pm(p, m)
    if "mod" in opts and m == 1:
        raise ParseError("a mod= option requires an extension degree, e.g. "
                         "GF(p^m; mod=...)")

    if klass == "FTF":
        if th_suffix:
            raise ParseError("FTF headers do not take a (th) suffix")
        mod, gens, inv = (opts.pop(k, None) for k in ("mod", "gens", "inv"))
        if opts:
            raise ParseError(f"unknown field options {sorted(opts)}")
        modulus = _parse_g_poly(mod, p) if mod is not None else None
        gen_names = tuple(s.strip() for s in gens.split(",")) if gens else ()
        inv_names = tuple(s.strip() for s in inv.split(",")) if inv else ()
        return _formal(p, m, gen_names, inv_names, modulus)

    mod = opts.pop("mod", None)
    modulus = _parse_g_poly(mod, p) if mod is not None else None
    theta = None if th_suffix else opts.pop("theta", None)
    if opts:
        raise ParseError(f"unknown field options {sorted(opts)}")
    modulus = _resolve_modulus(p, m, modulus)
    if th_suffix:
        return FieldSpec("rational", p, m, modulus)
    if theta is not None:  # its text, reduced term by term to a code
        ring, terms, theta = _PolyOps(p, modulus), _parse_g_poly(theta, p), 0
        # g is the code p, and for m >= 2 a unit of order dividing p^m - 1
        order = p ** m - 1 if m >= 2 else None
        for deg, c in terms.items():
            g_deg = ring.pow(p, deg % order if order else deg)
            theta = ring.add(theta, ring.mul(c, g_deg))
    return FieldSpec("finite", p, m, modulus, theta)
