"""Exact coefficient domains with q-power twisting.

Three kinds of domain share one element interface:

* finite fields F_{p^m}, presented as F_p[g]/(modulus), with q = p;
* rational function fields F_{p^m}(th), with q = p^m;
* fraction fields of indexed symbols ("formal twist" domains) over F_{p^m},
  with q = p^m, where the i-th twist of a symbol s[j] is s[j+i].

Twisting an element by i means raising it to the q-th power i times
(taking q-th roots for negative i).  All higher layers express their
semilinear algebra through ``FieldElement.twist``.

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
  modulus, on the codes' base-p digits.

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
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

from .errors import (
    DivisionByZero,
    FiniteFieldRequired,
    MixedFields,
    NonMonomialDenominator,
    NotAQthPower,
    ParseError,
    PolynomialTooLarge,
)

# ---------------------------------------------------------------------------
# Polynomials over F_p on ascending integer coefficient tuples (used for
# moduli and for the arithmetic of F_{p^m}).


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul_fp(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod_fp(a, mod, p):
    """Remainder of a modulo a monic polynomial."""
    a = [x % p for x in a]
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for j in range(dm + 1):
                a[off + j] = (a[off + j] - c * mod[j]) % p
        a.pop()
    return _poly_trim(a)


def _poly_divmod_fp(a, b, p):
    a = [x % p for x in _poly_trim(a)]
    b = _poly_trim(b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        c = (a[-1] * binv) % p
        off = len(a) - 1 - db
        if c:
            q[off] = c
            for j in range(db + 1):
                a[off + j] = (a[off + j] - c * b[j]) % p
        a.pop()
        while a and a[-1] == 0 and len(a) - 1 >= db:
            a.pop()
    return _poly_trim(q), _poly_trim(a)


def _is_irreducible_fp(f, p):
    m = len(f) - 1
    if m <= 0:
        return False
    if f[0] == 0:
        return m == 1
    for d in range(1, m // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            g = lower + (1,)
            if not _poly_divmod_fp(f, g, p)[1]:
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p, m):
    """The monic irreducible of degree m over F_p whose coefficient vector,
    read as the base-p integer sum(c_i * p^i), is smallest."""
    if m == 1:
        return (0, 1)
    for n in range(p ** m):
        digits = []
        k = n
        for _ in range(m):
            digits.append(k % p)
            k //= p
        f = tuple(digits) + (1,)
        if _is_irreducible_fp(f, p):
            return f
    raise ParseError(f"no irreducible polynomial of degree {m} over GF({p})")


def _is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Arithmetic of F_{p^m} on integer codes (see the module docstring).  Each
# ops object offers add, sub, neg, mul, inv, frob(a, i) = a ** (p**i),
# from_int, zero and one.

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


def _fp_pow(a, n, mod, p):
    """a ** n in F_p[g]/(mod), on ascending coefficient tuples."""
    result, base = (1,), a
    while n:
        if n & 1:
            result = _poly_mod_fp(_poly_mul_fp(result, base, p), mod, p)
        base = _poly_mod_fp(_poly_mul_fp(base, base, p), mod, p)
        n >>= 1
    return result


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


class _PrimeOps:
    """F_p: codes are residues mod p."""

    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

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

    def from_int(self, n):
        return n % self.p


class _ExtOps(_PrimeOps):
    """What both extension-field paths share: digitwise addition on codes
    (XOR when p = 2)."""

    def __init__(self, p, modulus):
        self.p = p
        self.m = len(modulus) - 1
        self.mod = modulus
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos

    def add(self, a, b):
        p, m = self.p, self.m
        return _encode([(x + y) % p for x, y in zip(_digits(a, p, m),
                                                     _digits(b, p, m))], p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        p = self.p
        return _encode([-x % p for x in _digits(a, p, self.m)], p)


class _PolyOps(_ExtOps):
    """F_{p^m} with q above ZECH_LIMIT: polynomial products reduced modulo
    the modulus, on the codes' base-p digits."""

    def mul(self, a, b):
        p, m = self.p, self.m
        return _encode(_poly_mod_fp(_poly_mul_fp(
            _digits(a, p, m), _digits(b, p, m), p), self.mod, p), p)

    def pow(self, a, n):
        p = self.p
        return _encode(_fp_pow(_digits(a, p, self.m), n, self.mod, p), p)

    def inv(self, a):
        if not a:
            raise DivisionByZero("division by zero")
        return self.pow(a, self.p ** self.m - 2)

    def frob(self, a, i):
        return self.pow(a, self.p ** (i % self.m))


class _ZechOps(_ExtOps):
    """F_{p^m} with q <= ZECH_LIMIT, following FLINT's fq_zech: exp/log
    tables of a primitive element alpha make mul, inv and frob lookups,
    and Zech logarithms log(1 + alpha^k) make addition one.

    exp is indexed up to 4n (n = q - 1) and log[0] = 2n, so a product
    involving zero lands in exp's zero upper half without a test."""

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

    def frob(self, a, i):
        if not a:
            return 0
        return self.exp[self.log[a] * self.p_powers[i % self.m] % self.n]


def _alpha_powers(p, modulus):
    """The codes of alpha^0, ..., alpha^(q-2) for the primitive element
    alpha of _primitive_element."""
    m = len(modulus) - 1
    n = p ** m - 1
    alpha = _primitive_element(p, modulus)
    out = [1] * n
    if p == 2:
        # Horner in g on codes: shift one degree up, fold g^m back by XOR.
        top, mod_code = 1 << m, _encode(modulus, 2)
        x = 1
        for k in range(1, n):
            acc = 0
            for a in reversed(alpha):
                acc <<= 1
                if acc & top:
                    acc ^= mod_code
                if a:
                    acc ^= x
            out[k] = x = acc
        return out
    # x -> x * alpha is F_p-linear: column j of its matrix holds the
    # digits of g^j * alpha.
    cols = [_poly_mod_fp(_poly_mul_fp((0,) * j + (1,), alpha, p), modulus, p)
            for j in range(m)]
    rows = list(zip(*(c + (0,) * (m - len(c)) for c in cols)))
    place = [p ** i for i in range(m)]
    x = [1] + [0] * (m - 1)
    for k in range(1, n):
        x = [sum(map(operator.mul, row, x)) % p for row in rows]
        out[k] = sum(map(operator.mul, x, place))
    return out


def _primitive_element(p, modulus):
    """The generator of F_{p^m}^* whose code is smallest, as digits
    (trailing zeros trimmed)."""
    m = len(modulus) - 1
    n = p ** m - 1
    cofactors = [n // r for r in _prime_factors(n)]
    for code in range(2, p ** m):
        a = _poly_trim(_digits(code, p, m))
        if all(_fp_pow(a, e, modulus, p) != (1,) for e in cofactors):
            return a
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


# The most terms a quotient in th may hold.  An exact quotient by a gcd can
# be dense where both operands are sparse: (1 + th^N)/(2 + th^2) over
# GF(3)(th) divides out th + 1 and leaves about N terms.
MAX_POLY_TERMS = 2 ** 16


def _rp_collect(terms, ops):
    """The sparse polynomial summing the (exponent, coefficient) pairs."""
    acc = {}
    for e, c in terms:
        cur = acc.get(e)
        acc[e] = c if cur is None else ops.add(cur, c)
    return tuple(sorted((e, c) for e, c in acc.items() if c != ops.zero))


def _rp_add(a, b, ops):
    return _rp_collect(itertools.chain(a, b), ops)


def _rp_neg(a, ops):
    return tuple((e, ops.neg(c)) for e, c in a)


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
            cur = ops.sub(cur, ops.mul(f, cb))
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
    th = _rp_divmod(((1, ops.one),), b, ops)[1]
    out = ()
    for e, c in a:
        power, base = ((0, ops.one),), th
        while e:
            if e & 1:
                power = _rp_divmod(_rp_mul(power, base, ops), b, ops)[1]
            base = _rp_divmod(_rp_mul(base, base, ops), b, ops)[1]
            e >>= 1
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
    if g != ((0, ops.one),):
        num = _rp_divmod(num, g, ops)[0]
        den = _rp_divmod(den, g, ops)[0]
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
    terms = {}
    for mono, coeff in num_terms:
        if coeff == ops.zero:
            continue
        cur = terms.get(mono)
        cur = coeff if cur is None else ops.add(cur, coeff)
        if cur == ops.zero:
            terms.pop(mono, None)
        else:
            terms[mono] = cur
    if not terms:
        return ((), ())
    den = dict(den_mono)
    for key in list(den):
        cmin = min(dict(mono).get(key, 0) for mono in terms)
        t = min(den[key], cmin)
        if t:
            den[key] -= t
            new_terms = {}
            for mono, coeff in terms.items():
                md = dict(mono)
                md[key] -= t
                new_terms[tuple(sorted((k, e) for k, e in md.items() if e))] = coeff
            terms = new_terms
    den_out = tuple(sorted((k, e) for k, e in den.items() if e))
    num_out = tuple(sorted(terms.items()))
    return (num_out, den_out)


def _ftf_add_raw(t1, t2, ops):
    merged = {}
    for mono, coeff in itertools.chain(t1, t2):
        cur = merged.get(mono)
        merged[mono] = coeff if cur is None else ops.add(cur, coeff)
    return tuple(sorted((m, c) for m, c in merged.items() if c != ops.zero))


def _ftf_mul_raw(t1, t2, ops):
    out = {}
    for m1, c1 in t1:
        for m2, c2 in t2:
            mono = _mono_mul(m1, m2)
            c = ops.mul(c1, c2)
            cur = out.get(mono)
            out[mono] = c if cur is None else ops.add(cur, c)
    return tuple(sorted((m, c) for m, c in out.items() if c != ops.zero))


# ---------------------------------------------------------------------------
# Field specification.


_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_RESERVED_NAMES = frozenset({"tau", "sig", "sigma", "t", "g"})


@dataclass(frozen=True)
class FieldSpec:
    """Description of a coefficient domain.

    kind is one of "finite", "rational", "formal".  p is the
    characteristic, m the extension degree of the scalar field F_{p^m},
    and modulus its defining polynomial over F_p (ascending coefficients,
    monic).  theta_payload (an F_{p^m} code) fixes the distinguished
    element theta for finite fields; generators/invertibles only apply to
    formal domains.
    """

    kind: str
    p: int
    m: int
    modulus: tuple
    theta_payload: int | None = None
    generators: tuple = ()
    invertibles: frozenset = frozenset()
    _ops: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_ops", _get_ops(self.p, self.modulus))

    # -- basic data --------------------------------------------------------

    @property
    def q(self):
        return self.p if self.kind == "finite" else self.p ** self.m

    def carrier_size(self):
        if self.kind != "finite":
            raise FiniteFieldRequired(
                "element enumeration requires a finite coefficient field")
        return self.p ** self.m

    # -- element constructors ----------------------------------------------

    def _fe(self, payload):
        return FieldElement(self, payload)

    def zero(self):
        ops = self._ops
        if self.kind == "finite":
            return self._fe(ops.zero)
        if self.kind == "rational":
            return self._fe(((), ((0, ops.one),)))
        return self._fe(((), ()))

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        ops = self._ops
        c = ops.from_int(n)
        if self.kind == "finite":
            return self._fe(c)
        if c == ops.zero:
            return self.zero()
        if self.kind == "rational":
            return self._fe((((0, c),), ((0, ops.one),)))
        return self._fe(((((), c),), ()))

    def gen(self):
        if self.kind == "formal" or self.m < 2:
            raise ParseError("the name 'g' requires a finite scalar field of "
                             "extension degree at least 2")
        g = self.p  # the code of g
        if self.kind == "finite":
            return self._fe(g)
        return self._fe((((0, g),), ((0, self._ops.one),)))

    def theta(self):
        ops = self._ops
        if self.kind == "finite":
            return self._fe(self.theta_payload)
        if self.kind == "rational":
            return self._fe((((1, ops.one),), ((0, ops.one),)))
        return self.symbol("th", 0)

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
        if self.kind != "finite":
            raise FiniteFieldRequired(
                "element enumeration requires a finite coefficient field")
        for t in itertools.product(range(self.p), repeat=self.m):
            yield self._fe(_encode(t, self.p))

    def random_element(self, rng):
        if self.kind != "finite":
            raise FiniteFieldRequired(
                "random sampling requires a finite coefficient field")
        return self._fe(_encode([rng.randrange(self.p) for _ in range(self.m)],
                                self.p))

    # -- F_p coordinates ------------------------------------------------------

    def from_fp_coords(self, coords):
        """The element of F_{p^m} with coordinates coords (ascending in g)
        over F_p; the inverse of FieldElement.fp_coords."""
        if self.kind != "finite":
            raise FiniteFieldRequired(
                "F_p coordinates require a finite coefficient field")
        return self._fe(_encode([c % self.p for c in coords], self.p))

    # -- rendering ----------------------------------------------------------

    def header(self):
        if self.kind == "formal":
            base = f"FTF({self.p}" + (f"^{self.m}" if self.m > 1 else "")
            if self.m > 1:
                base += f"; mod={_render_gpoly(self.modulus)}"
            base += f"; gens={','.join(self.generators)}"
            if self.invertibles:
                base += f"; inv={','.join(sorted(self.invertibles))}"
            return base + ")"
        base = f"GF({self.p}" + (f"^{self.m}" if self.m > 1 else "")
        if self.m > 1:
            base += f"; mod={_render_gpoly(self.modulus)}"
        if self.kind == "finite" and self.theta_payload != _default_theta(
                self.p, self.m):
            base += f"; theta={_render_ff(self.theta_payload, self.p, self.m)}"
        base += ")"
        if self.kind == "rational":
            base += "(th)"
        return base


def _default_theta(p, m):
    return p if m >= 2 else 1  # the codes of g and 1


# ---------------------------------------------------------------------------
# Elements.


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    payload: object

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        if self.spec.kind == "finite":
            return not self.payload
        return not self.payload[0]

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise MixedFields("elements of different coefficient domains")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec, ops = self.spec, self.spec._ops
        if spec.kind == "finite":
            return spec._fe(ops.add(self.payload, other.payload))
        if spec.kind == "rational":
            n1, d1 = self.payload
            n2, d2 = other.payload
            if d1 == d2:
                return spec._fe(_rat_normal(_rp_add(n1, n2, ops), d1, ops))
            num = _rp_add(_rp_mul(n1, d2, ops), _rp_mul(n2, d1, ops), ops)
            return spec._fe(_rat_normal(num, _rp_mul(d1, d2, ops), ops))
        n1, d1 = self.payload
        n2, d2 = other.payload
        t1 = _ftf_mul_raw(n1, ((d2, ops.one),), ops)
        t2 = _ftf_mul_raw(n2, ((d1, ops.one),), ops)
        num = _ftf_add_raw(t1, t2, ops)
        return spec._fe(_ftf_normal(num, _mono_mul(d1, d2), ops))

    __radd__ = __add__

    def __neg__(self):
        spec, ops = self.spec, self.spec._ops
        if spec.kind == "finite":
            return spec._fe(ops.neg(self.payload))
        if spec.kind == "rational":
            n, d = self.payload
            return spec._fe((_rp_neg(n, ops), d))
        n, d = self.payload
        return spec._fe((tuple((m, ops.neg(c)) for m, c in n), d))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec, ops = self.spec, self.spec._ops
        if spec.kind == "finite":
            return spec._fe(ops.mul(self.payload, other.payload))
        if spec.kind == "rational":
            n1, d1 = self.payload
            n2, d2 = other.payload
            return spec._fe(_rat_normal(_rp_mul(n1, n2, ops),
                                        _rp_mul(d1, d2, ops), ops))
        n1, d1 = self.payload
        n2, d2 = other.payload
        return spec._fe(_ftf_normal(_ftf_mul_raw(n1, n2, ops),
                                    _mono_mul(d1, d2), ops))

    __rmul__ = __mul__

    def inverse(self):
        spec, ops = self.spec, self.spec._ops
        if self.is_zero():
            raise DivisionByZero("division by zero")
        if spec.kind == "finite":
            return spec._fe(ops.inv(self.payload))
        if spec.kind == "rational":
            n, d = self.payload
            return spec._fe(_rat_normal(d, n, ops))
        n, d = self.payload
        if len(n) != 1:
            raise NonMonomialDenominator(
                "can only divide by a single monomial term in a formal-twist "
                "domain")
        mono, coeff = n[0]
        bad = [key for (key, _e) in mono if key[0] not in spec.invertibles]
        if bad:
            sym, idx = bad[0]
            raise NonMonomialDenominator(
                f"symbol {sym}[{idx}] is not invertible in this domain")
        new_num = ((d, ops.inv(coeff)),)
        return spec._fe(_ftf_normal(new_num, mono, ops))

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
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- twisting ------------------------------------------------------------

    def twist(self, i):
        """The q^i-th power of the element (q-th roots for negative i)."""
        spec, ops = self.spec, self.spec._ops
        if i == 0:
            return self
        if spec.kind == "finite":
            return spec._fe(ops.frob(self.payload, i))
        if spec.kind == "rational":
            return self._twist_rational(i)
        n, d = self.payload
        num = tuple(sorted((_mono_shift(m, i), c) for m, c in n))
        return spec._fe((num, _mono_shift(d, i)))

    def _twist_rational(self, i):
        """Coefficients in F_q are fixed by the q-th power, so twisting
        scales every exponent by q^i; a negative twist needs each exponent
        divisible by q^-i."""
        n, d = self.payload
        step = self.spec.q ** abs(i)
        if i > 0:
            return self.spec._fe((tuple((e * step, c) for e, c in n),
                                  tuple((e * step, c) for e, c in d)))
        if any(e % step for e, _c in n + d):
            raise NotAQthPower(f"element is not a q^{-i}-th power in F_q(th)")
        return self.spec._fe((tuple((e // step, c) for e, c in n),
                              tuple((e // step, c) for e, c in d)))

    def fp_coords(self):
        """The coordinates over F_p (ascending in g) of an element of
        F_{p^m}."""
        spec = self.spec
        if spec.kind != "finite":
            raise FiniteFieldRequired(
                "F_p coordinates require a finite coefficient field")
        return tuple(_digits(self.payload, spec.p, spec.m))

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
        spec = self.spec
        if spec.kind == "finite":
            return _render_ff(self.payload, spec.p, spec.m)
        if spec.kind == "rational":
            return _render_rational(self.payload, spec)
        return _render_formal(self.payload, spec)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Rendering helpers (ascending degrees throughout).


def _render_ff(code, p, m):
    parts = []
    for j, c in enumerate(_digits(code, p, m)):
        if not c:
            continue
        if j == 0:
            parts.append(str(c))
        else:
            base = "g" if j == 1 else f"g^{j}"
            parts.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(parts) if parts else "0"


def _render_gpoly(modulus):
    parts = []
    for j, c in enumerate(modulus):
        if not c:
            continue
        if j == 0:
            parts.append(str(c))
        else:
            base = "g" if j == 1 else f"g^{j}"
            parts.append(base if c == 1 else f"{c}*{base}")
    return "+".join(parts) if parts else "0"


def _render_rp(poly, spec):
    ops = spec._ops
    parts = []
    for j, c in poly:
        cs = _render_ff(c, spec.p, spec.m)
        if j == 0:
            parts.append(cs)
            continue
        base = "th" if j == 1 else f"th^{j}"
        if c == ops.one:
            parts.append(base)
        elif " + " in cs:
            parts.append(f"({cs})*{base}")
        else:
            parts.append(f"{cs}*{base}")
    return " + ".join(parts) if parts else "0"


def _render_rational(payload, spec):
    num, den = payload
    ops = spec._ops
    ns = _render_rp(num, spec)
    if den == ((0, ops.one),):
        return ns
    ds = _render_rp(den, spec)
    if " + " in ns:
        ns = f"({ns})"
    if " + " in ds or "*" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _render_mono(mono):
    factors = []
    for (sym, idx), e in mono:
        base = f"{sym}[{idx}]"
        factors.append(base if e == 1 else f"{base}^{e}")
    return "*".join(factors)


def _render_formal_terms(terms, spec):
    ops = spec._ops
    parts = []
    for mono, coeff in terms:
        cs = _render_ff(coeff, spec.p, spec.m)
        if not mono:
            parts.append(cs if " + " not in cs else f"({cs})")
            continue
        ms = _render_mono(mono)
        if coeff == ops.one:
            parts.append(ms)
        elif " + " in cs:
            parts.append(f"({cs})*{ms}")
        else:
            parts.append(f"{cs}*{ms}")
    return " + ".join(parts) if parts else "0"


def _render_formal(payload, spec):
    num, den = payload
    ns = _render_formal_terms(num, spec)
    if not den:
        return ns
    ds = _render_mono(den)
    if " + " in ns:
        ns = f"({ns})"
    if "*" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ---------------------------------------------------------------------------
# Factories and header parsing.


def make_finite(p, m=1, modulus=None, theta=None):
    _check_pm(p, m)
    modulus = _resolve_modulus(p, m, modulus)
    payload = theta if theta is not None else _default_theta(p, m)
    return FieldSpec("finite", p, m, modulus, theta_payload=payload)


def make_rational(p, m=1, modulus=None):
    _check_pm(p, m)
    return FieldSpec("rational", p, m, _resolve_modulus(p, m, modulus))


def make_formal(p, m=1, generators=(), invertibles=(), modulus=None):
    _check_pm(p, m)
    gens = list(generators)
    if "th" not in gens:
        gens.append("th")
    for name in gens:
        if not _NAME_RE.match(name) or name in _RESERVED_NAMES:
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
    if not _is_prime(p):
        raise ParseError(f"{p} is not prime")
    if m < 1:
        raise ParseError("extension degree must be at least 1")


def _resolve_modulus(p, m, modulus):
    if modulus is None:
        return default_modulus(p, m)
    modulus = _poly_trim(tuple(c % p for c in modulus))
    if len(modulus) != m + 1 or modulus[-1] != 1:
        raise ParseError(f"modulus must be monic of degree {m}")
    if not _is_irreducible_fp(modulus, p):
        raise ParseError("modulus is not irreducible")
    return modulus


_FIELD_RE = re.compile(
    r"^\s*(GF|FTF)\s*\(\s*([0-9]+)\s*(?:\^\s*([0-9]+))?\s*((?:;[^;()]*)*)\)"
    r"\s*(\(\s*th\s*\))?\s*$")

_TERM_RE = re.compile(r"^(?:(\d+)\*)?g(?:\^(\d+))?$|^(\d+)$")


def _parse_g_poly(text, p):
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ParseError(f"malformed polynomial {text!r}")
    coeffs = {}
    for tok in tokens:
        sign = 1
        if tok[0] == "+":
            tok = tok[1:]
        elif tok[0] == "-":
            sign = -1
            tok = tok[1:]
        m_ = _TERM_RE.match(tok)
        if not m_:
            raise ParseError(f"bad term {tok!r} in polynomial {text!r}")
        if m_.group(3) is not None:
            deg, c = 0, int(m_.group(3))
        else:
            c = int(m_.group(1)) if m_.group(1) else 1
            deg = int(m_.group(2)) if m_.group(2) else 1
        coeffs[deg] = (coeffs.get(deg, 0) + sign * c) % p
    top = max(coeffs)
    return _poly_trim(tuple(coeffs.get(i, 0) for i in range(top + 1)))


def parse_field(text):
    """Parse a coefficient-domain header such as GF(3), GF(3^2; mod=g^2+1),
    GF(3)(th), or FTF(3; gens=a,b,th; inv=a)."""
    m_ = _FIELD_RE.match(text)
    if not m_:
        raise ParseError(f"malformed field header {text!r}")
    klass, p_s, m_s, opts_s, th_suffix = m_.groups()
    p = int(p_s)
    m = int(m_s) if m_s else 1
    opts = {}
    for chunk in opts_s.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"malformed option {chunk!r} in field header")
        key, _, value = chunk.partition("=")
        key, value = key.strip(), value.strip()
        if key in opts:
            raise ParseError(f"duplicate option {key!r} in field header")
        opts[key] = value
    _check_pm(p, m)

    def take(key):
        return opts.pop(key, None)

    if "mod" in opts and m == 1:
        raise ParseError("a mod= option requires an extension degree, e.g. "
                         "GF(p^m; mod=...)")

    if klass == "FTF":
        if th_suffix:
            raise ParseError("FTF headers do not take a (th) suffix")
        mod = take("mod")
        gens = take("gens")
        inv = take("inv")
        if opts:
            raise ParseError(f"unknown field options {sorted(opts)}")
        modulus = _parse_g_poly(mod, p) if mod is not None else None
        gen_names = tuple(s.strip() for s in gens.split(",")) if gens else ()
        inv_names = tuple(s.strip() for s in inv.split(",")) if inv else ()
        return make_formal(p, m, gen_names, inv_names, modulus)

    mod = take("mod")
    modulus = _parse_g_poly(mod, p) if mod is not None else None
    if th_suffix:
        if opts:
            raise ParseError(f"unknown field options {sorted(opts)}")
        return make_rational(p, m, modulus)
    theta_s = take("theta")
    if opts:
        raise ParseError(f"unknown field options {sorted(opts)}")
    if theta_s is None:
        return make_finite(p, m, modulus)
    resolved = _resolve_modulus(p, m, modulus)
    theta = _encode(_poly_mod_fp(_parse_g_poly(theta_s, p), resolved, p), p)
    return make_finite(p, m, resolved, theta)
