"""The hand-written scanner against the regular expressions it replaced.

Each reference below is a parser front end as it was written with `re`:
the field-header, term and generator-name patterns of `coefficients`, the
keyword and option patterns of `modules_t`, the tokenizer of `skewpoly`
and the digit-run scan of the literal-length refusal.  The properties
require parse_field, parse_module, the polynomials in g, generator names,
the tokens and the refusal to give the same outcome as the references (the
same spec, module or tokens, or the same exception class and text) on
texts mixing ASCII and Unicode digits and whitespace, a trailing newline,
the separators ; = , and letters right after a keyword or a digit.
test_skewpoly.py keeps a second tokenizer reference, one match per
token."""

import re
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from tmodext import _scan, coefficients, make_finite, make_formal, skewpoly
from tmodext.coefficients import (
    FieldSpec,
    _check_pm,
    _encode,
    _poly_trim,
    _PolyOps,
    _resolve_modulus,
    parse_field,
)
from tmodext.errors import ParseError
from tmodext.modules_t import carlitz_power, drinfeld, parse_module, tmodule
from tmodext.skewpoly import TAU, parse_poly, parse_value

# ---------------------------------------------------------------------------
# The references: the regex front ends, verbatim but for their names.

_FIELD_RE = re.compile(
    r"^\s*(GF|FTF)\s*\(\s*([0-9]+)\s*(?:\^\s*([0-9]+))?\s*((?:;[^;()]*)*)\)"
    r"\s*(\(\s*th\s*\))?\s*$")
_TERM_RE = re.compile(r"^(?:(\d+)\*)?g(?:\^(\d+))?$|^(\d+)$")
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_KEY_RE = re.compile(r"^\s*(drinfeld|tmodule|carlitz)\b(.*)$", re.S)
_OPT_RE = re.compile(r"^\s*([a-z]+)\s*=\s*([0-9]+)\b(.*)$", re.S)
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|[+\-*/(),;\[\]=]))|\s*(?P<bad>\S)")


def _old_check_literals(text, limit=_scan.MAX_LITERAL_DIGITS):
    if any(len(run) > limit for run in re.findall(r"\d+", text)):
        raise ParseError(f"an integer literal has more than "
                         f"MAX_LITERAL_DIGITS = {limit} digits")


def _old_tokenize(text):
    _old_check_literals(text)
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r} in "
                             f"{text.strip()!r}")
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _old_formal(p, m, generators, invertibles, modulus):
    gens = list(generators)
    if "th" not in gens:
        gens.append("th")
    for name in gens:
        if not _NAME_RE.match(name) or name in coefficients._RESERVED_NAMES:
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


def _old_parse_g_poly(text, p):
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


def _old_parse_field(text):
    _old_check_literals(text)
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
        modulus = _old_parse_g_poly(mod, p) if mod is not None else None
        gen_names = tuple(s.strip() for s in gens.split(",")) if gens else ()
        inv_names = tuple(s.strip() for s in inv.split(",")) if inv else ()
        return _old_formal(p, m, gen_names, inv_names, modulus)

    mod = take("mod")
    modulus = _old_parse_g_poly(mod, p) if mod is not None else None
    theta = None if th_suffix else take("theta")
    if opts:
        raise ParseError(f"unknown field options {sorted(opts)}")
    modulus = _resolve_modulus(p, m, modulus)
    if th_suffix:
        return FieldSpec("rational", p, m, modulus)
    if theta is not None:  # its text, reduced to a code
        theta = _encode(_PolyOps(p, modulus).reduce(
            _old_parse_g_poly(theta, p)), p)
    return FieldSpec("finite", p, m, modulus, theta)


def _old_parse_module(spec, text, var=TAU):
    _old_check_literals(text)
    m = _KEY_RE.match(text)
    if not m:
        return tmodule(spec, parse_value(spec, text, var))
    keyword, rest = m.groups()
    if keyword == "carlitz":
        e = 1
        opt = _OPT_RE.match(rest)
        if opt:
            key, num, rest = opt.groups()
            if key != "e":
                raise ParseError(f"unknown carlitz option {key!r}")
            e = int(num)
        if rest.strip():
            raise ParseError(f"unexpected text after carlitz: {rest.strip()!r}")
        return carlitz_power(spec, e, var)
    if keyword == "drinfeld":
        return drinfeld(spec, parse_poly(spec, rest, var))
    dim = None
    opt = _OPT_RE.match(rest)
    if opt:
        key, num, rest = opt.groups()
        if key != "dim":
            raise ParseError(f"unknown tmodule option {key!r}")
        dim = int(num)
    value = parse_value(spec, rest, var)
    mod = tmodule(spec, value)
    if dim is not None and mod.dim != dim:
        raise ParseError(f"module is {mod.dim}-dimensional, expected {dim}")
    return mod


def _outcome(fn, *args):
    """fn(*args), or the class and text of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal is the outcome
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# The alphabets.  \u0663 and \u0662 are Arabic-Indic digits (\d, not
# [0-9]); \u00b2 is a superscript two (a word character but no \d); \u00a0,
# \u2003 and \x1c are Unicode whitespace; \u00e9 a non-ASCII letter.

_WS = st.sampled_from(["", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c"])


def _texts(*texts):
    return st.sampled_from(texts)


@st.composite
def _at_most_one_fault(draw, *parts):
    """One text per part joined, each part a (good, bad) pair of strategies
    and at most one part drawn from its bad one."""
    fault = draw(st.one_of(st.none(), st.integers(0, len(parts) - 1)))
    return "".join(draw(part[i == fault]) for i, part in enumerate(parts))


_SPACE = (_WS, _WS)
_G_POLY = (
    _texts("g^2+1", "g^2 + g + 2", "1+g^2", "g^2\n+1", "g^2+1\n", "2",
           "2*g+1", "g", "g^5", "\u0663*g^\u0662+1", "-g^2-1", "+g^2+1",
           "g^3+2*g+1", "g^2+g+1", "g^2+0*g+1"),
    _texts("g^2+\t1", "g\n^2+1", "g^2++1", "g^2+-1", "g^2-+1", "g^2+", "-",
           "", " ", "g2+1", "2g+1", "2**g", "g^", "*g", "g^2\n\n", "g^x",
           "gg", "g^2=1", "1,g", "g^\u00b2", "x"))
_GENS = (
    st.lists(_texts("a", "b", "th", "a1", "a_b", " a ", "c"), min_size=1,
             max_size=3).map(",".join),
    st.lists(_texts("t", "g", "_a", "A", "1a", "\u00e9", "", "tau", "sig",
                    "b c", "a", "a"), min_size=1, max_size=3).map(",".join))
_OPTION = st.one_of(
    _at_most_one_fault((_texts(";mod", "; theta", ";  mod "),
                        _texts(";thet", ";mod\n", ";Mod", "mod")),
                       (_texts("=", " = "), _texts("", "==")), _G_POLY),
    _at_most_one_fault((_texts(";gens", ";inv"), _texts("; gens", ";gen")),
                       (_texts("="), _texts(" =\t", "")), _GENS))
_HEADERS = _at_most_one_fault(
    _SPACE,
    (_texts("GF", "FTF"), _texts("gf", "GF_", "GFx", "", "GF\u00e9")),
    _SPACE, (_texts("("), _texts("", "((")), _SPACE,
    (_texts("2", "3", "5", "02", "7"),
     _texts("\u0663", "3\u0663", "3x", "3_", "3\u00b2", "", "3 3", "-3",
            "0", "4")),
    (_texts("", "^2", " ^ 3", "^\t2\n"),
     _texts("^\u0662", "^", "^2x", "^0", "^2^2", "^-2", "^ 2\u00b2")),
    _SPACE,
    (st.lists(_OPTION, max_size=3).map("".join), _texts(";", "; ;", ";x")),
    (_texts(")"), _texts("", "))", "(;)", "; (mod=g)")), _SPACE,
    (_texts("", "(th)", "( th\n)", "(\u00a0th)"),
     _texts("(thx)", "(th", "x", "(th)(th)", "th", "()")),
    _SPACE)
# Loose fragments, for texts that no template above makes.
_FRAGMENTS = st.lists(st.sampled_from(
    ["GF", "FTF", "(", ")", "^", ";", "=", ",", "mod", "theta", "gens", "inv",
     "g", "th", "a", "+", "*", "2", "3", "\u0663", "\u00b2", " ", "\n",
     "\u2003", "\u00e9", "$", "_"]), max_size=14).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_HEADERS, _FRAGMENTS))
@example("GF(3^2; mod=g^2+1\n)")
@example("GF(3^2; mod=g^2\n+1)")
@example("GF(3^2; mod=g\n^2+1)")
@example("GF(3; theta=\u0663)")
@example("FTF(3; gens=a,b,th; inv=a)")
@example("GF(3^2)(th)\n")
@example("GF(\u0663)")
@example("GF(3^\u0662)")
@example("GF(3)th")
@example("GF(3)(th)x")
@example("GF(3; mod=(g))")
@example("GF(3; theta=g^\u00b2)")
def test_parse_field_matches_the_regex_front_end(text):
    assert _outcome(parse_field, text) == _outcome(_old_parse_field, text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="07th_xZ+-*/^(),;[]= \t\n\u00a0\u2003\x1c$.'\u0663"
                        "\u0662\u00e9\u00b2", max_size=20))
@example("1 + tau^\u00b2")
def test_tokens_match_the_regex_tokenizer(text):
    assert _outcome(skewpoly._tokenize, text) == _outcome(_old_tokenize, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(*_G_POLY, st.text(alphabet="g^*+-23 \n\t\u0663\u00b2x",
                                   max_size=8)))
def test_polynomials_in_g_match_the_regex(text):
    """_parse_g_poly reads the nonzero terms only; densified, they are the
    old coefficient tuple."""
    def dense(text, p):
        terms = coefficients._parse_g_poly(text, p)
        top = max(terms, default=-1)
        return tuple(terms.get(e, 0) for e in range(top + 1))

    assert _outcome(dense, text, 3) == _outcome(_old_parse_g_poly, text, 3)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="azAZ09_\n \u00e9\u0663\u00b2", max_size=5))
@example("a\n")
@example("a\n\n")
@example("_a")
@example("a_\u0663")
def test_generator_names_match_the_regex(name):
    """make_formal reads its names without strip, so the final newline a
    regular expression's $ allows reaches the name check too."""
    assert _outcome(make_formal, 3, 1, (name,)) == \
        _outcome(_old_formal, 3, 1, (name,), (), None)


# ---------------------------------------------------------------------------
# Module descriptions.

F3 = make_finite(3)

_MODULE_TEXTS = _at_most_one_fault(
    _SPACE,
    (_texts("drinfeld", "tmodule", "carlitz", ""),
     _texts("drinfeld\u00e9", "tmodule2", "carlitz_", "Carlitz",
            "carlitz\u0663", "carlitz\u00b2", "tmodules")),
    _SPACE,
    (_texts("", "e=1", "e = 2", "dim=1", "dim=2", "dim\t=\n1", "e=02"),
     _texts("dim=2x", "e=1x", "e=\u0663", "e=1\u0663", "e=1\u00b2", "e=1_",
            "d=2", "E=1", "e1=2", "\u00e9=1", "e=", "=1", "e==1", "e=1;",
            "e=-1", "dim=3")),
    _SPACE,
    (_texts("", "1 + tau^2", "1 + tau", "[[1 + tau]]",
            "[[1, 0], [tau, 1 + tau]]", "[[1, tau], [0, 1]]"),
     _texts("tau", "x", "1;", "$", "[[1, 0]]", "g + tau")),
    _SPACE)
_MODULE_FRAGMENTS = st.lists(st.sampled_from(
    ["drinfeld", "tmodule", "carlitz", " ", "\t", "\n", "\u00a0", "e", "dim",
     "=", "1", "2", "\u0663", "\u00b2", "x", "_", "\u00e9", "tau", "+", "^",
     "*", ";", ",", "[", "]", "$"]), max_size=10).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_MODULE_TEXTS, _MODULE_FRAGMENTS))
@example("carlitz e=1x")
@example("tmodule dim=2x 1 + tau")
@example("drinfeld\u00e9 1 + tau")
@example("\u2003carlitz\ne\u00a0=\u00a02\n")
@example("carlitz e=1_")
@example("carlitz e=1\u00b2")
@example("carlitz e=1\u0663")
@example("carlitz e=\u0663")
@example("carlitz E=1")
@example("carlitz e1=2")
@example("carlitz \u00e9=1")
@example("carlitz\u00b2")
@example("carlitz_ e=1")
@example("1 + tau^\u00b2")
def test_parse_module_matches_the_regex_front_end(text):
    assert _outcome(parse_module, F3, text) == \
        _outcome(_old_parse_module, F3, text)


# ---------------------------------------------------------------------------
# The literal-length refusal, with the limit lowered to 3 so that short
# texts reach it.


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="129\u0663\u00b2a_ \n", max_size=12))
@example("1234")
@example("12\u06634")
@example("12\u00b234")
def test_literal_refusal_matches_the_regex(text):
    with mock.patch.object(_scan, "MAX_LITERAL_DIGITS", 3):
        assert _outcome(_scan._check_literals, text) == \
            _outcome(_old_check_literals, text, 3)


def test_a_long_literal_is_refused_before_any_other_error():
    long = "\u0663" * 4301
    message = ("an integer literal has more than MAX_LITERAL_DIGITS = 4300 "
               "digits")
    for fn, text in [(parse_field, f"nonsense $ GF({long})"),
                     (lambda t: parse_module(F3, t), f"carlitz e=x{long}"),
                     (lambda t: parse_poly(F3, t), f"$ + x{long}")]:
        assert _outcome(fn, text) == (ParseError, message)
    assert _outcome(parse_field, "GF(3)" + " " * 4301) == parse_field("GF(3)")
