"""Module shape facts read by regime selection, the Hom certificate and
plan building: each pair's regime label or refusal, the certificate's
verdict and the invertible-leading flag, over the three domain kinds."""

import hashlib
import sys
import time

import pytest

import tmodext.modules_t as modules_t
from tmodext import (
    Biderivation,
    InvariantViolation,
    SingularLeading,
    TmodError,
    ext_structure,
    parse_field,
    parse_matrix,
    parse_module,
    reduce_canonical,
    select_regime,
)
from tmodext.biderivations import CARLITZ_TARGET, MATRIX_SOURCE
from tmodext.homological import _rank_certificate

# (header, theta, a coefficient); over the formal domain 1 + a is not a
# unit, so "{T} + (1 + {C})*tau^4" has no leading inverse there.
DOMAINS = [("GF(3)(th)", "th", "th"), ("GF(3^2)", "g", "g"),
           ("FTF(3; gens=a,th; inv=a)", "th", "a")]
MODULES = [
    "{T} + tau", "{T} + tau^2", "{T} + {C}*tau^3", "{T} + (1 + {C})*tau^4",
    "[[{T} + tau^2, 0], [tau, {T} + tau^3]]",   # triangular stack
    "[[{T} + tau^3, 0], [0, {T} + tau^4]]",     # diagonal stack
    "[[{T} + tau, 0], [0, {T} + tau^2]]",
    "[[{T} + tau^2, tau], [0, {T} + tau^3]]",   # upper triangular
    "[[{T}, 1], [0, {T}]] + [[1, 0], [0, 1]]*tau^2",
    "[[{T} + tau^2, 0], [tau, {T} + tau]]",     # singular leading matrix
    "[[{T} + tau^2, 0], [tau, {T}]]",           # a diagonal rank of zero
    "[[{T} + 1 + tau, 1], [2, {T} + 2 + tau^2]]",
    "carlitz e=2", "carlitz e=3", "[[{T}, 0], [0, {T}]]", "{T}",
]
# The digest of the table below, taken before the shape facts moved onto
# the module; 768 pairs.
PAIR_TABLE_SHA256 = \
    "728e055843d8a7cda88798e7a05991e9313ff413216b7dcb0e3d3ad60bf2b2e0"


def _verdict(source, target):
    try:
        return select_regime(source, target)
    except TmodError as exc:
        return f"{type(exc).__name__}: {exc}"


def _pair_table():
    rows = []
    for header, theta, coeff in DOMAINS:
        spec = parse_field(header)
        mods = [parse_module(spec, m.format(T=theta, C=coeff))
                for m in MODULES]
        for i, s in enumerate(mods):
            for j, t in enumerate(mods):
                rows.append(f"{header} {i} {j} {_verdict(s, t)} | "
                            f"{_rank_certificate(s, t)} | "
                            f"{s.has_invertible_leading()}")
    return "\n".join(rows)


def test_pair_table_is_unchanged():
    table = _pair_table()
    assert table.count("\n") + 1 == 3 * len(MODULES) ** 2
    assert hashlib.sha256(table.encode()).hexdigest() == PAIR_TABLE_SHA256


_SOURCE_MUST = ("UnsupportedRegime: the source must have an invertible "
                "leading matrix of rank above the target's, or be lower "
                "triangular with diagonal ranks above the target's")


# (source, target, regime label or refusal, certificate, invertible
# leading) over GF(3^2): each label and each refusal once.
@pytest.mark.parametrize("source, target, verdict, certified, leading", [
    ("g + tau^3", "g + tau^2", "drinfeld-forward", True, True),
    ("g + tau", "g + tau^2", "drinfeld-reversed", True, True),
    ("[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^2", "g + tau",
     "matrix-source", False, True),
    ("[[g + tau^3, 0], [tau, g + tau^2]]", "g + tau", "triangular-source",
     True, False),
    ("g + tau^3", "carlitz e=2", "carlitz-target", False, True),
    ("g + tau", "[[g + tau^2, 0], [tau, g + tau^3]]",
     "triangular-target-reversed", True, True),
    ("[[g + tau^3, 0], [0, g + tau^4]]", "[[g + tau, 0], [0, g + tau^2]]",
     "diagonal-pairs", False, False),
    ("g + tau^2", "g + tau^2",
     "UnsupportedRegime: equal-rank pairs have no unique canonical form "
     "here; use the split test or a bounded search instead", False, True),
    ("g", "g + tau", "UnsupportedRegime: dimension-one reduction needs "
     "Drinfeld modules on both sides", False, False),
    ("[[g + tau^2, tau], [0, g + tau^3]]", "g + tau", _SOURCE_MUST, False,
     False),
    ("[[g + tau^2, 0], [tau, g + tau^3]]", "g + tau^2", _SOURCE_MUST, False,
     False),
    ("g + tau", "carlitz e=2", "UnsupportedRegime: reduction into a Carlitz "
     "tensor power needs a source of rank at least 2 with invertible "
     "leading matrix", False, True),
    ("g + tau^3", "[[g + tau^2, 0], [tau, g + tau^3]]",
     "UnsupportedRegime: a higher-dimensional target must be lower "
     "triangular with diagonal ranks above the source's rank", False, True),
    ("[[g + tau^3, 0], [0, g + tau^4]]", "[[g + tau^3, 0], [0, g + tau]]",
     "UnsupportedRegime: diagonal pairs need every source rank different "
     "from every target rank", False, False),
    ("[[g, 0], [0, g]]", "[[g, 0], [0, g]]",
     "UnsupportedRegime: no reduction strategy for a 2-dimensional source "
     "of rank 0 and a 2-dimensional target of rank 0", False, False),
])
def test_each_label_and_refusal(source, target, verdict, certified,
                                leading):
    spec = parse_field("GF(3^2)")
    src, tgt = parse_module(spec, source), parse_module(spec, target)
    assert _verdict(src, tgt) == verdict
    assert _rank_certificate(src, tgt) is certified
    assert src.has_invertible_leading() is leading


def test_leading_matrix_is_inverted_at_most_once_per_module(monkeypatch):
    """Regime selection, plan building, the flag and Ext all read one
    inverse per module object."""
    calls = []
    real = modules_t.const_inverse

    def counted(grid):
        calls.append(grid)
        return real(grid)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tmodext") and \
                vars(mod).get("const_inverse") is real:
            monkeypatch.setattr(mod, "const_inverse", counted)
    spec = parse_field("GF(3^2)")
    for text, target, regime, delta in [
            ("[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^2", "g + tau",
             MATRIX_SOURCE, "[[g*tau^5, tau^4]]"),
            ("g + tau^3", "carlitz e=2", CARLITZ_TARGET,
             "[[g*tau^5], [tau^4]]")]:
        calls.clear()
        source = parse_module(spec, text)
        target = parse_module(spec, target)
        assert select_regime(source, target) == regime
        reduce_canonical(Biderivation(source, target,
                                      parse_matrix(spec, delta)))
        assert source.has_invertible_leading()
        ext_structure(source, target)
        assert len(calls) == 1


@pytest.mark.parametrize("header, text", [
    ("GF(3^2)", "[[g + tau^3, 0], [tau, g + tau^2]]"),
    ("FTF(3; gens=a,th; inv=a)", "th + (1 + a)*tau^3"),
])
@pytest.mark.parametrize("regime", [MATRIX_SOURCE, CARLITZ_TARGET])
def test_layered_plan_without_a_leading_inverse_is_singular(header, text,
                                                            regime):
    """A layered plan forced on a source whose leading matrix is singular,
    or over a formal domain has a pivot that is not a unit."""
    spec = parse_field(header)
    source = parse_module(spec, text)
    target = parse_module(spec, "th + tau" if spec.kind == "formal"
                          else "g + tau")
    assert source.leading_inverse is None
    delta = Biderivation.zero(source, target)
    with pytest.raises(SingularLeading, match="^matrix is singular$"):
        reduce_canonical(delta, regime)


def test_layered_plan_that_does_not_fit_the_pair_ends_at_once():
    """Layers raise the top degree when the target's rank is above the
    source's; the loop refuses the first layer that does not lower it."""
    spec = parse_field("GF(3^2)")
    delta = Biderivation(parse_module(spec, "g + tau^2"),
                         parse_module(spec, "g + tau^3"),
                         parse_matrix(spec, "[[tau^4]]"))
    start = time.perf_counter()
    with pytest.raises(InvariantViolation, match="top degree"):
        reduce_canonical(delta, MATRIX_SOURCE)
    assert time.perf_counter() - start < 1
