"""Tests for the group operations on extension classes and the six-term
sequence of a short exact sequence."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tmodext import biderivations, ext_structures, homological
from tmodext import (
    Biderivation,
    Inconclusive,
    NotAMorphism,
    NotSplit,
    ParseError,
    SkewMatrix,
    SkewPoly,
    SplitWitness,
    TModule,
    UnboundedSearch,
    baer_sum,
    carlitz,
    class_of,
    drinfeld,
    ext_structure,
    hom_space,
    inner_matrix,
    is_split,
    parse_apoly,
    parse_field,
    parse_matrix,
    parse_poly,
    pullback,
    pushout,
    six_term,
    t_action,
)
from tmodext.oracle import random_biderivation, random_matrix

Q3 = parse_field("GF(3)(th)")
F4 = parse_field("GF(2^2)")
F9 = parse_field("GF(3^2)")


def _drin(spec, text):
    return drinfeld(spec, parse_poly(spec, text))


def _pair_f9():
    return _drin(F9, "g + tau^3"), _drin(F9, "g + tau^2")


# ---------------------------------------------------------------------------
# The Baer sum makes the classes an abelian group.


def test_baer_group_laws():
    src = _drin(F4, "g + tau^2")
    tgt = _drin(F4, "g + tau")
    rng = random.Random(11)
    zero = Biderivation(src, tgt, SkewMatrix.zeros(F4, "tau", 1, 1))
    for _ in range(40):
        d1 = random_biderivation(src, tgt, rng)
        d2 = random_biderivation(src, tgt, rng)
        d3 = random_biderivation(src, tgt, rng)
        assert class_of(baer_sum(d1, d2)) == class_of(baer_sum(d2, d1))
        assert class_of(baer_sum(baer_sum(d1, d2), d3)) \
            == class_of(baer_sum(d1, baer_sum(d2, d3)))
        assert class_of(baer_sum(d1, zero)) == class_of(d1)
        neg = Biderivation(src, tgt, -d1.matrix)
        assert class_of(baer_sum(d1, neg)) == class_of(zero)


def test_t_action_distributes_over_baer_sum():
    src, tgt = _pair_f9()
    rng = random.Random(12)
    a = parse_apoly(F9, "t^2 + t")
    for _ in range(25):
        d1 = random_biderivation(src, tgt, rng)
        d2 = random_biderivation(src, tgt, rng)
        lhs = class_of(t_action(a, baer_sum(d1, d2)))
        rhs = class_of(baer_sum(t_action(a, d1), t_action(a, d2)))
        assert lhs == rhs


def test_t_action_is_polynomial_in_the_structure_matrix():
    # acting by a polynomial a(t) on a class equals evaluating the matrix
    # a(Pi_t) on its coordinates
    src, tgt = _pair_f9()
    S = ext_structure(src, tgt)
    rng = random.Random(13)
    for text in ("t", "t^2", "t + 1", "t^3 + t"):
        a = parse_apoly(F9, text)
        pi_a = SkewMatrix.zeros(F9, "tau", S.rank, S.rank)
        power = SkewMatrix.identity(F9, "tau", S.rank)
        for c in a:
            scalar = SkewPoly.term(F9, "tau", c, 0)
            pi_a = pi_a + power.map_entries(lambda p: scalar * p)
            power = S.pi * power
        for _ in range(25):
            d = random_biderivation(src, tgt, rng)
            acted = class_of(t_action(a, d))
            expected = pi_a.eval_linear(S.coords_of(class_of(d)))
            assert list(S.coords_of(acted)) == list(expected)


# ---------------------------------------------------------------------------
# The memo of reduction plans and a(t)-actions.


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_memo_builds_once_per_pair_and_action(monkeypatch):
    monkeypatch.setattr(biderivations, "_memo", {})
    regimes = _counting(monkeypatch, biderivations, "select_regime")
    actions = _counting(monkeypatch, TModule, "act")
    checks = _counting(monkeypatch, biderivations, "_recombines")
    pairs = (_pair_f9(), (_drin(F9, "g + tau^4"), _drin(F9, "g + tau")))
    apolys = (parse_apoly(F9, "t^2 + t"), parse_apoly(F9, "t"))
    rng = random.Random(16)
    rounds = 6
    for _ in range(rounds):
        for src, tgt in pairs:
            d1 = random_biderivation(src, tgt, rng)
            d2 = random_biderivation(src, tgt, rng)
            summed = baer_sum(d1, d2)
            for a in apolys:
                t_action(a, summed)
            class_of(d1)
            is_split(d2)
    assert len(regimes) == len(pairs)
    assert len(actions) == len(pairs) * len(apolys)
    # the self-check still runs on every reduction
    assert len(checks) == rounds * len(pairs) * (3 + len(apolys))


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(biderivations, "_memo", {})
    a = parse_apoly(F9, "t")
    for i in range(biderivations.MAX_MEMO + 10):
        src, tgt = _drin(F9, f"g + tau^{3 + i % 3}"), _drin(F9, "g + tau^2")
        t_action(a, Biderivation(src, tgt, parse_matrix(F9, "[[tau^5]]")))
        assert len(biderivations._memo) <= biderivations.MAX_MEMO


def test_memo_matches_a_cleared_memo_as_pairs_come_and_go(monkeypatch):
    # each round builds its modules afresh, shared between pairs, and drops
    # them at its end, so later rounds may get their ids back
    pairs = (("g + tau^4", "g + tau^2"), ("g + tau^4", "g + tau^3"),
             ("g + tau^2", "g + tau^4"))
    rng = random.Random(17)
    texts = [[str(random_matrix(F9, "tau", rng, 1, 1, 6)) for _ in pairs]
             for _ in range(10)]

    def reduced(cleared):
        out = []
        for row in texts:
            mods = {t: _drin(F9, t) for t in ("g + tau^2", "g + tau^3",
                                              "g + tau^4")}
            for (phi, psi), text in zip(pairs, row):
                if cleared:
                    biderivations._memo.clear()
                delta = Biderivation(mods[phi], mods[psi],
                                     parse_matrix(F9, text))
                result = biderivations.reduce_canonical(delta)
                split = is_split(delta)
                out.append((str(result.canonical.matrix),
                            str(result.witness), split.kind,
                            str(getattr(split, "witness", None))))
            del mods, delta
        return out

    monkeypatch.setattr(biderivations, "_memo", {})
    assert reduced(False) == reduced(True)


def test_memo_hit_needs_the_same_objects(monkeypatch):
    # an entry whose key ids name other objects, as a recycled id would,
    # is rebuilt rather than served
    monkeypatch.setattr(biderivations, "_memo", {})
    src, tgt = _pair_f9()
    other = biderivations.reduction_plan(tgt, src)
    biderivations._memo[(id(src), id(tgt), None)] = tgt, src, other
    plan = biderivations.reduction_plan(src, tgt)
    assert plan is not other and plan.regime == "drinfeld-forward"


def test_unfixed_coefficient_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(biderivations, "_memo", {})
    src, tgt = _pair_f9()
    delta = Biderivation(src, tgt, parse_matrix(F9, "[[tau]]"))
    a = (F9.gen(),)
    for _ in range(3):
        with pytest.raises(ParseError, match="not fixed by the twist"):
            t_action(a, delta)


# ---------------------------------------------------------------------------
# Pullbacks and pushouts.


def test_pullback_and_pushout_require_morphisms():
    src, tgt = _pair_f9()
    rng = random.Random(14)
    d = random_biderivation(src, tgt, rng)
    bad = parse_matrix(F9, "[[tau]]")
    with pytest.raises(NotAMorphism):
        pullback(d, bad, src)
    with pytest.raises(NotAMorphism):
        pushout(d, bad, tgt)


def test_pullback_pushout_t_action_agree():
    src, tgt = _pair_f9()
    rng = random.Random(15)
    a = parse_apoly(F9, "t")
    for _ in range(25):
        d = random_biderivation(src, tgt, rng)
        acted = class_of(t_action(a, d))
        pulled = class_of(pullback(d, src.t_matrix, src))
        pushed = class_of(pushout(d, tgt.t_matrix, tgt))
        assert acted == pulled == pushed


def test_pullback_along_independent_morphism():
    # pulling back along multiplication by phi_t^2 equals acting by t^2
    src, tgt = _pair_f9()
    rng = random.Random(16)
    d = random_biderivation(src, tgt, rng)
    sq = src.t_matrix * src.t_matrix
    assert class_of(pullback(d, sq, src)) \
        == class_of(t_action(parse_apoly(F9, "t^2"), d))


# ---------------------------------------------------------------------------
# The elimination mod p behind the bounded split and Hom searches, checked
# against brute force on its own.


@st.composite
def _fp_systems(draw):
    """p, columns as dense lists over F_p, and a right-hand side."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars, ncoords = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(0, p - 1)
    columns = [[draw(entry) for _ in range(ncoords)] for _ in range(nvars)]
    return p, columns, [draw(entry) for _ in range(ncoords)]


def _sparse(vec):
    return {r: v for r, v in enumerate(vec) if v}


@settings(max_examples=80, deadline=None)
@given(_fp_systems())
def test_fp_elimination_agrees_with_brute_force(system):
    p, columns, rhs = system
    zero = [0] * len(rhs)

    def image(combo):
        return [sum(x * columns[k][r] for k, x in combo.items()) % p
                for r in range(len(rhs))]

    kernel, solution = homological._fp_eliminate(
        [_sparse(c) for c in columns], p, _sparse(rhs))
    assert all(image(vec) == zero for vec in kernel)
    # independent: only the trivial combination of kernel vectors vanishes
    for coeffs in itertools.product(range(p), repeat=len(kernel)):
        combo = {}
        for a, vec in zip(coeffs, kernel):
            for k, x in vec.items():
                combo[k] = (combo.get(k, 0) + a * x) % p
        assert any(combo.values()) == any(coeffs)
    images = [image(dict(enumerate(x)))
              for x in itertools.product(range(p), repeat=len(columns))]
    assert p ** len(kernel) == images.count(zero)
    assert (solution is not None) == (rhs in images)
    if solution is not None:
        assert image(solution) == rhs


# ---------------------------------------------------------------------------
# Splitness.


def test_inner_class_splits_with_witness():
    src, tgt = _pair_f9()
    U = parse_matrix(F9, "[[g + tau]]")
    d = Biderivation(src, tgt, inner_matrix(src, tgt, U))
    res = is_split(d)
    assert isinstance(res, SplitWitness)
    assert res.kind == "split"
    assert inner_matrix(src, tgt, res.witness) == d.matrix


def test_nonzero_canonical_form_certifies_not_split():
    src, tgt = _pair_f9()
    d = Biderivation(src, tgt, parse_matrix(F9, "[[tau]]"))
    res = is_split(d)
    assert isinstance(res, NotSplit)
    assert res.kind == "not-split"
    assert str(res.canonical.matrix) == "[[tau]]"
    assert "nonzero canonical form" in res.reason


def test_equal_rank_split_search():
    mod = _drin(F9, "g + tau^2")
    U = parse_matrix(F9, "[[g]]")
    d = Biderivation(mod, mod, inner_matrix(mod, mod, U))
    res = is_split(d, bound=2)
    assert isinstance(res, SplitWitness)
    assert inner_matrix(mod, mod, res.witness) == d.matrix
    hard = Biderivation(mod, mod, parse_matrix(F9, "[[1]]"))
    res2 = is_split(hard, bound=1)
    assert isinstance(res2, Inconclusive)
    assert res2.kind == "inconclusive"
    assert res2.bound == 1


def test_negative_bound_searches_nothing():
    # no unknowns at all: the zero class still splits with the zero witness,
    # a nonzero one stays inconclusive
    mod = _drin(F9, "g + tau^2")
    zero = Biderivation(mod, mod, parse_matrix(F9, "[[0]]"))
    res = is_split(zero, bound=-1)
    assert isinstance(res, SplitWitness)
    assert res.witness == SkewMatrix.zeros(F9, mod.var, 1, 1)
    res = is_split(Biderivation(mod, mod, parse_matrix(F9, "[[1]]")),
                   bound=-1)
    assert isinstance(res, Inconclusive) and res.bound == -1
    assert hom_space(mod, mod, bound=-1).basis == ()


def test_missing_qth_root_blocks_splitting():
    # over GF(3)(th) the reversed reduction must extract q-th roots; theta
    # is not a q^2-th power, so the forced witness does not exist
    src = _drin(Q3, "th + tau")
    tgt = _drin(Q3, "th + tau^2")
    d = Biderivation(src, tgt, parse_matrix(Q3, "[[th*tau^2]]"))
    res = is_split(d)
    assert isinstance(res, NotSplit)
    assert res.canonical is None
    assert "no q-th root" in res.reason


# ---------------------------------------------------------------------------
# Hom spaces.


def test_rank_mismatch_certifies_zero_hom():
    r3 = _drin(Q3, "th + tau^3")
    r2 = _drin(Q3, "th + tau^2")
    for pair in ((r3, r2), (r2, r3)):
        h = hom_space(*pair)
        assert h.complete and h.basis == () and h.fp_dimension == 0


def test_unbounded_hom_search_over_infinite_domain():
    a = _drin(Q3, "th + tau^2")
    b = _drin(Q3, "th + 2*tau^2")
    with pytest.raises(UnboundedSearch):
        hom_space(a, b)


def test_carlitz_endomorphisms_over_f4():
    C = carlitz(F4)
    end = hom_space(C, C, bound=2)
    assert end.fp_dimension == 3
    assert [str(b) for b in end.basis] == ["[[1]]", "[[g + tau]]", "[[tau^2]]"]
    # the span contains the powers of the t-action: phi_t is the second
    # basis vector and phi_t^2 = 1 + phi_t + tau^2 over this field
    t1 = C.t_matrix
    assert end.basis[1] == t1
    assert t1 * t1 == end.basis[0] + end.basis[1] + end.basis[2]


# ---------------------------------------------------------------------------
# The six-term sequence.


def _paper_bundle(delta_text, spec=Q3):
    sub = _drin(spec, "th + tau^3")
    quot = _drin(spec, "th + tau^2")
    d = Biderivation(quot, sub, parse_matrix(spec, delta_text))
    return six_term(d, carlitz(spec))


def test_six_term_middle_and_omega():
    st = _paper_bundle("[[1 + tau]]")
    assert str(st.middle.t_matrix) == (
        "[[th + tau^2, 0],\n [1 + tau, th + tau^3]]")
    S = st.omega_structure()
    assert S.regime == "triangular-source"
    assert S.basis == ((0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 0, 0), (0, 0, 1))
    assert str(S.pi) == (
        "[[th, 0, 0, 0, 0],\n"
        " [tau, th, tau^2, 0, 0],\n"
        " [0, tau, th, 0, 0],\n"
        " [0, 0, 2*tau, th, 0],\n"
        " [0, 0, 2*tau, tau, th + tau^2]]")
    assert str(st.delta_block()) == "[[0, 0, 2*tau],\n [0, 0, 2*tau]]"


def test_six_term_connecting_block_second_delta():
    st = _paper_bundle("[[1 + tau^3]]")
    assert str(st.delta_block()) == (
        "[[0, 0, 2*tau],\n [0, 0, (2*th + th^3)*tau + 2*tau^3]]")


def test_connecting_block_value_forced_by_reduction():
    # consistency check of the lower-right connecting entry of the second
    # bundle: reduce t * (z * third basis class) through class_of, the
    # concrete reducer, for z whose Frobenius orbit separates the
    # candidates.  It shares the concrete reducer with the engine, so it is
    # not the independent check; that is
    # test_connecting_block_certified_without_reduction below.
    st = _paper_bundle("[[1 + tau^3]]")
    S = st.omega_structure()
    X, C = st.middle, st.partner
    theta = Q3.theta()
    for z in (theta, theta * theta + Q3.one()):
        coords = [Q3.zero()] * 5
        coords[2] = z
        via_structure = S.act_coords(tuple(coords))
        direct = class_of(Biderivation(
            X, C, C.t_matrix * S.from_coords(tuple(coords)).matrix))
        assert list(S.coords_of(direct)) == list(via_structure)
        # the engine's entry evaluates z -> (th^3 - th) z^(1) - z^(3);
        # the alternative (th - th^3) z^(1) + z^(4) does not match
        engine = (theta.twist(1) - theta) * z.twist(1) - z.twist(3)
        alternative = (theta - theta.twist(1)) * z.twist(1) + z.twist(4)
        assert via_structure[4] == engine
        assert via_structure[4] != alternative


# Both bundles over a formal twist field, where z[0] is a formal coordinate:
# an identity there holds for every z.
FZ = parse_field("FTF(3; gens=z,th)")
BUNDLES = ("[[1 + tau]]", "[[1 + tau^3]]")
# The lower-right connecting entry once recorded in acceptance criterion 3.
RECORDED_ENTRY = "(th + 2*th^3)*tau + tau^4"


class _ReducerCalled(Exception):
    pass


def _bundle_structure(spec, delta_text):
    st = _paper_bundle(delta_text, spec)
    return st.middle, st.partner, st.omega_structure()


def _witnesses(spec, z, second):
    """The hand-derived U_j for the basis columns j = 0..4 at coordinate z:
    U_2 = [0, z^(1)] for the first bundle and [-z^(2) - z^(1)*tau, z^(1)]
    for the second, U_4 = [z^(1), 0], and U_j = 0 otherwise."""
    def row(u1, u2):
        return SkewMatrix.from_rows(spec, "tau", [[u1, u2]])

    def term(c, deg=0):
        return SkewPoly.term(spec, "tau", c, deg)

    zero = SkewPoly.zero(spec, "tau")
    z1 = z.twist(1)
    u1 = term(-z.twist(2)) - term(z1, 1) if second else zero
    return [row(zero, zero), row(zero, zero), row(u1, term(z1)),
            row(zero, zero), row(term(z1), zero)]


def _coords(S, j, z):
    coords = [S.spec.zero()] * S.rank
    coords[j] = z
    return tuple(coords)


def _residual(X, C, S, j, z, U):
    """C_t*from_coords(z e_j) - from_coords(Pi_t applied to z e_j)
    - delta^(U): zero exactly when U certifies column j of S.pi at z."""
    coords = _coords(S, j, z)
    pushed = C.t_matrix * S.from_coords(coords).matrix
    image = S.from_coords(S.act_coords(coords)).matrix
    return pushed - image - inner_matrix(X, C, U)


def _in_canonical_slots(S, mat):
    return all((r, c, deg) in S.basis
               for r in range(mat.nrows) for c in range(mat.ncols)
               for deg, _ in mat.entry(r, c).coeffs)


def test_connecting_block_certified_without_reduction(monkeypatch):
    # Reducer-free certificate for Pi_t on Ext(X, C), X the middle module of
    # a bundle and C = th + tau.  t acts on a class by pushing out along C_t,
    # so column j of Pi_t is right at z when
    #   C_t*from_coords(z e_j) - from_coords(Pi_t(z e_j)) = delta^(U_j)
    # for some U_j, with delta^(U) = U*X_t - C_t*U (inner_matrix).
    #
    # Lemma: a nonzero delta^(U), U = [u1, u2], never lies in the canonical
    # slots (column 1 of degree <= 2, column 0 of degree <= 1).  Column 1
    # is u2*(th + tau^3) - (th + tau)*u2, of degree deg u2 + 3 when
    # u2 != 0; when u2 = 0, column 0 is u1*(th + tau^2) - (th + tau)*u1, of
    # degree deg u1 + 2 when u1 != 0.  So a class has one representative in
    # the slots, and the witnesses pin Pi_t down column by column; for the
    # second bundle Pi_t[4][2] is z -> (th^(1) - th) z^(1) - z^(3).
    theta = Q3.theta()
    cases = ((Q3, (theta, theta * theta + Q3.one())),
             (FZ, (FZ.symbol("z", 0),)))
    built = {(spec.header(), text): _bundle_structure(spec, text)
             for spec, _ in cases for text in BUNDLES}

    def no_reduction(*args, **kwargs):
        raise _ReducerCalled

    for module in (biderivations, ext_structures, homological):
        monkeypatch.setattr(module, "reduce_canonical", no_reduction)
    for name in ("_reduce_layered", "_reduce_entrywise"):
        monkeypatch.setattr(biderivations, name, no_reduction)
    X, C, S = built[(Q3.header(), BUNDLES[0])]
    with pytest.raises(_ReducerCalled):
        class_of(S.basis_delta(0))

    for spec, zs in cases:
        for second, text in enumerate(BUNDLES):
            X, C, S = built[(spec.header(), text)]
            for z in zs:
                for j, U in enumerate(_witnesses(spec, z, second)):
                    assert _residual(X, C, S, j, z, U).is_zero(), \
                        (spec.header(), text, j, str(z))
    assert built[(FZ.header(), BUNDLES[1])][2].pi.entry(4, 2) == \
        parse_poly(FZ, "(th[1] - th)*tau + 2*tau^3")

    # The recorded entry fails at column 2: its residual is the difference
    # of the certified and recorded representatives, which is nonzero and
    # lies in the canonical slots, so by the lemma no witness closes it.
    X, C, S = built[(Q3.header(), BUNDLES[1])]
    recorded = dataclasses.replace(
        S, pi=S.pi.with_entry(4, 2, parse_poly(Q3, RECORDED_ENTRY)))
    for z in cases[0][1]:
        U = _witnesses(Q3, z, True)[2]
        coords = _coords(S, 2, z)
        certified_rep = S.from_coords(S.act_coords(coords)).matrix
        recorded_rep = recorded.from_coords(recorded.act_coords(coords))
        gap = certified_rep - recorded_rep.matrix
        assert not gap.is_zero()
        assert _in_canonical_slots(S, gap)
        assert _residual(X, C, recorded, 2, z, U) == gap


def _all_zero(matrix):
    return all(matrix.entry(i, j).is_zero()
               for i in range(matrix.nrows) for j in range(matrix.ncols))


def test_six_term_node_identities():
    st = _paper_bundle("[[1 + tau]]")
    # the structure maps compose to zero
    assert _all_zero(st.projection * st.inclusion)
    # the zero morphism connects to the zero class
    g = parse_matrix(Q3, "[[0]]")
    assert _all_zero(st.contra_connect(g).matrix)


def test_six_term_contra_connect_then_middle_is_inner():
    # image of the connecting map dies at the middle node
    sub = _drin(F9, "g + tau^2")
    quot = _drin(F9, "g + tau^3")
    d = Biderivation(quot, sub, parse_matrix(F9, "[[1]]"))
    st = six_term(d, carlitz(F9))
    h = hom_space(st.sub, st.partner, bound=3)
    for g in h.basis:
        xi = st.contra_connect(g)
        through = st.contra_ext_middle(xi)
        assert _all_zero(through.matrix)
