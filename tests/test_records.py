"""The package's records are immutable values: compared, hashed, copied,
pickled and shown by their fields.  Every record is a SlottedValue;
ExtStructure also keeps the face of a frozen dataclass, so
dataclasses.replace, fields and is_dataclass work on it, without a cold
import of tmodext loading dataclasses."""

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import threading

import pytest

import tmodext
from tmodext import (
    Biderivation,
    ExtStructure,
    FieldSpec,
    assemble,
    ext_structure,
    ga_sequence,
    hom_space,
    is_split,
    make_finite,
    make_formal,
    make_rational,
    parse_field,
    parse_matrix,
    parse_module,
    parse_poly,
    reduce_canonical,
    six_term,
    verify_structure,
)
from tmodext.biderivations import reduction_plan

F3 = make_finite(3)
PHI = parse_module(F3, "1 + tau^2")
PSI = parse_module(F3, "1 + tau")
DELTA = Biderivation(PHI, PSI, parse_matrix(F3, "[[tau^3 + 2]]"))
INNER = Biderivation(PHI, PSI, parse_matrix(F3, "[[tau^2 + 2*tau]]"))
S = ext_structure(PHI, PSI)

# The reprs below were printed by the dataclass records they replace.
_F3 = ("FieldSpec(kind='finite', p=3, m=1, modulus=(0, 1), theta_payload=1, "
       "generators=(), invertibles=frozenset())")
_PHI = f"TModule(spec={_F3}, t_matrix=[[1 + tau^2]])"
_PSI = f"TModule(spec={_F3}, t_matrix=[[1 + tau]])"
_MIDDLE = (f"TModule(spec={_F3}, "
           "t_matrix=[[1 + tau^2, 0],\n [2 + tau^3, 1 + tau]])")
_DELTA = f"Biderivation(source={_PHI}, target={_PSI}, matrix=[[2 + tau^3]])"
_CANONICAL = (f"Biderivation(source={_PHI}, target={_PSI}, "
              "matrix=[[2 + tau]])")
_S = (f"ExtStructure(source={_PHI}, target={_PSI}, "
      "regime='drinfeld-forward', basis=((0, 0, 0), (0, 0, 1)), "
      "pi=[[1, 0],\n [tau, 1 + tau^2]])")
_CHECKS = (
    "Check(name='constant-structure', passed=True, "
    "detail='pi is theta*I + nilpotent at degree zero')",
    "Check(name='action-samples', passed=True, "
    "detail='2 classes, 0 disagreements between pi and direct reduction')",
    "Check(name='inner-invariance', passed=True, "
    "detail='2 inner shifts, 0 coordinate changes')")

# record name -> (a builder of one value, the value's repr)
RECORDS = {
    "FieldSpec": (lambda: make_finite(3), _F3),
    "FieldSpec-rational": (
        lambda: make_rational(3),
        "FieldSpec(kind='rational', p=3, m=1, modulus=(0, 1), "
        "theta_payload=None, generators=(), invertibles=frozenset())"),
    "FieldSpec-formal": (
        lambda: make_formal(3, generators=("a", "th"), invertibles=("a",)),
        "FieldSpec(kind='formal', p=3, m=1, modulus=(0, 1), "
        "theta_payload=None, generators=('a', 'th'), "
        "invertibles=frozenset({'a'}))"),
    "SkewMatrix": (lambda: parse_matrix(F3, "[[tau^3 + 2]]"),
                   "[[2 + tau^3]]"),
    "TModule": (lambda: parse_module(F3, "1 + tau^2"), _PHI),
    "Biderivation": (lambda: Biderivation(PHI, PSI, DELTA.matrix), _DELTA),
    "Assembly": (lambda: assemble(DELTA),
                 f"Assembly(middle={_MIDDLE}, inclusion=[[0],\n [1]], "
                 "projection=[[1, 0]])"),
    "ReductionPlan": (
        lambda: reduction_plan(PHI, PSI),
        "ReductionPlan(regime='drinfeld-forward', layered=False, "
        "entries=((0, 0, 2, True, 1),), sign=1, phi=[[((0, 1), (2, 1))]], "
        "psi=[[((0, 1), (1, 1))]], lead_inv=None, zero=[[0]])"),
    "ReductionResult": (lambda: reduce_canonical(DELTA),
                        f"ReductionResult(canonical={_CANONICAL}, "
                        "witness=[[1 + tau]], regime='drinfeld-forward')"),
    "GaSequence": (lambda: ga_sequence(S),
                   f"GaSequence(structure={_S}, pure=(0,), g=[[1, 0]], "
                   "inclusion=[[0],\n [1]], sub_pi=[[1 + tau^2]])"),
    "SplitWitness": (lambda: is_split(INNER), "SplitWitness(witness=[[1]])"),
    "NotSplit": (lambda: is_split(DELTA),
                 f"NotSplit(canonical={_CANONICAL}, "
                 "reason='nonzero canonical form')"),
    "Inconclusive": (
        lambda: is_split(Biderivation(PHI, parse_module(F3, "1 + 2*tau^2"),
                                      parse_matrix(F3, "[[1]]")), bound=1),
        "Inconclusive(bound=1)"),
    "HomSpace": (lambda: hom_space(PSI, PSI, bound=1),
                 f"HomSpace(source={_PSI}, target={_PSI}, "
                 "basis=([[1]], [[tau]]), complete=False, bound=1)"),
    "SixTerm": (lambda: six_term(DELTA, PSI),
                f"SixTerm(delta={_DELTA}, partner={_PSI}, middle={_MIDDLE}, "
                "inclusion=[[0],\n [1]], projection=[[1, 0]])"),
    "Check": (lambda: verify_structure(S, samples=2).checks[0], _CHECKS[0]),
    "Report": (lambda: verify_structure(S, samples=2),
               f"Report(ok=True, checks=({', '.join(_CHECKS)}))"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_values(name):
    build, shown = RECORDS[name]
    value = build()
    assert type(value).__name__ == name.split("-")[0]
    assert not dataclasses.is_dataclass(value)
    assert repr(value) == shown
    fields = type(value)._fields
    twins = [build(), copy.copy(value), copy.deepcopy(value),
             pickle.loads(pickle.dumps(value))]
    for twin in twins:
        assert type(twin) is type(value) and twin == value
        assert not twin != value and repr(twin) == shown
    if name == "ReductionPlan":  # its grids are lists, as they were
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert {hash(twin) for twin in twins} == {hash(value)}
    for other in (0, "x", None):
        assert (value == other) is False and (value != other) is True
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == shown


def test_field_specs_reduce_to_their_key_fields():
    """The derived ops objects are neither compared, shown nor pickled."""
    spec = make_formal(3, generators=("a",), invertibles=("a",))
    assert type(spec)._fields == ("kind", "p", "m", "modulus",
                                  "theta_payload", "generators",
                                  "invertibles")
    assert spec.__reduce__()[1] == ("formal", 3, 1, (0, 1), None,
                                    ("a", "th"), frozenset({"a"}))
    copied = pickle.loads(pickle.dumps(spec))
    assert copied == spec and copied._arith is not None


def test_a_domain_is_one_object():
    """Equal fields give one spec object, however it is reached, so every
    domain check is an identity test; unequal fields give another."""
    spec = parse_field("GF(3^2)")
    element = spec.gen()
    for twin in (parse_field("GF(3^2)"), parse_field("GF(3^2; mod=g^2+1)"),
                 make_finite(3, 2), FieldSpec(*spec.__reduce__()[1]),
                 copy.copy(spec), copy.deepcopy(spec),
                 pickle.loads(pickle.dumps(spec))):
        assert twin is spec
    for twin in (copy.copy(element), copy.deepcopy(element),
                 pickle.loads(pickle.dumps(element))):
        assert twin == element and twin.spec is spec
    others = (parse_field("GF(3^2; mod=g^2+2*g+2)"),
              parse_field("GF(3^2; theta=g+1)"), parse_field("GF(3^2)(th)"))
    assert len({id(o) for o in (spec,) + others}) == 4
    assert make_formal(3, generators=("a", "b")) is \
        parse_field("FTF(3; gens=a,b,th)")
    assert make_formal(3, generators=("b", "a")) is not \
        make_formal(3, generators=("a", "b"))


def test_threads_building_one_domain_get_one_object():
    """The registry keeps the first spec built for a header, so threads
    that race to build a new domain all get the same object."""
    def build(header, barrier, specs):
        barrier.wait()
        specs.append(parse_field(header))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for p in (11, 13, 17, 19):
            barrier, specs = threading.Barrier(8), []
            threads = [threading.Thread(target=build, args=(
                f"GF({p}^2; theta=g+1)", barrier, specs)) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(specs) == 8 and len({id(s) for s in specs}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_records_keep_their_cached_properties():
    """TModule and SixTerm cache in a __dict__ slot outside their fields,
    so a cached value changes neither equality nor the repr."""
    module = parse_module(F3, "1 + tau^2")
    before = repr(module)
    assert module.drinfeld_ranks == (2,) and "drinfeld_ranks" in vars(module)
    assert module == PHI and repr(module) == before
    delta = Biderivation(PHI, parse_module(F3, "1 + tau^3"),
                         parse_matrix(F3, "[[1 + tau]]"))
    bundle = six_term(delta, PSI)
    before = repr(bundle)
    assert bundle.omega_structure() is bundle.omega_structure()
    assert "_omega" in vars(bundle)
    assert bundle == six_term(delta, PSI) and repr(bundle) == before


def test_only_ext_structure_is_a_dataclass():
    dataclass_names = [name for name in tmodext.__all__
                       if dataclasses.is_dataclass(getattr(tmodext, name))]
    assert dataclass_names == ["ExtStructure"]


def test_replace_builds_a_working_ext_structure():
    pi = S.pi + S.pi
    replaced = dataclasses.replace(S, pi=pi)
    assert type(replaced) is ExtStructure and replaced.pi == pi
    assert (replaced.source, replaced.target, replaced.basis) == \
        (S.source, S.target, S.basis)
    assert dataclasses.replace(S, pi=S.pi) == S
    assert verify_structure(S, samples=20).ok
    assert not verify_structure(replaced, samples=20).ok


def test_cli_import_leaves_out_shutil_and_its_archives():
    """A fresh interpreter importing tmodext.cli loads none of shutil's
    modules, as the cli module docstring promises."""
    root = os.path.dirname(os.path.dirname(tmodext.__file__))
    loaded = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {root!r}); import tmodext.cli; "
         "print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True).stdout
    modules = set(ast.literal_eval(loaded))
    assert "tmodext.cli" in modules
    assert modules.isdisjoint({"shutil", "bz2", "lzma", "fnmatch"})


_COLD_CHILD = """
import sys
sys.path.insert(0, ROOT)
import tmodext.cli
print(sorted(sys.modules))
import dataclasses
from tmodext import ext_structure, make_finite, parse_module
F3 = make_finite(3)
S = ext_structure(parse_module(F3, "1 + tau^2"), parse_module(F3, "1 + tau"))
assert dataclasses.is_dataclass(S)
print([f.name for f in dataclasses.fields(S)])
R = dataclasses.replace(S, pi=S.pi + S.pi)
assert type(R) is type(S) and R.pi == S.pi + S.pi and R != S
assert dataclasses.replace(R, pi=S.pi) == S
try:
    dataclasses.replace(S, bogus=1)
except TypeError:
    print("bogus refused")
"""


def test_cli_import_leaves_out_dataclasses_and_keeps_its_face():
    """A fresh interpreter importing tmodext.cli loads neither dataclasses
    nor the modules it pulls in; a caller that imports dataclasses then
    finds ExtStructure a frozen dataclass with its five fields."""
    root = os.path.dirname(os.path.dirname(tmodext.__file__))
    lines = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         _COLD_CHILD.replace("ROOT", repr(root))],
        capture_output=True, text=True, check=True).stdout.splitlines()
    modules = set(ast.literal_eval(lines[0]))
    assert "tmodext.cli" in modules
    assert modules.isdisjoint({"dataclasses", "inspect", "ast", "dis",
                               "tokenize"})
    assert lines[1:] == [
        "['source', 'target', 'regime', 'basis', 'pi']", "bogus refused"]


def test_elements_and_polynomials_compare_within_one_domain():
    """FieldElement and SkewPoly compare by their domain, which is one
    object, and their payloads; equal payloads in two domains differ, and
    each hash is the hash of the field tuple."""
    specs = [parse_field(h) for h in ("GF(3)", "GF(3^2)", "GF(2^2)",
                                      "GF(3)(th)", "FTF(3; gens=th)")]
    ones = [spec.one() for spec in specs]
    for i, a in enumerate(ones):
        twin = copy.deepcopy(a)
        assert twin == a and not twin != a and hash(twin) == hash(a)
        assert hash(a) == hash((a.spec, a.payload))
        for b in ones[i + 1:]:
            assert a != b and not a == b
        for other in (1, "1", None, parse_poly(a.spec, "1")):
            assert (a == other) is False and (a != other) is True
    f3, f9 = make_finite(3), parse_field("GF(3^2)")
    assert f3.one().payload == f9.one().payload == 1
    assert f3.one() != f9.one() and len({f3.one(), f9.one()}) == 2
    p = parse_poly(f9, "g + tau^2")
    assert p == parse_poly(f9, "g + tau^2") != parse_poly(f9, "g + sig^2",
                                                          "sigma")
    assert parse_poly(f3, "1 + tau") != parse_poly(f9, "1 + tau")
    assert hash(p) == hash((p.spec, p.var, p._pairs))
    assert pickle.loads(pickle.dumps(p)) == p
    for other in (p.coefficient(0), 0, None):
        assert (p == other) is False and (p != other) is True
