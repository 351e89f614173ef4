"""Tests driving the command-line interface in process."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import tmodext.cli as cli
import tmodext.ext_structures as ext_structures
from tmodext import Check, Report
from tmodext.biderivations import MAX_CANONICAL_SLOTS, MAX_REDUCTION_STEPS
from tmodext.coefficients import (
    MAX_FIELD_SEARCH,
    MAX_LITERAL_DIGITS,
    MAX_TH_EXPONENT_DIGITS,
)
from tmodext.homological import MAX_FP_UNKNOWNS
from tmodext.modules_t import MAX_CARLITZ_POWER
from tmodext.skewpoly import MAX_APOLY_DEGREE, MAX_NESTING

Q3 = "GF(3)(th)"
F4 = "GF(2^2)"
F9 = "GF(3^2)"
FORMAL = "FTF(3; gens=a,b,th; inv=a)"

GOLDEN_PI = ("[[th, 0, 0],\n"
             " [0, th, (th + 2*th^3)*tau^2],\n"
             " [tau^2, tau^4, th + tau^6]]")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# The flagship command.


def test_ext_text_output(capsys):
    code, out, err = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2"])
    assert code == 0 and err == ""
    assert "regime: drinfeld-forward" in out
    assert "basis: (0,0,0) (0,0,1) (0,0,2)" in out
    assert "ga_rank: 1" in out
    assert GOLDEN_PI in out


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    """The console script calls main() with no arguments."""
    monkeypatch.setattr(sys, "argv", [
        "tmodext", "ext", "--field", Q3, "--phi", "th + tau^3",
        "--psi", "th + tau^2"])
    assert cli.main() == 0
    assert GOLDEN_PI in capsys.readouterr().out


def test_ext_json_output(capsys):
    code, out, _ = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2",
        "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"field", "source", "target", "regime", "basis",
                            "pi_t", "ga_rank"}
    assert payload["field"] == Q3
    assert payload["regime"] == "drinfeld-forward"
    assert payload["basis"] == [[0, 0, 0], [0, 0, 1], [0, 0, 2]]
    assert payload["ga_rank"] == 1
    assert payload["pi_t"]["var"] == "tau"


def test_ext_is_deterministic(capsys):
    argv = ["ext", "--field", F9, "--phi", "g + tau^3",
            "--psi", "g + tau^2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_out_flag_writes_file_and_prints_nothing(capsys, tmp_path):
    target = tmp_path / "pi.txt"
    code, out, _ = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2",
        "--out", str(target)])
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert GOLDEN_PI in content
    assert content.endswith("\n")


def test_out_to_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "pi.txt"
    code, out, err = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2",
        "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# The README's examples, run as written.

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme_examples():
    """(argv, expected stdout lines) of each fenced block of README.md that
    starts with "$ tmodext", its backslash continuations joined."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(\$ tmodext .*?)^```$", fh.read(),
                            re.M | re.S)
    examples = []
    for block in blocks:
        lines = block.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        examples.append((shlex.split(command)[2:], lines))
    return examples


_README_EXAMPLES = _readme_examples()


def test_readme_holds_its_examples():
    assert [argv[0] for argv, _ in _README_EXAMPLES] == [
        "ext", "ext-dual", "sixterm", "split", "hom", "verify"]


@pytest.mark.parametrize("argv, want", _README_EXAMPLES,
                         ids=[argv[0] for argv, _ in _README_EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, argv, want):
    """A "..." line of the README matches any run of output lines."""
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                      for line in want)
    assert re.fullmatch(pattern, out), out


def _benchmark_workloads():
    """perfbench/workloads.py: the benchmark's CLI commands and the
    digests of their recorded output."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_print_their_recorded_output(capsys,
                                                        monkeypatch):
    """Every command of the benchmark's cli-oneshot workload, run in
    process, gives its exit code and output (compared by digest)."""
    monkeypatch.setenv("COLUMNS", "80")  # --help as in a piped child
    workloads = _benchmark_workloads()
    wrong = []
    for name, argv, code, golden in workloads.CLI_COMMANDS:
        report = dict(zip(("code", "stdout", "stderr"), run(capsys, argv)))
        if not workloads.check_cli(name, code, golden, report):
            wrong.append(name)
    assert workloads.CLI_COMMANDS and wrong == []


# ---------------------------------------------------------------------------
# The remaining structure commands.


@pytest.mark.parametrize("n", [2, 5, 10 ** 9])
def test_ext_with_a_huge_th_exponent(capsys, n):
    """Regression pin: the exponents grow as 3n - 1, 9n and 252n, which
    holds at small n; sparse F_q(th) coefficients keep n = 10^9 cheap."""
    code, out, err = run(capsys, [
        "ext", "--field", Q3, "--phi", f"th + th^{n}*tau^3",
        "--psi", "th + tau^2"])
    assert code == 0 and err == ""
    assert out.endswith(
        "Pi_t:\n"
        "[[th, 0, 0],\n"
        f" [0, th, ((1 + 2*th^2)/th^{3 * n - 1})*tau^2],\n"
        f" [tau^2, (1/th^{9 * n})*tau^4, th + (1/th^{252 * n})*tau^6]]\n")


def test_dense_coefficient_quotient_exits_one(capsys):
    code, out, err = run(capsys, [
        "ext", "--field", Q3,
        "--phi", "th + ((1 + th^12157665459056928801)/(2 + th^2))*tau^3",
        "--psi", "th + tau^2"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_POLY_TERMS" in err


def test_ext0_output(capsys):
    code, out, _ = run(capsys, [
        "ext0", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2"])
    assert code == 0
    assert "basis: (0,0,1) (0,0,2)" in out
    assert "[[th, (th + 2*th^3)*tau^2],\n [tau^4, th + tau^6]]" in out


def test_ext_seq_output(capsys):
    code, out, _ = run(capsys, [
        "ext-seq", "--field", Q3, "--phi", "th + tau^3",
        "--psi", "th + tau^2"])
    assert code == 0
    assert "s: 1" in out
    assert "pure: (0,0,0)" in out
    assert "[[1, 0, 0]]" in out


def test_ext_prod_output(capsys):
    code, out, _ = run(capsys, [
        "ext-prod", "--field", Q3, "--phi", "th + tau^3; th + tau^4",
        "--psi", "th + tau^2"])
    assert code == 0
    assert "regime: diagonal-pairs" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_ext_of_an_all_forward_diagonal_pair_is_ext_prod(capsys, json_flag):
    """Exit 1 ("reversed pairs ...") before the plan decided forwardness."""
    prod = run(capsys, [
        "ext-prod", "--field", Q3, "--phi", "th + tau^3; th + tau^4",
        "--psi", "th + tau; th + tau^2", *json_flag])
    assert prod[0] == 0 and prod == run(capsys, [
        "ext", "--field", Q3,
        "--phi", "[[th + tau^3, 0], [0, th + tau^4]]",
        "--psi", "[[th + tau, 0], [0, th + tau^2]]", *json_flag])


def test_ext_tmod_output(capsys):
    code, out, _ = run(capsys, [
        "ext-tmod", "--field", Q3,
        "--phi", "[[th, 1], [0, th]] + [[1, 0], [0, 1]]*tau^2",
        "--psi", "th + tau"])
    assert code == 0
    assert "regime: matrix-source" in out


def test_ext_carlitz_output(capsys):
    code, out, _ = run(capsys, [
        "ext-carlitz", "--field", Q3, "--phi", "th + tau^3", "--e", "2"])
    assert code == 0
    assert "regime: carlitz-target" in out
    assert "ga_rank: 1" in out


def test_ext_dual_output(capsys):
    code, out, _ = run(capsys, [
        "ext-dual", "--field", FORMAL, "--phi", "th[0] + b[0]*tau^2",
        "--psi", "th[0] + a[0]*tau^3"])
    assert code == 0
    assert "Pi_t (adjoint side):" in out
    assert "th[0] + (b[-6]*b[-4]*b[-2]/(a[-8]*a[-5]))*sig^6" in out


def test_ext_dual_of_an_upper_triangular_target(capsys):
    # no regime on tau; the swapped adjoint pair is forward on sigma
    code, out, _ = run(capsys, [
        "ext-dual", "--field", Q3, "--phi", "th + tau",
        "--psi", "[[th + tau^2, tau], [0, th + tau^2]]"])
    assert code == 0
    assert "regime: matrix-source" in out
    assert " [sig, th + sig^2, 0, 2*sig]," in out


# ---------------------------------------------------------------------------
# Calculator commands.


def test_adjoint_module(capsys):
    code, out, _ = run(capsys, [
        "adjoint", "--field", F9, "--phi", "g + tau^3"])
    assert code == 0
    assert out.strip() == "[[g + sig^3]]"


def test_adjoint_matrix_json_golden(capsys):
    code, out, _ = run(capsys, [
        "adjoint", "--field", F9, "--phi", "g + tau^3", "--json"])
    assert code == 0
    assert out == (
        '{\n  "var": "sigma",\n  "entries": [\n    [\n      [\n        [\n'
        '          0,\n          "g"\n        ],\n        [\n          3,\n'
        '          "1"\n        ]\n      ]\n    ]\n  ]\n}\n')


def test_reduce_output(capsys):
    code, out, _ = run(capsys, [
        "reduce", "--field", Q3, "--phi", "th + tau^3",
        "--psi", "th + tau^2", "--delta", "[[th*tau^4]]"])
    assert code == 0
    assert "regime: drinfeld-forward" in out
    assert "[[(th^2 + 2*th^4)*tau + th^81*tau^2]]" in out
    assert "[[th^9 + th*tau]]" in out


def test_assemble_output(capsys):
    code, out, _ = run(capsys, [
        "assemble", "--field", Q3, "--phi", "th + tau^2",
        "--psi", "th + tau^3", "--delta", "[[1 + tau]]"])
    assert code == 0
    assert "[[th + tau^2, 0],\n [1 + tau, th + tau^3]]" in out


def test_baer_output(capsys):
    code, out, _ = run(capsys, [
        "baer", "--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--delta", "[[tau]]", "--delta2", "[[tau]]"])
    assert code == 0
    assert "[[2*tau]]" in out


def test_act_output(capsys):
    code, out, _ = run(capsys, [
        "act", "--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--delta", "[[1]]", "--a", "t"])
    assert code == 0
    # t acts on the constant class through the target's theta
    assert "[[g" in out


def test_pullback_and_pushout(capsys):
    base = ["--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2",
            "--delta", "[[tau]]"]
    code, pulled, _ = run(capsys, [
        "pullback", *base, "--g", "[[g + tau^3]]", "--gmod", "g + tau^3"])
    assert code == 0
    code, pushed, _ = run(capsys, [
        "pushout", *base, "--f", "[[g + tau^2]]", "--fmod", "g + tau^2"])
    assert code == 0
    canon_pull = pulled.split("canonical:")[-1]
    canon_push = pushed.split("canonical:")[-1]
    assert canon_pull == canon_push


def test_split_recovers_witness(capsys):
    code, out, _ = run(capsys, [
        "split", "--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--delta", "[[(g + tau)*(g + tau^3) + (2*g + 2*tau^2)*(g + tau)]]"])
    assert code == 0
    assert out.startswith("split")
    assert "[[g + tau]]" in out


def test_split_not_split_json(capsys):
    code, out, _ = run(capsys, [
        "split", "--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--delta", "[[tau]]", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "not-split"
    assert payload["reason"] == "nonzero canonical form"


def test_split_inconclusive_bound(capsys):
    code, out, _ = run(capsys, [
        "split", "--field", F9, "--phi", "g + tau^2", "--psi", "g + tau^2",
        "--delta", "[[1]]", "--bound", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "inconclusive"
    assert payload["bound"] == 1


def test_split_search_over_infinite_domain_exits_one(capsys):
    code, out, err = run(capsys, [
        "split", "--field", Q3, "--phi", "th + tau^2", "--psi", "th + tau^2",
        "--delta", "[[1]]", "--bound", "5"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite coefficient field" in err


def test_hom_output(capsys):
    code, out, _ = run(capsys, [
        "hom", "--field", F4, "--phi", "g + tau", "--psi", "g + tau",
        "--bound", "2"])
    assert code == 0
    assert "fp_dimension: 3" in out
    assert "[[g + tau]]" in out


@pytest.mark.parametrize("argv", [
    ["hom", "--field", F4, "--phi", "g + tau", "--psi", "g + tau"],
    ["split", "--field", F9, "--phi", "g + tau^2", "--psi", "g + tau^2",
     "--delta", "[[1]]"],
], ids=["hom", "split"])
def test_huge_search_bound_is_refused_before_solving(capsys, argv):
    code, out, err = run(capsys, [*argv, "--bound", "100000"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_FP_UNKNOWNS" in err


# The huge-input probes run over GF(3), whose cases keep their bare ids,
# and over F_q(th) and a formal domain; c is the modules' constant term.
_HUGE_FIELDS = (("GF(3)", "1"), (Q3, "th"), ("FTF(3; gens=a,th; inv=a)",
                                             "th[0]"))


def _over_fields(cases):
    """pytest params (field, c, *values) of each (id, *values) case over
    every field of _HUGE_FIELDS."""
    return [pytest.param(field, c, *values,
                         id=name if field == "GF(3)" else f"{field}-{name}")
            for field, c in _HUGE_FIELDS for name, *values in cases]


def _refused_in_a_second(capsys, argv, want=1):
    """The error message of argv, which must exit with code want (1 by
    default) within a second."""
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == want and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("field, c, exponent", _over_fields(
    [("1000000000", "1000000000"), ("3000", "3000")]))
def test_huge_ext_rank_is_refused_before_building_slots(capsys, field, c,
                                                        exponent):
    assert "MAX_CANONICAL_SLOTS" in _refused_in_a_second(capsys, [
        "ext", "--field", field, "--phi", f"{c} + tau^{exponent}",
        "--psi", f"{c} + tau"])


def test_huge_pi_t_is_refused_before_building_forms(capsys):
    """1024 slots pass MAX_CANONICAL_SLOTS, but Pi_t would have 1024^2
    entries; rank 256 (256^2 = MAX_PI_ENTRIES) is still computed."""
    start = time.perf_counter()
    code, out, err = run(capsys, [
        "ext", "--field", "GF(3)", "--phi", "1 + tau^1024",
        "--psi", "1 + tau"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MAX_PI_ENTRIES" in err and "1048576" in err
    code, out, _ = run(capsys, [
        "ext", "--field", "GF(3)", "--phi", "1 + tau^256",
        "--psi", "1 + tau", "--json"])
    assert code == 0 and len(json.loads(out)["basis"]) == 256


@pytest.mark.parametrize("field, c, argv, limit", _over_fields([
    ("reduce", ["reduce", "--phi", "{c} + tau^3", "--psi", "{c} + tau",
                "--delta", "[[tau^100000000]]"],
     f"MAX_REDUCTION_STEPS = {MAX_REDUCTION_STEPS}"),
    ("act", ["act", "--phi", "{c} + tau^3", "--psi", "{c} + tau",
             "--delta", "[[1]]", "--a", "t^100000000"],
     f"MAX_APOLY_DEGREE = {MAX_APOLY_DEGREE}"),
]))
def test_huge_degrees_are_refused_before_any_step(capsys, field, c, argv,
                                                  limit):
    argv = [argv[0], "--field", field, *(a.format(c=c) for a in argv[1:])]
    assert limit in _refused_in_a_second(capsys, argv)


_NINES = "9" * MAX_LITERAL_DIGITS
_HUGE = f"more than 10^{MAX_LITERAL_DIGITS}"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["ext", "--field", "GF(3)", "--phi",
                  f"1 + tau^{_NINES}*tau^{_NINES}", "--psi", "1 + tau"],
                 f"{_HUGE} canonical slots exceed "
                 f"MAX_CANONICAL_SLOTS = {MAX_CANONICAL_SLOTS}", id="slots"),
    pytest.param(["reduce", "--field", "GF(3)", "--phi", "1 + tau^3",
                  "--psi", "1 + tau", "--delta",
                  f"[[tau^{_NINES}*tau^{_NINES}]]"],
                 f"{_HUGE} reduction steps exceed "
                 f"MAX_REDUCTION_STEPS = {MAX_REDUCTION_STEPS}", id="steps"),
    pytest.param(["act", "--field", "GF(3)", "--phi", "1 + tau^3",
                  "--psi", "1 + tau", "--delta", "[[1]]",
                  "--a", f"t^{_NINES}*t^{_NINES}"],
                 f"degree {_HUGE} in t exceeds "
                 f"MAX_APOLY_DEGREE = {MAX_APOLY_DEGREE}", id="apoly"),
    pytest.param(["hom", "--field", F4, "--phi", "g + tau", "--psi",
                  "g + tau", "--bound", _NINES],
                 f"{_HUGE} F_p unknowns exceed "
                 f"MAX_FP_UNKNOWNS = {MAX_FP_UNKNOWNS} "
                 f"(degree bound {_NINES})", id="unknowns"),
])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_counts_too_long_to_print_are_named_by_size(capsys, argv, message,
                                                    fmt):
    """A product of two 4300-digit powers (or a 4300-digit bound) makes a
    count of more digits than Python prints; the message gives its size
    instead of ending in a ValueError traceback."""
    assert _refused_in_a_second(capsys, argv + fmt) == f"error: {message}\n"


_NOT_COMMUTING = "the matrix does not commute with the t-actions"
_TOO_LONG = f"MAX_TH_EXPONENT_DIGITS = {MAX_TH_EXPONENT_DIGITS} digits"


@pytest.mark.parametrize("field, c, argv, refusals", _over_fields([
    ("adjoint-module", ["adjoint", "--phi", "{c} + tau^1000000000"], {}),
    ("adjoint-matrix", ["adjoint", "--delta", "[[{c} + tau^1000000000]]"],
     {}),
    ("pullback", ["pullback", "--phi", "{c} + tau^3", "--psi", "{c} + tau",
                  "--delta", "[[tau]]", "--g", "[[{c} + tau^1000000000]]",
                  "--gmod", "{c} + tau^1000000000"],
     {"GF(3)": _NOT_COMMUTING, Q3: _TOO_LONG,
      "FTF(3; gens=a,th; inv=a)": _NOT_COMMUTING}),
]))
def test_huge_tau_exponents_end_within_a_second(capsys, field, c, argv,
                                                refusals):
    """Twisting a constant by a huge amount leaves it as it is, so the
    adjoint is computed at once; twisting th past MAX_TH_EXPONENT_DIGITS
    is refused before q^i is formed."""
    argv = [argv[0], "--field", field, *(a.format(c=c) for a in argv[1:])]
    if field in refusals:
        assert refusals[field] in _refused_in_a_second(capsys, argv)
        return
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, f"[[{c} + sig^1000000000]]\n", "")


@pytest.mark.parametrize("k", [45, 9000])
def test_twists_of_th_within_the_exponent_bound_are_computed(capsys, k):
    """th twisted k - 1 times lands in the canonical form, which prints
    its exponent 3^(k-1) in full: 4294 digits at k = 9000."""
    code, out, err = run(capsys, [
        "reduce", "--field", Q3, "--phi", f"th + tau^{k}",
        "--psi", f"th + tau^{k - 1}", "--delta", f"[[th*tau^{k}]]"])
    assert (code, err) == (0, "")
    assert out == ("regime: drinfeld-forward\ncanonical:\n"
                   f"[[th^{3 ** (k - 1)}*tau^{k - 1}]]\nwitness:\n[[th]]\n")


def test_exponents_too_long_to_print_are_refused(capsys):
    """Twisting th 9099 times makes an exponent of 4342 digits, which
    Python does not print by default; the reduction is refused instead."""
    assert _TOO_LONG in _refused_in_a_second(capsys, [
        "reduce", "--field", Q3, "--phi", "th + tau^9100",
        "--psi", "th + tau^9099", "--delta", "[[th*tau^9100]]"])


_LONG_LITERAL = "1" * (MAX_LITERAL_DIGITS + 1)


@pytest.mark.parametrize("field, phi", [
    (Q3, f"th + th^{_LONG_LITERAL}*tau^3"),
    (Q3, f"{_LONG_LITERAL} + tau^3"),
    (f"GF({_LONG_LITERAL})", "th + tau^3"),
    (FORMAL, f"th[{_LONG_LITERAL}] + tau^3"),
    (Q3, f"carlitz e={_LONG_LITERAL}"),
], ids=["exponent", "constant", "field", "symbol-index", "module-option"])
def test_integer_literals_too_long_to_convert_are_refused(capsys, field,
                                                          phi):
    """Python converts at most 4300 digits from str to int by default;
    before, a longer literal ended in a ValueError traceback."""
    err = _refused_in_a_second(capsys, [
        "ext", "--field", field, "--phi", phi, "--psi", "th + tau^2"], 2)
    assert err == (f"error: an integer literal has more than "
                   f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits\n")


_NINES = "9" * MAX_LITERAL_DIGITS


@pytest.mark.parametrize("argv", [
    pytest.param(["reduce", "--field", Q3, "--phi", "th + tau^3", "--psi",
                  "th + tau", "--delta", f"[[th^{_NINES}*th^{_NINES}]]"],
                 id="th-exponent"),
    pytest.param(["adjoint", "--field", "GF(3)",
                  "--delta", f"[[tau^{_NINES}*tau^{_NINES}]]"],
                 id="tau-degree"),
    pytest.param(["adjoint", "--field", "FTF(3; gens=a,th)",
                  "--delta", f"[[a^{_NINES}*a^{_NINES}*tau]]"],
                 id="symbol-exponent"),
    pytest.param(["adjoint", "--field", "FTF(3; gens=a,th)",
                  "--delta", f"[[a*tau^{_NINES}*tau^{_NINES}]]"],
                 id="symbol-index"),
])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_product_exponents_too_long_to_print_are_refused(capsys, argv, fmt):
    """A product of two 4300-digit powers has a 4301-digit exponent, and
    the adjoint twists a symbol's index by the degree, neither of which
    could be parsed back; before, printing one ended in a ValueError
    traceback."""
    err = _refused_in_a_second(capsys, argv + fmt)
    assert err == (f"error: an exponent or index has more than "
                   f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits to "
                   f"print\n")


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["ext", "--field", "GF(1000000000000000003)",
                  "--phi", "1 + tau^3", "--psi", "1 + tau^2"],
                 f"MAX_FIELD_SEARCH = {MAX_FIELD_SEARCH}", id="prime"),
    pytest.param(["adjoint", "--field", "GF(2^40)", "--phi", "g + tau"],
                 f"MAX_FIELD_SEARCH = {MAX_FIELD_SEARCH}", id="modulus"),
    pytest.param(["adjoint", "--field", "GF(2^40)(th)", "--phi", "th + tau"],
                 f"MAX_FIELD_SEARCH = {MAX_FIELD_SEARCH}", id="modulus-th"),
    pytest.param(["adjoint", "--field", "GF(2^40; mod=g^40+g^3+1)",
                  "--phi", "g + tau"],
                 f"MAX_FIELD_SEARCH = {MAX_FIELD_SEARCH}", id="explicit-mod"),
    pytest.param(["ext-carlitz", "--field", Q3, "--phi", "th + tau^3",
                  "--e", "200"],
                 f"MAX_CARLITZ_POWER = {MAX_CARLITZ_POWER}", id="carlitz"),
])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_brute_force_set_up_is_refused_before_it_starts(capsys, argv, limit,
                                                        fmt):
    """Trial division of p, the search for an irreducible modulus and the
    validation of an e x e Carlitz power each ran for seconds before."""
    assert limit in _refused_in_a_second(capsys, argv + fmt)


def test_sixterm_computes_omega_once(capsys, monkeypatch):
    """delta_block reads the bundle's Omega_t instead of computing it
    again."""
    calls = []
    real = ext_structures.ext_structure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tmodext") and \
                vars(mod).get("ext_structure") is real:
            monkeypatch.setattr(mod, "ext_structure", counted)
    code, out, _ = run(capsys, [
        "sixterm", "--field", Q3, "--phi", "th + tau^2",
        "--psi", "th + tau^3", "--delta", "[[1 + tau]]", "--g", "th + tau"])
    assert code == 0 and "Omega_t:" in out and "Delta_t:" in out
    assert len(calls) == 1


def test_ext_of_rank_64_over_f_q_th_is_computed(capsys):
    code, out, err = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^64", "--psi", "th + tau",
        "--json"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["basis"]) == 64


def test_sixterm_golden(capsys):
    code, out, _ = run(capsys, [
        "sixterm", "--field", Q3, "--phi", "th + tau^2",
        "--psi", "th + tau^3", "--delta", "[[1 + tau]]", "--g", "th + tau"])
    assert code == 0
    assert ("Omega_t:\n"
            "[[th, 0, 0, 0, 0],\n"
            " [tau, th, tau^2, 0, 0],\n"
            " [0, tau, th, 0, 0],\n"
            " [0, 0, 2*tau, th, 0],\n"
            " [0, 0, 2*tau, tau, th + tau^2]]") in out
    assert "Delta_t:\n[[0, 0, 2*tau],\n [0, 0, 2*tau]]" in out


# ---------------------------------------------------------------------------
# Verification plumbing and exit codes.


def test_verify_structure_pass(capsys):
    code, out, _ = run(capsys, [
        "verify", "--field", F9, "--what", "structure",
        "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--samples", "25", "--seed", "3"])
    assert code == 0
    assert out.rstrip().endswith("ok")
    assert "pass action-samples:" in out


def test_verify_duality_pass(capsys):
    code, out, _ = run(capsys, [
        "verify", "--field", "GF(2^3)", "--what", "duality",
        "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--samples", "20", "--seed", "1"])
    assert code == 0
    assert "pass class-transport:" in out


def test_verify_duality_rejects_enumeration(capsys):
    code, out, err = run(capsys, [
        "verify", "--field", "GF(2^3)", "--what", "duality",
        "--phi", "g + tau^3", "--psi", "g + tau^2",
        "--mode", "enumerate"])
    assert code == 2
    assert "enumerate" in err


def test_verify_failure_exits_three(capsys, monkeypatch):
    failing = Report.from_checks([Check("action-samples", False, "mismatch")])
    monkeypatch.setattr(cli, "verify_structure",
                        lambda *args, **kwargs: failing)
    code, out, _ = run(capsys, [
        "verify", "--field", F9, "--what", "structure",
        "--phi", "g + tau^3", "--psi", "g + tau^2"])
    assert code == 3
    assert "FAIL action-samples: mismatch" in out
    assert out.rstrip().endswith("FAILED")


def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^2", "--psi", "th + tau^2"])
    assert code == 1
    assert "equal-rank" in err


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, [
        "ext", "--field", Q3, "--phi", "th + tau^2"])
    assert code == 2 and "--psi" in err
    code, _, err = run(capsys, ["frobnicate", "--field", Q3])
    assert code == 2
    code, _, err = run(capsys, [
        "ext", "--field", "GF(6)", "--phi", "th + tau^2",
        "--psi", "th + tau"])
    assert code == 2


@pytest.mark.parametrize("row", cli._COMMANDS,
                         ids=[row[0] for row in cli._COMMANDS])
def test_the_field_header_is_read_before_any_other_text(capsys, row):
    """The dispatcher parses --field before any handler reads a module or
    matrix, so a bad header is the one error, however malformed the rest."""
    name, _, _, flags = row
    argv = [name, "--field", "GF(6)"]
    for flag in flags.split():
        kwargs = cli._FLAGS[flag]
        if not {"type", "choices", "action"} & kwargs.keys():  # a text flag
            argv += ["--" + flag.split("/")[0], "th + * tau"]
        elif kwargs.get("required"):
            argv += ["--" + flag.split("/")[0], "1"]
    assert run(capsys, argv) == (2, "", "error: 6 is not prime\n")


def test_a_modulus_of_huge_degree_is_refused_at_once(capsys):
    """The mod= polynomial is read term by term, so a degree with 4 000
    digits is compared with m before any coefficient list is built."""
    field = "GF(3^2; mod=g^" + "9" * 4000 + "+1)"
    err = _refused_in_a_second(capsys, [
        "ext", "--field", field, "--phi", "g + tau^3", "--psi", "g + tau^2"],
        want=2)
    assert err == "error: modulus must be monic of degree 2\n"


def test_deep_nesting_is_a_parse_error(capsys):
    nested = "(" * 3000 + "th" + ")" * 3000
    code, out, err = run(capsys, [
        "ext", "--field", Q3, "--phi", nested + " + tau^3",
        "--psi", "th + tau^2"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"deeper than {MAX_NESTING} levels" in err
    shallow = "(" * 20 + "th" + ")" * 20
    code, _, _ = run(capsys, [
        "ext", "--field", Q3, "--phi", shallow + " + tau^3",
        "--psi", "th + tau^2"])
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["split", "--field", F9, "--phi", "g + tau^2", "--psi", "g + tau^2",
      "--delta", "[[0]]", "--bound", "-1"],
     "argument --bound: expected a non-negative integer, got -1"),
    (["hom", "--field", F4, "--phi", "g + tau", "--psi", "g + tau",
      "--bound", "-1"],
     "argument --bound: expected a non-negative integer, got -1"),
    (["verify", "--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2",
      "--samples", "-5"],
     "argument --samples: expected a non-negative integer, got -5"),
    (["hom", "--field", F4, "--phi", "g + tau", "--psi", "g + tau",
      "--bound", "abc"],
     "argument --bound: invalid int value: 'abc'"),
])
def test_bad_counts_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_SIXTERM_VERIFY = ["verify", "--what", "sixterm", "--field", "GF(2)",
                   "--phi", "1 + tau^2", "--psi", "1 + tau^3"]


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["adjoint", "--field", "GF(3)"], 2,
                 "adjoint needs --phi or --delta", id="adjoint-no-input"),
    pytest.param(_SIXTERM_VERIFY, 2, "--delta is required here",
                 id="sixterm-no-delta"),
    pytest.param(_SIXTERM_VERIFY + ["--delta", "[[1]]"], 2,
                 "a module expression is required here", id="sixterm-no-g"),
    pytest.param(["ext-tmod", "--field", F9, "--phi",
                  "[[g + tau^3, 0], [tau, g + tau^2]]", "--psi", "g + tau"],
                 1, "ext-tmod needs a source with an invertible leading "
                    "coefficient matrix", id="ext-tmod-singular-leading"),
])
def test_refusals_of_well_formed_command_lines(capsys, argv, code, message):
    assert run(capsys, argv) == (code, "", f"error: {message}\n")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "COMMAND" in out


# The flags each subcommand's usage line lists, in order (after --field,
# --json and --out, which every subcommand takes).
SUBCOMMAND_FLAGS = {
    "ext": ["phi", "psi"],
    "ext0": ["phi", "psi"],
    "ext-seq": ["phi", "psi"],
    "ext-prod": ["phi", "psi"],
    "ext-tmod": ["phi", "psi"],
    "ext-carlitz": ["phi", "e"],
    "ext-dual": ["phi", "psi"],
    "adjoint": ["var", "phi", "delta"],
    "reduce": ["phi", "psi", "delta", "var"],
    "assemble": ["phi", "psi", "delta", "var"],
    "baer": ["phi", "psi", "delta", "delta2"],
    "act": ["phi", "psi", "delta", "a"],
    "pullback": ["phi", "psi", "delta", "g", "gmod"],
    "pushout": ["phi", "psi", "delta", "f", "fmod"],
    "split": ["phi", "psi", "delta", "var", "bound"],
    "hom": ["phi", "psi", "bound"],
    "sixterm": ["phi", "psi", "delta", "g"],
    "verify": ["what", "phi", "psi", "delta", "g", "samples", "seed",
               "mode"],
}


def test_every_subcommand_is_listed():
    assert [row[0] for row in cli._COMMANDS] == list(SUBCOMMAND_FLAGS)


@pytest.mark.parametrize("name", list(SUBCOMMAND_FLAGS))
def test_subcommand_help_names_its_flags(capsys, name):
    code, out, err = run(capsys, [name, "--help"])
    assert code == 0 and err == ""
    usage = out.split("\n\n")[0]
    assert usage.startswith(f"usage: tmodext {name} [-h] ")
    expected = ["field", "json", "out", *SUBCOMMAND_FLAGS[name]]
    assert re.findall(r"--(\w+)", usage) == expected


def test_a_run_leaves_shutil_unimported():
    """Help is formatted at the terminal width without importing shutil,
    in a fresh interpreter, on every path through argparse."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import tmodext.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    cli.main(['ext', '--field', {Q3!r}, '--phi', 'th + tau^3', "
        "'--psi', 'th + tau^2'])\n"
        "    cli.main(['--help'])\n"
        "    cli.main(['ext', '--help'])\n"
        "    cli.main(['frobnicate'])\n"
        "print('shutil' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, "False\n", "")


@pytest.mark.parametrize("columns", [None, "40", "0", "abc"])
def test_columns_match_shutil(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._columns() == shutil.get_terminal_size().columns


def _added_flags(capsys, monkeypatch, argv):
    """main(argv)'s exit code and the first name of each add_argument call
    it makes.  Every parser adds -h, so the -h count is the parser count."""
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *names, **kwargs):
        added.append(names[0])
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    code, _, _ = run(capsys, argv)
    return code, added


def test_only_the_chosen_command_gets_flags(capsys, monkeypatch):
    """A well-formed line is read off the flag table with no parser; a
    usage error builds the top-level parser and the chosen command's."""
    argv = ["hom", "--field", F4, "--phi", "g + tau", "--psi", "g + tau",
            "--bound", "2"]
    assert _added_flags(capsys, monkeypatch, argv) == (0, [])
    code, added = _added_flags(capsys, monkeypatch, [*argv, "--bogus"])
    assert code == 2
    # one parser at the top level and one for hom
    assert added.count("-h") == 2
    assert [name for name in added if name != "-h"] == [
        "--field", "--json", "--out", "--phi", "--psi", "--bound"]


@pytest.mark.parametrize("argv, code", [(["frobnicate"], 2), (["--help"], 0)],
                         ids=["frobnicate", "help"])
def test_no_command_parser_without_a_command(capsys, monkeypatch, argv,
                                             code):
    assert _added_flags(capsys, monkeypatch, argv) == (code, ["-h"])


@pytest.mark.parametrize("argv", [
    ["ext", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2"],
    ["ext", "--field", Q3, "--phi", "th + tau^3"],
], ids=["well-formed", "usage-error"])
def test_main_without_argv_is_main_of_sys_argv(capsys, monkeypatch, argv):
    explicit = run(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["tmodext", *argv])
    assert run(capsys, None) == explicit


# Tokens a command line is drawn from: the flags of every command, prefixes
# of them, --x=v forms, help, "--", and values that are empty, start with
# "-", or fail a type or a choice.
_OPTIONS = sorted({"--" + flag.split("/")[0] for flag in cli._FLAGS})
_ODD_OPTIONS = ["-h", "--help", "--", "--fi", "--ph", "--d", "--se",
                "--field=GF(3)", "--bound=2", "--json=1", "--bogus", "-x"]
_VALUES = ["GF(3)", "th + tau", "0", "2", " 3 ", "1_0", "tau", "sigma",
           "structure", "sixterm", "enumerate", "sample", "", "-1", "-x",
           "--", "abc", "rho", "all", "2.5"]


@st.composite
def _command_lines(draw):
    """Mostly a command and its own flags, each with a value from the pool;
    now and then a foreign, abbreviated or odd token anywhere."""
    name, _, _, flags = draw(st.sampled_from(cli._COMMANDS))
    argv = [draw(st.sampled_from([name] * 6 + ["frobnicate", "-h", name[:2]]))]
    for flag in draw(st.permutations((*cli._COMMON_FLAGS, *flags.split()))):
        if draw(st.integers(0, 9)) == 9:
            continue
        option = "--" + flag.split("/")[0]
        if draw(st.integers(0, 14)) == 14:
            option = draw(st.sampled_from(_OPTIONS + _ODD_OPTIONS))
        argv.append(option)
        kwargs = cli._FLAGS[flag]
        good = kwargs.get("choices") or (
            ["0", "2"] if "type" in kwargs else ["GF(3)", "th + tau"])
        if option == "--json" and draw(st.integers(0, 9)) < 9:
            continue
        argv.append(draw(st.sampled_from(
            _VALUES if draw(st.integers(0, 3)) == 3 else good)))
    return argv


@settings(max_examples=500, deadline=None)
@given(_command_lines())
@example(["verify", "--field", F9, "--phi", "g + tau", "--psi", "g + tau",
          "--what", "ga", "--samples", " 3 ", "--seed", "1_0", "--json"])
def test_the_reader_builds_the_namespace_argparse_builds(argv):
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


def test_a_well_formed_run_leaves_argparse_unimported():
    """In a fresh interpreter an ext run imports neither argparse nor what
    its messages need (gettext, locale), and help is still argparse's."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import tmodext.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['ext', '--field', {Q3!r}, '--phi', "
        "'th + tau^3', '--psi', 'th + tau^2'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} "
        "& set(sys.modules)))\n"
        "sys.exit(cli.main(['--help']))\n")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                            capture_output=True, text=True, timeout=60,
                            env={"COLUMNS": "80"})
    first, _, help_text = result.stdout.partition("\n")
    assert (result.returncode, first, result.stderr) == (0, "0 []", "")
    layout = _HELP_LAYOUT.get(sys.version_info[:2])
    if layout is not None:
        digest = hashlib.sha256(help_text.encode()).hexdigest()[:16]
        assert digest == _HELP_SHA256[None][layout]
    else:
        assert help_text.startswith("usage: tmodext [-h] COMMAND ...")


def test_a_text_run_loads_no_re_enum_json_or_argparse():
    """In a fresh interpreter neither importing the CLI nor a text ext run
    loads re, enum, json or argparse: the parsers scan by hand and json
    is imported under --json only."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "heavy = {'re', 'enum', 'json', 'argparse'}\n"
        "import tmodext.cli as cli\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['ext', '--field', {Q3!r}, '--phi', "
        "'th + tau^3', '--psi', 'th + tau^2'])\n"
        "print(code, sorted(heavy & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, "[]\n0 []\n", "")


# ---------------------------------------------------------------------------
# Help and usage errors are the same bytes under every locale, in a fresh
# interpreter each (the first gettext lookup of a process imports locale).
# Help layout changed in argparse 3.13, so help is pinned by sha256 prefixes
# of its text at COLUMNS=80 for 3.10 to 3.12 and for 3.13, taken at 3.10.13,
# 3.11.7, 3.12.1 and 3.13.0; on other versions only the locales are compared.

_HELP_LAYOUT = {(3, 10): 0, (3, 11): 0, (3, 12): 0, (3, 13): 1}
_HELP_SHA256 = {  # command (None: the top level) -> a digest per layout
    None: ("d4f0f3a121c7162b", "a6ceda4555f57d31"),
    "ext": ("b1e8895f400e92eb", "972ed07815a9c94d"),
    "ext0": ("79762a3e197bbfa8", "8e22c61e771b1599"),
    "ext-seq": ("459f9b98b5b0ce3f", "459f9b98b5b0ce3f"),
    "ext-prod": ("d1f64dce1c7109f5", "d1f64dce1c7109f5"),
    "ext-tmod": ("1f9defb16657a65b", "1f9defb16657a65b"),
    "ext-carlitz": ("11fef9f36822760b", "11fef9f36822760b"),
    "ext-dual": ("263c79a6ae990d1c", "263c79a6ae990d1c"),
    "adjoint": ("b47496901088aec9", "b47496901088aec9"),
    "reduce": ("0ec4222a006dc2b0", "201b83f2be68165d"),
    "assemble": ("7316a176ed7ba333", "7316a176ed7ba333"),
    "baer": ("ad18669de9d73c5a", "03ec01426c35bda3"),
    "act": ("92cd96015ad897f6", "616dbbe86ff70a4a"),
    "pullback": ("2f2e24ba3f0fe664", "2f2e24ba3f0fe664"),
    "pushout": ("b2600fa9ff24c5e4", "b2600fa9ff24c5e4"),
    "split": ("5ff4cd1fca9fd238", "f929af852762a419"),
    "hom": ("e5df0e717f63127d", "58898a748def5732"),
    "sixterm": ("54af5dbe54bebf6f", "54af5dbe54bebf6f"),
    "verify": ("aa642cfc07ea0ab3", "25f09818335a84e9"),
}
_USAGE_ERRORS = {  # case -> (argv, stderr)
    "unknown-command": (
        ["frobnicate"],
        "error: argument COMMAND: invalid choice: 'frobnicate' (choose from "
        "'ext', 'ext0', 'ext-seq', 'ext-prod', 'ext-tmod', 'ext-carlitz', "
        "'ext-dual', 'adjoint', 'reduce', 'assemble', 'baer', 'act', "
        "'pullback', 'pushout', 'split', 'hom', 'sixterm', 'verify')\n"),
    "missing-flag": (
        ["ext", "--field", Q3, "--phi", "th + tau^3"],
        "error: the following arguments are required: --psi\n"),
    "unknown-flag": (
        ["ext", "--field", Q3, "--phi", "th + tau^3", "--psi", "th + tau^2",
         "--bogus"],
        "error: unrecognized arguments: --bogus\n"),
}


def _child_command(argv):
    """The command line of a fresh interpreter that exits with main(argv)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (f"import sys\nsys.path.insert(0, {src!r})\n"
              f"from tmodext.cli import main\nsys.exit(main({argv!r}))\n")
    return [sys.executable, "-I", "-S", "-c", script]


def _in_child(argv, env):
    """(exit code, stdout, stderr) of main(argv) in a fresh interpreter
    whose environment is exactly env."""
    result = subprocess.run(_child_command(argv), capture_output=True,
                            text=True, timeout=60, env=env)
    return result.returncode, result.stdout, result.stderr


def _in_both_locales(argv):
    """The child's run with no locale variables; asserts that it is the
    same with LANG=en_US.UTF-8."""
    plain = _in_child(argv, {"COLUMNS": "80"})
    assert _in_child(argv, {"COLUMNS": "80", "LANG": "en_US.UTF-8"}) == plain
    return plain


@pytest.mark.parametrize("name", list(_HELP_SHA256),
                         ids=lambda name: name or "top-level")
def test_help_is_the_same_under_every_locale(name):
    code, out, err = _in_both_locales(
        ["--help"] if name is None else [name, "--help"])
    assert (code, err) == (0, "")
    layout = _HELP_LAYOUT.get(sys.version_info[:2])
    if layout is not None:
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert digest == _HELP_SHA256[name][layout]


@pytest.mark.parametrize("case", list(_USAGE_ERRORS))
def test_usage_errors_are_the_same_under_every_locale(case):
    argv, err = _USAGE_ERRORS[case]
    assert _in_both_locales(argv) == (2, "", err)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_pipe_exits_one_and_prints_nothing(json_flag):
    """`tmodext ext ... | head -1`: the reader has gone before the output
    is flushed.  main returns 1 and no traceback reaches stderr."""
    argv = ["ext", "--field", Q3, "--phi", "th + tau^3", "--psi",
            "th + tau^2", *json_flag]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(_child_command(argv), stdout=write_end,
                                stderr=subprocess.PIPE, text=True,
                                timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")


# ---------------------------------------------------------------------------
# Property: whatever the flags hold, main returns an exit code and never
# raises.  Carriers stay small, and the one huge exponent per pool must meet
# a budget, so each run is quick.

# Per field: module expressions and 1x1 matrices that parse over it.
_GOOD = {
    "GF(2)": (["1 + tau", "1 + tau^2", "1 + tau^3", "1 + tau^1000000000"],
              ["[[0]]", "[[1]]", "[[tau]]", "[[tau^100000000]]"]),
    "GF(2^2)": (["g + tau", "g + tau^2", "g + tau^3", "g + tau^1000000000"],
                ["[[1]]", "[[tau]]", "[[g + tau]]", "[[tau^100000000]]"]),
    "GF(3^2)": (["g + tau", "g + tau^2", "g + tau^3", "g + tau^1000000000"],
                ["[[0]]", "[[1]]", "[[tau]]", "[[g + tau^3]]",
                 "[[tau^100000000]]"]),
    "GF(3)(th)": (["th + tau", "th + tau^2", "th + tau^3",
                   "[[th, 1], [0, th]] + [[1, 0], [0, 1]]*tau^2",
                   "th + tau^1000000000"],
                  ["[[1 + tau]]", "[[th*tau^2]]", "[[1, tau]]",
                   "[[tau^100000000]]"]),
    "FTF(3; gens=a,th; inv=a)": (["th[0] + a[0]*tau", "th[0] + tau^2",
                                  "th[0] + tau^1000000000"],
                                 ["[[1]]", "[[a[0]*tau]]",
                                  "[[tau^100000000]]"]),
}
_BAD_FIELDS = ["GF(6)", "GF(", ""]
_BAD_EXPRESSIONS = ["th + * tau", "tau^", "0", "", "[[tau", "[[1], [2]]"]
_INTS = ["-5", "-1", "0", "1", "2", "x"]
_MODULE_FLAGS = {"phi", "psi", "gmod", "fmod", "g/partner", "g/sixterm",
                 "phi/optional"}
_POOLS = {
    "e": _INTS, "bound": [*_INTS, "100000"], "samples": _INTS, "seed": _INTS,
    "a": ["t", "t^2 + 1", "0", "t +", "", "t^100000000"],
    "var": ["tau", "tau", "sigma", "rho"],
    "what": ["structure", "duality", "ga", "sixterm", "all"],
    "mode": ["sample", "enumerate", "all"],
    "out": ["{missing}/out.txt"],
}


@st.composite
def _argvs(draw):
    """A subcommand with flags from the table, values from small pools:
    mostly well-formed over the chosen field, now and then malformed."""
    name, _, _, flags = draw(st.sampled_from(cli._COMMANDS))
    field = draw(st.sampled_from(
        _BAD_FIELDS if draw(st.integers(0, 5)) == 5 else list(_GOOD)))
    modules, matrices = _GOOD.get(field, _GOOD["GF(3^2)"])
    argv = [name]
    for flag in (*cli._COMMON_FLAGS, *flags.split()):
        # leave a flag out now and then, --out (never writable) mostly
        if draw(st.integers(0, 9)) > (2 if flag == "out" else 8):
            continue
        argv.append("--" + flag.split("/")[0])
        if flag == "field":
            argv.append(field)
        elif flag in _POOLS:
            argv.append(draw(st.sampled_from(_POOLS[flag])))
        elif flag != "json":
            good = modules if flag in _MODULE_FLAGS else matrices
            bad = draw(st.integers(0, 5)) == 5
            argv.append(draw(st.sampled_from(_BAD_EXPRESSIONS if bad
                                             else good)))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["split", "--field", F9, "--phi", "g + tau^2", "--psi", "g + tau^2",
          "--delta", "[[0]]", "--bound", "-1"])
def test_main_returns_an_exit_code_and_never_raises(argv):
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        missing = os.path.join(tmp, "missing")
        argv = [arg.replace("{missing}", missing) for arg in argv]
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
