"""Tests driving the command-line interface in process."""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import tmodext.cli as cli
from tmodext import Check, Report
from tmodext.skewpoly import MAX_NESTING

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


def test_hom_output(capsys):
    code, out, _ = run(capsys, [
        "hom", "--field", F4, "--phi", "g + tau", "--psi", "g + tau",
        "--bound", "2"])
    assert code == 0
    assert "fp_dimension: 3" in out
    assert "[[g + tau]]" in out


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


# ---------------------------------------------------------------------------
# Property: whatever the flags hold, main returns an exit code and never
# raises.  Degrees and carrier sizes stay small so each run is quick.

# Per field: module expressions and 1x1 matrices that parse over it.
_GOOD = {
    "GF(2)": (["1 + tau", "1 + tau^2", "1 + tau^3"],
              ["[[0]]", "[[1]]", "[[tau]]"]),
    "GF(2^2)": (["g + tau", "g + tau^2", "g + tau^3"],
                ["[[1]]", "[[tau]]", "[[g + tau]]"]),
    "GF(3^2)": (["g + tau", "g + tau^2", "g + tau^3"],
                ["[[0]]", "[[1]]", "[[tau]]", "[[g + tau^3]]"]),
    "GF(3)(th)": (["th + tau", "th + tau^2", "th + tau^3",
                   "[[th, 1], [0, th]] + [[1, 0], [0, 1]]*tau^2"],
                  ["[[1 + tau]]", "[[th*tau^2]]", "[[1, tau]]"]),
    "FTF(3; gens=a,th; inv=a)": (["th[0] + a[0]*tau", "th[0] + tau^2"],
                                 ["[[1]]", "[[a[0]*tau]]"]),
}
_BAD_FIELDS = ["GF(6)", "GF(", ""]
_BAD_EXPRESSIONS = ["th + * tau", "tau^", "0", "", "[[tau", "[[1], [2]]"]
_INTS = ["-5", "-1", "0", "1", "2", "x"]
_MODULE_FLAGS = {"phi", "psi", "gmod", "fmod", "g/partner", "g/sixterm",
                 "phi/optional"}
_POOLS = {
    "e": _INTS, "bound": _INTS, "samples": _INTS, "seed": _INTS,
    "a": ["t", "t^2 + 1", "0", "t +", ""],
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
