"""The benchmark's workloads.

Each in-process workload is built by a function `build(tm, rng)` from the
imported tmodext package and a seeded `random.Random`.  It returns the
fixed query set of one pass and a warm-up query of the same kind for every
seed.  A query's `run` is the timed call; its `check` runs outside the
timed span and returns True when the answer is right.  Queries look up
library functions on `tm` when they run, so a tracer installed after the
build sees every call.

`cli-oneshot` is a fixed command list (see `CLI_COMMANDS`); each command
runs in a fresh interpreter through `cli_child.py`.
"""

import dataclasses
import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "references.json"), encoding="utf-8") as _fh:
    REFERENCES = json.load(_fh)


@dataclasses.dataclass
class Query:
    name: str
    run: object            # () -> result, the timed call
    check: object          # result -> bool, outside the timed span
    inputs: str = ""       # what the seed chose for this query


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def structure_digest(structure):
    """Regression digest of a computed Ext structure's printed form."""
    return digest(f"{structure.regime}\n{structure.basis}\n{structure.pi}")


def _drinfeld(tm, spec, text):
    return tm.drinfeld(spec, tm.parse_poly(spec, text))


# ---------------------------------------------------------------------------
# ext-ladder: the tracked reduction over F_3(th) and formal twist fields.

LADDER = range(4, 13)

# Independent goldens: acceptance criteria 1 and 2 and the README examples.
FLAGSHIP_PI_GOLDEN = ("[[th, 0, 0],\n"
                      " [0, th, (th + 2*th^3)*tau^2],\n"
                      " [tau^2, tau^4, th + tau^6]]")
FORMAL_ENTRY_GOLDENS = {
    (1, 2): "((b[0]*th[0] + 2*b[0]*th[1])/a[1])*tau^2",
    (2, 0): "b[0]*tau^2",
    (2, 1): "(b[0]*b[2]/a[2])*tau^4",
    (2, 2): "th[0] + (b[0]*b[2]*b[4]/(a[2]*a[5]))*tau^6",
}
DUAL_PI_GOLDEN = (
    "[[th[0], 0, 0],\n"
    " [0, th[0], ((2*b[-2]*th[-1] + b[-2]*th[0])/a[-4])*sig^2],\n"
    " [b[-2]*sig^2, (b[-4]*b[-2]/a[-5])*sig^4, "
    "th[0] + (b[-6]*b[-4]*b[-2]/(a[-8]*a[-5]))*sig^6]]")


def build_ext_ladder(tm, rng):
    q3 = tm.parse_field("GF(3)(th)")
    formal = tm.parse_field("FTF(3; gens=a,b,th; inv=a)")
    refs = REFERENCES["ext-ladder"]
    queries = []

    def add(name, spec, phi, psi, check, call="ext_structure"):
        src, tgt = _drinfeld(tm, spec, phi), _drinfeld(tm, spec, psi)
        queries.append(Query(name, lambda: getattr(tm, call)(src, tgt),
                             check, f"{phi} / {psi}"))

    def digest_is(name):
        return lambda s: structure_digest(s) == refs[name]

    for n in LADDER:
        add(f"ladder-{n}", q3, f"th + th*tau + tau^{n}",
            f"th + th*tau + tau^{n - 1}", digest_is(f"ladder-{n}"))
    add("ftf-7-6", formal, "th[0] + a[0]*tau^7", "th[0] + b[0]*tau^6",
        digest_is("ftf-7-6"))
    add("flagship", q3, "th + tau^3", "th + tau^2",
        lambda s: str(s.pi) == FLAGSHIP_PI_GOLDEN)
    add("ftf-3-2", formal, "th[0] + a[0]*tau^3", "th[0] + b[0]*tau^2",
        lambda s: all(str(s.pi.entry(i, j)) == want
                      for (i, j), want in FORMAL_ENTRY_GOLDENS.items()))
    add("ftf-duality", formal, "th[0] + b[0]*tau^2", "th[0] + a[0]*tau^3",
        lambda d: str(d.pi) == DUAL_PI_GOLDEN, call="duality_transport")
    warmup = queries[0]
    rng.shuffle(queries)
    return queries, warmup


# ---------------------------------------------------------------------------
# class-ops: group laws and splitting over GF(2^2) and GF(3^2).

CLASS_OPS_CASES = (("GF(2^2)", 2, 2, "g + tau^2", "g + tau"),
                   ("GF(3^2)", 3, 2, "g + tau^3", "g + tau^2"))
CLASS_OPS_PER_KIND = 24


def random_element_text(rng, p, m):
    """A uniformly random nonzero element of GF(p^m), as text in g."""
    coeffs = [0] * m
    while not any(coeffs):
        coeffs = [rng.randrange(p) for _ in range(m)]
    terms = [str(c) if i == 0 else f"{c}*g^{i}"
             for i, c in enumerate(coeffs) if c]
    return "(" + " + ".join(terms) + ")"


def random_poly_text(rng, p, m, degree):
    """A random polynomial with a nonzero coefficient at every degree up to
    `degree`, so every class of a workload has the same size."""
    return " + ".join(f"{random_element_text(rng, p, m)}*tau^{k}"
                      for k in range(degree + 1))


def _same(pair):
    return pair[0] == pair[1]


def build_class_ops(tm, rng):
    queries = []
    for header, p, m, phi_text, psi_text in CLASS_OPS_CASES:
        spec = tm.parse_field(header)
        src = _drinfeld(tm, spec, phi_text)
        tgt = _drinfeld(tm, spec, psi_text)
        max_deg = max(src.rank, tgt.rank) + 2

        def bider(text):
            return tm.Biderivation(src, tgt,
                                   tm.parse_matrix(spec, f"[[{text}]]"))

        zero = bider("0")
        a = tm.parse_apoly(spec, "t^2 + t")
        t = tm.parse_apoly(spec, "t")
        for i in range(CLASS_OPS_PER_KIND):
            texts = [random_poly_text(rng, p, m, max_deg) for _ in range(3)]
            d1, d2, d3 = (bider(text) for text in texts)
            neg = bider(f"-({texts[0]})")
            u = random_poly_text(rng, p, m, 2)
            inner = bider(f"({u})*({phi_text}) - ({psi_text})*({u})")
            tag = f"{header}-{i}"
            given = "; ".join(texts)

            queries += [
                Query(f"commutative-{tag}", lambda d1=d1, d2=d2: (
                    tm.class_of(tm.baer_sum(d1, d2)),
                    tm.class_of(tm.baer_sum(d2, d1))), _same, given),
                Query(f"associative-{tag}", lambda d1=d1, d2=d2, d3=d3: (
                    tm.class_of(tm.baer_sum(tm.baer_sum(d1, d2), d3)),
                    tm.class_of(tm.baer_sum(d1, tm.baer_sum(d2, d3)))), _same,
                    given),
                Query(f"identity-{tag}", lambda d1=d1, zero=zero: (
                    tm.class_of(tm.baer_sum(d1, zero)), tm.class_of(d1)),
                    _same, given),
                Query(f"inverse-{tag}", lambda d1=d1, neg=neg: (
                    tm.class_of(tm.baer_sum(d1, neg))),
                    lambda c: c.is_zero(), given),
                Query(f"t-linear-{tag}", lambda d1=d1, d2=d2, a=a: (
                    tm.class_of(tm.t_action(a, tm.baer_sum(d1, d2))),
                    tm.class_of(tm.baer_sum(tm.t_action(a, d1),
                                            tm.t_action(a, d2)))), _same,
                    given),
                Query(f"act-pull-push-{tag}",
                      lambda d1=d1, t=t, src=src, tgt=tgt: (
                          tm.class_of(tm.t_action(t, d1)),
                          tm.class_of(tm.pullback(d1, src.t_matrix, src)),
                          tm.class_of(tm.pushout(d1, tgt.t_matrix, tgt))),
                      lambda r: r[0] == r[1] == r[2], given),
                Query(f"split-inner-{tag}",
                      lambda inner=inner: tm.is_split(inner),
                      lambda r, inner=inner: _reproduces(r, inner), u),
            ]
    warmup = queries[0]
    rng.shuffle(queries)
    return queries, warmup


def _reproduces(result, delta):
    """A split verdict whose witness W gives W*Phi - Psi*W == delta."""
    if result.kind != "split":
        return False
    w = result.witness
    return (w * delta.source.t_matrix - delta.target.t_matrix * w
            == delta.matrix)


# ---------------------------------------------------------------------------
# oracle-verify: brute-force verdicts on structures built during set-up.

ORACLE_COPIES = 4
STRUCTURE_SAMPLES = 20
DUALITY_CLASSES = 8
SIXTERM_INNER_SAMPLES = 10


def mistwisted(tm, structure, rng):
    """The structure with one twist-sensitive coefficient of pi replaced by
    its Frobenius twist, the coefficient chosen by rng; and its place."""
    pi = structure.pi
    spec, var = pi.spec, pi.var
    spots = [(i, j, k)
             for i in range(pi.nrows) for j in range(pi.ncols)
             for k in range(pi.entry(i, j).degree + 1)
             if not pi.entry(i, j).coefficient(k).is_zero()
             and pi.entry(i, j).coefficient(k).twist(1)
             != pi.entry(i, j).coefficient(k)]
    i, j, k = rng.choice(spots)
    c = pi.entry(i, j).coefficient(k)
    rows = [[pi.entry(r, s) for s in range(pi.ncols)]
            for r in range(pi.nrows)]
    rows[i][j] = rows[i][j] + tm.SkewPoly.term(spec, var, c.twist(1) - c, k)
    return dataclasses.replace(
        structure, pi=tm.SkewMatrix.from_rows(spec, var, rows)), (i, j, k)


def build_oracle_verify(tm, rng):
    queries = []

    def verdict(name, call, check=lambda report: report.ok, note=""):
        """A query calling `call(seed)` with a verdict seed from rng."""
        seed = rng.randrange(2 ** 31)
        queries.append(Query(name, lambda: call(seed), check,
                             f"seed={seed}{note}"))

    for header in ("GF(3^2)", "GF(2^3)"):
        spec = tm.parse_field(header)
        two_dim = tm.tmodule(spec, tm.parse_matrix(
            spec, "[[g, 1], [0, g]] + [[1, 0], [0, 1]]*tau^2"))
        pairs = [("3-2", _drinfeld(tm, spec, "g + tau^3"),
                  _drinfeld(tm, spec, "g + tau^2")),
                 ("2-1", _drinfeld(tm, spec, "g + tau^2"),
                  _drinfeld(tm, spec, "g + tau")),
                 ("2dim-1", two_dim, _drinfeld(tm, spec, "g + tau"))]
        for label, src, tgt in pairs:
            structure = tm.ext_structure(src, tgt)
            for copy in range(ORACLE_COPIES):
                verdict(f"structure-{header}-{label}-{copy}",
                        lambda seed, s=structure: tm.verify_structure(
                            s, samples=STRUCTURE_SAMPLES, seed=seed))
            if header == "GF(3^2)" and label == "3-2":
                wrong, spot = mistwisted(tm, structure, rng)
                verdict("mistwisted-rejected",
                        lambda seed, s=wrong: tm.verify_structure(
                            s, samples=STRUCTURE_SAMPLES, seed=seed),
                        lambda report: not report.ok, f" twisted at {spot}")
    for header in ("GF(2^3)", "GF(2^4)"):
        spec = tm.parse_field(header)
        src = _drinfeld(tm, spec, "g + tau^3")
        tgt = _drinfeld(tm, spec, "g + tau^2")
        for copy in range(ORACLE_COPIES):
            verdict(f"duality-{header}-{copy}",
                    lambda seed, src=src, tgt=tgt: tm.verify_duality(
                        src, tgt, classes=DUALITY_CLASSES, seed=seed))
    f4 = tm.parse_field("GF(2^2)")
    for phi, psi in (("g + tau^2", "g + tau"), ("g + tau^3", "g + tau"),
                     ("g + tau^3", "g + tau^2")):
        seq = tm.ga_sequence(tm.ext_structure(_drinfeld(tm, f4, phi),
                                              _drinfeld(tm, f4, psi)))
        for copy in range(ORACLE_COPIES):
            verdict(f"ga-{phi}-{psi}-{copy}",
                    lambda seed, seq=seq: tm.verify_ga(seq, seed=seed))
    f2 = tm.parse_field("GF(2)")
    bundle = tm.six_term(
        tm.Biderivation(_drinfeld(tm, f2, "1 + tau^2"),
                        _drinfeld(tm, f2, "1 + tau^3"),
                        tm.parse_matrix(f2, "[[1]]")),
        tm.carlitz(f2))
    for copy in range(ORACLE_COPIES):
        verdict(f"sixterm-GF(2)-{copy}",
                lambda seed: tm.verify_sixterm(
                    bundle, seed=seed, inner_samples=SIXTERM_INNER_SAMPLES))
    warmup = queries[0]
    rng.shuffle(queries)
    return queries, warmup


QUERY_SETS = {
    "ext-ladder": build_ext_ladder,
    "class-ops": build_class_ops,
    "oracle-verify": build_oracle_verify,
}


# ---------------------------------------------------------------------------
# cli-oneshot: every subcommand in text and --json form, the README examples
# and malformed inputs, each in a fresh interpreter.

Q3 = "GF(3)(th)"
F4 = "GF(2^2)"
F9 = "GF(3^2)"
FORMAL = "FTF(3; gens=a,b,th; inv=a)"

# Independent goldens: the README examples, printed in full.
README_EXT = (
    "field: GF(3)(th)\n"
    "source: th + tau^3\n"
    "target: th + tau^2\n"
    "regime: drinfeld-forward\n"
    "basis: (0,0,0) (0,0,1) (0,0,2)\n"
    "ga_rank: 1\n"
    "Pi_t:\n"
    "[[th, 0, 0],\n"
    " [0, th, (th + 2*th^3)*tau^2],\n"
    " [tau^2, tau^4, th + tau^6]]\n")
README_EXT_DUAL_TAIL = "Pi_t (adjoint side):\n" + DUAL_PI_GOLDEN + "\n"
README_SIXTERM = (
    "field: GF(3)(th)\n"
    "middle:\n"
    "[[th + tau^2, 0],\n"
    " [1 + tau, th + tau^3]]\n"
    "basis: (0,1,0) (0,1,1) (0,1,2) (0,0,0) (0,0,1)\n"
    "Omega_t:\n"
    "[[th, 0, 0, 0, 0],\n"
    " [tau, th, tau^2, 0, 0],\n"
    " [0, tau, th, 0, 0],\n"
    " [0, 0, 2*tau, th, 0],\n"
    " [0, 0, 2*tau, tau, th + tau^2]]\n"
    "Delta_t:\n"
    "[[0, 0, 2*tau],\n"
    " [0, 0, 2*tau]]\n")
README_SPLIT = "split\nwitness:\n[[g + tau]]\n"
README_HOM = ("complete: no\nbound: 2\nfp_dimension: 3\n"
              "[[1]]\n[[g + tau]]\n[[tau^2]]\n")
README_VERIFY = (
    "pass constant-structure: pi is theta*I + nilpotent at degree zero\n"
    "pass action-samples: 50 classes, 0 disagreements between pi and "
    "direct reduction\n"
    "pass inner-invariance: 50 inner shifts, 0 coordinate changes\n"
    "ok\n")
ADJOINT_JSON = (
    '{\n  "var": "sigma",\n  "entries": [\n    [\n      [\n        [\n'
    '          0,\n          "g"\n        ],\n        [\n          3,\n'
    '          "1"\n        ]\n      ]\n    ]\n  ]\n}\n')

NESTED_DEPTH = 3000


def _cli_commands():
    ext_pair = ["--phi", "th + tau^3", "--psi", "th + tau^2"]
    f9_pair = ["--field", F9, "--phi", "g + tau^3", "--psi", "g + tau^2"]
    split_delta = "[[(g + tau)*(g + tau^3) + (2*g + 2*tau^2)*(g + tau)]]"
    # (name, argv, exit code, golden): golden is ("text", exact stdout),
    # ("tail", stdout suffix), ("contains", [substrings]) or None.
    both = [
        ("ext", ["ext", "--field", Q3, *ext_pair],
         ("text", README_EXT)),
        ("ext-dual", ["ext-dual", "--field", FORMAL,
                      "--phi", "th[0] + b[0]*tau^2",
                      "--psi", "th[0] + a[0]*tau^3"],
         ("tail", README_EXT_DUAL_TAIL)),
        ("sixterm", ["sixterm", "--field", Q3, "--phi", "th + tau^2",
                     "--psi", "th + tau^3", "--delta", "[[1 + tau]]",
                     "--g", "th + tau"],
         ("text", README_SIXTERM)),
        ("split", ["split", *f9_pair, "--delta", split_delta],
         ("text", README_SPLIT)),
        ("hom", ["hom", "--field", F4, "--phi", "g + tau", "--psi",
                 "g + tau", "--bound", "2"],
         ("text", README_HOM)),
        ("verify-structure", ["verify", "--field", F4, "--what", "structure",
                              "--phi", "g + tau^2", "--psi", "g + tau",
                              "--samples", "50", "--seed", "1"],
         ("text", README_VERIFY)),
        ("ext0", ["ext0", "--field", Q3, *ext_pair],
         ("contains", ["basis: (0,0,1) (0,0,2)",
                       "[[th, (th + 2*th^3)*tau^2],\n [tau^4, th + tau^6]]"])),
        ("ext-seq", ["ext-seq", "--field", Q3, *ext_pair],
         ("contains", ["s: 1", "pure: (0,0,0)", "[[1, 0, 0]]"])),
        ("ext-prod", ["ext-prod", "--field", Q3, "--phi",
                      "th + tau^3; th + tau^4", "--psi", "th + tau^2"],
         ("contains", ["regime: diagonal-pairs"])),
        ("ext-tmod", ["ext-tmod", "--field", Q3,
                      "--phi", "[[th, 1], [0, th]] + [[1, 0], [0, 1]]*tau^2",
                      "--psi", "th + tau"],
         ("contains", ["regime: matrix-source"])),
        ("ext-carlitz", ["ext-carlitz", "--field", Q3, "--phi", "th + tau^3",
                         "--e", "2"],
         ("contains", ["regime: carlitz-target", "ga_rank: 1"])),
        ("adjoint-module", ["adjoint", "--field", F9, "--phi", "g + tau^3"],
         ("text", "[[g + sig^3]]\n")),
        ("adjoint-matrix", ["adjoint", "--field", F9,
                            "--delta", "[[g*tau + 1, tau^2], [0, g]]"], None),
        ("reduce", ["reduce", "--field", Q3, *ext_pair,
                    "--delta", "[[th*tau^4]]"],
         ("contains", ["regime: drinfeld-forward",
                       "[[(th^2 + 2*th^4)*tau + th^81*tau^2]]",
                       "[[th^9 + th*tau]]"])),
        ("assemble", ["assemble", "--field", Q3, "--phi", "th + tau^2",
                      "--psi", "th + tau^3", "--delta", "[[1 + tau]]"],
         ("contains", ["[[th + tau^2, 0],\n [1 + tau, th + tau^3]]"])),
        ("baer", ["baer", *f9_pair, "--delta", "[[tau]]",
                  "--delta2", "[[tau]]"],
         ("contains", ["[[2*tau]]"])),
        ("act", ["act", *f9_pair, "--delta", "[[1]]", "--a", "t"],
         ("contains", ["[[g"])),
        ("pullback", ["pullback", *f9_pair, "--delta", "[[tau]]",
                      "--g", "[[g + tau^3]]", "--gmod", "g + tau^3"], None),
        ("pushout", ["pushout", *f9_pair, "--delta", "[[tau]]",
                     "--f", "[[g + tau^2]]", "--fmod", "g + tau^2"], None),
        ("split-not-split", ["split", *f9_pair, "--delta", "[[tau]]"], None),
        ("split-inconclusive", ["split", "--field", F9, "--phi", "g + tau^2",
                                "--psi", "g + tau^2", "--delta", "[[1]]",
                                "--bound", "1"], None),
        ("verify-duality", ["verify", "--field", "GF(2^3)", "--what",
                            "duality", "--phi", "g + tau^3", "--psi",
                            "g + tau^2", "--samples", "20", "--seed", "1"],
         ("contains", ["pass class-transport:"])),
        ("verify-ga", ["verify", "--field", F4, "--what", "ga",
                       "--phi", "g + tau^3", "--psi", "g + tau^2"], None),
        ("verify-sixterm", ["verify", "--field", "GF(2)", "--what", "sixterm",
                            "--phi", "1 + tau^2", "--psi", "1 + tau^3",
                            "--delta", "[[1]]", "--g", "1 + tau"], None),
    ]
    commands = []
    for name, argv, golden in both:
        commands.append((name, argv, 0, golden))
        if name == "adjoint-module":
            json_golden = ("text", ADJOINT_JSON)
        elif name == "split-not-split":
            json_golden = ("contains", ['"result": "not-split"',
                                        '"reason": "nonzero canonical form"'])
        elif name == "split-inconclusive":
            json_golden = ("contains", ['"result": "inconclusive"',
                                        '"bound": 1'])
        else:
            json_golden = None
        commands.append((f"{name}-json", [*argv, "--json"], 0, json_golden))
    commands += [
        ("help", ["--help"], 0, ("contains", ["COMMAND"])),
        # Criterion 3's second variant: the disputed connecting-block entry
        # is asserted neither way, so only the undisputed row is checked.
        ("sixterm-second-variant",
         ["sixterm", "--field", Q3, "--phi", "th + tau^2", "--psi",
          "th + tau^3", "--delta", "[[1 + tau^3]]", "--g", "th + tau"],
         0, ("contains", ["Delta_t:\n[[0, 0, 2*tau],\n"])),
        # Malformed inputs, with the exit codes of the README's table.
        ("missing-psi", ["ext", "--field", Q3, "--phi", "th + tau^2"], 2,
         None),
        ("unknown-command", ["frobnicate", "--field", Q3], 2, None),
        ("bad-field", ["ext", "--field", "GF(6)", "--phi", "th + tau^2",
                       "--psi", "th + tau"], 2, None),
        ("parse-error", ["ext", "--field", Q3, "--phi", "th + * tau^2",
                         "--psi", "th + tau"], 2, None),
        ("enumerate-duality", ["verify", "--field", "GF(2^3)", "--what",
                               "duality", "--phi", "g + tau^3", "--psi",
                               "g + tau^2", "--mode", "enumerate"], 2, None),
        ("equal-rank", ["ext", "--field", Q3, "--phi", "th + tau^2",
                        "--psi", "th + tau^2"], 1, None),
        (f"nested-parens-{NESTED_DEPTH}",
         ["ext", "--field", Q3, "--phi",
          "(" * NESTED_DEPTH + "th" + ")" * NESTED_DEPTH + " + tau^3",
          "--psi", "th + tau^2"], 2, None),
    ]
    return commands


CLI_COMMANDS = _cli_commands()

# Output not pinned by a regression digest: it holds the disputed entry.
UNPINNED = {"sixterm-second-variant"}


def check_cli(name, code, golden, report):
    """Whether a child's report shows the expected exit code and output."""
    if report.get("raised") or report["code"] != code:
        return False
    out = report["stdout"]
    if code != 0:
        return out == "" and report["stderr"].startswith("error: ")
    if golden is not None:
        kind, want = golden
        if kind == "text" and out != want:
            return False
        if kind == "tail" and not out.endswith(want):
            return False
        if kind == "contains" and not all(w in out for w in want):
            return False
    if name in UNPINNED:
        return True
    return digest(out) == REFERENCES["cli-oneshot"][name]
