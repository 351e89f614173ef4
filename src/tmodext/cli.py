"""Command-line front end.

Every invocation names one coefficient field with --field and describes
modules, biderivations, and polynomials in the same text grammar the parsers
accept; results are printed in canonical text form or, with --json, as
stable JSON documents.  Exit codes: 0 success, 1 domain error, 2 usage or
parse error, 3 verification failure.

Each subcommand is one row of ``_COMMANDS`` (name, handler, help, flags),
and each flag is declared once in ``_FLAGS``.  The dispatcher ``_run``
parses --field before any other text and calls ``handler(args, spec)``
with the parsed domain.  ``_read`` reads a well-formed command line
straight off those tables: the command, then its flags by their full
names.  Anything else (help, abbreviations, ``--x=v``, a missing or
malformed value) goes to argparse, the one source of help text and
usage-error wording, which is imported only then; a command's argparse
parser, with its flags, is built only when argparse chooses that command.
Help takes shutil's terminal width without importing shutil, whose import
(bz2, lzma, zlib, fnmatch) costs a fresh process more than most commands.
"""

from __future__ import annotations

import os
import sys
import types

from .biderivations import Biderivation, assemble, reduce_canonical
from .coefficients import parse_field
from .errors import ParseError, TmodError, UnsupportedRegime, UsageError
from .ext_structures import (
    duality_transport,
    ext_product,
    ext_structure,
    ga_sequence,
)
from .homological import (
    baer_sum,
    hom_space,
    is_split,
    pullback,
    pushout,
    six_term,
    t_action,
)
from .modules_t import carlitz_power, parse_module
from .oracle import verify_duality, verify_ga, verify_sixterm, verify_structure
from .skewpoly import TAU, SIGMA, parse_apoly, parse_matrix


def _columns():
    """shutil.get_terminal_size().columns: COLUMNS if a positive integer,
    else the width of the terminal on stdout, else 80."""
    try:
        if (columns := int(os.environ["COLUMNS"])) > 0:
            return columns
    except (KeyError, ValueError):
        pass
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


class _CommandParser:
    """One command's entry in argparse's command map: it keeps what
    add_parser passes (parser class, prog, description, flag names,
    handler) and builds the command's parser when argparse hands it the
    command's arguments."""

    def __init__(self, *, parser_class, flags, handler, **kwargs):
        self._parser_class, self._flags = parser_class, flags
        self._handler, self._kwargs = handler, kwargs

    def parse_known_args(self, args, namespace):
        parser = self._parser_class(**self._kwargs)
        parser.set_defaults(func=self._handler)
        for flag in self._flags:
            parser.add_argument("--" + flag.split("/")[0], **_FLAGS[flag])
        return parser.parse_known_args(args, namespace)


def _slot_text(slot):
    return "(" + ",".join(str(x) for x in slot) + ")"


def _emit(args, text, payload):
    """Print the text, or the JSON payload under --json; with --out, write
    it to that file instead.  Returns exit code 0."""
    if args.json:
        import json  # it imports re and enum, so only --json loads them
        text = json.dumps(payload, indent=2)
    if args.out is None:
        print(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(
            f"cannot write {args.out}: {exc.strerror or exc}") from None
    return 0


def _module(spec, text, var=TAU):
    if text is None:
        raise UsageError("a module expression is required here")
    return parse_module(spec, text, var)


def _delta(spec, source, target, text):
    if text is None:
        raise UsageError("--delta is required here")
    return Biderivation(source, target, parse_matrix(spec, text, source.var))


def _pair(spec, args):
    """The --phi and --psi modules, in that order."""
    var = getattr(args, "var", TAU)
    return _module(spec, args.phi, var), _module(spec, args.psi, var)


def _class(spec, args):
    """The --delta class of Ext(--phi, --psi), parsed after both modules."""
    return _delta(spec, *_pair(spec, args), args.delta)


# ---------------------------------------------------------------------------
# Structure commands: one printer, one builder per command.


def _print_structure(args, spec, structure, basis, pi, ga_rank, title):
    payload = {
        "field": spec.header(),
        "source": structure.source.t_matrix.to_json(),
        "target": structure.target.t_matrix.to_json(),
        "regime": structure.regime,
        "basis": [list(slot) for slot in basis],
        "pi_t": pi.to_json(),
        "ga_rank": ga_rank,
    }
    text = "\n".join([
        f"field: {spec.header()}",
        f"source: {structure.source}",
        f"target: {structure.target}",
        f"regime: {structure.regime}",
        "basis: " + " ".join(_slot_text(s) for s in basis),
        f"ga_rank: {ga_rank}",
        f"{title}:",
        str(pi),
    ])
    return _emit(args, text, payload)


def _print_ext(args, spec, structure, title="Pi_t"):
    seq = ga_sequence(structure)
    return _print_structure(args, spec, structure, structure.basis,
                            structure.pi, seq.s, title)


def cmd_ext(args, spec):
    return _print_ext(args, spec, ext_structure(*_pair(spec, args)))


def cmd_ext0(args, spec):
    structure = ext_structure(*_pair(spec, args))
    seq = ga_sequence(structure)
    basis = [slot for i, slot in enumerate(structure.basis)
             if i not in seq.pure]
    return _print_structure(args, spec, structure, basis, seq.sub_pi, seq.s,
                            "Pi0_t")


def cmd_ext_prod(args, spec):
    sources = [_module(spec, part) for part in args.phi.split(";")]
    targets = [_module(spec, part) for part in args.psi.split(";")]
    return _print_ext(args, spec, ext_product(sources, targets))


def cmd_ext_tmod(args, spec):
    source, target = _pair(spec, args)
    if not source.has_invertible_leading():
        raise UnsupportedRegime(
            "ext-tmod needs a source with an invertible leading "
            "coefficient matrix")
    return _print_ext(args, spec, ext_structure(source, target))


def cmd_ext_carlitz(args, spec):
    source = _module(spec, args.phi)
    return _print_ext(args, spec,
                      ext_structure(source, carlitz_power(spec, args.e)))


def cmd_ext_dual(args, spec):
    return _print_ext(args, spec, duality_transport(*_pair(spec, args)),
                      title="Pi_t (adjoint side)")


def cmd_ext_seq(args, spec):
    structure = ext_structure(*_pair(spec, args))
    seq = ga_sequence(structure)
    payload = {**seq.to_json(), "field": spec.header()}
    lines = [
        f"field: {spec.header()}",
        f"s: {seq.s}",
        "pure: " + (" ".join(_slot_text(structure.basis[i])
                             for i in seq.pure) or "(none)"),
        "g:",
        str(seq.g) if seq.g is not None else "(none)",
        "inclusion:",
        str(seq.inclusion) if seq.inclusion is not None else "(none)",
        "Pi0_t:",
        str(seq.sub_pi) if seq.sub_pi is not None else "(none)",
    ]
    return _emit(args, "\n".join(lines), payload)


# ---------------------------------------------------------------------------
# Calculator commands.


def cmd_adjoint(args, spec):
    if args.phi is not None:
        result = _module(spec, args.phi, args.var).adjoint().t_matrix
    elif args.delta is not None:
        result = parse_matrix(spec, args.delta, args.var).adjoint()
    else:
        raise UsageError("adjoint needs --phi or --delta")
    return _emit(args, str(result), result.to_json())


def cmd_reduce(args, spec):
    result = reduce_canonical(_class(spec, args))
    payload = {
        "canonical": result.canonical.matrix.to_json(),
        "witness": result.witness.to_json(),
        "regime": result.regime,
    }
    text = "\n".join([
        f"regime: {result.regime}",
        "canonical:",
        str(result.canonical.matrix),
        "witness:",
        str(result.witness),
    ])
    return _emit(args, text, payload)


def cmd_assemble(args, spec):
    built = assemble(_class(spec, args))
    payload = {
        "middle": built.middle.t_matrix.to_json(),
        "inclusion": built.inclusion.to_json(),
        "projection": built.projection.to_json(),
    }
    text = "\n".join([
        "middle:",
        str(built.middle.t_matrix),
        "inclusion:",
        str(built.inclusion),
        "projection:",
        str(built.projection),
    ])
    return _emit(args, text, payload)


def _print_canonical(args, result):
    return _emit(args, str(result.matrix),
                 {"canonical": result.matrix.to_json()})


def cmd_baer(args, spec):
    d1 = _class(spec, args)
    d2 = _delta(spec, d1.source, d1.target, args.delta2)
    return _print_canonical(args, baer_sum(d1, d2))


def cmd_act(args, spec):
    delta = _class(spec, args)
    return _print_canonical(args, t_action(parse_apoly(spec, args.a), delta))


def _print_moved(args, spec, move, map_text, module_text):
    """Move the --delta class along a morphism, then print the result and,
    when a regime applies, its canonical form."""
    delta = _class(spec, args)
    module = _module(spec, module_text)
    result = move(delta, parse_matrix(spec, map_text), module)
    try:
        canonical = reduce_canonical(result).canonical.matrix
    except UnsupportedRegime:
        return _emit(args, str(result.matrix),
                     {"delta": result.matrix.to_json(), "canonical": None})
    text = "\n".join(["delta:", str(result.matrix),
                      "canonical:", str(canonical)])
    return _emit(args, text, {"delta": result.matrix.to_json(),
                              "canonical": canonical.to_json()})


def cmd_pullback(args, spec):
    return _print_moved(args, spec, pullback, args.g, args.gmod)


def cmd_pushout(args, spec):
    return _print_moved(args, spec, pushout, args.f, args.fmod)


def cmd_split(args, spec):
    result = is_split(_class(spec, args), bound=args.bound)
    if result.kind == "split":
        payload = {"result": "split", "witness": result.witness.to_json()}
        text = "split\nwitness:\n" + str(result.witness)
    elif result.kind == "not-split":
        payload = {"result": "not-split",
                   "canonical": result.canonical.matrix.to_json()
                   if result.canonical is not None else None,
                   "reason": result.reason}
        text = "not split"
        if result.canonical is not None:
            text += "\ncanonical:\n" + str(result.canonical.matrix)
        if result.reason:
            text += "\nreason: " + result.reason
    else:
        payload = {"result": "inconclusive", "bound": result.bound}
        text = f"inconclusive (searched degree bound {result.bound})"
    return _emit(args, text, payload)


def cmd_hom(args, spec):
    space = hom_space(*_pair(spec, args), bound=args.bound)
    payload = {"basis": [f.to_json() for f in space.basis],
               "complete": space.complete,
               "bound": space.bound}
    lines = [f"complete: {'yes' if space.complete else 'no'}",
             f"bound: {space.bound}",
             f"fp_dimension: {space.fp_dimension}"]
    lines.extend(str(f) for f in space.basis)
    return _emit(args, "\n".join(lines), payload)


def cmd_sixterm(args, spec):
    delta = _class(spec, args)
    bundle = six_term(delta, _module(spec, args.g))
    structure = bundle.omega_structure()
    block = bundle.delta_block()
    payload = {
        "field": spec.header(),
        "middle": bundle.middle.t_matrix.to_json(),
        "regime": structure.regime,
        "basis": [list(slot) for slot in structure.basis],
        "omega_t": structure.pi.to_json(),
        "delta_t": block.to_json(),
    }
    text = "\n".join([
        f"field: {spec.header()}",
        "middle:",
        str(bundle.middle.t_matrix),
        "basis: " + " ".join(_slot_text(s) for s in structure.basis),
        "Omega_t:",
        str(structure.pi),
        "Delta_t:",
        str(block),
    ])
    return _emit(args, text, payload)


def cmd_verify(args, spec):
    what = args.what
    if what == "duality" and args.mode == "enumerate":
        raise UsageError("--mode enumerate is not available for duality")
    source, target = _pair(spec, args)
    if what == "structure":
        report = verify_structure(ext_structure(source, target),
                                  samples=args.samples, seed=args.seed,
                                  mode=args.mode)
    elif what == "duality":
        report = verify_duality(source, target, classes=args.samples,
                                seed=args.seed)
    elif what == "ga":
        report = verify_ga(ga_sequence(ext_structure(source, target)),
                           seed=args.seed)
    else:
        delta = _delta(spec, source, target, args.delta)
        report = verify_sixterm(six_term(delta, _module(spec, args.g)),
                                seed=args.seed)
    lines = [("pass" if c.passed else "FAIL") + f" {c.name}: {c.detail}"
             for c in report.checks]
    lines.append("ok" if report.ok else "FAILED")
    _emit(args, "\n".join(lines), report.to_json())
    return 0 if report.ok else 3


# ---------------------------------------------------------------------------
# The parser: a flag table and a command table.


def _count(text):
    """argparse type of --bound and --samples: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


# add_argument keywords of every flag.  "g/partner" is the flag --g with the
# meaning after the slash; the part before it is the flag's name.
_FLAGS = {
    "field": dict(required=True,
                  help="coefficient field header, e.g. GF(3)(th)"),
    "json": dict(action="store_true", default=False,
                 help="emit JSON instead of text"),
    "out": dict(metavar="FILE",
                help="write the output to FILE and print nothing"),
    "phi": dict(required=True, help="source module expression"),
    "phi/optional": dict(help="module expression"),
    "psi": dict(required=True, help="target module expression"),
    "delta": dict(required=True, help="biderivation matrix expression"),
    "delta/optional": dict(help="matrix expression"),
    "delta/sixterm": dict(help="biderivation (sixterm only)"),
    "delta2": dict(required=True,
                   help="second biderivation matrix expression"),
    "var": dict(choices=(TAU, SIGMA), default=TAU,
                help="twisted variable for all expressions"),
    "e": dict(type=int, required=True, help="tensor-power exponent"),
    "a": dict(required=True, help="polynomial in t, e.g. 't^2 + 1'"),
    "bound": dict(type=_count, help="degree bound for bounded searches"),
    "g/morphism": dict(required=True, help="morphism matrix expression"),
    "g/partner": dict(required=True,
                      help="partner module for the Hom/Ext sequences"),
    "g/sixterm": dict(help="partner module (sixterm only)"),
    "gmod": dict(required=True, help="module the morphism starts from"),
    "f": dict(required=True, help="morphism matrix expression"),
    "fmod": dict(required=True, help="module the morphism lands in"),
    "what": dict(choices=("structure", "duality", "ga", "sixterm"),
                 default="structure", help="which claim to verify"),
    "samples": dict(type=_count, default=100,
                    help="number of random samples"),
    "seed": dict(type=int, default=0, help="random seed"),
    "mode": dict(choices=("sample", "enumerate"), default="sample",
                 help="sample random classes or enumerate all"),
}

# Flags every command takes, ahead of its own.
_COMMON_FLAGS = ("field", "json", "out")

# (name, handler, help, flags in the order --help lists them)
_COMMANDS = (
    ("ext", cmd_ext, "t-module structure on Ext(phi, psi)", "phi psi"),
    ("ext0", cmd_ext0,
     "structure on the zero-constant-term subgroup of Ext(phi, psi)",
     "phi psi"),
    ("ext-seq", cmd_ext_seq,
     "the sequence 0 -> Ext0 -> Ext -> (scalar part)^s -> 0", "phi psi"),
    ("ext-prod", cmd_ext_prod,
     "structure on Ext of direct sums (semicolon-separated factors)",
     "phi psi"),
    ("ext-tmod", cmd_ext_tmod,
     "structure on Ext(Phi, psi) for a higher-dimensional source Phi",
     "phi psi"),
    ("ext-carlitz", cmd_ext_carlitz,
     "structure on Ext(phi, C^(e)) for the e-th Carlitz tensor power",
     "phi e"),
    ("ext-dual", cmd_ext_dual,
     "adjoint-side structure on Ext(phi, psi) for a reversed pair",
     "phi psi"),
    ("adjoint", cmd_adjoint,
     "adjoint of a module (--phi) or matrix (--delta)",
     "var phi/optional delta/optional"),
    ("reduce", cmd_reduce, "canonical form and witness of a biderivation",
     "phi psi delta var"),
    ("assemble", cmd_assemble,
     "middle term, inclusion, and projection of the extension",
     "phi psi delta var"),
    ("baer", cmd_baer, "canonical form of the Baer sum of two classes",
     "phi psi delta delta2"),
    ("act", cmd_act, "canonical form of a(t) acting on a class",
     "phi psi delta a"),
    ("pullback", cmd_pullback,
     "pull a class back along a morphism g: gmod -> phi",
     "phi psi delta g/morphism gmod"),
    ("pushout", cmd_pushout,
     "push a class out along a morphism f: psi -> fmod",
     "phi psi delta f fmod"),
    ("split", cmd_split, "decide or search whether a class splits",
     "phi psi delta var bound"),
    ("hom", cmd_hom, "bounded basis of the morphism space Hom(phi, psi)",
     "phi psi bound"),
    ("sixterm", cmd_sixterm,
     "six-term data of an extension against a partner module",
     "phi psi delta g/partner"),
    ("verify", cmd_verify,
     "re-check a computed result with the brute-force oracle",
     "what phi psi delta/sixterm g/sixterm samples seed mode"),
)


def _read(argv):
    """The namespace argparse builds for a well-formed command line: a
    command name, then that command's flags by their full names, each
    value flag followed by a value that does not start with "-" and passes
    the flag's type and choices, every required flag given.  None for
    anything else, which argparse then reads and reports."""
    row = next((row for row in _COMMANDS if argv and row[0] == argv[0]), None)
    if row is None:
        return None
    name, handler, _, flags = row
    by_option = {"--" + flag.split("/")[0]: flag
                 for flag in (*_COMMON_FLAGS, *flags.split())}
    given, tokens = {}, iter(argv[1:])
    for option in tokens:
        flag = by_option.get(option)
        if flag is None:
            return None
        kwargs = _FLAGS[flag]
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as a flag
        if text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse reports it, or lets it escape
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    values = {}
    for flag in by_option.values():
        kwargs = _FLAGS[flag]
        if kwargs.get("required") and flag not in given:
            return None
        values[flag.split("/")[0]] = given.get(flag, kwargs.get("default"))
    return types.SimpleNamespace(command=name, func=handler, **values)


def _build_parser():
    """argparse's parser of the command line, for what _read leaves."""
    import argparse

    class HelpFormatter(argparse.HelpFormatter):
        def __init__(self, prog):
            super().__init__(prog, width=_columns() - 2)

    class ArgumentParser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(formatter_class=HelpFormatter, **kwargs)

        def error(self, message):
            raise UsageError(message)

    parser = ArgumentParser(
        prog="tmodext",
        description="Exact Ext-group computations for Drinfeld modules and "
                    "Anderson t-modules over twisted polynomial rings.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True, parser_class=_CommandParser)
    for name, handler, help_text, flags in _COMMANDS:
        sub.add_parser(name, help=help_text, description=help_text,
                       flags=(*_COMMON_FLAGS, *flags.split()),
                       handler=handler, parser_class=ArgumentParser)
    return parser


def _run(argv):
    try:
        args = _read(argv)
        if args is None:
            try:
                args = _build_parser().parse_args(argv)
            except SystemExit as exc:  # --help exits with code 0
                return int(exc.code or 0)
        return args.func(args, parse_field(args.field))
    except TmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, UsageError)) else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early (``tmodext ... | head -1``): stdout goes to
        # devnull, so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
