"""Command-line front end: deterministic JSON reports for every analysis."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import islice

from .errors import BigradeError, InternalCheckFailed, ParseError
from .filtration import ass_quotients, dimension_filtration, sequentially_cm
from .hypersurface import classify, monomial_crosscheck, parse_profile, profile_of_monomial
from .invariants import analyze
from .io_formats import parse_ideal_file, parse_int, parse_term, read_text, render_ideal
from .local_cohomology import generalized_cm, growth_scan, lc_report
from .rings import (
    RingSpec,
    associated_primes,
    irreducible_decomposition,
    minimal_generators,
    primary_decomposition,
    render_monomial,
)

SCHEMA = 1

_quote = json.encoder.encode_basestring_ascii  # json.dumps's own C string escaper


def _axis(ring, name):
    return {
        "P": ring.x_block(),
        "Q": ring.y_block(),
        "all": ring.all_vars(),
    }[name]


def _prime_names(ring, p):
    return [ring.var_name(i) for i in sorted(p)]


def _dim_or_infinite(v):
    return "infinite" if v is None else v


def _load(args):
    """Parse the input ideal file; the ideal stays on `args` for error reports."""
    ring, I = parse_ideal_file(args.input, char=args.char)
    args.ideal = I
    return ring, I


def _ring(m, n, char):
    """RingSpec from option values; a bad value is a parse error, as in an ideal file."""
    try:
        return RingSpec(m, n, char)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cmd_analyze(args):
    ring, I = _load(args)
    rep = analyze(I, _axis(ring, args.axis))
    return {
        "char": ring.char,
        "grade": rep.grade,
        "cd": rep.cd,
        "mgrade": rep.mgrade,
        "dim": rep.dim,
        "maximal_depth": rep.maximal_depth,
        "witness_prime": _prime_names(ring, rep.witness_prime) if rep.witness_prime is not None else None,
        "cm_wrt_axis": rep.cm_wrt_Z,
        "cm_ordinary": rep.cm_ordinary,
    }


def cmd_decompose(args):
    ring, I = _load(args)

    def components(pcs):
        return [
            {
                "gens": [render_monomial(ring, g) for g in pc.component.gens],
                "radical": _prime_names(ring, pc.radical),
            }
            for pc in pcs
        ]

    return {
        "irreducible_components": components(irreducible_decomposition(I)),
        "primary_components": components(primary_decomposition(I)),
        "associated_primes": sorted(
            _prime_names(ring, p) for p in associated_primes(I)
        ),
    }


def cmd_filtration(args):
    ring, I = _load(args)
    ladder = dimension_filtration(I, _axis(ring, args.axis))
    blocks = ass_quotients(ladder)
    return {
        "cd_values": list(ladder.cd_values),
        "steps": [
            {
                "ideal": [render_monomial(ring, g) for g in J.gens],
                "cd": gamma,
                "ass_quotient": sorted(_prime_names(ring, p) for p in block),
            }
            for (J, gamma), block in zip(ladder.steps, blocks)
        ],
    }


def cmd_seqcm(args):
    ring, I = _load(args)
    return sequentially_cm(I, _axis(ring, args.axis))


def cmd_lc(args):
    ring, I = _load(args)
    rep = lc_report(I, args.i, _axis(ring, args.axis))
    return {
        "i": rep.i,
        "finitely_generated": rep.finitely_generated,
        "total_dim": _dim_or_infinite(rep.total_dim),
        "per_fiber": [
            {
                "pattern": list(e.pattern),
                "infinite_family": e.infinite_family,
                "finite_length": e.finite_length,
                "total_dim": _dim_or_infinite(e.total_dim),
                "witness_degree": list(e.witness_degree) if e.witness_degree else None,
            }
            for e in rep.per_fiber
        ],
    }


def cmd_gencm(args):
    ring, I = _load(args)
    return {"verdict": generalized_cm(I, _axis(ring, args.axis))}


def cmd_growth(args):
    # each radius is decimal digits, as a bidegree field: int() alone would
    # read "1_0" as 10 and take "+2"
    fields = [r.strip() for r in args.radii.split(",")]
    if not all(map(str.isdecimal, fields)):
        raise ParseError(f"--radii needs comma-separated nonnegative integers, got {args.radii!r}")
    radii = [parse_int(r) for r in fields]
    ring, I = _load(args)
    sums = growth_scan(I, args.i, radii, _axis(ring, args.axis))
    return {
        "i": args.i,
        "radii": radii,
        "cumulative_dims": sums,
    }


def cmd_hypersurface(args):
    ring = _ring(args.ring[0], args.ring[1], args.char)
    if args.factors is not None:
        profile = parse_profile(args.factors, ring)
    elif args.input is None:
        raise ParseError("hypersurface needs a profile file or --factors")
    else:
        profile = parse_profile(read_text(args.input), ring)
    verdict = classify(profile, ring)
    return {
        "factors": [list(f) for f in profile.factors],
        "maximal_depth": verdict.maximal_depth,
        "case": verdict.case_label,
        "case_trace": verdict.case_trace,
        "grade": verdict.grade_Q,
        "mgrade": verdict.mgrade_Q,
    }


def cmd_crosscheck(args):
    ring = _ring(args.ring[0], args.ring[1], args.char)
    f = parse_term(ring, args.monomial)
    args.ideal = minimal_generators(ring, [f])
    ok = monomial_crosscheck(f, ring)
    profile = profile_of_monomial(ring, f)
    verdict = classify(profile, ring)
    return {
        "monomial": render_monomial(ring, f),
        "agrees": ok,
        "case": verdict.case_label,
        "grade": verdict.grade_Q,
        "mgrade": verdict.mgrade_Q,
    }


def cmd_suite(args):
    from .suite import run_property_suite

    if args.count < 0:
        raise ParseError(f"--count must be nonnegative, got {args.count}")
    return run_property_suite(count=args.count, seed=args.seed, char=args.char)


def cmd_render(args):
    _, I = _load(args)
    return {"canonical": render_ideal(I)}


def integer(text):
    """The value of an integer option: an optional '-' and decimal digits,
    with surrounding spaces stripped, as a ring line's fields are.  int()
    alone would read "1_9" as 19 and take "+3"."""
    digits = text.strip()
    if not digits.removeprefix("-").isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer of decimal digits, got {text!r}")
    return parse_int(digits)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parse errors, not usage text."""

    def error(self, message):
        raise ParseError(message)


# add_argument's arguments for one argument: its name and its keywords
INPUT = "input", dict(help="ideal file")
AXIS = "--axis", dict(choices=["P", "Q", "all"], default="Q")
CHAR = "--char", dict(type=integer, default=0, help="rank characteristic (0 or prime)")
INDEX = "--i", dict(type=integer, required=True)
RING = "--ring", dict(type=integer, nargs=2, required=True, metavar=("M", "N"))

# each subcommand: the function it runs, its help line and its arguments in usage order
COMMANDS = {
    "analyze": (cmd_analyze, "grade/cd/mgrade/maximal depth report", (INPUT, AXIS, CHAR)),
    "decompose": (cmd_decompose, "irreducible and primary decomposition", (INPUT, CHAR)),
    "filtration": (cmd_filtration, "dimension filtration ladder", (INPUT, AXIS, CHAR)),
    "seqcm": (cmd_seqcm, "sequential Cohen-Macaulay test", (INPUT, AXIS, CHAR)),
    "lc": (cmd_lc, "local cohomology report at index i", (INPUT, AXIS, CHAR, INDEX)),
    "gencm": (cmd_gencm, "generalized Cohen-Macaulay test", (INPUT, AXIS, CHAR)),
    "growth": (
        cmd_growth,
        "cumulative cohomology dimensions over growing boxes",
        (INPUT, AXIS, CHAR, INDEX, ("--radii", dict(default="1,2,3,4", help="comma-separated radii"))),
    ),
    "hypersurface": (
        cmd_hypersurface,
        "classify a hypersurface factor profile",
        (
            ("input", dict(nargs="?", help="factor profile file")),
            ("--factors", dict(help='inline profile, e.g. "(1,1) (0,2)"')),
            RING,
            CHAR,
        ),
    ),
    "crosscheck": (
        cmd_crosscheck,
        "theorem vs engine on a monomial hypersurface",
        (("--monomial", dict(required=True, help='e.g. "x1*y1"')), RING, CHAR),
    ),
    "suite": (
        cmd_suite,
        "seeded random property suite",
        (("--count", dict(type=integer, default=200)), ("--seed", dict(type=integer, default=20240811)), CHAR),
    ),
    "render": (cmd_render, "canonical form of an ideal file", (INPUT, CHAR)),
}


@dataclass(frozen=True)
class Command:
    """What the token route reads of one subcommand: the actions
    `add_argument` returned, as its positionals in order and by each exact
    option string."""

    actions: tuple
    positionals: tuple
    options: dict


def build_parser():
    """A fresh argparse tree built from `COMMANDS` and, by each subcommand's
    name, its `Command`; the module builds one pair at import as `PARSER`
    and `SUBCOMMANDS`."""
    parser = _Parser(prog="bigrade", description="Invariants of bigraded monomial quotients")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, summary, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        actions = tuple(p.add_argument(flag, **keywords) for flag, keywords in specs)
        positionals = tuple(a for a in actions if not a.option_strings)
        commands[name] = Command(actions, positionals, {s: a for a in actions for s in a.option_strings})
    return parser, commands


# The one tree every run parses with, and its subcommands' `Command`s.  They
# are constants, not memos: they hold no answer, so `bigrade.clear_caches`
# does not reach them, and `import bigrade` does not import this module, so
# only a command-line run builds them.
PARSER, SUBCOMMANDS = build_parser()


def _indented(value, pad=""):
    """The text of json.dumps(value, sort_keys=True, indent=2) for a document
    whose dict keys are strings.  With `indent` set, json.dumps runs the
    pure-Python encoder; this writer gives its bytes at about half the cost.
    A scalar other than a string, an int, a bool or None goes to json.dumps."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = ",\n".join([f"{inner}{_quote(k)}: {_indented(value[k], inner)}" for k in sorted(value)])
        return f"{{\n{items}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = ",\n".join([inner + _indented(v, inner) for v in value])
        return f"[\n{items}\n{pad}]"
    return json.dumps(value)


def _error(message, code) -> tuple:
    return code, json.dumps({"schema": SCHEMA, "error": message}, sort_keys=True)


def _read_line(argv):
    """PARSER's Namespace for argv, read in one pass over its tokens: the
    subcommand, then each exact option string with its `nargs` values and
    each bare positional, every value through its action's `type` and
    `choices`, and the defaults filled in.  None where argv is not such a
    line, so that argparse parses it."""
    command = SUBCOMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    positionals = iter(command.positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            action = command.options.get(token)
            if action is None or action.dest in values:
                return None
            count = action.nargs or 1
            strings = list(islice(tokens, count))
            if len(strings) < count or any(s.startswith("-") for s in strings):
                return None
        else:
            action = next(positionals, None)
            if action is None:
                return None
            strings = [token]
        try:
            converted = [s if action.type is None else action.type(s) for s in strings]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # the errors of a type that argparse reports
        if action.choices is not None and not all(v in action.choices for v in converted):
            return None
        values[action.dest] = converted if isinstance(action.nargs, int) else converted[0]
    for action in command.actions:
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv):
    """PARSER's Namespace for argv.  A well-formed line of a subcommand is
    read by `_read_line`; every other argv goes through the whole tree, the
    only source of help and of usage errors: help, a missing or unknown
    subcommand, a missing required option, `--opt=value`, an abbreviation,
    `--`, a repeated option, a bad value and any token after the subcommand
    that starts with '-' but is not an exact option string."""
    return _read_line(argv) or PARSER.parse_args(argv)


def _report(argv=None) -> tuple:
    """(exit code, JSON text) of the command line argv, by default sys.argv[1:]."""
    if argv is None:
        argv = sys.argv[1:]
    args = None
    try:
        args = _parse_args(argv)
        _ring(1, 1, args.char)  # a bad --char is refused before any input is read
        payload = COMMANDS[args.command][0](args)
    except InternalCheckFailed as exc:
        # a theorem-backed assertion failed: a bug, reported with the input that shows it
        ideal = getattr(args, "ideal", None)
        repro = f"; input ideal:\n{render_ideal(ideal)}" if ideal is not None else ""
        return _error(f"internal: {exc}{repro}", 4)
    except ParseError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        return _error(f"parse: {exc}{where}", 2)
    except (OSError, UnicodeDecodeError) as exc:
        # the input file is missing, a directory, unreadable or not UTF-8
        return _error(f"parse: {exc}", 2)
    except BigradeError as exc:
        return _error(f"precondition: {exc}", 3)
    doc = {"schema": SCHEMA, "command": args.command, **payload}
    if "axis" in args:
        doc["axis"] = args.axis
    return 0, _indented(doc)


def main(argv=None) -> int:
    code, text = _report(argv)
    try:
        if sys.stdout is None:  # started with fd 1 closed, as by `>&-`
            raise OSError("stdout is closed")
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # send the rest to devnull so the flush at interpreter exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout (e.g. `bigrade suite | head -1`)
            return 141  # 128 + SIGPIPE, as a shell reports a process that signal ends
        # such as a full disk (`> /dev/full`)
        print(f"bigrade: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
