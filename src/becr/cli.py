"""Command-line interface.

Four subcommands: ``concepts`` (enumerate and export the lattice),
``relevance`` (score concepts and rank them), ``bench`` (side-by-side index
comparison with timing), and ``generate`` (random coin-toss contexts).

Exit codes: 0 success, 1 usage error (including an output path that
cannot be written), 2 unreadable or malformed input, 3 tripped size guard
(concept budget or intent guard).
"""
from __future__ import annotations

import argparse
import sys
from operator import attrgetter
from pathlib import Path

from .bench import (
    INDEXES,
    dataset_stats,
    emit_csv,
    emit_scatter,
    emit_table,
    run_comparison,
    score_concepts,
)
from .context import FormalContext, parse_csv, parse_cxt, parse_fimi, serialize_cxt
from .generators import IntentTooLarge
from .lattice import (
    DEFAULT_CONCEPT_BUDGET,
    ConceptBudgetExceeded,
    ContextTooLarge,
    build_covers,
    concepts_csv,
    enumerate_concepts,
)
from .relevance import BaseRule
from .synth import CoinTossSpec, coin_toss_context

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3

_FORMATS = {".cxt": "cxt", ".csv": "csv", ".dat": "fimi", ".fimi": "fimi"}
_PARSERS = {"cxt": parse_cxt, "csv": parse_csv, "fimi": parse_fimi}


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage; remap to the contract's 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_context(path_str: str, fmt: str) -> FormalContext:
    path = Path(path_str)
    if fmt == "auto":
        fmt = _FORMATS.get(path.suffix.lower())
        if fmt is None:
            raise _CliFailure(
                EXIT_USAGE,
                f"cannot infer format from {path.name!r}; pass --format",
            )
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise _CliFailure(EXIT_PARSE, f"cannot read {path}: {err}") from None
    try:
        return _PARSERS[fmt](text)
    except ValueError as err:
        raise _CliFailure(EXIT_PARSE, f"{path}: {err}") from None


def _check_writable(output: str | None) -> None:
    """Fail before any work when ``output`` cannot be opened for writing.

    Append mode creates a missing file but leaves an existing one as it is.
    """
    if output is None:
        return
    try:
        open(output, "a").close()
    except OSError as err:
        raise _CliFailure(EXIT_USAGE, f"cannot write {output}: {err}") from None


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as err:
        raise _CliFailure(EXIT_USAGE, f"cannot write {output}: {err}") from None


def _cmd_concepts(args) -> int:
    ctx = _load_context(args.input, args.format)
    concepts = enumerate_concepts(ctx, budget=args.concept_budget)
    # |G| |M| |I| |C| density
    print("{} {} {} {} {:.3f}".format(*dataset_stats(ctx, len(concepts))),
          file=sys.stderr)
    _write_output(concepts_csv(ctx, concepts), args.output)
    return EXIT_OK


def _cmd_relevance(args) -> int:
    ctx = _load_context(args.input, args.format)
    lattice = build_covers(enumerate_concepts(ctx, budget=args.concept_budget))
    rows = score_concepts(ctx, lattice, BaseRule(args.base_rule), args.index)
    # highest score first; the sort is stable, so ties stay in id order
    rows.sort(key=attrgetter("stability" if args.index == "stability"
                             else "becr"), reverse=True)
    _write_output(emit_table(rows, INDEXES[args.index]), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    ctx = _load_context(args.input, args.format)
    repeats = 0 if args.no_timing else args.timing_repeats
    report = run_comparison(
        ctx,
        rule=BaseRule(args.base_rule),
        timing_repeats=repeats,
        concept_budget=args.concept_budget,
    )
    _write_output(emit_csv(report, include_timing=not args.no_timing),
                  args.output)
    if args.scatter:
        _write_output(emit_scatter(report), args.scatter)
    xi = "undefined" if report.pearson_xi is None else f"{report.pearson_xi:.4f}"
    print(
        f"xi={xi} tau_becr={report.mean_time_becr_ns:.0f} "
        f"tau_stability={report.mean_time_stability_ns:.0f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = CoinTossSpec(args.objects, args.attributes, args.density, args.seed)
    _write_output(serialize_cxt(coin_toss_context(spec)), args.output)
    return EXIT_OK


def _positive_int(hint: str = ""):
    """An argparse type: an int >= 1; ``hint`` ends its range error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1{hint}")
        return value
    return parse


def _probability(text: str) -> float:
    """An argparse type: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def _add_input_options(sub):
    sub.add_argument("input", help="context file")
    sub.add_argument(
        "--format",
        choices=("auto", "cxt", "csv", "fimi"),
        default="auto",
        help="input format (default: by file extension)",
    )
    sub.add_argument("--output", metavar="PATH",
                     help="write to PATH instead of stdout")
    sub.add_argument(
        "--concept-budget",
        type=_positive_int(),
        default=DEFAULT_CONCEPT_BUDGET,
        metavar="N",
        help=f"abort above N concepts (default {DEFAULT_CONCEPT_BUDGET})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="becr",
                     description="Concept lattice relevance scoring.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "concepts", help="enumerate concepts, print stats, export the list")
    _add_input_options(sub)
    sub.set_defaults(handler=_cmd_concepts, parser=sub)

    sub = commands.add_parser(
        "relevance", help="score and rank concepts")
    _add_input_options(sub)
    sub.add_argument("--index", choices=INDEXES,
                     default="becr",
                     help="which index to compute (default becr); 'both' "
                          "sorts by becr")
    sub.add_argument("--base-rule",
                     choices=tuple(r.value for r in BaseRule),
                     default=BaseRule.WORKED_EXAMPLE.value,
                     help="removal-set rule for base attributes")
    sub.set_defaults(handler=_cmd_relevance, parser=sub)

    sub = commands.add_parser(
        "bench", help="compare becr and stability with timing")
    _add_input_options(sub)
    sub.add_argument("--base-rule",
                     choices=tuple(r.value for r in BaseRule),
                     default=BaseRule.WORKED_EXAMPLE.value,
                     help="removal-set rule for base attributes")
    sub.add_argument("--timing-repeats", default=5, metavar="N",
                     type=_positive_int("; pass --no-timing to skip timing"),
                     help="timed runs per concept and index, N >= 1 "
                          "(default 5)")
    sub.add_argument("--no-timing", action="store_true",
                     help="skip timing and omit the timing columns")
    sub.add_argument("--scatter", metavar="PATH",
                     help="also write a becr,stability scatter CSV")
    sub.set_defaults(handler=_cmd_bench, parser=sub)

    sub = commands.add_parser(
        "generate", help="write a random coin-toss context as .cxt")
    sub.add_argument("--objects", type=_positive_int(), required=True,
                     metavar="N")
    sub.add_argument("--attributes", type=_positive_int(), required=True,
                     metavar="M")
    sub.add_argument("--density", type=_probability, required=True,
                     metavar="P",
                     help="cell probability in [0, 1]")
    sub.add_argument("--seed", type=int, default=0, metavar="S")
    sub.add_argument("--output", metavar="PATH",
                     help="write to PATH instead of stdout")
    sub.set_defaults(handler=_cmd_generate, parser=sub)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # reported by the subcommand's parser, with its own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        for output in (args.output, getattr(args, "scatter", None)):
            _check_writable(output)
        return args.handler(args)
    except _CliFailure as err:
        print(f"becr: {err}", file=sys.stderr)
        return err.code
    except (ConceptBudgetExceeded, ContextTooLarge, IntentTooLarge) as err:
        print(f"becr: {err}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
