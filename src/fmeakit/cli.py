"""Command-line front end.

Exit codes: 0 success, 1 data or validation failure, 2 usage error.
Diagnostics go to stderr; payload goes to stdout, and nothing is written
to stdout when the exit code is nonzero. Every subcommand returns its
whole payload, and `run` writes it in one write as UTF-8, whatever the
locale, so output is all-or-nothing.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys

from .analysis import (
    DEFAULT_BANDS,
    ClassBands,
    MatrixAxes,
    collisions,
    rank,
    risk_matrix,
    summary_stats,
)
from .dataset import bundled_csv_bytes, microgrid_worksheet
from .ingest import ParseFailure, emit_json, parse_csv, parse_json
from .report import (
    render_analysis_csv,
    render_analysis_json,
    render_analysis_markdown,
    render_fmea_report,
    render_matrix_csv,
    render_matrix_svg,
    render_matrix_text,
    render_scales_csv,
    render_simulation_text,
)
from .scales import rating_from_text
from .simulate import SimConfig, simulate_occurrence, simulate_worksheet
from .worksheet import Worksheet


class _UsageError(Exception):
    """Bad invocation detected after argparse (exit 2)."""


class _InputError(Exception):
    """Unreadable input (exit 1); carries its one diagnostic line."""


def _load(path: str) -> Worksheet:
    """Parse a worksheet file; format chosen by extension, stdin is CSV.
    A path of neither kind is refused before anything is read."""
    if path == "-" or path.lower().endswith(".csv"):
        parse = parse_csv
    elif path.lower().endswith(".json"):
        parse = parse_json
    else:
        raise _UsageError(f"cannot tell the format of {path!r}: "
                          "expected a .csv or .json file, or - for stdin CSV")
    try:  # an endless input, such as /dev/zero, ends in MemoryError
        try:
            if path != "-":
                with open(path, "rb") as handle:
                    data = handle.read()
            elif sys.stdin is None:  # the process started with fd 0 closed
                raise _InputError("error: cannot read -: standard input is closed")
            else:
                data = _read_stdin(sys.stdin.buffer)
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise _InputError(f"error: cannot read {path}: {reason}") from exc
        return parse(data)
    except MemoryError as exc:
        raise _InputError(f"error: cannot read {path}: out of memory") from exc


def _read_stdin(stream: io.BufferedIOBase) -> bytes:
    """All of *stream*, standard input's binary buffer. One read reads a
    blocking descriptor to its end, a terminal's to one EOF, and a stream
    with no descriptor whole. A non-blocking read returns what has arrived
    (None for nothing), so select waits and it reads again until b"";
    the flags, shared with other processes, are left as they are."""
    data = stream.read()
    try:
        fd = stream.fileno()
    except io.UnsupportedOperation:
        return data
    if os.get_blocking(fd):
        return data
    import select  # loaded only for a non-blocking stdin
    chunks = [data]
    while chunks[-1] != b"":
        select.select([fd], [], [])
        chunks.append(stream.read())
    return b"".join(filter(None, chunks))


def _ascii_int(text: str) -> int:
    """*text* as an int if it is ASCII digits only: a sign, a space, an
    underscore or a non-ASCII digit is refused, not coerced, and so is a
    number past int()'s digit limit."""
    try:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(text)
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer in ASCII digits, got {text!r}") from exc


def _bands_type(text: str) -> ClassBands:
    try:  # not three parts, or a part that _ascii_int refuses
        b1, b2, b3 = map(_ascii_int, text.split(","))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated integers, got {text!r}") from exc
    try:
        return ClassBands(b1, b2, b3)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rating_type(text: str) -> int:
    rating = rating_from_text(text)  # ASCII digits only, as a CSV rating
    if rating is None:
        raise argparse.ArgumentTypeError(
            f"expected a rating from 1 to 10 in ASCII digits, got {text!r}")
    return rating


def _cmd_validate(args: argparse.Namespace) -> str:
    # The parsers reject every violation validate_worksheet would report.
    return f"OK: {len(_load(args.file))} entries, no violations\n"


# Each --format choice, in --help order, and its renderer.
_ANALYSIS_RENDERERS = {"md": render_analysis_markdown, "csv": render_analysis_csv,
                       "json": render_analysis_json}
_MATRIX_RENDERERS = {"text": render_matrix_text, "csv": render_matrix_csv,
                     "svg": render_matrix_svg}


def _cmd_analyze(args: argparse.Namespace) -> str:
    ws = _load(args.file)
    bands = args.bands
    results = rank(ws, bands)
    groups = collisions(ws)
    flagged = [r for r in results if r.discrepancy]
    summary = summary_stats(ws, bands)
    return _ANALYSIS_RENDERERS[args.format](ws, results, groups, flagged, summary, bands)


def _cmd_matrix(args: argparse.Namespace) -> str | bytes:
    matrix = risk_matrix(_load(args.file), MatrixAxes(args.axes))
    return _MATRIX_RENDERERS[args.format](matrix)


def _cmd_report(args: argparse.Namespace) -> str:
    ws = _load(args.file)
    return render_fmea_report(ws, rank(ws, DEFAULT_BANDS))


def _cmd_simulate(args: argparse.Namespace) -> str:
    if (args.file is None) == (args.rating is None):
        raise _UsageError("simulate needs a worksheet file or --rating, "
                          "but not both")
    try:
        cfg = SimConfig(trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.rating is not None:
        return render_simulation_text([simulate_occurrence(args.rating, cfg)])
    ws = _load(args.file)
    components = [entry.component for entry in ws.entries]
    return render_simulation_text(simulate_worksheet(ws, cfg), components)


def _cmd_dataset(args: argparse.Namespace) -> bytes:
    if args.format == "json":
        return emit_json(microgrid_worksheet())
    return bundled_csv_bytes()


def _cmd_scales(args: argparse.Namespace) -> str:
    return render_scales_csv(args.scale)


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser that keeps "--" as an option's attached value.

    The argparse of Python 3.11.7 and 3.12.1 drops the "--" of --bands=--
    and hands the option an empty list in place of a string, which no type
    or choices check sees; that of 3.13.0 keeps it. Here the "--" is the
    value on every version, checked like any other.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fmeakit",
        description="Classical FMEA: validate worksheets, rank failure "
                    "modes by RPN, map risk matrices, and check occurrence "
                    "ratings by simulation.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    file_help = "worksheet path (.csv or .json), or - for stdin CSV"

    p = sub.add_parser("validate", help="parse a worksheet and report violations")
    p.add_argument("file", help=file_help)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("analyze",
                       help="ranked RPN results with collisions and discrepancies")
    p.add_argument("file", help=file_help)
    p.add_argument("--bands", type=_bands_type, default=DEFAULT_BANDS,
                   metavar="B1,B2,B3",
                   help="ascending class cut points (default 100,200,500)")
    p.add_argument("--format", choices=tuple(_ANALYSIS_RENDERERS), default="md")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("matrix", help="10x10 risk matrix")
    p.add_argument("file", help=file_help)
    p.add_argument("--axes", choices=[axes.value for axes in MatrixAxes], required=True,
                   help="severity vs detection (s-d) or occurrence (s-o)")
    p.add_argument("--format", choices=tuple(_MATRIX_RENDERERS), default="text")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("report", help="full FMEA report in rank order")
    p.add_argument("file", help=file_help)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("simulate",
                       help="check occurrence ratings by Monte Carlo sampling")
    p.add_argument("file", nargs="?",
                   help="worksheet path; omit when using --rating")
    p.add_argument("--rating", type=_rating_type, metavar="R",
                   help="simulate a single occurrence rating (1-10)")
    p.add_argument("--trials", type=_ascii_int, default=1_000_000, metavar="N",
                   help="Bernoulli opportunities per entry (default 1000000)")
    p.add_argument("--seed", type=_ascii_int, default=0, metavar="S",
                   help="base PRNG seed (default 0)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("dataset", help="emit the bundled microgrid worksheet")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_dataset)

    p = sub.add_parser("scales", help="dump the 1-10 rating scales as CSV")
    p.add_argument("--scale", choices=("s", "o", "d"),
                   help="limit to severity, occurrence, or detection")
    p.set_defaults(handler=_cmd_scales)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        payload = args.handler(args)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        if sys.stdout is None:  # the process started with fd 1 closed
            return 1
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (_InputError, ParseFailure) as exc:
        print(exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


def main() -> None:
    """Run one command as the whole process, then end it at once.

    The collector is off while the command runs, and os._exit skips
    interpreter teardown, atexit handlers included: neither does anything
    for a process that ends after one write. A stdout whose reader has
    gone exits 1, as in run. If a stream fails to flush otherwise, the
    normal exit runs instead, so its teardown reports the failure as it
    always did.
    """
    gc.disable()
    code = run()
    try:
        if sys.stdout is not None:  # None when the fd started closed
            try:
                sys.stdout.flush()
            except BrokenPipeError:
                code = 1
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)
