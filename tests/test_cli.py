"""CLI exit codes, stream discipline, and the pipeline contract."""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import io
import json
import os
import pty
import re
import subprocess
import sys
import termios
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmeakit import (
    CSV_COLUMNS,
    FmeaEntry,
    ParseFailure,
    RatingTriple,
    Worksheet,
    emit_csv,
    emit_json,
    microgrid_worksheet,
    parse_csv,
    parse_json,
)
from fmeakit.cli import build_parser, run

GOLDEN_DIR = Path(__file__).parent / "golden"

BAD_CSV = (
    "component,failure_mode,severity,occurrence,detection,effect,end_effect,"
    "cause,prevention_controls,detection_controls,declared_classification\n"
    "Pump,Seal leak,5,5,5,,,,,,\n"
    "Fan,Stall,x,5,5,,,,,,\n"
)

# A JSON escape for a lone surrogate, which no output encoding can write.
SURROGATE_JSON = (b'{"entries": [{"component": "A\\ud800", "failure_mode": "Leak", '
                  b'"severity": 5, "occurrence": 5, "detection": 5}]}')


def test_validate_fixture_ok(fixture_csv, capsys):
    assert run(["validate", str(fixture_csv)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "OK: 15 entries, no violations\n"
    assert captured.err == ""


def test_validate_locates_bad_rating(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_CSV)
    assert run(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 3" in captured.err and "'severity'" in captured.err


def test_validate_json_nested_too_deeply(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"entries": ' + "[" * 100_000)
    assert run(["validate", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "[json] row 1: malformed JSON: nested too deeply to parse\n"


def test_validate_json_integer_past_digit_limit(tmp_path, capsys):
    long = tmp_path / "long.json"
    long.write_text('{"entries": [{"component": "Pump", "failure_mode": "Seal leak", '
                    f'"severity": {"5" * 5000}, "occurrence": 5, "detection": 5}}]}}')
    assert run(["validate", str(long)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("[json] field 'entries[0].severity': must be an integer "
                            f"in [1, 10], got Decimal('{'5' * 5000}')\n")


# Arbitrary bytes, plus bytes behind a valid CSV header or a JSON prefix so
# that inputs also reach the row and entry checks.
_ANY_INPUT = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=200).map(lambda t: (",".join(CSV_COLUMNS) + "\n" + t).encode()),
    st.binary(max_size=300).map(lambda b: b'{"entries": [{' + b),
)


_COMMANDS = (
    ["validate"],
    *(["analyze", "--format", f] for f in ("md", "csv", "json")),
    *(["matrix", "--axes", "s-o", "--format", f] for f in ("text", "csv", "svg")),
    ["report"],
    ["simulate", "--trials", "1000"],
)
# An error names a row or a field.
_LOCATED = re.compile(r"\[(csv|json)\] (row \d+|field )")


@settings(max_examples=200, deadline=None)
@given(data=_ANY_INPUT, suffix=st.sampled_from([".csv", ".json"]),
       command=st.sampled_from(_COMMANDS))
@example(data=SURROGATE_JSON, suffix=".json", command=["analyze", "--format", "md"])
def test_validate_any_bytes_keeps_the_contract(tmp_path_factory, data, suffix, command):
    path = tmp_path_factory.getbasetemp() / f"fuzz{suffix}"
    path.write_bytes(data)
    # A UTF-8 stream, as sys.stdout is: StringIO would take a lone
    # surrogate without complaint, and it has no .buffer for SVG bytes.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command[0], str(path), *command[1:]])
    assert code in (0, 1)
    if code != 0:
        assert out.buffer.getvalue() == b""
    for line in err.getvalue().splitlines():
        assert _LOCATED.match(line), line


def _argv_vocabulary() -> dict[str, dict[str, list[str]]]:
    """Each subcommand's option strings with their choices, read from the
    parser itself, so that a new option is drawn as soon as it exists."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {name: {flag: list(action.choices or ()) for action in sub._actions
                   for flag in action.option_strings}
            for name, sub in commands.choices.items()}


_VOCABULARY = _argv_vocabulary()
# Option values and loose words, valid and not: ratings with a leading
# zero, an Arabic-Indic digit and a space; counts and seeds at and past
# the 64-bit limits; bands valid, unordered, repeated and too long; empty
# text, "-" (standard input, empty here) and "--".
_WORDS = ("0", "1", "5", "10", "11", "-1", "05", "\u0665", " 7", "1e3",
          str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64),
          "100,200,500", "0,5,10", "1,1,1", "3,2,1", "1" * 21 + ",2,3", "1,2",
          "", "-", "--", "x", "\u03a9")
# Stand-ins for files, put in place by the test: a valid CSV and JSON
# sheet, a missing file and one whose format cannot be told.
_FILES = ("<csv>", "<json>", "<missing>", "<txt>")


@st.composite
def _argvs(draw):
    """A subcommand (or none, or an unknown one), usually a file, then up
    to three options, each with a value or not, or loose words."""
    command = draw(st.sampled_from([*_VOCABULARY, "bogus", "--help", ""]))
    options = _VOCABULARY.get(command, {})
    words = st.sampled_from(_WORDS)
    argv = [command]
    if draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from([*_FILES, "-"])))
    for _ in range(draw(st.integers(0, 3))):
        if not options or draw(st.integers(0, 3)) == 0:
            argv.append(draw(words))
            continue
        flag = draw(st.sampled_from(sorted(options)))
        value = draw(st.sampled_from(options[flag]) | words if options[flag] else words)
        argv += draw(st.sampled_from([[flag, value], [flag, value], [flag],
                                      [f"{flag}={value}"]]))
    return argv


# A line argparse writes to stderr: the usage, wrapped lines indented, and
# "prog: error: ...".
_USAGE = re.compile(r"usage: |\s+\S|fmeakit( \w+)?: error: ")


@settings(max_examples=200, deadline=None)
@given(argv=_argvs())
@example(argv=["simulate", "--trials", str(2**63 - 1), "--rating", "05"])
@example(argv=["analyze", "--bands", "1" * 21 + ",2,3", "-"])
@example(argv=["analyze", "<csv>", "--bands=--"])
def test_any_argv_keeps_the_contract(tmp_path_factory, argv):
    base = tmp_path_factory.getbasetemp()
    files = dict(zip(_FILES, (base / "argv.csv", base / "argv.json", base / "argv-missing.csv",
                              base / "argv.txt")))
    if not files["<csv>"].exists():
        files["<csv>"].write_bytes(emit_csv(microgrid_worksheet()))
        files["<json>"].write_bytes(emit_json(microgrid_worksheet()))
        files["<txt>"].write_bytes(b"")
    argv = [str(files.get(word, word)) for word in argv]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8")
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    if code != 0:
        assert out.buffer.getvalue() == b"", argv
    for line in err.getvalue().splitlines():
        assert _LOCATED.match(line) or line.startswith("error: ") or _USAGE.match(line), \
            (argv, line)


def test_analyze_json_payload(fixture_csv, capsys):
    assert run(["analyze", str(fixture_csv), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) == 15
    assert payload["results"][0]["rpn"] == 560
    assert payload["bands"] == [100, 200, 500]


def test_analyze_markdown_default(fixture_csv, capsys):
    assert run(["analyze", str(fixture_csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# FMEA analysis\n")
    assert "## Collisions" in out


def test_analyze_markdown_keeps_a_bare_cr_inside_its_row(tmp_path, capsys):
    # CommonMark ends a line at a bare CR too, so a cell holding one must
    # not split its table row. The CSV writer quotes such a cell.
    ws = Worksheet("", [FmeaEntry("Pump\rA", "Seal\rleak", RatingTriple(5, 5, 5))])
    sheet = tmp_path / "cr.csv"
    sheet.write_bytes(emit_csv(ws))
    assert run(["analyze", str(sheet)]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    assert "| 1 | Pump A | Seal leak |" in out


def test_analyze_custom_bands(fixture_csv, capsys):
    assert run(["analyze", str(fixture_csv), "--bands", "50,150,300"]) == 0
    assert "Negligible [1,50)" in capsys.readouterr().out


def test_analyze_rejects_bad_bands(fixture_csv, capsys):
    for bad in ("500,200,100", "100,200,2000"):
        assert run(["analyze", str(fixture_csv), "--bands", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "band cut points must satisfy" in captured.err
    # A part that is not ASCII digits, even one int() would read, and one
    # past int()'s digit limit get the project's own wording, not Python's.
    for bad in ("100,200", "a,b,c", ",,", "100,200," + "9" * 5000, "100,200,300,400",
                " 1_00,200,500", "100 ,200,500", "+100,200,500", "\u0661\u0660\u0660,200,500"):
        assert run(["analyze", str(fixture_csv), "--bands", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --bands: expected three comma-separated integers, " \
               f"got {bad!r}\n" in captured.err
        assert "int()" not in captured.err and "digits" not in captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("option, message", [
    ("--bands=--", "argument --bands: expected three comma-separated integers, got '--'"),
    ("--format=--", "argument --format: invalid choice: '--'"),
])
def test_double_dash_as_an_option_value_is_usage_error(fixture_csv, capsys, option,
                                                       message):
    assert run(["analyze", str(fixture_csv), option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_unknown_extension_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sheet.txt"
    path.write_text(BAD_CSV)
    assert run(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ".csv or .json" in captured.err


def test_unknown_extension_is_refused_before_reading(tmp_path, capsys):
    # The extension alone decides: a missing sheet.txt is a usage error,
    # not a file that cannot be read.
    assert run(["analyze", str(tmp_path / "sheet.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ".csv or .json" in captured.err
    assert "cannot read" not in captured.err


def test_missing_file_is_data_error(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "nope.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read" in captured.err


def test_endless_stdin_is_a_located_error(capsys, monkeypatch):
    # Reading /dev/zero runs out of memory.
    monkeypatch.setattr("sys.stdin", mock.Mock(**{"buffer.read.side_effect": MemoryError}))
    assert run(["validate", "-"]) == 1
    assert capsys.readouterr() == ("", "error: cannot read -: out of memory\n")


def test_stdin_read_error_is_a_located_error(capsys, monkeypatch):
    error = OSError(errno.EIO, os.strerror(errno.EIO))
    monkeypatch.setattr("sys.stdin", mock.Mock(**{"buffer.read.side_effect": error}))
    assert run(["validate", "-"]) == 1
    assert capsys.readouterr() == ("", f"error: cannot read -: {os.strerror(errno.EIO)}\n")


def test_a_name_repeated_in_csv_or_json_is_refused_by_both(tmp_path, capsys):
    # json.loads alone would keep the second severity and accept the sheet.
    sheet = tmp_path / "twice.csv"
    sheet.write_text(",".join(CSV_COLUMNS) + ",severity\nPump,Seal leak,11,5,5,,,,,,,5\n")
    assert run(["validate", str(sheet)]) == 1
    assert capsys.readouterr() == ("", "[csv] row 1: duplicate column names in header\n")
    sheet = tmp_path / "twice.json"
    sheet.write_text('{"entries": [{"component": "Pump", "failure_mode": "Seal leak", '
                     '"severity": 11, "occurrence": 5, "detection": 5, "severity": 5}]}')
    assert run(["validate", str(sheet)]) == 1
    assert capsys.readouterr() == ("", "[json] field 'entries[0].severity': duplicate field\n")


def test_out_of_memory_while_parsing_is_a_located_error(fixture_csv, capsys,
                                                        monkeypatch):
    def parse_csv(data):
        raise MemoryError

    monkeypatch.setattr("fmeakit.cli.parse_csv", parse_csv)
    assert run(["analyze", str(fixture_csv)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot read {fixture_csv}: out of memory\n")


def test_parse_errors_keep_stdout_clean(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_CSV)
    assert run(["analyze", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[csv] row 3" in captured.err


# Errors on three rows: a rating off the scale, a short row, and a bad
# rating and class on a row that repeats the first row's pair.
MULTI_ERROR_CSV = (",".join(CSV_COLUMNS) + "\n"
                   "Pump,Seal leak,5,5,11,,,,,,\n"
                   "Fan,Stall\n"
                   "Pump,Seal leak,x,5,5,,,,,,Bogus\n").encode()
MULTI_ERROR_JSON = (b'{"title": 7, "entries": [3, {"component": "Pump", '
                    b'"failure_mode": "Seal leak", "severity": 0}]}')


@pytest.mark.parametrize("command", ["validate", "analyze", "report"])
@pytest.mark.parametrize(("suffix", "data", "parse", "where"), [
    (".csv", MULTI_ERROR_CSV, parse_csv, {2, 3, 4, "component, failure_mode"}),
    (".json", MULTI_ERROR_JSON, parse_json, {"title", "entries[0]"}),
], ids=["csv", "json"])
def test_parse_failure_is_printed_as_its_own_text(tmp_path, capsys, command, suffix, data,
                                                  parse, where):
    with pytest.raises(ParseFailure) as failure:
        parse(data)
    errors = failure.value.errors
    assert where <= {e.row for e in errors} | {e.column for e in errors}
    sheet = tmp_path / f"bad{suffix}"
    sheet.write_bytes(data)
    assert run([command, str(sheet)]) == 1
    assert capsys.readouterr() == ("", f"{failure.value}\n")


@pytest.mark.parametrize(("command", "usage"), [
    ("analyze", "[--bands B1,B2,B3] [--format {md,csv,json}] file"),
    ("matrix", "--axes {s-d,s-o} [--format {text,csv,svg}] file"),
])
def test_usage_lists_each_choice_in_order(capsys, monkeypatch, command, usage):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    assert run([command]) == 2
    assert capsys.readouterr().err.startswith(f"usage: fmeakit {command} [-h] {usage}\n")


def test_json_input_by_extension(tmp_path, fixture_ws, capsys):
    from fmeakit import emit_json
    path = tmp_path / "sheet.json"
    path.write_bytes(emit_json(fixture_ws))
    assert run(["analyze", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["rpn"] == 560


def test_matrix_requires_axes(fixture_csv, capsys):
    assert run(["matrix", str(fixture_csv)]) == 2
    assert capsys.readouterr().out == ""


def test_matrix_text(fixture_csv, capsys):
    assert run(["matrix", str(fixture_csv), "--axes", "s-d"]) == 0
    assert capsys.readouterr().out.startswith("Risk matrix: Severity vs Detection")


def test_matrix_svg_bytes(fixture_csv, capsysbinary):
    assert run(["matrix", str(fixture_csv), "--axes", "s-o",
                "--format", "svg"]) == 0
    out = capsysbinary.readouterr().out
    assert out.startswith(b"<svg")
    assert out.count(b'class="cell"') == 100


def test_report_command(fixture_csv, capsys):
    assert run(["report", str(fixture_csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# FMEA report")
    assert "## 1. Energy Management System (EMS)" in out


def test_simulate_single_rating(capsys):
    assert run(["simulate", "--rating", "5", "--trials", "20000",
                "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "rating_in"
    assert len(lines) == 2
    assert lines[1].split()[0] == "5"


@pytest.mark.parametrize("text", ["+5", "\uff15", " 5", "5_", "-5", "0", "11", "5.0", ""])
def test_simulate_rating_is_never_coerced(text, capsys):
    assert run(["simulate", "--rating", text, "--trials", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("argument --rating: expected a rating from 1 to 10 "
                                 f"in ASCII digits, got {text!r}\n")


# int() reads the first seven; the last is past int()'s digit limit.
@pytest.mark.parametrize("text", ["1_000", "+7", " 7", "7 ", "\u0661\u0660\u0660\u0660",
                                  "\uff17", "-7", "7.0", "1e3", "",
                                  pytest.param("9" * 5000, id="5000-digits")])
@pytest.mark.parametrize("option", ["--trials", "--seed"])
def test_simulate_integers_are_ascii_digits(option, text, capsys):
    assert run(["simulate", "--rating", "5", "--trials", "1000", option, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"argument {option}: expected an integer in ASCII "
                                 f"digits, got {text!r}\n")


def test_simulate_rating_takes_leading_zeros_as_csv_does(capsys):
    assert run(["simulate", "--rating", "05", "--trials", "1000"]) == 0
    padded = capsys.readouterr()
    assert run(["simulate", "--rating", "5", "--trials", "1000"]) == 0
    assert capsys.readouterr() == padded


def test_simulate_worksheet_table(fixture_csv, capsys):
    assert run(["simulate", str(fixture_csv), "--trials", "10000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert lines[0].split()[0] == "component"


def test_simulate_output_matches_golden(fixture_csv, capsysbinary):
    # The golden file was written by numpy's own SeedSequence -> PCG64 per
    # entry; the streams must not change.
    assert run(["simulate", str(fixture_csv), "--seed", "0"]) == 0
    assert run(["simulate", "--rating", "3", "--trials", "1000000",
                "--seed", "7"]) == 0
    golden = (GOLDEN_DIR / "simulate_fixture.txt").read_bytes()
    assert capsysbinary.readouterr().out == golden


def test_simulate_header_only_sheet(tmp_path, capsys):
    sheet = tmp_path / "empty.csv"
    sheet.write_text(",".join(CSV_COLUMNS) + "\n")
    assert run(["simulate", str(sheet)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("component  rating_in  trials  failures  "
                            "empirical_rate  rating_out  agrees\n")
    assert captured.err == ""


def test_simulate_mode_is_exclusive(fixture_csv, capsys):
    assert run(["simulate"]) == 2
    capsys.readouterr()
    assert run(["simulate", str(fixture_csv), "--rating", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""


def test_simulate_rejects_nonpositive_trials(capsys):
    assert run(["simulate", "--rating", "5", "--trials", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_simulate_rejects_trials_past_int64(capsys):
    assert run(["simulate", "--rating", "3", "--trials", str(2**63)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be an integer in [1, 2**63 - 1]" in captured.err


def test_dataset_roundtrips_through_stdin(fixture_csv, capsys, monkeypatch):
    assert run(["dataset"]) == 0
    dataset_bytes = capsys.readouterr().out.encode("utf-8")

    assert run(["analyze", str(fixture_csv)]) == 0
    direct = capsys.readouterr().out

    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(dataset_bytes),
                                         encoding="utf-8"))
    assert run(["analyze", "-"]) == 0
    piped = capsys.readouterr().out
    assert piped == direct


def test_dataset_json_parses(capsys):
    assert run(["dataset", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert len(document["entries"]) == 15


def test_scales_dump(capsys):
    assert run(["scales"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 31
    assert run(["scales", "--scale", "d"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("detection,") for line in lines[1:])


def test_subprocess_analyze_json(fixture_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "fmeakit", "analyze", str(fixture_csv),
         "--format", "json"],
        capture_output=True, timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"][0]["rpn"] == 560
    assert proc.stderr == b""


def test_import_loads_numpy_but_no_record_or_summary_machinery(fixture_csv):
    # numpy stays: perfbench/run.py::_numpy_import_ms reads numpy's line in
    # the -X importtime output of `import fmeakit` and raises without it.
    probe = ("import sys, fmeakit; print([name for name in ('numpy', 'dataclasses', "
             "'fractions', 'decimal') if name in sys.modules])")
    loaded = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=60)
    assert (loaded.returncode, loaded.stdout, loaded.stderr) == (0, "['numpy']\n", "")
    # The summary's exact mean loads fractions when it is built.
    analyze = subprocess.run([sys.executable, "-m", "fmeakit", "analyze", str(fixture_csv)],
                             capture_output=True, text=True, timeout=60)
    assert analyze.returncode == 0 and "mean 186.93" in analyze.stdout


def test_no_command_loads_numpy_random(fixture_csv):
    # simulate draws numpy's streams in pure Python, so no command imports
    # numpy.random, which numpy 2.x loads on first use (numpy 1.x loads it
    # with numpy itself). Modules stay loaded, so one process that runs
    # every command shows it.
    commands = [[command[0], str(fixture_csv), *command[1:]] for command in _COMMANDS]
    commands += [["simulate", "--rating", "5"], ["dataset"], ["scales"]]
    probe = ("import json, sys, numpy; before = set(sys.modules); from fmeakit.cli import run; "
             "codes = [run(args) for args in json.loads(sys.argv[1])]; "
             "print(codes, [name for name in sys.modules if name.startswith('numpy.random') "
             "and name not in before], file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == f"{[0] * len(commands)} []\n"


def test_subprocess_pipeline_matches_direct_file(fixture_csv):
    dataset = subprocess.run(
        [sys.executable, "-m", "fmeakit", "dataset"],
        capture_output=True, timeout=60)
    piped = subprocess.run(
        [sys.executable, "-m", "fmeakit", "analyze", "-"],
        input=dataset.stdout, capture_output=True, timeout=60)
    direct = subprocess.run(
        [sys.executable, "-m", "fmeakit", "analyze", str(fixture_csv)],
        capture_output=True, timeout=60)
    assert dataset.returncode == piped.returncode == direct.returncode == 0
    assert piped.stdout == direct.stdout


def test_subprocess_exit_code_contract(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_CSV)
    proc = subprocess.run(
        [sys.executable, "-m", "fmeakit", "validate", str(bad)],
        capture_output=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"row 3" in proc.stderr


def test_subprocess_output_is_utf8_whatever_the_locale(tmp_path):
    # The occurrence scale holds "≥"; stdout is UTF-8 under any
    # PYTHONIOENCODING.
    sheet = tmp_path / "omega.csv"
    sheet.write_text(",".join(CSV_COLUMNS) + "\nPumpΩ,Seal leak,5,5,5,,,,,,\n",
                     encoding="utf-8")
    commands = (["scales", "--scale", "o"], ["report", str(sheet)],
                *(["analyze", str(sheet), "--format", f] for f in ("md", "csv", "json")))
    for command in commands:
        utf8, ascii_ = (subprocess.run(
            [sys.executable, "-m", "fmeakit", *command], capture_output=True,
            timeout=60, env={**os.environ, "PYTHONIOENCODING": encoding})
            for encoding in ("utf-8", "ascii"))
        assert utf8.returncode == ascii_.returncode == 0, command
        assert utf8.stderr == ascii_.stderr == b""
        assert ascii_.stdout == utf8.stdout
        assert not utf8.stdout.isascii()


def test_subprocess_analyze_rejects_lone_surrogate(tmp_path):
    sheet = tmp_path / "surrogate.json"
    sheet.write_bytes(SURROGATE_JSON)
    proc = subprocess.run(
        [sys.executable, "-m", "fmeakit", "analyze", str(sheet)],
        capture_output=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == (b"[json] field 'entries[0].component': must be valid "
                           b"Unicode, got lone surrogate '\\ud800' at character 1\n")


@pytest.mark.parametrize(("fd", "command", "stderr"), [
    (0, ["validate", "-"], b"error: cannot read -: standard input is closed\n"),
    (1, ["scales"], b""),
], ids=["stdin", "stdout"])
def test_subprocess_closed_standard_stream_exits_1(fd, command, stderr):
    # Python leaves sys.stdin or sys.stdout None when fd 0 or 1 starts closed.
    proc = subprocess.run([sys.executable, "-m", "fmeakit", *command],
                          capture_output=True, timeout=60,
                          preexec_fn=functools.partial(os.close, fd))
    assert proc.returncode == 1
    assert proc.stderr == stderr


def _run_on_nonblocking_stdin(argv: list[str],
                              chunks: list[bytes]) -> subprocess.CompletedProcess:
    """Run the CLI on a pipe whose read end is non-blocking, writing the
    chunks 0.3 s apart and closing the pipe 0.3 s after the last."""
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    proc = subprocess.Popen([sys.executable, "-m", "fmeakit", *argv], stdin=read_end,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.close(read_end)
    for chunk in chunks:
        with contextlib.suppress(BrokenPipeError):  # the CLI has ended early
            os.write(write_end, chunk)
        time.sleep(0.3)
    os.close(write_end)
    stdout, stderr = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def test_subprocess_nonblocking_stdin_is_read_to_its_end(fixture_csv, capsys):
    # A read returns only what has arrived: here the header, not the rows.
    assert run(["analyze", str(fixture_csv)]) == 0
    direct = capsys.readouterr().out.encode("utf-8")
    header, rows = fixture_csv.read_bytes().split(b"\n", 1)
    proc = _run_on_nonblocking_stdin(["analyze", "-"], [header + b"\n", rows])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, direct, b"")


def test_subprocess_nonblocking_stdin_that_stays_empty_then_ends():
    # A read before the writer closes returns None, not b"".
    proc = _run_on_nonblocking_stdin(["validate", "-"], [b""])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"[csv] row 1: missing header row\n")


def test_subprocess_terminal_stdin_ends_at_one_eof(fixture_csv):
    # EOT at the start of a line ends a terminal's input once; a second read
    # would wait for another.
    primary, secondary = pty.openpty()
    attrs = termios.tcgetattr(secondary)
    attrs[3] &= ~termios.ECHO  # nothing reads the echo
    termios.tcsetattr(secondary, termios.TCSANOW, attrs)
    proc = subprocess.Popen([sys.executable, "-m", "fmeakit", "validate", "-"],
                            stdin=secondary, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.close(secondary)
    try:
        os.write(primary, fixture_csv.read_bytes() + b"\x04")
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail("validate - waited past the terminal's EOF")
    finally:
        os.close(primary)
    assert (proc.returncode, stdout, stderr) == (0, b"OK: 15 entries, no violations\n", b"")


# Exit code and stderr of each command when stdout is a pipe whose reader
# is closed, with stdout unbuffered and block-buffered. Every write that
# fails exits 1 with nothing on stderr, also when it first fails in
# main's final flush. Unbuffered --help exits 0: argparse writes the help
# itself and ignores the error. None: the code and stderr of an open
# stdout, since such a command writes nothing to it.
_STREAM_CASES = {
    "help": (["--help"], (0, b""), (1, b"")),
    "analyze-help": (["analyze", "--help"], (0, b""), (1, b"")),
    "scales": (["scales"], (1, b""), (1, b"")),
    "dataset": (["dataset"], (1, b""), (1, b"")),  # larger than a pipe's buffer
    "analyze": (["analyze", "{sheet}"], (1, b""), (1, b"")),
    "missing-file": (["analyze", "{missing}"], None, None),
    "no-file": (["analyze"], None, None),
}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_subprocess_streams_match_in_process_run(case, unbuffered, fixture_csv, tmp_path,
                                                 capsysbinary, monkeypatch):
    # The process ends with os._exit, so a byte still in a stdout buffer
    # would be lost; a regular file makes stdout block-buffered.
    template, closed_unbuffered, closed_buffered = _STREAM_CASES[case]
    argv = [part.format(sheet=fixture_csv, missing=tmp_path / "missing.csv")
            for part in template]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code = run(argv)
    captured = capsysbinary.readouterr()
    env = {**os.environ, "COLUMNS": "80", "PYTHONIOENCODING": "utf-8"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def child(stdout):
        return subprocess.run([sys.executable, "-m", "fmeakit", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=60)

    piped = child(subprocess.PIPE)
    assert (piped.returncode, piped.stdout, piped.stderr) == \
        (code, captured.out, captured.err)
    out_file = tmp_path / "stdout"
    with out_file.open("wb") as sink:
        to_file = child(sink)
    assert (to_file.returncode, out_file.read_bytes(), to_file.stderr) == \
        (code, captured.out, captured.err)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = child(write_end)
    finally:
        os.close(write_end)
    expected = closed_unbuffered if unbuffered else closed_buffered
    assert (closed.returncode, closed.stderr) == (expected or (code, captured.err))


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled, capsys):
    # Only the console entry point, cli.main, switches the collector off.
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(["scales"]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
