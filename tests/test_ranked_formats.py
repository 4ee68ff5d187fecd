"""The ranked table agrees across the three analysis formats, row by row,
on a seeded sheet whose text holds everything each format must escape,
and every analysis output of that sheet is pinned by its sha256. A
change to any of these bytes is a contract change: update a digest only
for a deliberate change of output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re

import pytest

from fmeakit import ClassLabel, FmeaEntry, RatingTriple, Worksheet, emit_csv, parse_csv
from fmeakit.cli import run

SEED = 10
ENTRIES = 240
# The Markdown cell separator, CSV's delimiter and quote, a bare LF, a
# bare CR, CRLF and non-ASCII text; no backslash, so an escaped "|" reads
# back unambiguously.
PIECES = ("Pump", "Valve", "a|b", "x, y", 'say "hi"', "line\nbreak", "cr\rhere",
          "crlf\r\nend", "Überlast", "Ω drift", "日本語", "plain text")
DECLARED = (None, None, *ClassLabel)
DIGESTS = {
    ("analyze", "md"): "5343e3b6559d926109df84d162760d1f326ccde2b9105c2cbae1f6be0a6159fa",
    ("analyze", "csv"): "286c5efdd546b9ae347faf4a0c88ba47b0c2d415851921aaf68c2ab8e8796be5",
    ("analyze", "json"): "4a86d5420ba7a9e38aa5a88f2836ab368450bd21e7dcb7035ae820ea47fa7a67",
    ("report", None): "460d586e3ecbdfa9e974a12c34172850181c99e0ca8bf181d8d2bb949332858d",
}


def _sheet() -> Worksheet:
    # Components repeat, so equal RPNs often meet equal names and fall back
    # to worksheet order; the failure mode keeps each pair unique.
    rng = random.Random(SEED)
    entries = []
    for index in range(ENTRIES):
        text = [rng.choice(PIECES) for _ in range(5)]
        entries.append(FmeaEntry(
            f"{rng.choice(PIECES)} {index % 40}", f"{rng.choice(PIECES)} #{index}",
            RatingTriple(*(rng.randint(1, 10) for _ in range(3))), *text,
            declared_classification=rng.choice(DECLARED)))
    return Worksheet("", entries)


@pytest.fixture()
def sheet_csv(tmp_path):
    path = tmp_path / "awkward.csv"
    path.write_bytes(emit_csv(_sheet()))
    return path


def _output(capsysbinary, path, command, fmt) -> bytes:
    argv = [command, str(path)] + ([] if fmt is None else ["--format", fmt])
    assert run(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    return captured.out


def test_sheet_holds_every_awkward_spelling(sheet_csv):
    ws = _sheet()
    assert parse_csv(sheet_csv.read_bytes()) == ws
    text = "".join(f"{e.component}{e.failure_mode}{e.effect}" for e in ws.entries)
    assert all(piece in text for piece in PIECES)
    assert len(ws) >= 200
    assert any(e.declared_classification is None for e in ws.entries)


@pytest.mark.parametrize("command, fmt", list(DIGESTS), ids=str)
def test_analysis_outputs_are_pinned(sheet_csv, capsysbinary, command, fmt):
    out = _output(capsysbinary, sheet_csv, command, fmt)
    assert hashlib.sha256(out).hexdigest() == DIGESTS[command, fmt]


def _table_cells(record: dict, missing: str, yes: str, no: str) -> list[str]:
    cells = []
    for key, value in record.items():
        if key != "entry_index":
            cells.append(missing if value is None else (yes if value else no)
                         if type(value) is bool else str(value))
    return cells


def test_formats_agree_on_every_ranked_row(sheet_csv, capsysbinary):
    records = json.loads(_output(capsysbinary, sheet_csv, "analyze", "json"))["results"]
    assert len(records) == ENTRIES

    rows = list(csv.reader(io.StringIO(
        _output(capsysbinary, sheet_csv, "analyze", "csv").decode("utf-8"), newline="")))
    start = rows.index([]) + 2  # past the summary table and the ranked header
    assert rows[start - 1] == [key for key in records[0] if key != "entry_index"]
    ranked = rows[start:rows.index([], start)]
    assert ranked == [_table_cells(r, "", "true", "false") for r in records]

    lines = _output(capsysbinary, sheet_csv, "analyze", "md").decode("utf-8").split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith("| Rank |")) + 2
    table = lines[start:lines.index("", start)]
    cells = [[cell.replace("\\|", "|") for cell in re.split(r"(?<!\\) \| ", line[2:-2])]
             for line in table]
    assert cells == [[re.sub(r"\r\n|\r|\n", " ", cell)
                      for cell in _table_cells(r, "-", "yes", "no")] for r in records]
