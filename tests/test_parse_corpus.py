"""A seeded corpus of malformed worksheets, pinned line by line.

Each document is a small valid sheet with up to three mutations:
mutated ratings and value types, omitted and unknown fields, broken
headers, short and long rows, stray bytes, truncation, non-object
entries and documents. The outcome of parsing it is written as its
`str(ParseError)` lines in order, or `repr(ws)` on success, under a
`# <format> <index>` line. The whole record must match
`tests/golden/parse_corpus.txt` byte for byte, so a change to either
parser that alters any diagnostic, its order, or an accepted entry shows.

Regenerate the golden file only for a deliberate diagnostic change:

    PYTHONPATH=src python tests/test_parse_corpus.py > tests/golden/parse_corpus.txt

on CPython 3.11 or 3.12, whose json module words the one trailing comma
in the corpus as the golden file does.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from fmeakit import CSV_COLUMNS, ParseFailure, parse_csv, parse_json
from fmeakit.ingest import csv_text

GOLDEN = Path(__file__).parent / "golden" / "parse_corpus.txt"
SEED = 1
DOCUMENTS_PER_FORMAT = 300

RATINGS = tuple(range(1, 11))
TEXT_FIELDS = ("component", "failure_mode", "effect", "end_effect", "cause",
               "prevention_controls", "detection_controls")
RATING_FIELDS = ("severity", "occurrence", "detection")
CLASS_TEXTS = ("", "", "Critical", "marginal", " NEGLIGIBLE ", "Catastrophic")
WORDS = ("Pump", "Valve", "Relay", "PLC", "Breaker", "Inverter", "Meter",
         "Seal leak", "Stuck open", "Spoofed reading", "Überlast", "Ω drift",
         "a, b", 'say "hi"', "line\nbreak", "cr\rhere", "tab\there", "")

BAD_CSV_RATINGS = ("0", "11", "05", "010", " 5", "5 ", "+5", "-1", "5.0", "1e1",
                   "x", "", "٥", "99999999999999999999", "00")
BAD_CSV_CLASSES = ("bogus", " critical ", "CATASTROPHIC", "Critical!", "\t", "none")
BAD_JSON_VALUES = (True, False, 1.0, 10.0, 0, 11, -1, None, "5", "", "  ", [], {},
                   5, 10, 10 ** 30, "\ud800", "x\udfffy", "Pump", 2.5)
STRAY_BYTES = (b"\xff", b"\x00", b'"', b"\r", b",", b"\n", b"\xc3", b"{", b"]",
               b"\\", b"\xef\xbb\xbf")
# How often each mutation kind below is drawn: mostly row-level, so that
# most documents get past their header and many parse.
CSV_WEIGHTS = (4, 2, 3, 1, 1, 1, 1, 1, 2, 2, 1, 4, 0.5)
JSON_WEIGHTS = (4, 3, 3, 2, 1, 1, 2, 1, 0.5, 1, 1, 1)


def _base_records(rng: random.Random) -> list[dict[str, object]]:
    records = []
    for index in range(rng.randint(1, 4)):
        record: dict[str, object] = {
            name: rng.choice(WORDS) for name in TEXT_FIELDS}
        record["component"] = f"{rng.choice(WORDS[:7])} {index}"
        for name in RATING_FIELDS:
            record[name] = rng.choice(RATINGS)
        record["declared_classification"] = rng.choice(CLASS_TEXTS)
        records.append(record)
    return records


def _set_cell(row: list[str], header: list[str], name: str, value: str) -> None:
    # A cell whose column an earlier mutation removed is left alone.
    if name in header and header.index(name) < len(row):
        row[header.index(name)] = value


def _csv_document(rng: random.Random) -> bytes:
    records = _base_records(rng)
    header = list(CSV_COLUMNS)
    if rng.random() < 0.2:
        rng.shuffle(header)
    rows = [[str(record[name]) for name in header] for record in records]
    tail = []  # byte-level mutations, applied after writing
    for _ in range(rng.randint(0, 3)):
        kind = rng.choices(range(13), CSV_WEIGHTS)[0]
        row = rng.choice(rows) if rows else None
        if kind == 0 and row:
            _set_cell(row, header, rng.choice(RATING_FIELDS), rng.choice(BAD_CSV_RATINGS))
        elif kind == 1 and row:
            _set_cell(row, header, "component", rng.choice(("", " ", "\t", "  \n")))
        elif kind == 2 and row:
            _set_cell(row, header, "declared_classification", rng.choice(BAD_CSV_CLASSES))
        elif kind == 3 and header:  # an omitted column
            drop = rng.randrange(len(header))
            header.pop(drop)
            for r in rows:
                del r[drop:drop + 1]
        elif kind == 4:  # an unknown column
            header.append(rng.choice(("notes", "Severity", "component ", "")))
            for r in rows:
                r.append("x")
        elif kind == 5 and header:  # a duplicated or misspelt column name
            at = rng.randrange(len(header))
            header[at] = rng.choice((header[(at + 1) % len(header)],
                                     header[at].upper(), header[at] + "s"))
        elif kind == 6 and row:  # a short row
            del row[rng.randrange(len(row)):]
        elif kind == 7 and row:  # a long row
            row.extend(["extra"] * rng.randint(1, 2))
        elif kind == 8 and len(rows) > 0:  # a duplicated key
            copy = list(rng.choice(rows))
            rows.insert(rng.randrange(len(rows) + 1), copy)
        elif kind == 9:
            tail.append(("stray", rng.choice(STRAY_BYTES)))
        elif kind == 10:
            tail.append(("truncate", None))
        elif kind == 11 and row:  # a valid but unusual rating spelling
            _set_cell(row, header, rng.choice(RATING_FIELDS), rng.choice(("07", "10", "1")))
        elif kind == 12:
            rows = []
    data = csv_text([header, *rows]).encode("utf-8")
    for kind, value in tail:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + value + data[at:] if kind == "stray" else data[:at]
    return data


def _json_document(rng: random.Random) -> bytes:
    entries: list[object] = list(_base_records(rng))
    document: object = {"title": rng.choice(("", "Sheet", "Überblick")),
                        "entries": entries}
    tail = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choices(range(12), JSON_WEIGHTS)[0]
        records = [e for e in entries if isinstance(e, dict)]
        record = rng.choice(records) if records else None
        if kind == 0 and record is not None:
            record[rng.choice(RATING_FIELDS)] = rng.choice(BAD_JSON_VALUES)
        elif kind == 1 and record is not None:
            record[rng.choice(TEXT_FIELDS)] = rng.choice(BAD_JSON_VALUES)
        elif kind == 2 and record is not None:
            record["declared_classification"] = rng.choice(
                (None, "", " ", "critical", "bogus", 5, "\ud800", False))
        elif kind == 3 and record is not None:  # an omitted field
            record.pop(rng.choice(CSV_COLUMNS), None)
        elif kind == 4 and record is not None:  # an unknown field
            record[rng.choice(("notes", "Severity", "title", "rpn"))] = "x"
        elif kind == 5:  # a non-object entry
            entries.insert(rng.randrange(len(entries) + 1),
                           rng.choice((5, "entry", None, [], [1, 2], True)))
        elif kind == 6 and record is not None:  # a duplicated key
            entries.append(dict(record))
        elif kind == 7 and isinstance(document, dict):  # a broken document
            choice = rng.randrange(5)
            if choice == 0:
                document["extra"] = 1
            elif choice == 1:
                document["title"] = rng.choice((5, None, "\udc80", []))
            elif choice == 2:
                document.pop("entries", None)
            elif choice == 3:
                document["entries"] = rng.choice(({}, "x", None))
            else:
                document.pop("title", None)
        elif kind == 8:
            document = rng.choice(([], 5, "sheet", None, [document]))
        elif kind == 9:
            tail.append(("stray", rng.choice(STRAY_BYTES)))
        elif kind == 10:
            tail.append(("truncate", None))
        elif kind == 11 and record is not None:  # a lone surrogate, escaped
            record[rng.choice(TEXT_FIELDS)] = rng.choice(("\ud83d", "ok\udc00"))
    text = json.dumps(document, ensure_ascii=rng.random() < 0.5,
                      indent=rng.choice((None, 2)))
    data = text.encode("utf-8", "surrogatepass")
    for kind, value in tail:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + value + data[at:] if kind == "stray" else data[:at]
    return data


def corpus_lines(seed: int = SEED, count: int = DOCUMENTS_PER_FORMAT) -> list[str]:
    """The outcome of parsing every corpus document, as text lines."""
    rng = random.Random(seed)
    lines = []
    for kind, make, parse in (("csv", _csv_document, parse_csv),
                              ("json", _json_document, parse_json)):
        for index in range(count):
            lines.append(f"# {kind} {index}")
            try:
                lines.append(repr(parse(make(rng))))
            except ParseFailure as exc:
                lines.extend(str(error) for error in exc.errors)
    return lines


def test_corpus_diagnostics_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8").split("\n")[:-1]
    if sys.version_info >= (3, 13):
        # The json module of 3.13 names a trailing comma, on the comma's line.
        at = expected.index("# json 194") + 1
        assert expected[at] == "[json] row 32: malformed JSON: Expecting value"
        expected[at] = ("[json] row 31: malformed JSON: "
                        "Illegal trailing comma before end of array")
    actual = corpus_lines()
    mismatches = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert len(actual) == len(expected) and not mismatches, mismatches[:5]
    # The corpus pins something only while it holds accepted sheets and
    # rejections of every kind.
    accepted = sum(line.startswith("Worksheet(") for line in actual)
    assert 50 < accepted < 2 * DOCUMENTS_PER_FORMAT - 50
    for fragment in ("must be an integer", "must not be empty", "unknown field",
                     "unknown column", "missing required", "duplicate",
                     "expected 11 fields", "malformed JSON", "not valid UTF-8",
                     "lone surrogate", "must be a string", "entry must be an object",
                     "unknown classification"):
        assert any(fragment in line for line in actual), fragment


if __name__ == "__main__":
    sys.stdout.buffer.write("".join(line + "\n" for line in corpus_lines()).encode("utf-8"))
