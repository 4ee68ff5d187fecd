"""Worksheet parsing and serialization (CSV and JSON).

Both parsers collect every problem in the input and report them together
as located errors, instead of stopping at the first. A sheet whose rows
are all certainly valid and spelt as fmeakit writes them (ratings as
str(rating) in CSV or integers in JSON; in JSON, as parse_json tests
first, string text cells and no surrogate escape) is accepted column by
column by _accept; any other sheet goes row by row through _entry, which
words every problem. Narrative fields are lenient (may be empty);
rating fields are strict (never coerced, never clamped). Serialization
is deterministic: fixed field order, worksheet order preserved,
line-feed newlines, no environment-dependent content.

CSV dialect: comma-separated, double-quote quoting with doubled-quote
escaping, UTF-8, header row required, trailing newline optional. Row
numbers in errors count CSV records, with the header as row 1.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

from .record import Record, record
from .scales import _RATINGS_BY_TEXT, all_ratings, rating_from_text
from .worksheet import (
    _LABELS_BY_TEXT,
    RATING_FIELDS,
    ClassLabel,
    FmeaEntry,
    RatingTriple,
    Worksheet,
    duplicate_pairs,
    validate_entry,
)

if TYPE_CHECKING:
    from decimal import Decimal

_REQUIRED_FIELDS = ("component", "failure_mode")
_NARRATIVE_FIELDS = ("effect", "end_effect", "cause", "prevention_controls",
                     "detection_controls")
_TEXT_FIELDS = (*_REQUIRED_FIELDS, *_NARRATIVE_FIELDS)
CSV_COLUMNS = (*_REQUIRED_FIELDS, *RATING_FIELDS, *_NARRATIVE_FIELDS,
               "declared_classification")
# The order in which an entry's problems are reported.
_PROBLEM_ORDER = (*_REQUIRED_FIELDS, *RATING_FIELDS, "declared_classification",
                  *_NARRATIVE_FIELDS)
_COLUMN_SET = frozenset(CSV_COLUMNS)
# Declared-class text, stripped and lowercased -> its label; blank declares none.
_CLASS_BY_TEXT = {"": None, **_LABELS_BY_TEXT}
_MISS = object()
# The only way a lone surrogate gets into decoded JSON: a \uD800-\uDFFF
# escape. A document that spells none holds none.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# A valid row's ratings as a shared frozen triple: at most 1,000 exist.
_triple = cache(RatingTriple)


@record
class ParseError(Record):
    """One located problem in an input document."""

    source_kind: str  # "csv" or "json"
    message: str
    row: int | None = None  # CSV record number (header = 1) or JSON line
    column: str | None = None  # column name or JSON field path

    def __str__(self) -> str:
        parts = []
        if self.row is not None:
            parts.append(f"row {self.row}")
        if self.column is not None:
            parts.append(f"column {self.column!r}" if self.source_kind == "csv"
                         else f"field {self.column!r}")
        where = ", ".join(parts)
        return f"[{self.source_kind}] {where}: {self.message}" if where \
            else f"[{self.source_kind}] {self.message}"


class ParseFailure(Exception):
    """Raised when an input document cannot be turned into a worksheet.

    Carries the complete list of located errors found in the document.
    """

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("\n".join(str(e) for e in self.errors))


def _decode(data: bytes, source_kind: str) -> str:
    # A leading BOM is dropped after decoding, so error offsets count it.
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ParseFailure([ParseError(
            source_kind, f"not valid UTF-8 at byte {exc.start}", row=line)]) from exc


def _text_problem(value: object) -> str | None:
    # Text is a str that UTF-8 encodes: JSON escapes can spell a lone
    # surrogate, which no output can encode.
    if not isinstance(value, str):
        return f"must be a string, got {value!r}"
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        return (f"must be valid Unicode, got lone surrogate "
                f"{value[exc.start]!r} at character {exc.start}")
    return None


def _accept(columns: Sequence[Sequence[object]]) -> list[FmeaEntry] | None:
    """Every row of a sheet, given as its eleven columns in CSV_COLUMNS
    order, as an entry; None unless every row is certainly valid.

    The caller passes str text cells and a str or None class: csv.reader
    yields only str, and parse_json's gate tests JSON's types. Certainly
    valid: no component is blank, ratings are int in 1-10 (a CSV rating
    spelt other than str(rating) arrives as None), the class is None,
    blank or a label, and no (component, failure_mode) key repeats. Each
    test is one pass over whole columns.
    """
    components, failure_modes, severities, occurrences, detections, *narratives, \
        declared = columns
    if not (all(map(str.strip, components))
            and all_ratings(severities, occurrences, detections)
            and len(set(zip(components, failure_modes))) == len(components)):
        return None
    labels = {text: None if text is None
              else _CLASS_BY_TEXT.get(text.strip().lower(), _MISS)
              for text in set(declared)}
    if _MISS in labels.values():
        return None
    return list(map(FmeaEntry, components, failure_modes,
                    map(_triple, severities, occurrences, detections), *narratives,
                    map(labels.__getitem__, declared)))


def _entry(values: Iterable[object], errors: list[ParseError], source_kind: str,
           row: int | None, prefix: str) -> FmeaEntry:
    """Diagnose one row's eleven values, in CSV_COLUMNS order.

    Every problem is appended to *errors*, one per field, located by *row*
    and *prefix* + field name. The entry returned holds what is valid.
    """
    record = dict(zip(CSV_COLUMNS, values))
    declared = record["declared_classification"]
    problems: dict[str, str] = {}
    text: dict[str, str] = {}
    for name in _TEXT_FIELDS:
        value = record[name]
        text[name] = ""
        if value is None:
            if name in _REQUIRED_FIELDS:
                problems[name] = "missing required field"
        elif (problem := _text_problem(value)) is not None:
            problems[name] = problem
        else:
            text[name] = value

    label = None
    if isinstance(declared, str):
        if declared.strip():  # blank text declares no class
            try:
                label = ClassLabel.from_text(declared)
            except ValueError as exc:
                problems["declared_classification"] = str(exc)
    elif declared is not None:
        problems["declared_classification"] = \
            f"must be a string or null, got {declared!r}"

    entry = FmeaEntry(triple=RatingTriple(*map(record.get, RATING_FIELDS)),
                      declared_classification=label, **text)
    for violation in validate_entry(entry):
        problems.setdefault(violation.field, violation.message)
    for name in sorted(problems, key=_PROBLEM_ORDER.index):
        errors.append(ParseError(source_kind, problems[name], row, prefix + name))
    return entry


def _check_duplicates(keyed: list[tuple[tuple[str, str], int]],
                      source_kind: str, errors: list[ParseError]) -> None:
    # One error per duplicated key, located at its first row in CSV.
    in_rows = source_kind == "csv"
    errors += [ParseError(source_kind, message, first if in_rows else None,
                          "component, failure_mode")
               for message, first in duplicate_pairs(keyed, "rows" if in_rows else "entries")]


def parse_csv(data: bytes) -> Worksheet:
    """Parse CSV bytes into a worksheet (entries in input order, title empty).

    Raises:
        ParseFailure: with every located error found in the document.
    """
    errors: list[ParseError] = []
    # No field is longer than the bytes. The process's own limit is restored.
    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, len(data)))
    # Decoded chunk by chunk, the text is never held whole; utf-8-sig drops
    # one leading BOM, as _decode does.
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        rows = list(reader)
    except UnicodeDecodeError:
        _decode(data, "csv")  # raises the located error
        raise
    except csv.Error as exc:
        raise ParseFailure([ParseError(
            "csv", f"malformed CSV: {exc}", row=reader.line_num)]) from exc
    finally:
        csv.field_size_limit(limit)

    if not rows:
        raise ParseFailure([ParseError("csv", "missing header row", row=1)])

    header = rows[0]
    missing = [c for c in CSV_COLUMNS if c not in header]
    unknown = [c for c in header if c not in CSV_COLUMNS]
    for name in missing:
        errors.append(ParseError("csv", "missing required column", row=1, column=name))
    for name in unknown:
        errors.append(ParseError("csv", "unknown column", row=1, column=name))
    if len(set(header)) != len(header):
        errors.append(ParseError("csv", "duplicate column names in header", row=1))
    if errors:
        raise ParseFailure(errors)

    # Decoded UTF-8 holds no lone surrogate, so every cell is clean text.
    body = rows[1:]
    positions = list(map(header.index, CSV_COLUMNS))
    entries = None
    if set(map(len, body)) <= {len(header)}:
        transposed = list(zip(*body)) or [()] * len(header)
        columns = [transposed[i] for i in positions]
        columns[2:5] = [list(map(_RATINGS_BY_TEXT.get, column)) for column in columns[2:5]]
        entries = _accept(columns)
    if entries is None:
        pick = itemgetter(*positions)
        entries = []
        keyed_rows: list[tuple[tuple[str, str], int]] = []
        for record_index, cells in enumerate(body, start=2):
            if len(cells) != len(header):
                errors.append(ParseError(
                    "csv", f"expected {len(header)} fields, got {len(cells)}",
                    row=record_index))
                continue
            values = list(pick(cells))
            values[2:5] = [rating_from_text(cell) or cell for cell in values[2:5]]
            entry = _entry(values, errors, "csv", record_index, "")
            keyed_rows.append(((entry.component, entry.failure_mode), record_index))
            entries.append(entry)
        _check_duplicates(keyed_rows, "csv", errors)
    if errors:
        raise ParseFailure(errors)
    return Worksheet(title="", entries=entries)


def _json_int(text: str) -> int | Decimal:
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit; no field takes a Decimal
        from decimal import Decimal  # loaded only for such a number
        return Decimal(text)


class _Repeats(dict):
    """A JSON object that names a field more than once: the last value of
    each name, as json.loads keeps it, and the repeated names in order."""

    __slots__ = ("repeated",)


def _json_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # A _Repeats is no plain dict, so the column path's type test declines it.
    found = dict(pairs)
    if len(found) < len(pairs):
        found = _Repeats(found)
        counts = Counter(map(itemgetter(0), pairs))
        found.repeated = [name for name, count in counts.items() if count > 1]
    return found


def _duplicate_fields(found: dict[str, object], prefix: str) -> list[ParseError]:
    """One error for each name a JSON object repeats, at prefix + name."""
    return [ParseError("json", "duplicate field", column=prefix + name)
            for name in getattr(found, "repeated", ())]


def parse_json(data: bytes) -> Worksheet:
    """Parse JSON bytes ({"title": ..., "entries": [...]}) into a worksheet.

    Entry fields are named as the CSV columns; validation semantics match
    parse_csv, and as a header names no column twice, no object names a
    field twice. Raises ParseFailure with every located error.
    """
    text = _decode(data, "json")
    try:
        document = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ParseFailure([ParseError(
            "json", f"malformed JSON: {exc.msg}", row=exc.lineno)]) from exc
    except RecursionError as exc:
        raise ParseFailure([ParseError(
            "json", "malformed JSON: nested too deeply to parse", row=1)]) from exc
    except ValueError:
        # An integer literal past int()'s digit limit: parse again, keeping
        # such literals as values that every field rejects with a location.
        document = json.loads(text, object_pairs_hook=_json_object, parse_int=_json_int)

    errors: list[ParseError] = []
    if not isinstance(document, dict):
        raise ParseFailure([ParseError("json", "document must be an object", row=1)])

    for name in document:
        if name not in ("title", "entries"):
            errors.append(ParseError("json", "unknown field", column=name))
    errors += _duplicate_fields(document, "")

    title = document.get("title", "")
    if (problem := _text_problem(title)) is not None:
        errors.append(ParseError("json", problem, column="title"))
        title = ""

    raw_entries = document.get("entries", None)
    if not isinstance(raw_entries, list):
        errors.append(ParseError("json", "must be an array", column="entries"))
        raise ParseFailure(errors)

    entries = None
    if set(map(type, raw_entries)) <= {dict} \
            and set(chain.from_iterable(raw_entries)) <= _COLUMN_SET \
            and _SURROGATE_ESCAPE.search(text) is None:
        columns = [list(map(dict.get, raw_entries, repeat(name))) for name in CSV_COLUMNS]
        if set(map(type, chain(*columns[:2], *columns[5:10]))) <= {str} \
                and set(map(type, columns[10])) <= {str, type(None)}:
            entries = _accept(columns)
    if entries is None:
        entries = []
        keyed: list[tuple[tuple[str, str], int]] = []
        for index, item in enumerate(raw_entries):
            path = f"entries[{index}]"
            if not isinstance(item, dict):
                errors.append(ParseError("json", "entry must be an object", column=path))
                continue
            errors.extend(ParseError("json", "unknown field", column=f"{path}.{name}")
                          for name in item if name not in _COLUMN_SET)
            errors += _duplicate_fields(item, f"{path}.")
            entry = _entry(map(item.get, CSV_COLUMNS), errors, "json", None, f"{path}.")
            keyed.append(((entry.component, entry.failure_mode), index))
            entries.append(entry)
        _check_duplicates(keyed, "json", errors)
    if errors:
        raise ParseFailure(errors)
    return Worksheet(title=title, entries=entries)


def _values(entry: FmeaEntry) -> tuple[object, ...]:
    """An entry's eleven values in CSV_COLUMNS order; no class reads None."""
    triple, declared = entry.triple, entry.declared_classification
    return (entry.component, entry.failure_mode, triple.severity, triple.occurrence,
            triple.detection, entry.effect, entry.end_effect, entry.cause,
            entry.prevention_controls, entry.detection_controls,
            None if declared is None else declared.value)


def emit_json(ws: Worksheet) -> bytes:
    """Serialize a worksheet to deterministic JSON bytes.

    Fixed field order (the CSV column order), entries in worksheet order,
    as the json module writes it with a two-space indent and non-ASCII
    kept, UTF-8, one final line feed. parse_json(emit_json(ws))
    reconstructs ws exactly.
    """
    document = {
        "title": ws.title,
        "entries": [dict(zip(CSV_COLUMNS, _values(e))) for e in ws.entries],
    }
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _csv_cell(value: object) -> str:
    """A value as a CSV cell, as the csv module's writer spells it: None as
    an empty cell, any other value as str(value), quoted when it holds a
    double quote, a comma, a line feed or a carriage return, each double
    quote doubled. NUL is written as is."""
    text = value if isinstance(value, str) else "" if value is None else str(value)
    if '"' in text:
        return '"%s"' % text.replace('"', '""')
    if "," in text or "\n" in text or "\r" in text:
        return '"%s"' % text
    return text


def csv_text(rows: Iterable[Sequence[object]]) -> str:
    """Rows as CSV text in this module's dialect, each row ended by a line
    feed and each cell spelt by _csv_cell. As the csv module writes it, a
    row whose only cell is empty is written as "", so that it reads back
    as one cell and not as no row."""
    return "\n".join([",".join(map(_csv_cell, row)) or ('""' if row else "")
                      for row in rows] + [""])


def emit_csv(ws: Worksheet) -> bytes:
    """Serialize worksheet entries to deterministic CSV bytes (title is not
    representable in CSV and is dropped; None, a missing class, is an
    empty cell)."""
    return csv_text([CSV_COLUMNS, *map(_values, ws.entries)]).encode("utf-8")
