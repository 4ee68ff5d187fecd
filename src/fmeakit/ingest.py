"""Worksheet parsing and serialization (CSV and JSON).

Both parsers collect every problem in the input and report them together
as located errors, instead of stopping at the first. Narrative fields are
lenient (may be empty); rating fields are strict (never coerced, never
clamped). Serialization is deterministic: fixed field order, worksheet
order preserved, line-feed newlines, no environment-dependent content.

CSV dialect: comma-separated, double-quote quoting with doubled-quote
escaping, UTF-8, header row required, trailing newline optional. Row
numbers in errors count CSV records, with the header as row 1.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import Decimal

from .scales import is_rating, rating_from_text, rating_message
from .worksheet import (
    RATING_FIELDS,
    ClassLabel,
    FmeaEntry,
    RatingTriple,
    Worksheet,
    repeated_keys,
)

CSV_COLUMNS = ("component", "failure_mode", *RATING_FIELDS, "effect", "end_effect",
               "cause", "prevention_controls", "detection_controls",
               "declared_classification")


@dataclass(frozen=True)
class ParseError:
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


def _parse_rating(raw: str, column: str, row: int, errors: list[ParseError]) -> int:
    value = rating_from_text(raw)
    if value is None:
        errors.append(ParseError("csv", rating_message(raw), row=row, column=column))
        return 0
    return value


def _parse_classification(raw: str, errors: list[ParseError], source_kind: str,
                          row: int | None, column: str) -> ClassLabel | None:
    # Blank text declares no class; row and column locate an unknown label.
    if not raw.strip():
        return None
    try:
        return ClassLabel.from_text(raw)
    except ValueError as exc:
        errors.append(ParseError(source_kind, str(exc), row, column))
        return None


def _check_duplicates(keyed: list[tuple[tuple[str, str], int]],
                      source_kind: str, errors: list[ParseError]) -> None:
    # One error per duplicated (component, failure_mode) key, listing all
    # row/entry positions where it appears.
    unit = "rows" if source_kind == "csv" else "entries"
    for (component, failure_mode), positions in repeated_keys(keyed):
        where = ", ".join(str(p) for p in positions)
        errors.append(ParseError(
            source_kind,
            f"duplicate (component, failure_mode) pair "
            f"({component!r}, {failure_mode!r}) at {unit} {where}",
            row=positions[0] if source_kind == "csv" else None,
            column="component, failure_mode"))


def parse_csv(data: bytes) -> Worksheet:
    """Parse CSV bytes into a worksheet (entries in input order, title empty).

    Raises:
        ParseFailure: with every located error found in the document.
    """
    errors: list[ParseError] = []
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ParseFailure([ParseError(
            "csv", f"not valid UTF-8 at byte {exc.start}", row=line)]) from exc

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseFailure([ParseError(
            "csv", f"malformed CSV: {exc}", row=reader.line_num)]) from exc

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
    positions = {name: header.index(name) for name in CSV_COLUMNS}

    entries: list[FmeaEntry] = []
    keyed_rows: list[tuple[tuple[str, str], int]] = []
    for record_index, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(header):
            errors.append(ParseError(
                "csv", f"expected {len(header)} fields, got {len(cells)}",
                row=record_index))
            continue
        get = lambda name: cells[positions[name]]

        component = get("component")
        if not component.strip():
            errors.append(ParseError("csv", "must not be empty",
                                     row=record_index, column="component"))
        ratings = {name: _parse_rating(get(name), name, record_index, errors)
                   for name in RATING_FIELDS}
        declared = _parse_classification(get("declared_classification"), errors,
                                         "csv", record_index,
                                         "declared_classification")
        keyed_rows.append(((component, get("failure_mode")), record_index))
        entries.append(FmeaEntry(
            component=component,
            failure_mode=get("failure_mode"),
            triple=RatingTriple(**ratings),
            effect=get("effect"),
            end_effect=get("end_effect"),
            cause=get("cause"),
            prevention_controls=get("prevention_controls"),
            detection_controls=get("detection_controls"),
            declared_classification=declared,
        ))

    _check_duplicates(keyed_rows, "csv", errors)
    if errors:
        raise ParseFailure(errors)
    return Worksheet(title="", entries=entries)


def _json_entry(obj: object, index: int, errors: list[ParseError]) -> FmeaEntry | None:
    path = f"entries[{index}]"
    if not isinstance(obj, dict):
        errors.append(ParseError("json", "entry must be an object", column=path))
        return None

    for name in obj:
        if name not in CSV_COLUMNS:
            errors.append(ParseError("json", "unknown field", column=f"{path}.{name}"))

    def text_field(name: str, required: bool = False) -> str:
        value = obj.get(name, None)
        if value is None:
            if required:
                errors.append(ParseError("json", "missing required field",
                                         column=f"{path}.{name}"))
            return ""
        if not isinstance(value, str):
            errors.append(ParseError("json", f"must be a string, got {value!r}",
                                     column=f"{path}.{name}"))
            return ""
        return value

    component = text_field("component", required=True)
    if isinstance(obj.get("component"), str) and not component.strip():
        errors.append(ParseError("json", "must not be empty",
                                 column=f"{path}.component"))
    failure_mode = text_field("failure_mode", required=True)

    ratings = {}
    for name in RATING_FIELDS:
        value = obj.get(name, None)
        if is_rating(value):
            ratings[name] = value
        else:
            errors.append(ParseError("json", rating_message(value),
                                     column=f"{path}.{name}"))
            ratings[name] = 0

    declared = None
    raw_class = obj.get("declared_classification", None)
    where = f"{path}.declared_classification"
    if isinstance(raw_class, str):
        declared = _parse_classification(raw_class, errors, "json", None, where)
    elif raw_class is not None:
        errors.append(ParseError(
            "json", f"must be a string or null, got {raw_class!r}", column=where))

    return FmeaEntry(
        component=component,
        failure_mode=failure_mode,
        triple=RatingTriple(**ratings),
        effect=text_field("effect"),
        end_effect=text_field("end_effect"),
        cause=text_field("cause"),
        prevention_controls=text_field("prevention_controls"),
        detection_controls=text_field("detection_controls"),
        declared_classification=declared,
    )


def _json_int(text: str) -> int | Decimal:
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit; no field takes a Decimal
        return Decimal(text)


def parse_json(data: bytes) -> Worksheet:
    """Parse JSON bytes ({"title": ..., "entries": [...]}) into a worksheet.

    Entry fields are named as the CSV columns; validation semantics match
    parse_csv. Raises ParseFailure with every located error.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ParseFailure([ParseError(
            "json", f"not valid UTF-8 at byte {exc.start}", row=line)]) from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure([ParseError(
            "json", f"malformed JSON: {exc.msg}", row=exc.lineno,
            column=None)]) from exc
    except RecursionError as exc:
        raise ParseFailure([ParseError(
            "json", "malformed JSON: nested too deeply to parse", row=1)]) from exc
    except ValueError:
        # An integer literal past int()'s digit limit: parse again, keeping
        # such literals as values that every field rejects with a location.
        document = json.loads(data.decode("utf-8"), parse_int=_json_int)

    errors: list[ParseError] = []
    if not isinstance(document, dict):
        raise ParseFailure([ParseError("json", "document must be an object", row=1)])

    for name in document:
        if name not in ("title", "entries"):
            errors.append(ParseError("json", "unknown field", column=name))

    title = document.get("title", "")
    if not isinstance(title, str):
        errors.append(ParseError("json", f"must be a string, got {title!r}",
                                 column="title"))
        title = ""

    raw_entries = document.get("entries", None)
    if not isinstance(raw_entries, list):
        errors.append(ParseError("json", "must be an array", column="entries"))
        raise ParseFailure(errors)

    entries: list[FmeaEntry] = []
    keyed: list[tuple[tuple[str, str], int]] = []
    for index, item in enumerate(raw_entries):
        entry = _json_entry(item, index, errors)
        if entry is not None:
            keyed.append(((entry.component, entry.failure_mode), index))
            entries.append(entry)

    _check_duplicates(keyed, "json", errors)
    if errors:
        raise ParseFailure(errors)
    return Worksheet(title=title, entries=entries)


def _entry_record(entry: FmeaEntry) -> dict[str, object]:
    declared = entry.declared_classification
    return {
        "component": entry.component,
        "failure_mode": entry.failure_mode,
        "severity": entry.triple.severity,
        "occurrence": entry.triple.occurrence,
        "detection": entry.triple.detection,
        "effect": entry.effect,
        "end_effect": entry.end_effect,
        "cause": entry.cause,
        "prevention_controls": entry.prevention_controls,
        "detection_controls": entry.detection_controls,
        "declared_classification": None if declared is None else declared.value,
    }


def emit_json(ws: Worksheet) -> bytes:
    """Serialize a worksheet to deterministic JSON bytes.

    Fixed field order (the CSV column order), entries in worksheet order,
    UTF-8, LF newlines. parse_json(emit_json(ws)) reconstructs ws exactly.
    """
    document = {
        "title": ws.title,
        "entries": [_entry_record(e) for e in ws.entries],
    }
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def emit_csv(ws: Worksheet) -> bytes:
    """Serialize worksheet entries to deterministic CSV bytes (title is not
    representable in CSV and is dropped)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for entry in ws.entries:
        record = _entry_record(entry)
        writer.writerow(["" if record[c] is None else record[c]
                         for c in CSV_COLUMNS])
    return buffer.getvalue().encode("utf-8")
