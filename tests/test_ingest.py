"""CSV/JSON parsing, located error reporting, and serialization."""

from __future__ import annotations

import csv
import io
import itertools
import json
from unittest import mock

import pytest

from fmeakit import (
    CSV_COLUMNS,
    WORKSHEET_TITLE,
    ClassLabel,
    FmeaEntry,
    ParseFailure,
    RatingTriple,
    Worksheet,
    bundled_csv_bytes,
    emit_csv,
    emit_json,
    microgrid_worksheet,
    parse_csv,
    parse_json,
)
from fmeakit.ingest import csv_text

HEADER = ",".join(CSV_COLUMNS)


def csv_doc(*rows: str) -> bytes:
    return ("\n".join((HEADER,) + rows) + "\n").encode("utf-8")


def data_row(component="Pump", failure_mode="Seal leak", s="5", o="5", d="5",
             declared="") -> str:
    return f"{component},{failure_mode},{s},{o},{d},,,,,,{declared}"


def errors_of(exc_info) -> list[tuple[int | None, str | None, str]]:
    return [(e.row, e.column, e.message) for e in exc_info.value.errors]


def test_csv_header_matches_public_column_tuple():
    assert CSV_COLUMNS == (
        "component", "failure_mode", "severity", "occurrence", "detection",
        "effect", "end_effect", "cause", "prevention_controls",
        "detection_controls", "declared_classification")


def test_parse_csv_happy_path():
    ws = parse_csv(csv_doc(data_row(), data_row(failure_mode="Bearing wear",
                                                declared="Critical")))
    assert ws.title == ""
    assert len(ws) == 2
    assert ws.entries[0].component == "Pump"
    assert ws.entries[0].triple == RatingTriple(5, 5, 5)
    assert ws.entries[0].declared_classification is None
    assert ws.entries[1].declared_classification is ClassLabel.CRITICAL
    assert parse_csv(csv_doc(data_row(s="05", d="10"))).entries[0].triple \
        == RatingTriple(5, 5, 10)


def test_parse_csv_header_only_gives_empty_worksheet():
    assert len(parse_csv(csv_doc())) == 0


def test_parse_csv_locates_bad_rating():
    # Only ASCII digits are a rating: int() would take the sign, the
    # spaces, the underscore and the Arabic-Indic five. The 5,000-digit
    # cell is past int()'s digit limit.
    for raw in ("x", " 5 ", "+5", "0_5", "\u0665", "11", "0", "", "5" * 5000):
        # header is row 1, so the second data record is row 3
        with pytest.raises(ParseFailure) as info:
            parse_csv(csv_doc(data_row(), data_row(failure_mode="Other", s=raw)))
        assert errors_of(info) == [
            (3, "severity", f"must be an integer in [1, 10], got {raw!r}")]


def test_parse_csv_collects_every_error():
    doc = csv_doc(
        data_row(s="11"),
        data_row(component="", failure_mode="Other", o="zero"),
        data_row(failure_mode="Third", declared="Bogus"),
    )
    with pytest.raises(ParseFailure) as info:
        parse_csv(doc)
    located = [(e.row, e.column) for e in info.value.errors]
    assert located == [
        (2, "severity"),
        (3, "component"),
        (3, "occurrence"),
        (4, "declared_classification"),
    ]


def test_parse_csv_missing_and_unknown_columns():
    doc = ("component,failure_mode,severity,occurrence,detection,notes\n"
           "Pump,Seal leak,5,5,5,hello\n").encode()
    with pytest.raises(ParseFailure) as info:
        parse_csv(doc)
    messages = {(e.column, e.message) for e in info.value.errors}
    assert ("effect", "missing required column") in messages
    assert ("notes", "unknown column") in messages
    assert all(e.row == 1 for e in info.value.errors)


def test_parse_csv_duplicate_header_names():
    doc = (HEADER + ",component\n").encode()
    with pytest.raises(ParseFailure) as info:
        parse_csv(doc)
    assert any("duplicate column" in e.message for e in info.value.errors)


def test_parse_csv_field_count_mismatch():
    doc = csv_doc("Pump,Seal leak,5,5,5")
    with pytest.raises(ParseFailure) as info:
        parse_csv(doc)
    assert errors_of(info) == [(2, None, "expected 11 fields, got 5")]


def test_parse_csv_duplicate_pairs_reported_once():
    doc = csv_doc(data_row(), data_row(s="7"), data_row(d="2"))
    with pytest.raises(ParseFailure) as info:
        parse_csv(doc)
    assert len(info.value.errors) == 1
    assert "rows 2, 3, 4" in info.value.errors[0].message


def test_parse_csv_empty_input():
    with pytest.raises(ParseFailure) as info:
        parse_csv(b"")
    assert "missing header row" in info.value.errors[0].message


def test_parse_csv_rejects_non_utf8():
    with pytest.raises(ParseFailure) as info:
        parse_csv(b"component\n\xff\xfe")
    assert "not valid UTF-8" in info.value.errors[0].message
    assert info.value.errors[0].row == 2
    # The byte offset counts a leading BOM.
    with pytest.raises(ParseFailure) as info:
        parse_csv(b"\xef\xbb\xbfcomponent\n\xff\xfe")
    assert errors_of(info) == [(2, None, "not valid UTF-8 at byte 13")]
    # Past the reader's first 8 KiB, after rows it has already read, the
    # bad byte is located in the whole input all the same.
    sheet = csv_doc(*(data_row(component=f"Pump {i}") for i in range(400)))
    assert len(sheet) > 8192
    with pytest.raises(ParseFailure) as info:
        parse_csv(sheet + b"Pump \xff,Seal leak,5,5,5,,,,,,\n")
    assert errors_of(info) == [(402, None, f"not valid UTF-8 at byte {len(sheet) + 5}")]


def test_parse_csv_accepts_utf8_bom():
    plain = csv_doc(data_row())
    assert parse_csv(b"\xef\xbb\xbf" + plain) == parse_csv(plain)
    plain = json_doc()
    assert parse_json(b"\xef\xbb\xbf" + plain) == parse_json(plain)


def _whole_text_rows(data: bytes) -> list[list[str]]:
    """The rows of the reader parse_csv once used: the whole input decoded,
    one BOM dropped, then read from an io.StringIO."""
    text = data.decode("utf-8").removeprefix("\ufeff")
    return list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("endings", list(itertools.product(("\n", "\r\n", "\r"), repeat=3)),
                         ids=lambda endings: "-".join(map(repr, endings)))
def test_parse_csv_splits_lines_as_the_whole_text_reader_did(bom, endings):
    # The reader decodes the bytes in 8 KiB chunks. The padded row's line
    # ending starts on the first chunk's last byte, so a CRLF straddles the
    # boundary; the quoted cells hold a line break of each kind.
    header, padded, last = endings
    head = bom + f"{HEADER}{header}".encode()
    row = 'Pump,"Seal\rleak",5,5,5,"{}",,,,,{}'
    width = 8191 - len(head) - len(row.format("", "").encode())
    first = row.format("x" * width, padded)
    data = head + first.encode() + f'Valve,"Stuck\r\nopen",3,2,8,"a\nb",,,,,{last}'.encode()
    assert len(head + first.encode()) - len(padded) == 8191
    # The sheet is spelt as emit_csv writes it, so its rows come back.
    rows = _whole_text_rows(data)
    assert len(rows) == 3
    assert _whole_text_rows(emit_csv(parse_csv(data))) == rows


def test_parse_csv_quoted_fields_round_trip():
    entry = FmeaEntry(
        component='Valve "A", primary',
        failure_mode="Stuck open\nwith chatter",
        triple=RatingTriple(3, 2, 8),
        cause="debris, corrosion",
    )
    ws = Worksheet("", [entry])
    assert parse_csv(emit_csv(ws)) == ws


def test_parse_error_str_is_located():
    with pytest.raises(ParseFailure) as info:
        parse_csv(csv_doc(data_row(s="x")))
    assert str(info.value.errors[0]) == (
        "[csv] row 2, column 'severity': must be an integer in [1, 10], got 'x'")


def json_doc(**overrides) -> bytes:
    entry = {
        "component": "Pump", "failure_mode": "Seal leak",
        "severity": 5, "occurrence": 5, "detection": 5,
    }
    entry.update(overrides)
    return json.dumps({"title": "t", "entries": [entry]}).encode()


def test_parse_json_happy_path_with_defaults():
    ws = parse_json(json_doc())
    assert ws.title == "t"
    assert ws.entries[0].effect == ""
    assert ws.entries[0].declared_classification is None


def test_parse_json_rejects_malformed_document():
    with pytest.raises(ParseFailure) as info:
        parse_json(b"{not json")
    assert "malformed JSON" in info.value.errors[0].message
    with pytest.raises(ParseFailure):
        parse_json(b"[1, 2]")
    with pytest.raises(ParseFailure):
        parse_json(json.dumps({"title": "t"}).encode())  # no entries array


def test_parse_json_rejects_unknown_fields():
    with pytest.raises(ParseFailure) as info:
        parse_json(json.dumps({"title": "t", "entries": [], "extra": 1}).encode())
    assert [(e.column, e.message) for e in info.value.errors] == [
        ("extra", "unknown field")]
    with pytest.raises(ParseFailure) as info:
        parse_json(json_doc(notes="hello"))
    assert info.value.errors[0].column == "entries[0].notes"


def test_parse_json_rating_type_strictness():
    for bad in (5.0, "5", True, None, 11, 0):
        with pytest.raises(ParseFailure) as info:
            parse_json(json_doc(severity=bad))
        assert info.value.errors[0].column == "entries[0].severity"


def test_parse_json_rating_type_strictness_on_every_rating_field():
    # Each of these equals a rating as a dict key (True == 1, 10.0 == 10),
    # so a lookup must never stand in for the type check.
    for field in ("severity", "occurrence", "detection"):
        for bad in (True, False, 1.0, 10.0):
            with pytest.raises(ParseFailure) as info:
                parse_json(json_doc(**{field: bad}))
            assert errors_of(info) == [
                (None, f"entries[0].{field}",
                 f"must be an integer in [1, 10], got {bad!r}")]


def test_parse_json_requires_component_and_failure_mode():
    doc = json.dumps({"title": "", "entries": [{"severity": 5, "occurrence": 5,
                                                "detection": 5}]}).encode()
    with pytest.raises(ParseFailure) as info:
        parse_json(doc)
    columns = [e.column for e in info.value.errors]
    assert "entries[0].component" in columns
    assert "entries[0].failure_mode" in columns


def test_parse_json_blank_component_rejected():
    with pytest.raises(ParseFailure) as info:
        parse_json(json_doc(component="  "))
    assert info.value.errors[0].message == "must not be empty"


def test_parse_json_rejects_lone_surrogates():
    # No output encoding can write a lone surrogate, so no field may hold one.
    with pytest.raises(ParseFailure) as info:
        parse_json(json_doc(effect="A\udfff"))
    assert errors_of(info) == [
        (None, "entries[0].effect",
         "must be valid Unicode, got lone surrogate '\\udfff' at character 1")]
    data = json.dumps({"title": "\ud800", "entries": []}).encode()
    with pytest.raises(ParseFailure) as info:
        parse_json(data)
    assert errors_of(info) == [
        (None, "title",
         "must be valid Unicode, got lone surrogate '\\ud800' at character 0")]


def test_parse_json_classification_null_and_errors():
    assert parse_json(json_doc(declared_classification=None)) \
        .entries[0].declared_classification is None
    ws = parse_json(json_doc(declared_classification="marginal"))
    assert ws.entries[0].declared_classification is ClassLabel.MARGINAL
    for bad in (42, "Bogus"):
        with pytest.raises(ParseFailure) as info:
            parse_json(json_doc(declared_classification=bad))
        assert info.value.errors[0].column == "entries[0].declared_classification"


def test_parse_json_duplicate_pairs():
    doc = json.dumps({"title": "", "entries": [
        {"component": "A", "failure_mode": "x",
         "severity": 1, "occurrence": 1, "detection": 1},
        {"component": "A", "failure_mode": "x",
         "severity": 2, "occurrence": 2, "detection": 2},
    ]}).encode()
    with pytest.raises(ParseFailure) as info:
        parse_json(doc)
    assert "entries 0, 1" in info.value.errors[0].message


def test_parse_json_locates_integer_past_digit_limit():
    with pytest.raises(ParseFailure) as info:
        parse_json(json_doc(severity=0).replace(
            b'"severity": 0', b'"severity": -' + b"5" * 5000))
    assert errors_of(info) == [
        (None, "entries[0].severity",
         f"must be an integer in [1, 10], got Decimal('-{'5' * 5000}')")]


def test_parse_json_nested_too_deeply():
    with pytest.raises(ParseFailure) as info:
        parse_json(b'{"entries": ' + b"[" * 100_000)
    assert errors_of(info) == [
        (1, None, "malformed JSON: nested too deeply to parse")]


def test_bundled_csv_is_the_only_copy_of_the_sheet():
    ws = microgrid_worksheet()
    assert ws.title == WORKSHEET_TITLE
    assert len(ws) == 15
    assert emit_csv(ws) == bundled_csv_bytes()


def test_json_round_trip_fixture(fixture_ws):
    assert parse_json(emit_json(fixture_ws)) == fixture_ws


def test_escaped_surrogate_pair_sheet_parses_like_emit_json(fixture_ws):
    # json.dumps escapes an emoji as a surrogate pair, which sends every
    # entry of the document through the diagnosing path of the builder.
    emoji = FmeaEntry("Pump \U0001f600", "Seal leak", RatingTriple(5, 5, 5))
    ws = Worksheet(fixture_ws.title, [*fixture_ws.entries, emoji])
    escaped = json.dumps(json.loads(emit_json(ws))).encode("utf-8")
    assert b"\\ud83d\\ude00" in escaped
    assert parse_json(escaped) == parse_json(emit_json(ws)) == ws


def _by_column(parse, data: bytes) -> Worksheet:
    # With the row builder made to raise, only the column path can parse.
    with mock.patch("fmeakit.ingest._entry", side_effect=AssertionError("by row")):
        return parse(data)


def test_workload_spellings_take_the_column_path_and_others_agree():
    # Every benchmark workload sends a sheet shaped as fmeakit writes it,
    # as the bundled CSV (which is emit_csv's) or emit_json. Each is read
    # by column.
    ws = microgrid_worksheet()
    assert _by_column(parse_csv, bundled_csv_bytes()).entries == ws.entries
    assert _by_column(parse_json, emit_json(ws)) == ws

    # Any other valid spelling of the sheet is read row by row, to the
    # entries of its canonical spelling (an escaped emoji pair: see
    # test_escaped_surrogate_pair_sheet_parses_like_emit_json).
    document = json.loads(emit_json(ws))
    first = document["entries"][0]
    first["effect"] = ""
    blank = _by_column(parse_json, json.dumps(document, ensure_ascii=False).encode("utf-8"))
    first["effect"] = None
    assert parse_json(json.dumps(document).encode("utf-8")) == blank
    del first["effect"]
    assert parse_json(json.dumps(document).encode("utf-8")) == blank

    rows = list(csv.reader(io.StringIO(emit_csv(ws).decode("utf-8"))))
    padded = [rows[0]] + [[*row[:2], *("0" + cell for cell in row[2:5]), *row[5:]]
                          for row in rows[1:]]
    assert {"05", "010"} <= {cell for row in padded[1:] for cell in row[2:5]}
    assert parse_csv(csv_text(padded).encode("utf-8")).entries == ws.entries


def test_csv_round_trip_fixture(fixture_ws):
    # CSV carries no title, so the round trip lands on the same entries
    ws = parse_csv(emit_csv(fixture_ws))
    assert ws.title == ""
    assert ws.entries == fixture_ws.entries


def test_emitters_are_deterministic(fixture_ws):
    assert emit_json(fixture_ws) == emit_json(fixture_ws)
    assert emit_csv(fixture_ws) == emit_csv(fixture_ws)
    assert b"\r" not in emit_csv(fixture_ws)
    assert emit_json(fixture_ws).endswith(b"\n")


def test_long_field_round_trips_in_both_formats():
    # Past the csv module's default field_size_limit of 131,072 characters.
    ws = Worksheet("", [FmeaEntry("Pump", "Seal leak", RatingTriple(1, 1, 1),
                                  effect="x" * 200_000)])
    assert parse_csv(emit_csv(ws)) == ws
    assert parse_json(emit_json(ws)) == ws


def test_parse_csv_restores_the_field_size_limit():
    # parse_csv raises the csv module's limit for a long field, then puts
    # back the process's own limit, whether the sheet parses or not.
    before = csv.field_size_limit(131_072)
    try:
        long_sheet = emit_csv(Worksheet("", [FmeaEntry("Pump", "Seal leak",
                                                       RatingTriple(1, 1, 1),
                                                       effect="x" * 200_000)]))
        assert parse_csv(long_sheet).entries[0].effect == "x" * 200_000
        assert csv.field_size_limit() == 131_072
        with pytest.raises(ParseFailure):
            parse_csv(long_sheet.replace(b",1,1,1,", b",1,1,11,"))
        assert csv.field_size_limit() == 131_072
    finally:
        csv.field_size_limit(before)


def test_carriage_returns_round_trip_through_csv():
    # A bare CR in a cell must be quoted, or the reader ends the row there.
    ws = Worksheet("", [FmeaEntry("A\rB", "Seal leak", RatingTriple(1, 1, 1),
                                  effect="\r0", cause="x\r\ny\r")])
    data = emit_csv(ws)
    assert b'"A\rB"' in data and b'"\r0"' in data
    assert parse_csv(data) == ws


def test_nul_round_trips_through_csv_and_matches_json():
    # The csv module's reader and writer take NUL as is; both formats do.
    ws = Worksheet("", [FmeaEntry("A\0B", "Seal leak", RatingTriple(1, 1, 1),
                                  effect="x\0", cause='"\0,')])
    data = emit_csv(ws)
    assert b"A\0B," in data
    assert parse_csv(data) == ws
    assert parse_csv(data).entries == parse_json(emit_json(ws)).entries
    typed = parse_csv(csv_doc("A\0B,Leak,5,5,5,x\0y,,,,,"))
    document = {"entries": [{"component": "A\0B", "failure_mode": "Leak",
                             "severity": 5, "occurrence": 5, "detection": 5,
                             "effect": "x\0y"}]}
    assert typed.entries == parse_json(json.dumps(document).encode()).entries


def test_emit_json_keeps_non_ascii_readable():
    ws = Worksheet("µgrid", [FmeaEntry("Pump", "Seal leak",
                                       RatingTriple(1, 1, 1))])
    data = emit_json(ws)
    assert "µgrid".encode("utf-8") in data
    assert parse_json(data) == ws


def test_emit_csv_header_is_the_column_tuple(fixture_ws):
    first_line = emit_csv(fixture_ws).split(b"\n", 1)[0].decode()
    assert first_line == ",".join(CSV_COLUMNS)
