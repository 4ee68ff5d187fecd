"""Property-based invariants over random triples and worksheets."""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmeakit import (
    CSV_COLUMNS,
    ClassBands,
    ClassLabel,
    FmeaEntry,
    MatrixAxes,
    ParseFailure,
    RatingTriple,
    RpnResult,
    SimResult,
    Summary,
    Worksheet,
    classify,
    collisions,
    emit_json,
    microgrid_worksheet,
    parse_csv,
    parse_json,
    rank,
    rating_from_rate,
    risk_matrix,
    rpn,
    summary_stats,
)
from fmeakit.ingest import (
    _NARRATIVE_FIELDS,
    _SURROGATE_ESCAPE,
    ParseError,
    _accept,
    _check_duplicates,
    _entry,
    _text_problem,
    csv_text,
)
from fmeakit.report import (
    _one_line,
    render_analysis_csv,
    render_analysis_json,
    render_analysis_markdown,
    render_fmea_report,
    render_simulation_text,
)
from fmeakit.scales import rating_from_text
from fmeakit.worksheet import RATING_FIELDS

ratings = st.integers(1, 10)
triples = st.builds(RatingTriple, ratings, ratings, ratings)
narrative = st.text(max_size=30)
component_names = st.text(min_size=1, max_size=30).filter(lambda s: s.strip())

entries = st.builds(
    FmeaEntry,
    component=component_names,
    failure_mode=narrative,
    triple=triples,
    effect=narrative,
    end_effect=narrative,
    cause=narrative,
    prevention_controls=narrative,
    detection_controls=narrative,
    declared_classification=st.none() | st.sampled_from(list(ClassLabel)),
)

worksheets = st.builds(
    Worksheet,
    title=st.text(max_size=20),
    entries=st.lists(entries, max_size=8,
                     unique_by=lambda e: (e.component, e.failure_mode)),
)

band_triples = st.lists(st.integers(2, 1000), min_size=3, max_size=3,
                        unique=True).map(sorted)


@given(triples)
def test_rpn_bounds(triple):
    assert 1 <= rpn(triple) <= 1000


@given(triples)
def test_rpn_strictly_monotone_in_each_factor(triple):
    ratings = {"severity": triple.severity, "occurrence": triple.occurrence,
               "detection": triple.detection}
    for factor, value in ratings.items():
        if value < 10:
            bumped = RatingTriple(**{**ratings, factor: value + 1})
            assert rpn(bumped) > rpn(triple)


@given(st.integers(1, 1000), band_triples)
def test_classify_total_and_band_consistent(value, cuts):
    bands = ClassBands(*cuts)
    label = classify(value, bands)
    low, high = {
        ClassLabel.NEGLIGIBLE: (1, bands.marginal_min),
        ClassLabel.MARGINAL: (bands.marginal_min, bands.critical_min),
        ClassLabel.CRITICAL: (bands.critical_min, bands.catastrophic_min),
        ClassLabel.CATASTROPHIC: (bands.catastrophic_min, 1001),
    }[label]
    assert low <= value < high


@given(worksheets)
def test_rank_is_a_total_permutation(ws):
    results = rank(ws)
    assert [r.rank for r in results] == list(range(1, len(ws) + 1))
    assert sorted(r.entry_index for r in results) == list(range(len(ws)))
    values = [r.rpn for r in results]
    assert values == sorted(values, reverse=True)


# Sheets dense with ties: few ratings, few names ("a" after "Z" and "é"
# after both in code point order), every failure mode distinct. Their
# bands often cut at one of the sheets' RPNs or just above it.
TIE_RATINGS = (2, 3, 4, 5, 6)
TIE_CUTS = sorted({s * o * d + above for s in TIE_RATINGS for o in TIE_RATINGS
                   for d in TIE_RATINGS for above in (0, 1)})
tie_bands = st.lists(st.integers(2, 1000) | st.sampled_from(TIE_CUTS),
                     min_size=3, max_size=3, unique=True,
                     ).map(lambda cuts: ClassBands(*sorted(cuts)))
tie_sheets = st.lists(
    st.tuples(st.sampled_from(["A", "a", "B", "é", "Z"]), *[st.sampled_from(TIE_RATINGS)] * 3,
              st.none() | st.sampled_from(list(ClassLabel))),
    max_size=40,
).map(lambda rows: Worksheet("", [
    FmeaEntry(name, f"mode {i}", RatingTriple(s, o, d), declared_classification=declared)
    for i, (name, s, o, d, declared) in enumerate(rows)]))


@given(tie_sheets, tie_bands)
def test_rank_and_summary_match_naive_oracle(ws, bands):
    def product(i):
        t = ws.entries[i].triple
        return t.severity * t.occurrence * t.detection

    order = sorted(range(len(ws)), key=lambda i: (
        -product(i), -ws.entries[i].triple.severity, -ws.entries[i].triple.occurrence,
        -ws.entries[i].triple.detection, ws.entries[i].component))
    expected = []
    for position, index in enumerate(order, start=1):
        computed = classify(product(index), bands)
        declared = ws.entries[index].declared_classification
        expected.append(RpnResult(index, product(index), position, computed, declared,
                                  declared is not None and declared is not computed))
    assert rank(ws, bands) == expected

    values = [product(i) for i in range(len(ws))]
    assert summary_stats(ws, bands) == Summary(
        entries=len(values),
        rpn_min=min(values, default=None),
        rpn_max=max(values, default=None),
        rpn_mean=Fraction(sum(values), len(values)) if values else None,
        computed_class_counts={label: sum(classify(v, bands) is label for v in values)
                               for label in ClassLabel},
        declared_class_counts={label: sum(e.declared_classification is label
                                          for e in ws.entries) for label in ClassLabel},
    )


@given(worksheets)
def test_matrix_conserves_every_entry(ws):
    for axes in MatrixAxes:
        matrix = risk_matrix(ws, axes)
        placed = [i for row in matrix.cells for cell in row for i in cell]
        assert sorted(placed) == list(range(len(ws)))


@given(worksheets)
def test_collisions_match_allpairs_oracle(ws):
    values = [rpn(e.triple) for e in ws.entries]
    oracle = {v: [i for i, x in enumerate(values) if x == v]
              for v in set(values) if values.count(v) >= 2}
    assert {g.rpn: list(g.members) for g in collisions(ws)} == oracle


@settings(max_examples=100)
@given(worksheets)
def test_json_round_trip(ws):
    assert parse_json(emit_json(ws)) == ws


# Cells as a worksheet author might type them: blank, near-miss ratings
# and labels, or any text a CSV file can carry.
cells = st.one_of(
    st.sampled_from(["", " ", "5", "05", "10", "11", "0", "+5", " 5", "\u0665",
                     "Pump", "critical", " Marginal ", "Bogus"]),
    st.text(max_size=10),
)


def _parse_outcome(parse, data):
    # Accepted: the entries. Rejected: the fields the errors name, in order.
    try:
        return parse(data).entries
    except ParseFailure as exc:
        return [str(e.column).removeprefix("entries[0].") for e in exc.errors]


@settings(max_examples=200, deadline=None)
@given(st.lists(cells, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)))
def test_csv_and_json_agree_on_a_row(row):
    # Written by the package's own CSV writer, which must quote any cell
    # the reader would otherwise split, a bare CR included.
    text = csv_text([CSV_COLUMNS, row])
    record = dict(zip(CSV_COLUMNS, row))
    for name in RATING_FIELDS:
        if rating_from_text(record[name]) is not None:
            record[name] = rating_from_text(record[name])
    document = json.dumps({"title": "", "entries": [record]})
    assert _parse_outcome(parse_csv, text.encode("utf-8")) \
        == _parse_outcome(parse_json, document.encode("utf-8"))


# A sheet is accepted by _accept, column by column, only when every row is
# certainly valid; _entry diagnoses a row and is the reference. Both must
# give the same entry, or _accept must decline a row _entry finds fault
# with, and the parser must give that entry or _entry's error lines on the
# one-row document. Each row or object starts valid and has up to three
# fields replaced.
_VALID_CELLS = {
    "component": component_names,
    "declared_classification": st.sampled_from(
        ["", " ", "Critical", " marginal ", "NEGLIGIBLE"]),
    **{name: st.sampled_from([str(v) for v in range(1, 11)]) for name in RATING_FIELDS},
}
csv_cells = cells | st.sampled_from(["05", "010", " critical", "\t", " \n ", "\x1c",
                                     "\u3000"])
json_values = st.one_of(
    st.sampled_from([True, False, 1.0, 10.0, 0, 11, None, "5", "", " ", "\ud800",
                     "a\udfffb", "\U0001f600", " critical", "Bogus", [], {}]),
    st.integers(-2, 12),
    st.text(max_size=10),
)
_MISSING = object()


def _mutated(draw, valid, replacement, extra_keys=()):
    # Field name -> value, from *valid*; up to three fields are replaced by
    # *replacement*, or dropped (_MISSING), or added from *extra_keys*.
    record = {name: draw(valid.get(name, narrative)) for name in CSV_COLUMNS}
    for name in draw(st.lists(st.sampled_from((*CSV_COLUMNS, *extra_keys)), max_size=3)):
        record[name] = draw(replacement)
    return {k: v for k, v in record.items() if v is not _MISSING}


@st.composite
def csv_rows(draw):
    return list(_mutated(draw, _VALID_CELLS, csv_cells).values())


@st.composite
def json_objects(draw):
    valid = {**_VALID_CELLS, **{name: ratings for name in RATING_FIELDS}}
    record = _mutated(draw, valid, json_values | st.just(_MISSING), ("notes", "Severity"))
    if draw(st.booleans()):  # a narrative or the class left out
        record.pop(draw(st.sampled_from(CSV_COLUMNS[5:])), None)
    return record


def _built(values, source_kind, row, prefix, errors=()):
    errors = list(errors)
    entry = _entry(values, errors, source_kind, row, prefix)
    return [str(e) for e in errors] if errors else entry


def _parsed(parse, data):
    try:
        return parse(data).entries[0]
    except ParseFailure as exc:
        return [str(e) for e in exc.errors]


def _accepted(values):
    # _accept on the one-row sheet: its entry, or None if it declines.
    entries = _accept([[value] for value in values])
    return entries if entries is None else entries[0]


def _by_column(parse, data):
    # With the row builder made to raise, only the column path can parse.
    with mock.patch("fmeakit.ingest._entry", side_effect=AssertionError("by row")):
        return list(parse(data).entries)


@settings(max_examples=300, deadline=None)
@given(csv_rows())
def test_csv_fast_path_agrees_with_entry(row):
    # A rating cell reaches both as its rating, or as text if it is none.
    values = [rating_from_text(cell) or cell if name in RATING_FIELDS else cell
              for name, cell in zip(CSV_COLUMNS, row)]
    expected = _built(values, "csv", 2, "")
    # Every CSV cell is str, so _accept declines exactly the faulty rows.
    assert _accepted(values) == (None if isinstance(expected, list) else expected)
    assert _parsed(parse_csv, csv_text([CSV_COLUMNS, row]).encode("utf-8")) == expected


# A valid entry as JSON, from which each example below spoils one field.
_ITEM = {**dict.fromkeys(CSV_COLUMNS, "x"), **dict.fromkeys(RATING_FIELDS, 5)}


@settings(max_examples=300, deadline=None)
@given(json_objects(), st.booleans())
@example({**_ITEM, "failure_mode": 7}, False)
@example({**_ITEM, "declared_classification": ["critical"]}, False)
@example({**_ITEM, "effect": None}, False)
@example({**_ITEM, "cause": None, "notes": ""}, True)
def test_json_fast_path_agrees_with_entry(item, ascii_only):
    document = {"title": "", "entries": [item]}
    try:
        data = json.dumps(document, ensure_ascii=ascii_only).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate can only be written escaped
        data = json.dumps(document).encode("utf-8")
    item = json.loads(data)["entries"][0]
    unknown = [ParseError("json", "unknown field", column=f"entries[0].{name}")
               for name in item if name not in CSV_COLUMNS]
    values = list(map(item.get, CSV_COLUMNS))
    assert _parsed(parse_json, data) == \
        _built(values, "json", None, "entries[0].", unknown)
    if _SURROGATE_ESCAPE.search(data.decode("utf-8")) is None:  # as parse_json decides
        expected = _built(values, "json", None, "entries[0].")
        # The same entry without its unknown fields, which the gate declines.
        known = {name: item[name] for name in CSV_COLUMNS if name in item}
        data = json.dumps({"title": "", "entries": [known]}, ensure_ascii=False)
        try:
            (accepted,) = _by_column(parse_json, data.encode("utf-8"))
        except AssertionError:  # declined: the row builder was called
            # A faulty row is declined, and so is a null or missing
            # narrative, which is valid but left to _entry.
            assert isinstance(expected, list) or None in values[5:10]
        else:
            assert accepted == expected


# Sheets of up to 30 rows: unique keys unless one row copies another's,
# ratings all spelt as str(rating) or some with leading zeros, blank and
# mixed-case classes, and at most one cell replaced by a value that may
# be bad.
_SHEET_CELLS = {
    **_VALID_CELLS,
    "declared_classification": st.sampled_from(
        ["", " ", "Critical", " marginal ", "NEGLIGIBLE", "cAtAsTrOpHiC"]),
}
_PADDED_SHEET_CELLS = {
    **_SHEET_CELLS,
    **dict.fromkeys(RATING_FIELDS, st.sampled_from(["1", "05", "7", "010", "10"])),
}


@st.composite
def sheets(draw, bad_values):
    rows = []
    cells = draw(st.sampled_from([_SHEET_CELLS, _PADDED_SHEET_CELLS]))
    for index in range(draw(st.integers(0, 30))):
        record = {name: draw(cells.get(name, narrative)) for name in CSV_COLUMNS}
        record["component"] = f"{record['component']} {index}"
        rows.append(record)
    if len(rows) > 1 and draw(st.booleans()):
        source, target = draw(st.permutations(rows))[:2]
        target.update(component=source["component"], failure_mode=source["failure_mode"])
    if rows and draw(st.booleans()):
        draw(st.sampled_from(rows))[draw(st.sampled_from(CSV_COLUMNS))] = draw(bad_values)
    return rows


def _diagnosed(rows, source_kind):
    # _entry row by row, then the duplicate check: the entries, or the errors.
    errors, entries, keyed = [], [], []
    for index, values in enumerate(rows):
        row, prefix = ((index + 2, "") if source_kind == "csv"
                       else (None, f"entries[{index}]."))
        entries.append(_entry(values, errors, source_kind, row, prefix))
        keyed.append(((entries[-1].component, entries[-1].failure_mode), row or index))
    _check_duplicates(keyed, source_kind, errors)
    return [str(e) for e in errors] if errors else entries


def _sheet_outcome(parse, data):
    try:
        return list(parse(data).entries)
    except ParseFailure as exc:
        return [str(e) for e in exc.errors]


_RATING_TEXTS = {str(v) for v in range(1, 11)}


@settings(max_examples=200, deadline=None)
@given(sheets(csv_cells))
def test_csv_sheet_by_column_agrees_with_entry_by_row(rows):
    cells = [[record[name] for name in CSV_COLUMNS] for record in rows]
    values = [[rating_from_text(cell) or cell if name in RATING_FIELDS else cell
               for name, cell in zip(CSV_COLUMNS, row)] for row in cells]
    data = csv_text([CSV_COLUMNS, *cells]).encode("utf-8")
    expected = _diagnosed(values, "csv")
    assert _sheet_outcome(parse_csv, data) == expected
    if (not expected or isinstance(expected[0], FmeaEntry)) \
            and {cell for row in cells for cell in row[2:5]} <= _RATING_TEXTS:
        # A sheet that parses, its ratings spelt as str(rating), is taken
        # by column.
        assert _by_column(parse_csv, data) == expected


@settings(max_examples=200, deadline=None)
@given(sheets(st.sampled_from(["\ud800", "a\udfffb", 0, 11, True, 5.0, None, [], "Bogus"])
              | json_values),
       st.sets(st.tuples(st.integers(0, 29), st.sampled_from(CSV_COLUMNS[5:10]))))
def test_json_sheet_by_column_agrees_with_entry_by_row(rows, null_narratives):
    for record in rows:
        for name in RATING_FIELDS:
            if type(record[name]) is str and rating_from_text(record[name]) is not None:
                record[name] = rating_from_text(record[name])
    for index, name in null_narratives:
        if index < len(rows):
            rows[index][name] = None
    document = {"title": "", "entries": rows}
    try:
        data = json.dumps(document, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate can only be written escaped
        data = json.dumps(document).encode("utf-8")
    rows = json.loads(data)["entries"]
    values = [list(map(record.get, CSV_COLUMNS)) for record in rows]
    expected = _diagnosed(values, "json")
    assert _sheet_outcome(parse_json, data) == expected
    if (not expected or isinstance(expected[0], FmeaEntry)) \
            and not any(None in row[5:10] for row in values):
        # A sheet that parses, with no null narrative, is taken by column.
        assert _by_column(parse_json, data) == expected


# JSON string bodies spelt piece by piece: escaped backslashes, surrogate
# escapes high and low in both cases, other escapes, and plain text that
# reads as an escape's tail after an escaped backslash.
_json_string_bodies = st.lists(st.sampled_from((
    "\\\\", "\\ud83d", "\\uDBFF", "\\ude00", "\\uDC00", "\\udfff", "\\u00e9",
    "\\n", '\\"', "u", "ud83d", "uDC00", "x", "\u00e9", "\U0001F600",
)), max_size=8).map("".join)
# Text holding lone surrogates, pairs and backslashes, for json.dumps to spell.
_surrogate_texts = st.text(st.sampled_from("\ud83d\ude00\\uDx\U0001F600"), max_size=8)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_json_string_bodies.map('"{}"'.format),
                          _surrogate_texts.map(json.dumps)), min_size=1, max_size=3))
def test_lone_surrogate_scan_misses_no_lone_surrogate(strings):
    text = "[" + ", ".join(strings) + "]"
    lone = any(_text_problem(value) is not None for value in json.loads(text))
    if lone:
        assert _SURROGATE_ESCAPE.search(text), text


@given(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False))
def test_rating_from_rate_total_on_domain(probability):
    rating = rating_from_rate(probability)
    assert 1 <= rating <= 10


@given(st.floats(min_value=1e-12, max_value=1.0),
       st.floats(min_value=1e-12, max_value=1.0))
def test_rating_from_rate_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert rating_from_rate(lo) <= rating_from_rate(hi)


# Worksheet text that JSON spells with care: quotes, backslashes, control
# and line-separator characters, "|", non-ASCII and astral characters.
_spelt_text = st.text(st.sampled_from('"\\\x00\x01\x1f\x7f\u2028\u2029|\r\n aZ\u00e9\u03a9'
                                      '\U0001F600'), max_size=10) | st.text(max_size=10)


# Worksheet text that CSV, Markdown and line-by-line output treat with
# care: quote, comma, CR, LF (and so CRLF), "|", NUL, tab, non-ASCII and
# astral characters; often empty.
_table_text = st.text('",\r\n|\x00\t\u00e9\U0001F600 a', max_size=6)


@st.composite
def analysis_sheets(draw, text=_spelt_text, max_rows=40, prose=False):
    """A worksheet of 0 to *max_rows* rows read by parse_json or
    parse_csv, its text drawn from *text*. A row's ratings are often a
    permutation of an earlier row's, an RPN collision; its declared class
    is blank, mixed-case, absent or a label. With *prose*, each narrative
    is empty or drawn, and a JSON sheet has a title, which CSV cannot
    carry."""
    records = []
    for index in range(draw(st.integers(0, max_rows))):
        if records and draw(st.booleans()):
            earlier = draw(st.sampled_from(records))
            triple = draw(st.permutations([earlier[name] for name in RATING_FIELDS]))
        else:
            triple = [draw(ratings) for _ in RATING_FIELDS]
        record = {"component": f"{draw(text)} {index}",
                  "failure_mode": draw(text), **dict(zip(RATING_FIELDS, triple))}
        for name in _NARRATIVE_FIELDS if prose else ():
            record[name] = draw(st.just("") | text)
        declared = draw(st.sampled_from(
            [None, "", " ", "Critical", " marginal ", "NEGLIGIBLE", "cAtAsTrOpHiC"]))
        if declared is not None:
            record["declared_classification"] = declared
        records.append(record)
    if draw(st.booleans()):
        document = {"title": draw(text) if prose else "", "entries": records}
        return parse_json(json.dumps(document, ensure_ascii=draw(st.booleans())).encode())
    rows = [[record.get(name, "") for name in CSV_COLUMNS] for record in records]
    return parse_csv(csv_text([CSV_COLUMNS, *rows]).encode())


def _analysis_dicts(ws, results, groups, flagged, summary, bands):
    """The analysis document as dicts, built as it was before each ranked
    record was spelt from a template: the oracle of the test below."""
    labels = {None: None, **{label: label.value for label in ClassLabel}}
    records = {}
    for r in results:
        entry = ws.entries[r.entry_index]
        records[r.entry_index] = {
            "rank": r.rank, "entry_index": r.entry_index, "component": entry.component,
            "failure_mode": entry.failure_mode, "severity": entry.triple.severity,
            "occurrence": entry.triple.occurrence, "detection": entry.triple.detection,
            "rpn": r.rpn, "computed_class": labels[r.computed_class],
            "declared_class": labels[r.declared_class], "discrepancy": r.discrepancy}
    mean = summary.rpn_mean
    return {
        "bands": [bands.marginal_min, bands.critical_min, bands.catastrophic_min],
        "summary": {
            "entries": summary.entries,
            "rpn_min": summary.rpn_min,
            "rpn_max": summary.rpn_max,
            "rpn_mean": None if mean is None else float(f"{float(mean):.2f}"),
            "computed_class_counts": {
                label.value: summary.computed_class_counts[label] for label in ClassLabel},
            "declared_class_counts": {
                label.value: summary.declared_class_counts[label] for label in ClassLabel},
        },
        "results": list(records.values()),
        "collisions": [{"rpn": g.rpn, "members": list(g.members),
                        "components": [ws.entries[i].component for i in g.members]}
                       for g in groups],
        "discrepancies": [records[r.entry_index] for r in flagged],
    }


@settings(max_examples=200, deadline=None)
@given(analysis_sheets(), band_triples.map(lambda cuts: ClassBands(*cuts)))
@example(parse_csv(",".join(CSV_COLUMNS).encode()), ClassBands(100, 200, 500))
@example(microgrid_worksheet(), ClassBands(100, 200, 500))
def test_analysis_json_by_template_is_the_payload_written(ws, bands):
    results = rank(ws, bands)
    parts = (ws, results, collisions(ws), [r for r in results if r.discrepancy],
             summary_stats(ws, bands), bands)
    document = render_analysis_json(*parts)
    oracle = _analysis_dicts(*parts)
    assert json.loads(document) == oracle
    assert document == json.dumps(oracle, indent=2, ensure_ascii=False) + "\n"


# The ranked tables and the report, built as they were before each was
# spelt from one template per row, and CSV as the csv module writes it:
# the oracles of the tests below.

def _csv_module_text(rows):
    """Rows as the csv module's writer spells them, each ended by a line
    feed. Rows are written ending in CRLF, so that a bare CR or LF is
    quoted before Python 3.13, and the CR is dropped."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


# Cells as CSV writers meet them: None, numbers, flags, and text pieced
# from quote, comma, CR, LF, CRLF, NUL, tab, "|", non-ASCII and astral
# characters, often empty.
_csv_cells = st.none() | st.integers() | st.floats() | st.booleans() | st.lists(
    st.sampled_from(['"', ",", "\r", "\n", "\r\n", "\0", "\t", "|", "\u00e9",
                     "\U0001F600", "a", " ", ""]), max_size=5).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_csv_cells, max_size=4), max_size=6))
@example([[""], [None], [], ["", ""], [None, None], ['"'], ["\r"], ["\0"]])
def test_csv_text_is_the_csv_module_writer(rows):
    assert csv_text(rows) == _csv_module_text(rows)


def _ranked_cells(ws, results, missing, flags):
    rows = []
    for r in results:
        entry = ws.entries[r.entry_index]
        declared = missing if r.declared_class is None else r.declared_class.value
        rows.append((r.rank, entry.component, entry.failure_mode, entry.triple.severity,
                     entry.triple.occurrence, entry.triple.detection, r.rpn,
                     r.computed_class.value, declared, flags[r.discrepancy]))
    return rows


def _text_of_lines(lines):
    """The lines as text, each ended by a line feed, with each line break
    inside a line made a space: the whole-line rule that the renderers,
    which apply it cell by cell, must match."""
    return "\n".join(map(_one_line, lines)) + "\n"


def _markdown_table(ws, results):
    row = "| " + " | ".join(["{}"] * 10) + " |"
    return _text_of_lines([
        row.format("Rank", "Component", "Failure Mode", "S", "O", "D", "RPN",
                   "Computed Class", "Declared Class", "Discrepancy"),
        "|" + "|".join([" --- "] * 10) + "|",
        *(row.format(rank, component.replace("|", "\\|"), mode.replace("|", "\\|"), *rest)
          for rank, component, mode, *rest in _ranked_cells(ws, results, "-", ("no", "yes")))])


def _report_lines(ws, results):
    lines = [f"# FMEA report: {ws.title}" if ws.title else "# FMEA report"]
    for result in results:
        entry = ws.entries[result.entry_index]
        lines.append("")
        lines.append(f"## {result.rank}. {entry.component}")
        lines.append("")
        lines.append(f"- Failure mode: {entry.failure_mode or '-'}")
        lines.append(f"- Severity (S): {entry.triple.severity}")
        lines.append(f"- Effect: {entry.effect or '-'}")
        lines.append(f"- End effect: {entry.end_effect or '-'}")
        lines.append(f"- Cause: {entry.cause or '-'}")
        lines.append("- Classification: "
                     + (entry.declared_classification or result.computed_class).value)
        lines.append(f"- Occurrence (O): {entry.triple.occurrence}")
        lines.append(f"- Prevention controls: {entry.prevention_controls or '-'}")
        lines.append(f"- Detection controls: {entry.detection_controls or '-'}")
        lines.append(f"- Detection (D): {entry.triple.detection}")
        lines.append(f"- RPN: {result.rpn}")
    return _text_of_lines(lines)


_table_sheets = st.tuples(analysis_sheets(_table_text, max_rows=12, prose=True),
                          band_triples.map(lambda cuts: ClassBands(*cuts)))


def _text_sheet(title, *cells):
    """A JSON sheet of one entry per (component, failure_mode, narrative)
    in *cells*, all rated 5 (one collision) and declared Catastrophic (each
    a discrepancy), as parse_json reads it; with the default bands."""
    entries = [{"component": component, "failure_mode": mode,
                **dict.fromkeys(RATING_FIELDS, 5),
                **dict.fromkeys(_NARRATIVE_FIELDS, narrative),
                "declared_classification": "Catastrophic"}
               for component, mode, narrative in cells]
    return (parse_json(json.dumps({"title": title, "entries": entries}).encode()),
            ClassBands(100, 200, 500))


# The title and every text cell hold LF, CRLF and a bare CR.
_BREAKS = "a\nb\r\nc\rd"
_broken_sheet = _text_sheet(_BREAKS, (f"{_BREAKS} 0", _BREAKS, _BREAKS),
                            (f"{_BREAKS} 1", _BREAKS, _BREAKS))
# A component ending in CR, its failure mode starting with LF: not one CRLF.
_cr_then_lf_sheet = _text_sheet("", ("Pump\r", "\nleak", "\n"), ("Valve\r", "\n", "\r"))


@settings(max_examples=200, deadline=None)
@given(_table_sheets)
@example((parse_csv(",".join(CSV_COLUMNS).encode()), ClassBands(100, 200, 500)))
def test_csv_tables_by_template_are_csv_text(sheet):
    ws, bands = sheet
    results = rank(ws, bands)
    flagged = [r for r in results if r.discrepancy]
    groups = collisions(ws)
    header = ["rank", "component", "failure_mode", *RATING_FIELDS, "rpn",
              "computed_class", "declared_class", "discrepancy"]
    ranked_table = _csv_module_text(
        [header, *_ranked_cells(ws, results, "", ("false", "true"))])
    collision_table = _csv_module_text(
        [["rpn", "member_indices", "member_components"],
         *([g.rpn, ";".join(map(str, g.members)),
            ";".join(ws.entries[i].component for i in g.members)] for g in groups)])
    discrepancy_table = _csv_module_text(
        [["rank", "component", "rpn", "computed_class", "declared_class"],
         *([r.rank, ws.entries[r.entry_index].component, r.rpn, r.computed_class.value,
            r.declared_class.value] for r in flagged)])
    document = render_analysis_csv(ws, results, groups, flagged,
                                   summary_stats(ws, bands), bands)
    # After the summary's two rows and a blank line, the other three tables.
    assert document.split("\n", 3)[3] == "\n".join(
        [ranked_table, collision_table, discrepancy_table])


@settings(max_examples=200, deadline=None)
@given(_table_sheets)
@example((parse_csv(",".join(CSV_COLUMNS).encode()), ClassBands(100, 200, 500)))
@example(_broken_sheet)
@example(_cr_then_lf_sheet)
def test_markdown_table_by_template_is_the_formatted_rows(sheet):
    ws, bands = sheet
    results = rank(ws, bands)
    document = render_analysis_markdown(ws, results, collisions(ws),
                                        [r for r in results if r.discrepancy],
                                        summary_stats(ws, bands), bands)
    assert "\r" not in document
    table = [line for line in document.split("\n") if line.startswith("| ")]
    assert table == _markdown_table(ws, results).split("\n")[:-1]


@settings(max_examples=200, deadline=None)
@given(_table_sheets)
@example((parse_json(b'{"title": "a\\r\\nb", "entries": []}'), ClassBands(100, 200, 500)))
@example(_broken_sheet)
@example(_cr_then_lf_sheet)
def test_report_by_template_is_the_appended_lines(sheet):
    ws, bands = sheet
    results = rank(ws, bands)
    assert render_fmea_report(ws, results) == _report_lines(ws, results)


def _simulation_table(results, components=None):
    """The simulation table as it was written before it was spelt from one
    template per row: each row formatted, then stripped at the right."""
    headers = ("rating_in", "trials", "failures", "empirical_rate", "rating_out", "agrees")
    rows = []
    for i, result in enumerate(results):
        row = (str(result.rating_in), str(result.trials), str(result.failures),
               f"{result.empirical_rate:.8f}", str(result.rating_out),
               "yes" if result.agrees else "no")
        if components is not None:
            one_line = components[i].replace("\r\n", " ").replace("\n", " ").replace("\r", " ")
            row = (one_line,) + row
        rows.append(row)
    if components is not None:
        headers = ("component",) + headers
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    fmt = "  ".join(f"{{:<{width}}}" for width in widths).format
    return "\n".join([fmt(*row).rstrip() for row in (headers, *rows)]) + "\n"


# Every well-typed result, not only those simulate makes: ints and rates
# in simulate's range, and also negative and 19-digit ints and rates below
# 0 and above 1.
_sim_ints = ratings | st.integers(-(10**19 - 1), 10**19 - 1)
_sim_rates = st.floats(0, 1) | st.floats(allow_nan=False, allow_infinity=False)
sim_results = st.builds(SimResult, _sim_ints, _sim_ints, _sim_ints, _sim_rates, _sim_ints,
                        st.booleans())
_far_result = SimResult(-(10**19 - 1), 10**19 - 1, -1, -12345.678, 10**19 - 1, False)


# Component text with LF, CR, CRLF, spaces, non-ASCII and wide characters.
_component_text = st.lists(st.sampled_from(
    ["\n", "\r", "\r\n", " ", "\t", "a", "Pump", "\u00e9", "\u6f22\u5b57", "\U0001F600"]),
    min_size=1, max_size=6).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(sim_results, _component_text), max_size=12), st.booleans())
@example([], True)
@example([], False)
@example([(_far_result, "Pump")], True)
@example([(_far_result, "Pump")], False)
@example([(SimResult(12, -5, 0, 1.5, -1, True), "a\r\nb"), (_far_result, "c")], True)
def test_simulation_table_by_template_is_the_stripped_rows(rows, worksheet_mode):
    results = [result for result, _ in rows]
    components = [component for _, component in rows] if worksheet_mode else None
    assert render_simulation_text(results, components) \
        == _simulation_table(results, components)
