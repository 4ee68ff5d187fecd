"""Property-based invariants over random triples and worksheets."""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from fmeakit import (
    CSV_COLUMNS,
    ClassBands,
    ClassLabel,
    FmeaEntry,
    MatrixAxes,
    ParseFailure,
    RatingTriple,
    Worksheet,
    classify,
    collisions,
    emit_json,
    parse_csv,
    parse_json,
    rank,
    rating_from_rate,
    risk_matrix,
    rpn,
)
from fmeakit.ingest import csv_text
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
    for factor in ("severity", "occurrence", "detection"):
        value = getattr(triple, factor)
        if value < 10:
            bumped = replace(triple, **{factor: value + 1})
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


@given(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False))
def test_rating_from_rate_total_on_domain(probability):
    rating = rating_from_rate(probability)
    assert 1 <= rating <= 10


@given(st.floats(min_value=1e-12, max_value=1.0),
       st.floats(min_value=1e-12, max_value=1.0))
def test_rating_from_rate_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert rating_from_rate(lo) <= rating_from_rate(hi)
