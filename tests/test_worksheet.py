"""Worksheet model invariants and structured validation."""

from __future__ import annotations

import inspect
import pickle
from fractions import Fraction

import pytest

from fmeakit import (
    ClassBands,
    ClassLabel,
    FmeaEntry,
    MatrixAxes,
    ParseFailure,
    RatingTriple,
    RpnResult,
    SimConfig,
    SimResult,
    Summary,
    Violation,
    Worksheet,
    emit_json,
    parse_json,
    validate_entry,
    validate_worksheet,
)
from fmeakit.analysis import CollisionGroup, RiskMatrix
from fmeakit.ingest import ParseError
from fmeakit.scales import OccurrenceRate, ScaleRow


def entry(component="Pump", failure_mode="Seal leak", s=5, o=5, d=5, **kwargs):
    return FmeaEntry(component, failure_mode, RatingTriple(s, o, d), **kwargs)


def test_class_label_from_text_case_insensitive():
    assert ClassLabel.from_text("catastrophic") is ClassLabel.CATASTROPHIC
    assert ClassLabel.from_text("  MARGINAL ") is ClassLabel.MARGINAL
    assert ClassLabel.from_text("Negligible") is ClassLabel.NEGLIGIBLE
    with pytest.raises(ValueError):
        ClassLabel.from_text("severe")


def test_class_label_values_render_as_written():
    assert [label.value for label in ClassLabel] == [
        "Catastrophic", "Critical", "Marginal", "Negligible"]


def test_worksheet_is_immutable_and_sized():
    ws = Worksheet("demo", [entry(), entry(failure_mode="Bearing wear")])
    assert len(ws) == 2
    assert isinstance(ws.entries, tuple)
    with pytest.raises(AttributeError):
        ws.title = "other"


def test_empty_worksheet_is_valid():
    assert validate_worksheet(Worksheet("empty")) == []


def test_valid_entry_has_no_violations():
    assert validate_entry(entry()) == []


def test_blank_component_is_a_violation():
    violations = validate_entry(entry(component="   "))
    assert [v.field for v in violations] == ["component"]


def test_out_of_range_ratings_are_violations():
    violations = validate_entry(entry(s=0, o=11, d=5))
    assert sorted(v.field for v in violations) == ["occurrence", "severity"]
    assert all("[1, 10]" in v.message for v in violations)


def test_non_integer_ratings_are_violations():
    violations = validate_entry(entry(s=True, o=5.0, d="7"))
    assert sorted(v.field for v in violations) == [
        "detection", "occurrence", "severity"]


def test_worksheet_violations_carry_entry_index():
    ws = Worksheet("demo", [entry(), entry(failure_mode="Other", s=99)])
    violations = validate_worksheet(ws)
    assert len(violations) == 1
    assert violations[0].entry_index == 1
    assert violations[0].field == "severity"
    assert str(violations[0]).startswith("entry 1: severity:")


def test_duplicate_pairs_reported_once_with_all_indices():
    ws = Worksheet("demo", [entry(), entry(s=7), entry(failure_mode="Other"),
                            entry(d=2)])
    violations = validate_worksheet(ws)
    assert len(violations) == 1
    v = violations[0]
    assert v.field == "component, failure_mode"
    assert "0, 1, 3" in v.message


def test_duplicate_pair_is_worded_as_the_json_parser_words_it():
    ws = Worksheet("demo", [entry(), entry(failure_mode="Other"), entry(s=7)])
    with pytest.raises(ParseFailure) as info:
        parse_json(emit_json(ws))
    [violation] = validate_worksheet(ws)
    assert [e.message for e in info.value.errors] == [violation.message]


def test_distinct_failure_modes_on_one_component_are_fine():
    ws = Worksheet("demo", [entry(), entry(failure_mode="Bearing wear")])
    assert validate_worksheet(ws) == []


_TRIPLE = RatingTriple(5, 4, 3)
_ENTRY_REPR = ("FmeaEntry(component='Pump', failure_mode='Seal leak', "
               "triple=RatingTriple(severity=5, occurrence=4, detection=3), "
               "effect='{}', end_effect='{}', cause='{}', prevention_controls='{}', "
               "detection_controls='{}', declared_classification={})")

# Every record: the values it is built from, values that differ, its
# signature and repr text, and values it refuses (None: it refuses none).
_RECORDS = [
    (RatingTriple, (5, 4, 3), (5, 4, 4),
     "(severity: 'int', occurrence: 'int', detection: 'int') -> None",
     "RatingTriple(severity=5, occurrence=4, detection=3)", None),
    (FmeaEntry, ("Pump", "Seal leak", _TRIPLE, "e", "ee", "c", "p", "d", ClassLabel.CRITICAL),
     ("Pump", "Seal leak", _TRIPLE),
     "(component: 'str', failure_mode: 'str', triple: 'RatingTriple', effect: 'str' = '', "
     "end_effect: 'str' = '', cause: 'str' = '', prevention_controls: 'str' = '', "
     "detection_controls: 'str' = '', declared_classification: 'ClassLabel | None' = None)"
     " -> None",
     _ENTRY_REPR.format("e", "ee", "c", "p", "d", "<ClassLabel.CRITICAL: 'Critical'>"), None),
    # The entries come as a list and are stored as a tuple.
    (Worksheet, ("demo", [FmeaEntry("Pump", "Seal leak", _TRIPLE)]), ("demo",),
     "(title: 'str', entries: 'tuple[FmeaEntry, ...]' = ()) -> None",
     f"Worksheet(title='demo', entries=({_ENTRY_REPR.format(*[''] * 5, None)},))", None),
    (Violation, ("severity", "bad", 2), ("severity", "bad"),
     "(field: 'str', message: 'str', entry_index: 'int | None' = None) -> None",
     "Violation(field='severity', message='bad', entry_index=2)", None),
    (ScaleRow, (7, "High", "1 in 20"), (7, "High", "1 in 21"),
     "(rating: 'int', label: 'str', criteria: 'str') -> None",
     "ScaleRow(rating=7, label='High', criteria='1 in 20')", None),
    (OccurrenceRate, (1, 400), (1, 2000),
     "(numerator: 'int', denominator: 'int') -> None",
     "OccurrenceRate(numerator=1, denominator=400)", None),
    (ClassBands, (100, 200, 500), (100, 200, 501),
     "(marginal_min: 'int', critical_min: 'int', catastrophic_min: 'int') -> None",
     "ClassBands(marginal_min=100, critical_min=200, catastrophic_min=500)", (100, 100, 500)),
    (RpnResult, (3, 60, 1, ClassLabel.NEGLIGIBLE, None, False),
     (3, 60, 1, ClassLabel.NEGLIGIBLE, ClassLabel.CRITICAL, True),
     "(entry_index: 'int', rpn: 'int', rank: 'int', computed_class: 'ClassLabel', "
     "declared_class: 'ClassLabel | None', discrepancy: 'bool') -> None",
     "RpnResult(entry_index=3, rpn=60, rank=1, computed_class=<ClassLabel.NEGLIGIBLE: "
     "'Negligible'>, declared_class=None, discrepancy=False)", None),
    (CollisionGroup, (60, (1, 4)), (60, (1, 5)),
     "(rpn: 'int', members: 'tuple[int, ...]') -> None",
     "CollisionGroup(rpn=60, members=(1, 4))", None),
    (RiskMatrix, (MatrixAxes.SEVERITY_DETECTION, (((0,), ()),)),
     (MatrixAxes.SEVERITY_OCCURRENCE, (((0,), ()),)),
     "(axes: 'MatrixAxes', cells: 'tuple[tuple[tuple[int, ...], ...], ...]') -> None",
     "RiskMatrix(axes=<MatrixAxes.SEVERITY_DETECTION: 's-d'>, cells=(((0,), ()),))", None),
    (Summary, (1, 60, 60, Fraction(60), {ClassLabel.NEGLIGIBLE: 1}, {}),
     (1, 60, 60, Fraction(60), {ClassLabel.NEGLIGIBLE: 1}, {ClassLabel.CRITICAL: 0}),
     "(entries: 'int', rpn_min: 'int | None', rpn_max: 'int | None', "
     "rpn_mean: 'Fraction | None', computed_class_counts: 'dict[ClassLabel, int]', "
     "declared_class_counts: 'dict[ClassLabel, int]') -> None",
     "Summary(entries=1, rpn_min=60, rpn_max=60, rpn_mean=Fraction(60, 1), "
     "computed_class_counts={<ClassLabel.NEGLIGIBLE: 'Negligible'>: 1}, "
     "declared_class_counts={})", None),
    (ParseError, ("csv", "bad", 2, "severity"), ("json", "bad", 2, "severity"),
     "(source_kind: 'str', message: 'str', row: 'int | None' = None, "
     "column: 'str | None' = None) -> None",
     "ParseError(source_kind='csv', message='bad', row=2, column='severity')", None),
    (SimConfig, (1000, 7), (1000,),
     "(trials: 'int', seed: 'int' = 0) -> None",
     "SimConfig(trials=1000, seed=7)", (0, 7)),
    (SimResult, (5, 1000, 2, 0.002, 5, True), (5, 1000, 2, 0.002, 4, False),
     "(rating_in: 'int', trials: 'int', failures: 'int', empirical_rate: 'float', "
     "rating_out: 'int', agrees: 'bool') -> None",
     "SimResult(rating_in=5, trials=1000, failures=2, empirical_rate=0.002, rating_out=5, "
     "agrees=True)", None),
]


@pytest.mark.parametrize("cls, values, other, signature, text, bad", _RECORDS,
                         ids=[case[0].__name__ for case in _RECORDS])
def test_record_contract(cls, values, other, signature, text, bad):
    record = cls(*values)
    names = list(inspect.signature(cls).parameters)
    fields = tuple(getattr(record, name) for name in names)
    assert str(inspect.signature(cls)) == signature
    assert repr(record) == text
    if cls is Summary:  # it holds dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fields)
    assert record == cls(*values) == cls(**dict(zip(names, values)))
    assert record != cls(*other) and not record == cls(*other)
    assert record != fields  # the class is compared too
    assert not hasattr(record, "__dict__")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls and restored == record and repr(restored) == text
    if bad is not None:
        with pytest.raises(ValueError):
            cls(*bad)
        # A pickle calls the class with the stored values, so it is checked too.
        forged = cls(*values)
        for name, value in zip(names, bad):
            object.__setattr__(forged, name, value)
        data = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(data)
