"""Worksheet model invariants and structured validation."""

from __future__ import annotations

import inspect
import pickle
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    field,
    fields,
    make_dataclass,
    replace,
)

import pytest

from fmeakit import (
    ClassLabel,
    FmeaEntry,
    ParseFailure,
    RatingTriple,
    RpnResult,
    SimResult,
    Worksheet,
    emit_json,
    parse_json,
    validate_entry,
    validate_worksheet,
)
from fmeakit.worksheet import _filled


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


# Two value tuples per record that _filled gives its __init__, differing
# in every field.
_RECORD_VALUES = {
    FmeaEntry: (("Pump", "Seal leak", RatingTriple(5, 4, 3), "e", "ee", "c", "p", "d",
                 ClassLabel.CRITICAL),
                ("Valve", "Stuck", RatingTriple(1, 2, 3), "", "x", "", "y", "", None)),
    RpnResult: ((3, 60, 1, ClassLabel.NEGLIGIBLE, None, False),
                (4, 600, 2, ClassLabel.CATASTROPHIC, ClassLabel.MARGINAL, True)),
    SimResult: ((5, 1000, 2, 0.002, 5, True), (6, 10, 0, 0.0, 1, False)),
}


def _plain(cls):
    # A frozen dataclass with the same name and fields, and the __init__
    # the dataclasses module writes.
    return make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is MISSING
        else (f.name, f.type, field(default=f.default)) for f in fields(cls)], frozen=True)


@pytest.mark.parametrize("cls", list(_RECORD_VALUES), ids=lambda cls: cls.__name__)
def test_filled_record_keeps_the_frozen_dataclass_contract(cls):
    plain = _plain(cls)
    values, other = _RECORD_VALUES[cls]
    names = [f.name for f in fields(cls)]
    record, reference = cls(*values), plain(*values)
    assert inspect.signature(cls) == inspect.signature(plain)
    assert str(inspect.signature(cls)) == str(inspect.signature(plain))
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference)
    # Slotted records have no __dict__ for vars(): compare field by field.
    assert [getattr(record, n) for n in names] == [getattr(reference, n) for n in names]
    assert not hasattr(record, "__dict__")
    assert record == cls(*values) == cls(**dict(zip(names, values)))
    assert record != cls(*other) and reference != plain(*other)
    required = [f for f in fields(cls) if f.default is MISSING]
    assert repr(cls(*values[:len(required)])) == repr(plain(*values[:len(required)]))
    assert replace(record) == record
    assert replace(record, **dict(zip(names, other))) == cls(*other)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls and restored == record and hash(restored) == hash(record)
    for name, value in zip(names, other):
        for target in (record, reference):
            with pytest.raises(FrozenInstanceError):
                setattr(target, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(target, name)
    assert record == cls(*values)


def test_filled_refuses_a_class_whose_init_does_more_than_fill():
    @dataclass(frozen=True)
    class Checked:
        value: int

        def __post_init__(self):
            pass

    @dataclass(frozen=True)
    class Listed:
        items: list = field(default_factory=list)

    for cls in (Checked, Listed):
        init = cls.__init__
        with pytest.raises(TypeError):
            _filled(cls)
        assert cls.__init__ is init
