"""FMEA worksheet data model and validation.

A worksheet is a titled, ordered collection of failure-mode entries. Each
entry carries a component name, the failure mode, the (S, O, D) rating
triple, narrative fields, and an optional declared criticality label.
Validation never raises: invariant breaches are returned as structured
violations so a whole worksheet can be fixed in one pass.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from enum import Enum, unique
from typing import TypeVar

from .record import Record, record
from .scales import all_ratings, rating_message

RATING_FIELDS = ("severity", "occurrence", "detection")

_K = TypeVar("_K", bound=Hashable)


@unique
class ClassLabel(Enum):
    """Criticality classification attached to a failure mode."""

    CATASTROPHIC = "Catastrophic"
    CRITICAL = "Critical"
    MARGINAL = "Marginal"
    NEGLIGIBLE = "Negligible"

    # Members are singletons and Enum equality is identity: hash in C.
    __hash__ = object.__hash__

    @classmethod
    def from_text(cls, text: str) -> "ClassLabel":
        """Parse a label case-insensitively; raises ValueError on unknown text."""
        label = _LABELS_BY_TEXT.get(text.strip().lower())
        if label is None:
            known = ", ".join(label.value for label in cls)
            raise ValueError(f"unknown classification {text!r} (expected one of: {known})")
        return label


_LABELS_BY_TEXT = {label.value.lower(): label for label in ClassLabel}


@record
class RatingTriple(Record):
    """The (severity, occurrence, detection) ratings of one entry."""

    severity: int
    occurrence: int
    detection: int


@record
class FmeaEntry(Record):
    """One worksheet row."""

    component: str
    failure_mode: str
    triple: RatingTriple
    effect: str = ""
    end_effect: str = ""
    cause: str = ""
    prevention_controls: str = ""
    detection_controls: str = ""
    declared_classification: ClassLabel | None = None


@record
class Worksheet(Record):
    """Immutable, ordered collection of entries. May be empty."""

    title: str
    entries: tuple[FmeaEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@record
class Violation(Record):
    """A breached invariant, as data: which field, what went wrong, where."""

    field: str
    message: str
    entry_index: int | None = None

    def __str__(self) -> str:
        where = "" if self.entry_index is None else f"entry {self.entry_index}: "
        return f"{where}{self.field}: {self.message}"


def validate_entry(entry: FmeaEntry) -> list[Violation]:
    """Check one entry against its invariants; empty list means valid."""
    violations = []
    if not entry.component.strip():
        violations.append(Violation("component", "must not be empty"))
    triple = entry.triple
    values = (triple.severity, triple.occurrence, triple.detection)
    if not all_ratings(values):  # then each value it refuses is worded
        violations += [Violation(name, rating_message(value))
                       for name, value in zip(RATING_FIELDS, values)
                       if not all_ratings((value,))]
    return violations


def repeated_keys(keyed: Iterable[tuple[_K, int]]) -> list[tuple[_K, list[int]]]:
    """Group (key, position) pairs by key and return each key seen more
    than once with all its positions, in first-seen order."""
    seen: dict[_K, list[int]] = {}
    for key, position in keyed:
        seen.setdefault(key, []).append(position)
    return [(key, positions) for key, positions in seen.items()
            if len(positions) > 1]


def duplicate_pairs(keyed: Iterable[tuple[tuple[str, str], int]],
                    unit: str) -> list[tuple[str, int]]:
    """(message, first position) for each (component, failure_mode) key seen
    more than once among the (key, position) pairs, positions in *unit*."""
    return [(f"duplicate (component, failure_mode) pair ({component!r}, "
             f"{failure_mode!r}) at {unit} {', '.join(map(str, positions))}", positions[0])
            for (component, failure_mode), positions in repeated_keys(keyed)]


def validate_worksheet(ws: Worksheet) -> list[Violation]:
    """Check every entry plus cross-entry uniqueness.

    Per-entry violations carry the entry index. Duplicate
    (component, failure_mode) pairs yield one violation per duplicated key,
    listing every index where it appears. An empty worksheet is valid.
    """
    violations: list[Violation] = []
    for index, entry in enumerate(ws.entries):
        for v in validate_entry(entry):
            violations.append(Violation(v.field, v.message, index))

    keyed = (((e.component, e.failure_mode), i) for i, e in enumerate(ws.entries))
    violations += [Violation("component, failure_mode", message, entry_index=first)
                   for message, first in duplicate_pairs(keyed, "entries")]
    return violations
