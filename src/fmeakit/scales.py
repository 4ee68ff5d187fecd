"""Standard 1-10 rating scales for classical FMEA.

Severity, occurrence, and detection each use the traditional ten-point
scale. The occurrence scale additionally ties every rating to a "1 in N"
probable failure rate, which this module exposes both as a forward lookup
and as an inverse (probability -> nearest rating in log space). Scale text
is stored verbatim so label lookups are bit-exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Collection
from itertools import chain

from .record import Record, record

RATING_MIN = 1
RATING_MAX = 10


def rating_message(value: object) -> str:
    """Why *value* is not a rating; every input path reports this text."""
    return f"must be an integer in [1, 10], got {value!r}"


_RATINGS_BY_TEXT = {str(value): value for value in range(RATING_MIN, RATING_MAX + 1)}
# Every rating. True and 1.0 test as members too, so all_ratings tests the type apart.
_RATINGS = frozenset(_RATINGS_BY_TEXT.values())


def all_ratings(*columns: Collection[object]) -> bool:
    """True if every value in every column is a rating, an int (not a bool
    or an int subclass) from 1 to 10, tested in two passes over all the
    values: their types, then the values themselves."""
    return set(map(type, chain(*columns))) <= {int} and set(chain(*columns)) <= _RATINGS


def rating_from_text(text: str) -> int | None:
    """Parse a rating written as ASCII digits ("7", "07", "10"); None if
    *text* is anything else. Signs, spaces, underscores and non-ASCII
    digits are refused, not coerced, and int() is never called, so a
    text of any length is safe."""
    if text.isascii() and text.isdigit():
        return _RATINGS_BY_TEXT.get(text.lstrip("0"))
    return None


class RatingRangeError(ValueError):
    """A rating outside the 1-10 scale."""

    def __init__(self, value: object, field: str = "rating"):
        self.value = value
        self.field = field
        super().__init__(f"{field} {rating_message(value)}")


def check_rating(value: int, field: str = "rating") -> int:
    """Return *value* if all_ratings takes it, else raise RatingRangeError."""
    if not all_ratings((value,)):
        raise RatingRangeError(value, field)
    return value


@record
class ScaleRow(Record):
    """One row of a rating scale: numeric rating, short label, long criteria."""

    rating: int
    label: str
    criteria: str


@record
class OccurrenceRate(Record):
    """A "1 in N" point rate for an occurrence rating."""

    numerator: int
    denominator: int

    @property
    def probability(self) -> float:
        return self.numerator / self.denominator


# Rows run top-down (10 .. 1), as tabulated: rating r is at index 10 - r.
SEVERITY_SCALE: tuple[ScaleRow, ...] = (
    ScaleRow(10, "Hazardous without warning",
             "Highest severity ranking of a failure mode, occurring without warning "
             "and the consequence is hazardous"),
    ScaleRow(9, "Hazardous with warning",
             "Higher severity ranking of a failure mode, occurring with warning and "
             "the consequence is hazardous"),
    ScaleRow(8, "Very high",
             "Operation of system or product is broken down without compromising safe"),
    ScaleRow(7, "High",
             "Operation of system or product may be continued, but performance of "
             "system or product is affected"),
    ScaleRow(6, "Moderate",
             "Operation of system or product is continued, and performance of system "
             "or product is degraded"),
    ScaleRow(5, "Low",
             "Performance of system or product is affected seriously, and the "
             "maintenance is needed"),
    ScaleRow(4, "Very low",
             "Performance of system or product is less affected, and the maintenance "
             "may not be needed"),
    ScaleRow(3, "Minor",
             "System performance and satisfaction with minor effect"),
    ScaleRow(2, "Very minor",
             "System performance and satisfaction with slight effect"),
    ScaleRow(1, "None", "No effect"),
)

# For occurrence the criteria column carries the probable failure rate text.
OCCURRENCE_SCALE: tuple[ScaleRow, ...] = (
    ScaleRow(10, "Extremely high (inevitable failure)", "≥ 1 in 2"),
    ScaleRow(9, "Very high", "1 in 3"),
    ScaleRow(8, "Repeated failures", "1 in 8"),
    ScaleRow(7, "High", "1 in 20"),
    ScaleRow(6, "Moderately high", "1 in 80"),
    ScaleRow(5, "Moderate", "1 in 400"),
    ScaleRow(4, "Relatively low", "1 in 2000"),
    ScaleRow(3, "Low", "1 in 15,000"),
    ScaleRow(2, "Remote", "1 in 150,000"),
    ScaleRow(1, "Nearly impossible", "≤ 1 in 1,500,000"),
)

DETECTION_SCALE: tuple[ScaleRow, ...] = (
    ScaleRow(10, "Absolutely impossible",
             "Design control does not detect a potential cause of failure or "
             "subsequent failure mode or there is no design control"),
    ScaleRow(9, "Very remote",
             "Very remote chance the design control will detect a potential cause of "
             "the failure or subsequent failure mode"),
    ScaleRow(8, "Remote",
             "Remote chance the design control will detect a potential cause of "
             "failure or subsequent failure mode"),
    ScaleRow(7, "Very low",
             "Meager chance the design control will detect a potential cause of "
             "failure or subsequent failure mode"),
    ScaleRow(6, "Low",
             "Low chance the design control will detect a potential cause of failure "
             "or subsequent failure mode"),
    ScaleRow(5, "Moderate",
             "Moderate chance the design control will detect a potential cause of "
             "failure or subsequent failure mode"),
    ScaleRow(4, "Moderately high",
             "Moderately high chance the design control will detect a potential "
             "cause of the failure or subsequent failure mode"),
    ScaleRow(3, "High",
             "High chance the design control will detect a potential cause of "
             "failure or subsequent failure mode"),
    ScaleRow(2, "Very high",
             "Very high chance the design control will detect a potential cause of "
             "failure or subsequent failure mode"),
    ScaleRow(1, "Almost certain",
             "Design control will almost certainly detect a potential cause of "
             "failure or subsequent failure mode"),
)

# "1 in N" denominators by occurrence rating, read off the scale text. The
# scale's open ends (">= 1 in 2" and "<= 1 in 1,500,000") are adopted as the
# point values 1/2 and 1/1,500,000 so the mapping is a total function.
OCCURRENCE_DENOMINATORS: dict[int, int] = {
    row.rating: int(row.criteria.rsplit(" ", 1)[1].replace(",", ""))
    for row in OCCURRENCE_SCALE
}

# Decision boundaries between adjacent ratings r and r+1, as the geometric
# mean of their point rates (the scale is roughly log-spaced). Index i holds
# the boundary between rating i+1 and i+2; the boundaries strictly ascend.
_RATE_BOUNDARIES: tuple[float, ...] = tuple(
    math.sqrt(
        (1.0 / OCCURRENCE_DENOMINATORS[r]) * (1.0 / OCCURRENCE_DENOMINATORS[r + 1])
    )
    for r in range(RATING_MIN, RATING_MAX)
)


def occurrence_rate(rating: int) -> OccurrenceRate:
    """Return the "1 in N" point rate for an occurrence rating."""
    check_rating(rating, "occurrence")
    return OccurrenceRate(1, OCCURRENCE_DENOMINATORS[rating])


def rating_from_rate(probability: float) -> int:
    """Map a failure probability back to the nearest occurrence rating.

    Nearest is measured in log space: the boundary between adjacent ratings
    is the geometric mean of their point rates, and a probability exactly on
    a boundary maps to the higher (riskier) rating.

    Args:
        probability: observed failure probability, in (0, 1].

    Raises:
        ValueError: if probability is not in (0, 1].
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability!r}")
    return RATING_MIN + bisect_right(_RATE_BOUNDARIES, probability)
