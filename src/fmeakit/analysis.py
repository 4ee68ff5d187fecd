"""Risk computations over worksheets.

RPN is the plain product of the severity, occurrence, and detection
ratings, so it ranges over [1, 1000]. The three factors are deliberately
weighted equally; weighting schemes are out of scope here. Because
distinct (S, O, D) combinations can produce the same product, collision
detection is a first-class operation, as is reporting disagreements
between a worksheet's declared classifications and the band-based ones
computed from RPN.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import TYPE_CHECKING

from .record import Record, record
from .scales import RATING_MAX, all_ratings
from .worksheet import ClassLabel, RatingTriple, Worksheet, repeated_keys

if TYPE_CHECKING:
    from fractions import Fraction

RPN_MIN = 1
RPN_MAX = 1000


@record
class ClassBands(Record):
    """Ascending RPN cut points mapping [1, 1000] onto the four class labels.

    Negligible [1, marginal_min), Marginal [marginal_min, critical_min),
    Critical [critical_min, catastrophic_min), Catastrophic
    [catastrophic_min, 1000]. Boundary values belong to the upper (more
    severe) band.
    """

    marginal_min: int
    critical_min: int
    catastrophic_min: int

    def __post_init__(self):
        cuts = (self.marginal_min, self.critical_min, self.catastrophic_min)
        if not set(map(type, cuts)) <= {int}:
            raise ValueError(f"band cut points must be integers, got {cuts}")
        if not (RPN_MIN < self.marginal_min < self.critical_min
                < self.catastrophic_min <= RPN_MAX):
            raise ValueError(
                f"band cut points must satisfy 1 < b1 < b2 < b3 <= 1000, got {cuts}")

    def describe(self) -> str:
        return (f"Negligible [1,{self.marginal_min}), "
                f"Marginal [{self.marginal_min},{self.critical_min}), "
                f"Critical [{self.critical_min},{self.catastrophic_min}), "
                f"Catastrophic [{self.catastrophic_min},1000]")


# Round cut points consistent with the dataset's extremes; no band scheme
# can reproduce its declared labels exactly, so bands stay configurable and
# disagreements are reported rather than hidden.
DEFAULT_BANDS = ClassBands(100, 200, 500)


@record
class RpnResult(Record):
    """Computed risk of one entry: RPN, rank, and classification outcome."""

    entry_index: int
    rpn: int
    rank: int
    computed_class: ClassLabel
    declared_class: ClassLabel | None
    discrepancy: bool


@record
class CollisionGroup(Record):
    """Entries (two or more) sharing one exact RPN value."""

    rpn: int
    members: tuple[int, ...]


class MatrixAxes(Enum):
    """Axis pair of a risk matrix; severity is always the first axis."""

    SEVERITY_DETECTION = "s-d"
    SEVERITY_OCCURRENCE = "s-o"

    @property
    def second_name(self) -> str:
        return ("Detection" if self is MatrixAxes.SEVERITY_DETECTION
                else "Occurrence")


@record
class RiskMatrix(Record):
    """10x10 grid of entry memberships over (severity, second-axis) cells.

    cells[s - 1][x - 1] holds the worksheet indices of entries with
    severity s and second-axis rating x.
    """

    axes: MatrixAxes
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    def members(self, severity: int, second: int) -> tuple[int, ...]:
        return self.cells[severity - 1][second - 1]

    def count(self, severity: int, second: int) -> int:
        return len(self.members(severity, second))

    def total(self) -> int:
        return sum(len(cell) for row in self.cells for cell in row)

    def max_count(self) -> int:
        return max((len(cell) for row in self.cells for cell in row), default=0)


@record
class Summary(Record):
    """Worksheet-level aggregates; min/max/mean are None when empty."""

    entries: int
    rpn_min: int | None
    rpn_max: int | None
    rpn_mean: Fraction | None
    computed_class_counts: dict[ClassLabel, int]
    declared_class_counts: dict[ClassLabel, int]


def rpn(triple: RatingTriple) -> int:
    """Risk priority number: the product of the three ratings."""
    return triple.severity * triple.occurrence * triple.detection


def classify(value: int, bands: ClassBands = DEFAULT_BANDS) -> ClassLabel:
    """Map an RPN to its class band (boundaries belong to the upper band)."""
    if value >= bands.catastrophic_min:
        return ClassLabel.CATASTROPHIC
    if value >= bands.critical_min:
        return ClassLabel.CRITICAL
    if value >= bands.marginal_min:
        return ClassLabel.MARGINAL
    return ClassLabel.NEGLIGIBLE


def rank(ws: Worksheet, bands: ClassBands = DEFAULT_BANDS) -> list[RpnResult]:
    """Rank entries by risk, highest first, with ranks 1..n.

    Equal RPNs are broken by severity, then occurrence, then detection
    (all descending), then component name ascending; remaining ties keep
    worksheet order. Severity leads the chain because it is the one factor
    considered distinctive per failure mode. A rating that is not an int
    on the 1-10 scale (a bool, a float or an int subclass included), which
    neither parser accepts, raises ValueError.
    """
    entries = ws.entries
    triples = [entry.triple for entry in entries]
    if not all_ratings([t.severity for t in triples], [t.occurrence for t in triples],
                       [t.detection for t in triples]):
        raise ValueError("rank needs every rating on the 1-10 scale")
    values = list(map(rpn, triples))
    # Stable sorts: by component ascending, then by (rpn, s, o, d) packed
    # into one int (a rating fits four bits), descending; reverse=True
    # keeps equal keys in order.
    order = sorted(range(len(entries)), key=[e.component for e in entries].__getitem__)
    keys = [value << 12 | t.severity << 8 | t.occurrence << 4 | t.detection
            for value, t in zip(values, triples)]
    order.sort(key=keys.__getitem__, reverse=True)
    labels = [classify(value, bands) for value in range(RPN_MAX + 1)]
    results = []
    for position, index in enumerate(order, start=1):
        value = values[index]
        computed = labels[value]
        declared = entries[index].declared_classification
        results.append(RpnResult(index, value, position, computed, declared,
                                 declared is not None and declared is not computed))
    return results


def collisions(ws: Worksheet) -> list[CollisionGroup]:
    """Find RPN values shared by two or more entries.

    Groups come back sorted by RPN descending, members in worksheet order.
    """
    keyed = ((rpn(entry.triple), index) for index, entry in enumerate(ws.entries))
    return [CollisionGroup(value, tuple(members))
            for value, members in sorted(repeated_keys(keyed), reverse=True)]


def discrepancies(ws: Worksheet,
                  bands: ClassBands = DEFAULT_BANDS) -> list[RpnResult]:
    """Ranked results whose declared and computed classes differ.

    Entries without a declared classification never appear.
    """
    return [r for r in rank(ws, bands) if r.discrepancy]


def risk_matrix(ws: Worksheet, axes: MatrixAxes) -> RiskMatrix:
    """Place every entry in the 10x10 cell indexed by its two ratings."""
    grid: list[list[list[int]]] = [
        [[] for _ in range(RATING_MAX)] for _ in range(RATING_MAX)
    ]
    for index, entry in enumerate(ws.entries):
        severity = entry.triple.severity
        second = (entry.triple.detection
                  if axes is MatrixAxes.SEVERITY_DETECTION
                  else entry.triple.occurrence)
        grid[severity - 1][second - 1].append(index)
    return RiskMatrix(
        axes=axes,
        cells=tuple(tuple(tuple(cell) for cell in row) for row in grid),
    )


def summary_stats(ws: Worksheet, bands: ClassBands = DEFAULT_BANDS) -> Summary:
    """Aggregate RPN statistics and class tallies for a worksheet."""
    from fractions import Fraction  # loaded only when a summary is built

    values = [rpn(entry.triple) for entry in ws.entries]
    computed_counts = {label: 0 for label in ClassLabel}
    for value, count in Counter(values).items():  # at most 120 distinct RPNs
        computed_counts[classify(value, bands)] += count
    declared = Counter(entry.declared_classification for entry in ws.entries)
    declared_counts = {label: declared[label] for label in ClassLabel}
    if not values:
        return Summary(0, None, None, None, computed_counts, declared_counts)
    return Summary(
        entries=len(values),
        rpn_min=min(values),
        rpn_max=max(values),
        rpn_mean=Fraction(sum(values), len(values)),
        computed_class_counts=computed_counts,
        declared_class_counts=declared_counts,
    )
