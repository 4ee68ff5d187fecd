"""Classical FMEA risk analysis: RPN ranking, risk matrices, and
Monte Carlo occurrence-rate checks over failure-mode worksheets."""

from .analysis import (
    DEFAULT_BANDS,
    ClassBands,
    MatrixAxes,
    RpnResult,
    Summary,
    classify,
    collisions,
    discrepancies,
    rank,
    risk_matrix,
    rpn,
    summary_stats,
)
from .dataset import WORKSHEET_TITLE, bundled_csv_bytes, microgrid_worksheet
from .ingest import (
    CSV_COLUMNS,
    ParseError,
    ParseFailure,
    emit_csv,
    emit_json,
    parse_csv,
    parse_json,
)
from .scales import (
    DETECTION_SCALE,
    OCCURRENCE_SCALE,
    SEVERITY_SCALE,
    RatingRangeError,
    check_rating,
    occurrence_rate,
    rating_from_rate,
)
from .simulate import SimConfig, SimResult, simulate_occurrence, simulate_worksheet
from .worksheet import (
    ClassLabel,
    FmeaEntry,
    RatingTriple,
    Violation,
    Worksheet,
    validate_entry,
    validate_worksheet,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "DEFAULT_BANDS",
    "DETECTION_SCALE",
    "OCCURRENCE_SCALE",
    "SEVERITY_SCALE",
    "WORKSHEET_TITLE",
    "ClassBands",
    "ClassLabel",
    "FmeaEntry",
    "MatrixAxes",
    "ParseError",
    "ParseFailure",
    "RatingRangeError",
    "RatingTriple",
    "RpnResult",
    "SimConfig",
    "SimResult",
    "Summary",
    "Violation",
    "Worksheet",
    "bundled_csv_bytes",
    "check_rating",
    "classify",
    "collisions",
    "discrepancies",
    "emit_csv",
    "emit_json",
    "microgrid_worksheet",
    "occurrence_rate",
    "parse_csv",
    "parse_json",
    "rank",
    "rating_from_rate",
    "risk_matrix",
    "rpn",
    "simulate_occurrence",
    "simulate_worksheet",
    "summary_stats",
    "validate_entry",
    "validate_worksheet",
]
