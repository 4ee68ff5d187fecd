"""Rating-scale tables and the probability -> rating inverse mapping."""

from __future__ import annotations

import math

import pytest

from fmeakit import (
    DETECTION_SCALE,
    OCCURRENCE_SCALE,
    SEVERITY_SCALE,
    ClassBands,
    FmeaEntry,
    RatingRangeError,
    RatingTriple,
    SimConfig,
    check_rating,
    occurrence_rate,
    rating_from_rate,
    simulate_occurrence,
    validate_entry,
)
from fmeakit.scales import all_ratings

# Oracle: the "1 in N" denominators, written out by hand so the test does
# not depend on the module's own table.
ORACLE_DENOMS = {10: 2, 9: 3, 8: 8, 7: 20, 6: 80, 5: 400,
                 4: 2000, 3: 15000, 2: 150000, 1: 1500000}


def oracle_boundary(lower_rating: int) -> float:
    """Geometric mean of the point rates of lower_rating and lower_rating+1."""
    return math.sqrt((1.0 / ORACLE_DENOMS[lower_rating])
                     * (1.0 / ORACLE_DENOMS[lower_rating + 1]))


def test_tables_have_ten_rows_descending():
    for table in (SEVERITY_SCALE, OCCURRENCE_SCALE, DETECTION_SCALE):
        assert [row.rating for row in table] == list(range(10, 0, -1))


def row(table, rating):
    """A scale's row for *rating*: the tables run 10 down to 1."""
    return table[10 - rating]


def test_severity_text_spot_checks():
    assert row(SEVERITY_SCALE, 10).label == "Hazardous without warning"
    assert row(SEVERITY_SCALE, 9).label == "Hazardous with warning"
    # the traditional wording for rating 8 ends mid-phrase; kept as printed
    assert row(SEVERITY_SCALE, 8).criteria == (
        "Operation of system or product is broken down without compromising safe")
    assert row(SEVERITY_SCALE, 1).label == "None"
    assert row(SEVERITY_SCALE, 1).criteria == "No effect"


def test_occurrence_text_spot_checks():
    assert row(OCCURRENCE_SCALE, 10).label == "Extremely high (inevitable failure)"
    assert row(OCCURRENCE_SCALE, 10).criteria == "≥ 1 in 2"
    assert row(OCCURRENCE_SCALE, 5).criteria == "1 in 400"
    assert row(OCCURRENCE_SCALE, 4).criteria == "1 in 2000"
    assert row(OCCURRENCE_SCALE, 3).criteria == "1 in 15,000"
    assert row(OCCURRENCE_SCALE, 1).label == "Nearly impossible"
    assert row(OCCURRENCE_SCALE, 1).criteria == "≤ 1 in 1,500,000"


def test_detection_text_spot_checks():
    assert row(DETECTION_SCALE, 10).label == "Absolutely impossible"
    assert row(DETECTION_SCALE, 1).label == "Almost certain"
    assert row(DETECTION_SCALE, 1).criteria.startswith(
        "Design control will almost certainly detect")


def test_occurrence_point_rates_match_oracle():
    for rating, denom in ORACLE_DENOMS.items():
        rate = occurrence_rate(rating)
        assert (rate.numerator, rate.denominator) == (1, denom)
        assert rate.probability == 1.0 / denom


def test_rating_from_rate_examples():
    assert rating_from_rate(1 / 400) == 5
    assert rating_from_rate(1 / 1000) == 4
    assert rating_from_rate(0.9) == 10
    assert rating_from_rate(1.0) == 10
    assert rating_from_rate(1 / 1_500_000) == 1
    assert rating_from_rate(1e-12) == 1


def test_round_trip_identity():
    for rating in range(1, 11):
        assert rating_from_rate(occurrence_rate(rating).probability) == rating


def test_boundaries_match_independent_oracle():
    # just below a boundary -> lower rating; exactly on or just above -> higher
    for lower in range(1, 10):
        boundary = oracle_boundary(lower)
        assert rating_from_rate(math.nextafter(boundary, 0.0)) == lower
        assert rating_from_rate(boundary) == lower + 1
        assert rating_from_rate(math.nextafter(boundary, 1.0)) == lower + 1


def test_rating_from_rate_rejects_out_of_domain():
    for bad in (0.0, -0.25, 1.0000001, 2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            rating_from_rate(bad)


def test_check_rating_accepts_full_range():
    for value in range(1, 11):
        assert check_rating(value) == value


def test_check_rating_rejects_bad_values():
    for bad in (0, 11, -3, 5.0, "5", None, True, False):
        with pytest.raises(RatingRangeError):
            check_rating(bad)


class _Level(int):
    pass


def test_all_ratings_takes_what_check_rating_takes():
    assert all_ratings(range(1, 11), [5], [])
    assert all_ratings()
    # True and 5.0 equal 1 and 5, so the types are tested apart.
    for bad in (0, 11, -3, 5.0, "5", None, True, False, _Level(5)):
        assert not all_ratings([1, 10], [5, bad])
        with pytest.raises(RatingRangeError):
            check_rating(bad)
        entry = FmeaEntry("Pump", "Seal leak", RatingTriple(5, bad, 5))
        assert [v.field for v in validate_entry(entry)] == ["occurrence"]
    with pytest.raises(RatingRangeError):
        simulate_occurrence(_Level(5), SimConfig(trials=100))


def test_cut_points_trials_and_seed_take_only_a_plain_int():
    # The rating rule: an int subclass is refused, as a bool is.
    with pytest.raises(ValueError, match=r"^band cut points must be integers, "
                                         r"got \(100, 200, 500\)$"):
        ClassBands(_Level(100), 200, 500)
    with pytest.raises(ValueError, match=r"^trials must be an integer in \[1, 2\*\*63 - 1\], "
                                         r"got 5$"):
        SimConfig(trials=_Level(5))
    with pytest.raises(ValueError, match=r"^seed must be a 64-bit unsigned integer, got 5$"):
        SimConfig(1, seed=_Level(5))


def test_check_rating_error_carries_field_name():
    with pytest.raises(RatingRangeError) as info:
        check_rating(42, "occurrence")
    assert "occurrence" in str(info.value)
    assert info.value.value == 42


def test_row_lookups_reject_out_of_range():
    with pytest.raises(RatingRangeError):
        occurrence_rate(0)
    with pytest.raises(RatingRangeError):
        occurrence_rate(11)
