"""Monte Carlo occurrence checks: determinism, derivation, statistics."""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmeakit import (
    FmeaEntry,
    RatingRangeError,
    RatingTriple,
    SimConfig,
    Worksheet,
    simulate_occurrence,
    simulate_worksheet,
)
from fmeakit.scales import OCCURRENCE_DENOMINATORS, occurrence_rate
from fmeakit.simulate import _binomial, _doubles, _simulate, _stream_states

# Edge words of the 64-bit seed range, plus one fixed random value.
ORACLE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, random.Random(5).getrandbits(64))


def test_config_rejects_bad_trials_and_seeds():
    for bad_trials in (0, -1, 1.5, "10", True, 2**63):
        with pytest.raises(ValueError):
            SimConfig(trials=bad_trials)
    for bad_seed in (-1, 2**64, 0.5, None):
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=bad_seed)
    assert SimConfig(trials=1, seed=2**64 - 1).seed == 2**64 - 1
    assert SimConfig(trials=2**63 - 1).trials == 2**63 - 1


def test_same_seed_same_result():
    cfg = SimConfig(trials=100_000, seed=42)
    assert simulate_occurrence(5, cfg) == simulate_occurrence(5, cfg)


def test_different_seeds_usually_differ():
    cfg_a = SimConfig(trials=100_000, seed=0)
    cfg_b = SimConfig(trials=100_000, seed=1)
    draws_a = [simulate_occurrence(r, cfg_a).failures for r in range(5, 9)]
    draws_b = [simulate_occurrence(r, cfg_b).failures for r in range(5, 9)]
    assert draws_a != draws_b


def test_result_fields_are_consistent():
    cfg = SimConfig(trials=10_000, seed=3)
    result = simulate_occurrence(6, cfg)
    assert result.rating_in == 6
    assert result.trials == 10_000
    assert 0 <= result.failures <= result.trials
    assert result.empirical_rate == result.failures / result.trials
    assert result.agrees == (result.rating_out == result.rating_in)


def test_rejects_invalid_rating():
    with pytest.raises(RatingRangeError):
        simulate_occurrence(0, SimConfig(trials=10))
    with pytest.raises(RatingRangeError):
        simulate_occurrence(11, SimConfig(trials=10))


def test_worksheet_rejects_invalid_occurrence():
    # A hand-built entry skips the parsers' checks; True is not rating 1.
    for bad in (0, 11, True):
        ws = Worksheet("", [FmeaEntry("Pump", "Seal leak", RatingTriple(5, bad, 5))])
        with pytest.raises(RatingRangeError):
            simulate_worksheet(ws, SimConfig(trials=10))


@pytest.mark.parametrize("bad", [True, 0, 11, 5.0], ids=repr)
def test_worksheet_error_names_the_first_bad_occurrence(bad):
    # The whole list is checked before any draw; the error is the one a
    # check of each entry in worksheet order raises at the first bad value.
    ratings = (3, 7, bad, 12, 1)
    ws = Worksheet("", [FmeaEntry(f"Pump {i}", "Seal leak", RatingTriple(5, o, 5))
                        for i, o in enumerate(ratings)])
    with pytest.raises(RatingRangeError) as caught:
        simulate_worksheet(ws, SimConfig(trials=10))
    assert type(caught.value.value) is type(bad) and caught.value.value == bad
    assert caught.value.field == "occurrence"
    assert str(caught.value) == f"occurrence must be an integer in [1, 10], got {bad!r}"


def test_zero_failures_maps_to_rating_one():
    # rating 1 is p = 1/1,500,000; 100 trials will essentially never hit it
    result = simulate_occurrence(1, SimConfig(trials=100, seed=0))
    assert result.failures == 0
    assert result.rating_out == 1
    assert result.agrees


def test_statistical_recovery_at_common_ratings():
    # binomial concentration: at 10^6 trials every rating from 3 up sits
    # many sigma inside its band (tightest margin is about 5.6 sigma)
    cfg = SimConfig(trials=1_000_000, seed=2024)
    for rating in range(3, 11):
        assert simulate_occurrence(rating, cfg).agrees


def test_rating_ten_empirical_rate_near_half():
    result = simulate_occurrence(10, SimConfig(trials=1_000_000, seed=9))
    assert 0.45 <= result.empirical_rate <= 0.55


def test_worksheet_results_align_with_entries(fixture_ws):
    cfg = SimConfig(trials=50_000, seed=5)
    results = simulate_worksheet(fixture_ws, cfg)
    assert len(results) == len(fixture_ws)
    for entry, result in zip(fixture_ws.entries, results):
        assert result.rating_in == entry.triple.occurrence


def test_worksheet_streams_are_independent_of_position_content():
    # an entry's draw depends only on (seed, its index, its rating):
    # changing a neighbour entry must not change it
    cfg = SimConfig(trials=10_000, seed=11)
    base = Worksheet("w", [
        FmeaEntry("A", "m", RatingTriple(5, 6, 5)),
        FmeaEntry("B", "m", RatingTriple(5, 7, 5)),
    ])
    changed = Worksheet("w", [
        FmeaEntry("A", "m", RatingTriple(5, 6, 5)),
        FmeaEntry("B2", "m", RatingTriple(9, 9, 9)),
    ])
    assert simulate_worksheet(base, cfg)[0] == simulate_worksheet(changed, cfg)[0]


def test_worksheet_entries_get_distinct_streams():
    cfg = SimConfig(trials=100_000, seed=0)
    ws = Worksheet("w", [FmeaEntry(f"C{i}", "m", RatingTriple(5, 5, 5))
                         for i in range(4)])
    failures = [r.failures for r in simulate_worksheet(ws, cfg)]
    assert len(set(failures)) > 1


def test_worksheet_run_is_deterministic(fixture_ws):
    cfg = SimConfig(trials=20_000, seed=1)
    assert simulate_worksheet(fixture_ws, cfg) == \
        simulate_worksheet(fixture_ws, cfg)


def numpy_generator(seed, key):
    """The stream the README documents, built by numpy itself."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def test_stream_states_match_numpy_seed_sequence():
    indices = [*range(300), 65_535, 65_536, 2**20]
    for seed in ORACLE_SEEDS:
        expected = []
        for index in indices:
            state = numpy_generator(seed, (index,)).bit_generator.state["state"]
            expected.append((state["state"], state["inc"]))
        assert list(_stream_states(seed, np.array(indices, dtype=np.uint32))) == expected
        state = np.random.PCG64(seed).state["state"]
        assert list(_stream_states(seed, None)) == [(state["state"], state["inc"])]


# Consecutive spawn keys drawn per example. From 2**62 trials up, rating
# 10's BTPE squeeze tells a wrapped k * k from an unwrapped one in 1 draw
# of 25 to 130; each of the first three examples below holds one or more.
_KEYS = 100
# Uniform over [1, 2**63 - 1] all but never draws the inversion side.
_TRIALS = st.one_of(st.integers(1, 2**63 - 1), st.integers(1, 10**8))


@settings(max_examples=100, deadline=None)
@given(rating=st.integers(1, 10), trials=_TRIALS, seed=st.integers(0, 2**64 - 1),
       key=st.none() | st.integers(0, 2**32 - _KEYS))
@example(rating=10, trials=2**62, seed=0, key=0)
@example(rating=10, trials=2**63 - 2, seed=1, key=0)
@example(rating=10, trials=2**63 - 1, seed=2**64 - 1, key=0)
@example(rating=10, trials=2**63 - 1, seed=2**64 - 1, key=None)
@example(rating=1, trials=2**63 - 1, seed=0, key=0)
def test_draws_match_numpy_bit_for_bit(rating, trials, seed, key):
    # numpy is the oracle: the draws of the streams the README documents.
    p = occurrence_rate(rating).probability
    cfg = SimConfig(trials=trials, seed=seed)
    if key is None:
        assert simulate_occurrence(rating, cfg).failures == \
            numpy_generator(seed, ()).binomial(trials, p)
        return
    keys = range(key, key + _KEYS)
    drawn = _simulate([rating] * _KEYS, cfg, _stream_states(seed, np.array(keys, np.uint32)))
    assert [r.failures for r in drawn] == \
        [numpy_generator(seed, (k,)).binomial(trials, p) for k in keys]


# Each rating's inversion/BTPE switch, p * trials <= 30, from both sides.
for _rating, _denominator in OCCURRENCE_DENOMINATORS.items():
    for _trials in (30 * _denominator - 1, 30 * _denominator, 30 * _denominator + 1):
        test_draws_match_numpy_bit_for_bit = example(
            rating=_rating, trials=_trials, seed=7, key=0)(test_draws_match_numpy_bit_for_bit)


@settings(max_examples=200, deadline=None)
@given(trials=_TRIALS, p=st.floats(0, 0.5, exclude_min=True),
       seed=st.integers(0, 2**64 - 1))
@example(trials=60, p=0.5, seed=0)
@example(trials=61, p=0.5, seed=0)
@example(trials=2**63 - 1, p=0.5, seed=0)
def test_sampler_matches_numpy_at_any_probability(trials, p, seed):
    # Any p in the sampler's domain, (0, 1/2], not only the ratings' own.
    (stream,) = _stream_states(seed, None)
    assert _binomial(trials, p)(_doubles(*stream).__next__) == \
        numpy_generator(seed, ()).binomial(trials, p)


def test_every_occurrence_probability_is_in_the_sampler_domain():
    # _binomial copies numpy's sampler for p <= 1/2 only; a scale row past
    # "1 in 2" would draw wrong counts without an error.
    assert [r for r in range(1, 11) if not occurrence_rate(r).probability <= 0.5] == []


def test_draws_match_a_numpy_reference_loop(fixture_ws):
    for seed in ORACLE_SEEDS:
        for trials in (1, 10**3, 10**9):
            cfg = SimConfig(trials=trials, seed=seed)
            expected = [
                int(numpy_generator(seed, (index,)).binomial(
                    trials, occurrence_rate(entry.triple.occurrence).probability))
                for index, entry in enumerate(fixture_ws.entries)]
            assert [r.failures for r in simulate_worksheet(fixture_ws, cfg)] == expected
            for rating in range(1, 11):
                failures = numpy_generator(seed, ()).binomial(
                    trials, occurrence_rate(rating).probability)
                assert simulate_occurrence(rating, cfg).failures == failures


def test_worksheet_past_one_word_indices_is_refused():
    # An index of 2**32 would need a two-word spawn key.
    huge = SimpleNamespace(entries=range(2**32 + 1))
    with pytest.raises(ValueError, match="at most 2\\*\\*32 entries"):
        simulate_worksheet(huge, SimConfig(trials=10))
