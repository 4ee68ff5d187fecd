"""Monte Carlo validation of occurrence ratings.

Each occurrence rating maps to a "1 in N" point probability, interpreted
as a per-opportunity Bernoulli failure probability (the scale itself does
not define the denominator's unit; this interpretation is an assumption
and is documented as such). A simulation draws the number of failures in
``trials`` independent opportunities, then inverts the empirical rate back
to a rating; agreement means the scale point is recoverable from data at
that sample size.

Failure counts are drawn directly from the binomial distribution, which is
statistically equivalent to simulating the individual Bernoulli events and
keeps the rare-rating cases (down to p = 1/1,500,000) fast. The generator
is numpy's PCG64; a (seed, entry index) -> stream derivation makes
worksheet runs independent of iteration order and scheduling. Determinism
binds seed to count for a given build, not across numpy versions.

A worksheet's entry i draws from the stream numpy's ``PCG64(SeedSequence(
seed, spawn_key=(i,)))`` starts, but those seed states are derived here by
hand, in one vectorised pass, and drawn from through one reused generator,
which is several times cheaper than building those objects per entry. The
single stream of ``simulate_occurrence`` is numpy's own ``PCG64(seed)``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .record import Record, record
from .scales import (
    OCCURRENCE_DENOMINATORS,
    all_ratings,
    check_rating,
    occurrence_rate,
    rating_from_rate,
)
from .worksheet import Worksheet

_SEED_MAX = 2**64 - 1
_TRIALS_MAX = 2**63 - 1  # numpy draws binomial counts as int64

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341


@record
class SimConfig(Record):
    """Number of failure opportunities and the PRNG seed."""

    trials: int
    seed: int = 0

    def __post_init__(self):
        if type(self.trials) is not int or not 1 <= self.trials <= _TRIALS_MAX:
            raise ValueError(f"trials must be an integer in [1, 2**63 - 1], "
                             f"got {self.trials!r}")
        if type(self.seed) is not int or not 0 <= self.seed <= _SEED_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@record
class SimResult(Record):
    """Outcome of one simulated scale point."""

    rating_in: int
    trials: int
    failures: int
    empirical_rate: float
    rating_out: int
    agrees: bool


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's word hash, whose constant advances on every call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _stream_states(seed: int, keys: np.ndarray) -> Iterator[tuple[int, int]]:
    """Yield the PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(seed,
    spawn_key=(key,)))`` for each key of *keys*, a 1-D uint32 array.

    Mirrors numpy's SeedSequence (entropy pooling, then generate_state(4,
    uint64)) for one-word spawn keys only, on whole arrays of uint32 words,
    then PCG64's seeding in Python integers; the empty key's stream is
    numpy's own PCG64(seed), not copied here. Every hash operand is a
    np.uint32 array or scalar, so the arithmetic wraps at 32 bits under
    numpy 1.x casting and NEP 50 alike.
    """
    # A 64-bit seed is at most two words; the pool pads the entropy with
    # zeros to its size, then the key word is mixed in after it. Until the
    # key, every stream's pool is the same one-element array.
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(np.full(1, word, dtype=np.uint32))
            for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for dst in range(_POOL_SIZE):
        pool[dst] = _mix(pool[dst], hashmix(keys))

    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian into (seed high, seed low, sequence high, sequence low).
    hash_out = _hasher(_INIT_B, _MULT_B)
    state_words = [hash_out(pool[i % _POOL_SIZE]) for i in range(8)]
    halves = [(state_words[2 * j + 1].astype(np.uint64) << np.uint64(32)
               | state_words[2 * j]).tolist() for j in range(4)]

    # PCG64 seeding: inc = 2 * sequence + 1; state 0, step, add the seed, step.
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        yield (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc


_PROBABILITY = {r: occurrence_rate(r).probability for r in OCCURRENCE_DENOMINATORS}


def _simulate(ratings: list[int], cfg: SimConfig,
              streams: Iterable[tuple[int, int]]) -> list[SimResult]:
    """Draw rating i from the i-th PCG64 ``(state, inc)`` of streams."""
    # A bare lookup would take True as rating 1; ratings are never coerced.
    if not all_ratings(ratings):
        for rating in ratings:  # raises for the first bad one
            check_rating(rating, "occurrence")
    bit_generator = np.random.PCG64(0)  # its state is replaced before each draw
    binomial = np.random.Generator(bit_generator).binomial
    stream = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    trials = cfg.trials
    results = []
    for rating, (stream["state"], stream["inc"]) in zip(ratings, streams):
        bit_generator.state = state
        failures = int(binomial(trials, _PROBABILITY[rating]))
        empirical_rate = failures / trials
        # Zero failures is the correct inference at the scale floor, not an error.
        rating_out = rating_from_rate(empirical_rate) if failures > 0 else 1
        results.append(SimResult(rating, trials, failures, empirical_rate, rating_out,
                                 rating_out == rating))
    return results


def simulate_occurrence(rating: int, cfg: SimConfig) -> SimResult:
    """Simulate one occurrence rating and invert the observed rate.

    Fully determined by (rating, cfg.trials, cfg.seed).
    """
    stream = np.random.PCG64(cfg.seed).state["state"]
    return _simulate([rating], cfg, [(stream["state"], stream["inc"])])[0]


def simulate_worksheet(ws: Worksheet, cfg: SimConfig) -> list[SimResult]:
    """Simulate every entry's occurrence rating, one result per entry.

    Per-entry randomness is derived from (cfg.seed, entry index), so the
    output does not depend on iteration order or on entries being
    simulated in parallel.
    """
    count = len(ws.entries)
    if count > _MASK32 + 1:  # a larger index is a two-word spawn key
        raise ValueError(f"a worksheet simulates at most 2**32 entries, got {count}")
    ratings = [entry.triple.occurrence for entry in ws.entries]
    return _simulate(ratings, cfg,
                     _stream_states(cfg.seed, np.arange(count, dtype=np.uint32)))
