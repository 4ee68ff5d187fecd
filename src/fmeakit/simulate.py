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
keeps the rare-rating cases (down to p = 1/1,500,000) fast. A (seed, entry
index) -> stream derivation makes worksheet runs independent of iteration
order and scheduling.

Entry i draws what numpy 2.4.6's ``Generator(PCG64(SeedSequence(seed,
spawn_key=(i,)))).binomial`` draws, and ``simulate_occurrence`` what the
empty key's ``PCG64(seed)`` draws, but nothing here calls numpy.random:
the seed states are derived by hand, in one vectorised uint32 pass, and
the generator and the sampler are copied in pure Python, bit for bit, so
no count depends on numpy.random's code.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from math import exp, floor, log, sqrt

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
_TRIALS_MAX = 2**63 - 1  # the copied sampler counts in int64, as numpy's does

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
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


def _stream_states(seed: int, keys: np.ndarray | None) -> Iterator[tuple[int, int]]:
    """Yield the PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(seed,
    spawn_key=(key,)))`` for each key of *keys*, a 1-D uint32 array, or
    the one ``(state, inc)`` of ``PCG64(seed)`` when *keys* is None.

    Mirrors numpy's SeedSequence (entropy pooling, then generate_state(4,
    uint64)) for the empty key and one-word spawn keys, on whole arrays of
    uint32 words, then PCG64's seeding in Python integers. Every hash
    operand is a np.uint32 array or scalar, so the arithmetic wraps at 32
    bits under numpy 1.x casting and NEP 50 alike.
    """
    # A 64-bit seed is at most two words; the pool pads the entropy with
    # zeros to its size, which the empty key's pool does too, then a key
    # word is mixed in after it. Until the key, every stream's pool is the
    # same one-element array.
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(np.full(1, word, dtype=np.uint32))
            for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    if keys is not None:
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


def _doubles(state: int, inc: int) -> Iterator[float]:
    """numpy's PCG64 ``next_double`` from ``(state, inc)``: step the 128-bit
    LCG, take its XSL-RR output (O'Neill, HMC-CS-2014-0905), and scale the
    top 53 bits into [0, 1)."""
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        yield (((word >> rot | word << 64 - rot) & _MASK64) >> 11) * 2.0**-53


def _int64(value: int) -> int:
    """*value* wrapped to int64, as numpy's C arithmetic wraps."""
    return (value + 2**63 & _MASK64) - 2**63


def _binomial(n: int, p: float) -> Callable[[Callable[[], float]], int]:
    """numpy 2.4.6's ``random_binomial(n, p)``
    (numpy/random/src/distributions/distributions.c) as a function of a
    ``next_double``, its set-up done once.

    Inversion when p * n <= 30, BTPE otherwise (Kachitvichyanukul &
    Schmeiser, "Binomial Random Variate Generation", CACM 31(2), 1988);
    p <= 1/2, as the scale's top rate is 1 in 2. Every int64 in the C is
    a Python int here, converted to float where the C converts it, once.
    """
    q = 1.0 - p
    if p * n > 30.0:
        return _btpe(n, p, q)
    qn = exp(n * log(q))
    np_ = n * p
    bound = int(min(float(n), np_ + 10.0 * sqrt(np_ * q + 1)))

    def inversion(next_double: Callable[[], float]) -> int:
        x, px, u = 0, qn, next_double()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, next_double()
            else:
                u -= px
                px = (n - x + 1) * p * px / (x * q)
        return x
    return inversion


def _btpe(n: int, p: float, q: float) -> Callable[[Callable[[], float]], int]:
    """numpy's ``random_binomial_btpe`` for p <= 0.5 (so its r is p)."""
    fm = n * p + p
    m = floor(fm)
    p1 = floor(2.195 * sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q
    k_squeeze = nrq / 2.0 - 1
    s = p / q
    # Wraps at n = 2**63 - 1, as the C does. No test sees it: at that n a
    # draw all but never reaches the loop that reads it.
    a = s * _int64(n + 1)
    # The Stirling terms of f1 = m + 1 and z = n + 1 - m, which no draw moves.
    f1 = float(m + 1)
    z = float(n + 1 - m)
    nm = n - m + 0.5
    f_term = _stirling(f1)
    z_term = _stirling(z)

    def btpe(next_double: Callable[[], float]) -> int:
        while True:
            u = next_double() * p4
            v = next_double()
            if u <= p1:
                return floor(xm - p1 * v + u)
            if u <= p2:
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif u <= p3:
                if v == 0.0:  # log(0) is -inf in C; the draw is rejected
                    continue
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                if v == 0.0:
                    continue
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr

            k = abs(y - m)
            if k <= 20 or float(k) >= k_squeeze:  # the C compares k as a double
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v <= f:
                    return y
                continue

            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = _int64(-k * k) / (2 * nrq)  # -k * k wraps past k ~ 3e9
            if v <= 0.0:  # log(v) is -inf or NaN in C, and either accepts
                return y
            big_a = log(v)
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1 = float(y + 1)
            w = float(n - y + 1)
            if big_a <= (xm * log(f1 / x1) + nm * log(z / w)
                         + (y - m) * log(w * p / (x1 * q))
                         + f_term + _stirling(x1) + z_term + _stirling(w)):
                return y
    return btpe


def _stirling(x: float) -> float:
    """BTPE's Stirling correction term for *x*, as the C spells it."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


_PROBABILITY = {r: occurrence_rate(r).probability for r in OCCURRENCE_DENOMINATORS}


def _simulate(ratings: list[int], cfg: SimConfig,
              streams: Iterable[tuple[int, int]]) -> list[SimResult]:
    """Draw rating i from the i-th PCG64 ``(state, inc)`` of streams."""
    # A bare lookup would take True as rating 1; ratings are never coerced.
    if not all_ratings(ratings):
        for rating in ratings:  # raises for the first bad one
            check_rating(rating, "occurrence")
    trials = cfg.trials
    samplers = {rating: _binomial(trials, _PROBABILITY[rating]) for rating in set(ratings)}
    results = []
    for rating, (state, inc) in zip(ratings, streams):
        failures = samplers[rating](_doubles(state, inc).__next__)
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
    return _simulate([rating], cfg, _stream_states(cfg.seed, None))[0]


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
