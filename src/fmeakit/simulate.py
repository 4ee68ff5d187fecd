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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scales import check_rating, occurrence_rate, rating_from_rate
from .worksheet import Worksheet

_SEED_MAX = 2**64 - 1
_TRIALS_MAX = 2**63 - 1  # numpy draws binomial counts as int64


@dataclass(frozen=True)
class SimConfig:
    """Number of failure opportunities and the PRNG seed."""

    trials: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) \
                or not 1 <= self.trials <= _TRIALS_MAX:
            raise ValueError(f"trials must be an integer in [1, 2**63 - 1], "
                             f"got {self.trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or not 0 <= self.seed <= _SEED_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated scale point."""

    rating_in: int
    trials: int
    failures: int
    empirical_rate: float
    rating_out: int
    agrees: bool


def _draw(rating: int, cfg: SimConfig, spawn_key: tuple[int, ...]) -> SimResult:
    probability = occurrence_rate(rating).probability
    sequence = np.random.SeedSequence(cfg.seed, spawn_key=spawn_key)
    generator = np.random.Generator(np.random.PCG64(sequence))
    failures = int(generator.binomial(cfg.trials, probability))
    empirical_rate = failures / cfg.trials
    # Zero failures is the correct inference at the scale floor, not an error.
    rating_out = rating_from_rate(empirical_rate) if failures > 0 else 1
    return SimResult(
        rating_in=rating,
        trials=cfg.trials,
        failures=failures,
        empirical_rate=empirical_rate,
        rating_out=rating_out,
        agrees=rating_out == rating,
    )


def simulate_occurrence(rating: int, cfg: SimConfig) -> SimResult:
    """Simulate one occurrence rating and invert the observed rate.

    Fully determined by (rating, cfg.trials, cfg.seed).
    """
    check_rating(rating, "occurrence")
    return _draw(rating, cfg, spawn_key=())


def simulate_worksheet(ws: Worksheet, cfg: SimConfig) -> list[SimResult]:
    """Simulate every entry's occurrence rating, one result per entry.

    Per-entry randomness is derived from (cfg.seed, entry index), so the
    output does not depend on iteration order or on entries being
    simulated in parallel.
    """
    return [_draw(entry.triple.occurrence, cfg, spawn_key=(index,))
            for index, entry in enumerate(ws.entries)]
