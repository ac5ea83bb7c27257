"""Noise samplers, Monte-Carlo banks of |xi|, and Monte-Carlo quantiles.

Banks are drawn in fixed-size blocks whose generators are seeded by hashing
(master seed, block index) through numpy's SeedSequence.  The bank contents
therefore depend only on the seed and the row range, never on how many
workers drew the blocks, and a bank drawn with a larger ``n`` extends a
smaller one row-for-row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tails import MonteCarloBound

BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class EquicorrelatedSampler:
    """Unit-variance Gaussian noise with a common pairwise correlation.

    Draws xi_i = sqrt(rho) * Z0 + sqrt(1 - rho) * Z_i with Z0, Z_i iid
    standard normal (Z0 first in the stream, then the Z block).  The Z block
    is scaled in place and the common term added into it, so a draw keeps
    one block-sized array alive.
    """

    m: int
    rho: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    @property
    def exchangeable(self) -> bool:
        return True

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z0 = rng.standard_normal(n)
        z = rng.standard_normal((n, self.m))
        z *= math.sqrt(1.0 - self.rho)
        z += math.sqrt(self.rho) * z0[:, None]
        return z


@dataclass(frozen=True)
class DiagonalGaussianSampler:
    """Independent centered Gaussian noise with per-coordinate scales."""

    scales: tuple

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        if scales.ndim != 1 or scales.size == 0:
            raise ValueError("scales must be a non-empty 1-d sequence")
        if np.any(~np.isfinite(scales)) or np.any(scales <= 0):
            raise ValueError("scales must be positive and finite")
        object.__setattr__(self, "scales", tuple(float(s) for s in scales))

    @property
    def m(self) -> int:
        return len(self.scales)

    @property
    def exchangeable(self) -> bool:
        return len(set(self.scales)) == 1

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.m)) * np.asarray(self.scales)


def draw_bank(sampler, n: int, seed: int) -> MonteCarloBound:
    """Draw ``n`` rows from ``sampler`` into a Monte-Carlo bound over |xi|.

    A sampler is anything with ``m``, ``exchangeable`` and
    ``draw(rng, n)``, which returns an n x m array of signed draws from
    ``rng``.  It is drawn block-by-block with per-block generators seeded
    from SeedSequence((seed, block)), so the result is bit-identical
    however the blocks are scheduled.  Each block is folded into the one
    preallocated |xi| array as it is drawn; no signed copy is kept.  A
    fixed table of draws needs no sampler: ``MonteCarloBound(rows)`` is
    its bank.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bank = np.empty((n, sampler.m))
    for block, start in enumerate(range(0, n, BLOCK_ROWS)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), block]))
        # draw the full block even when fewer rows are needed: a bank of
        # size n must be a bit-exact prefix of any larger bank
        rows = sampler.draw(rng, BLOCK_ROWS)[:n - start]
        np.abs(rows, out=bank[start:start + rows.shape[0]])
    bank.setflags(write=False)
    return MonteCarloBound(bank, sampler.exchangeable)


def m_statistic(bound: MonteCarloBound, gaps) -> np.ndarray:
    """Per-row max of |xi_j| over coordinates with |xi_j| > gaps_j / 2.

    Rows where no coordinate clears its half-gap contribute 0.  Infinite
    gaps knock their coordinate out entirely.  When every half-gap is 0 the
    statistic is the bank's row maxima (``MonteCarloBound.row_max``,
    computed once when the bank is built), returned as that read-only
    array without a scan: the zero-gap radius r0 is then one partition.
    Other gaps scan the bank in blocks (``MonteCarloBound.blocks``), so the
    temporaries stay bounded.
    """
    gaps = np.asarray(gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size != bound.m:
        raise ValueError("gaps must be 1-d with one entry per coordinate")
    if np.any(np.isnan(gaps)) or np.any(gaps < 0):
        raise ValueError("gaps must be non-negative")
    half = 0.5 * gaps
    if not half.any():  # |xi| >= 0 with no sign bit: |xi| > 0 keeps the row max
        return bound.row_max
    return np.concatenate([np.max(np.where(a > half, a, 0.0), axis=1)
                           for a in bound.blocks()])


def mc_order_index(level: float, n: int) -> int:
    """1-based order-statistic index ceil(level * n), guarding float round-up.

    Never interpolates; exact multiples resolve to the mathematically
    correct index even when ``level * n`` rounds up in floating point.
    """
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if n < 1:
        raise ValueError("need at least one value")
    k = int(math.ceil(level * n - 1e-9))
    return min(max(k, 1), n)


def mc_quantile(values, level: float) -> float:
    """Conservative Monte-Carlo quantile: the order statistic at ceil(level*n)."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one value")
    if np.any(np.isnan(values)):
        raise ValueError("values must not contain NaN")
    k = mc_order_index(level, values.size)
    return float(np.partition(values, k - 1)[k - 1])
