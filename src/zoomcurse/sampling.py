"""Noise samplers, Monte-Carlo banks of |xi|, and their order-statistic index.

``EquicorrelatedSampler`` is the one built-in sampler; ``draw_bank`` takes
any object with ``m``, ``exchangeable`` and ``draw(rng, n)``.  A fixed
table of draws needs no sampler: ``MonteCarloBound(rows)`` is its bank.

Banks are drawn in fixed-size blocks whose generators are seeded by hashing
(master seed, block index) through numpy's SeedSequence.  The bank contents
therefore depend only on the seed and the row range, never on how many
workers drew the blocks, and a bank drawn with a larger ``n`` extends a
smaller one row-for-row.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tails import MonteCarloBound

BLOCK_ROWS = 1 << 16


def _check_count(name: str, value, low: int = 1) -> None:
    """Refuse a count or seed that is not an integer (a Python or NumPy one)
    of at least ``low``: a float one would be truncated or fail deep inside."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


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
        _check_count("m", self.m)
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
    _check_count("n", n)
    _check_count("seed", seed, 0)
    bank = np.empty((n, sampler.m))
    for block, start in enumerate(range(0, n, BLOCK_ROWS)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), block]))
        # draw the full block even when fewer rows are needed: a bank of
        # size n must be a bit-exact prefix of any larger bank
        rows = sampler.draw(rng, BLOCK_ROWS)[:n - start]
        np.abs(rows, out=bank[start:start + rows.shape[0]])
    bank.setflags(write=False)
    return MonteCarloBound(bank, sampler.exchangeable)


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
