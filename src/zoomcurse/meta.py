"""Inferences that ride on the winner interval: population maximum, winner
identity, and intervals for named non-winning candidates.

All three need a symmetry premise -- rival coordinates must be
exchangeable under the noise bound -- because they reuse the winner's
interval for quantities whose least favorable configurations permute
coordinates.  Any bound of either kind (``tails``) says so in its
``exchangeable``: a union bound when its marginals are identical, a sample
bank when its generator is exchangeable.
"""
from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import Problem, WinnerInterval, winner_interval_grid
from .errors import UnsupportedMethodError


@dataclass(frozen=True)
class IdentitySet:
    """Candidates not ruled out as the population-best."""

    indices: tuple
    threshold: float
    alpha: float

    def __contains__(self, j) -> bool:
        return int(j) in self.indices

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class NearWinnerInterval:
    """Confidence region for a named candidate's mean: one closed interval,
    kept as the 1-tuple ``pieces`` of (lo, hi); ``hull`` is that interval."""

    index: int
    pieces: tuple
    alpha: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def hull(self) -> tuple:
        return (self.pieces[0][0], self.pieces[-1][1])


def _require_symmetric(bound) -> None:
    if not bound.exchangeable:
        raise UnsupportedMethodError(
            "this inference needs exchangeable coordinates; they are not "
            "exchangeable under this bound")


def population_value_interval(problem: Problem) -> WinnerInterval:
    """Interval for the largest population mean, max_j theta_j.

    Under exchangeable noise the winner's interval already covers the
    population maximum at the same level, so this re-targets (and re-labels)
    that interval.
    """
    _require_symmetric(problem.bound)
    iv = winner_interval_grid(problem)
    return dataclasses.replace(
        iv, diagnostics={**iv.diagnostics, "target": "population_max"})


def _identity_set(x, iv: WinnerInterval, alpha: float) -> IdentitySet:
    """The candidates among scores x that reach X_win - 2 * r_l of the winner
    interval ``iv`` already solved on them."""
    threshold = iv.x_winner - 2.0 * iv.r_l
    indices = np.nonzero(x >= threshold)[0]
    return IdentitySet(tuple(int(j) for j in indices), float(threshold), alpha)


def winner_identity_set(problem: Problem) -> IdentitySet:
    """Set of candidates whose score reaches X_win - 2 * r_l.

    Any candidate scoring below that threshold cannot be a population-best
    coordinate at level alpha; the rest are retained.
    """
    _require_symmetric(problem.bound)
    return _identity_set(problem.x, winner_interval_grid(problem), problem.alpha)


def near_winner_interval(problem: Problem, index: int) -> NearWinnerInterval:
    """Confidence interval for the mean of candidate ``index`` (winner
    allowed), an integer (a Python or NumPy one) in [0, m).

    Two mechanisms cover theta_index: either it tracks the winner's mean
    within the selection geometry (a piece around X_index of half-width
    r_l, intersected with the winner's own range shifted by the observed
    deficit), or it sits so far below that only the winner's upper radius
    constrains it (the far piece).  The first piece is non-empty only when
    deficit <= 4 r_l, and then it meets the far piece, which reaches up to
    X_index + (deficit + r_u) / 3: a gap between them would need
    2 deficit > 9 r_l + r_u.  So the region is one interval, the hull of
    both pieces, or the far piece alone.
    """
    _require_symmetric(problem.bound)
    x = problem.x
    if not isinstance(index, numbers.Integral) or not 0 <= index < x.size:
        raise ValueError(f"index must be an integer in [0, {x.size - 1}], got {index!r}")
    index = int(index)
    iv = winner_interval_grid(problem)
    r_l, r_u = iv.r_l, iv.r_u
    deficit = float(x[iv.winner] - x[index])
    lo = x[index] - deficit - r_u
    hi = x[index] + (deficit + r_u) / 3.0
    lo1 = max(x[iv.winner] - 3.0 * r_l, x[index] - r_l)
    hi1 = min(x[iv.winner] + r_u, x[index] + r_l)
    if lo1 <= hi1:
        lo, hi = min(lo, lo1), max(hi, hi1)
    diagnostics = {"winner_interval": iv, "deficit": deficit}
    return NearWinnerInterval(index, ((float(lo), float(hi)),), problem.alpha, diagnostics)
