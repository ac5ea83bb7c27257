"""Variance-adaptive intervals: per-candidate widths proportional to sigma_j.

Tail convention: every marginal tail model here bounds the STANDARDIZED
error, P(|xi_j| / sigma_j > r) <= S(r), and Monte-Carlo banks hold
standardized draws.  Radii r are therefore in standardized units and all
acceptance widths come out as r * sigma_j in score units.

The least favorable configuration is indexed by a population winner i* and
its mean t* >= t: the winner value t is accepted when some (i*, t*) accepts.
The t* range needs no upper end: beyond max(t, X_win) every width grows with
t*, so no t* there accepts more than t* = max(t, X_win).  Above X_win only
t* = t is left; below it t* ranges over [t, X_win].  With equal sigmas every
operation here reduces exactly to its basic counterpart.

Both sides of the interval run the union solver's certified search through
its shared driver (``core._side_radii``), in lockstep and under the same
rule at r0; ``_ScaledTest.evaluate`` bounds the cells they ask for.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Problem, WinnerInterval, _cell_widths, _check_grid_points, _side_radii,
                   active_radius)
from .errors import UnsupportedMethodError
from .tails import UnionBound


def _check_sigma(sigma, m: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size != m:
        raise ValueError(f"sigma must be 1-d with {m} entries")
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        raise ValueError("sigma entries must be positive and finite")
    return sigma


@dataclass(frozen=True)
class ScaledProblem:
    """A basic problem plus per-candidate width scales."""

    base: Problem
    sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_sigma(self.sigma, self.base.m))

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def winner(self) -> int:
        return self.base.winner


class _ScaledTest:
    """Bounds on the scaled test's sums, in the winner's standardized radius r.

    Below X_win, t = X_win - r s and t* = X_win - u, u in [0, r s] (s the
    winner's sigma, d_j = X_win - X_j).  The pair (i*, t*) gives coordinate j
    the width max(r_req, g_j): r_req = max(r, |u - d_i*| / sigma_i*,
    max_k (u - d_k)+ / sigma_k), g_j = (d_j - u)+ / (2 sigma_j + sigma_i*)
    (the exact gaps of the winner and of i* stay below r_req).  Each piece is
    monotone or V-shaped in r and u, so a cell's bound takes each at its
    smallest there.  Above X_win, t* = t.  The test holds the search range
    [0, r0] and, for each kept lower radius cell not yet split, its live
    (i*, u) cells.
    """

    def __init__(self, problem: ScaledProblem):
        base = problem.base
        self.bound, self.alpha, self.win = base.bound, base.alpha, problem.winner
        self.sigma, self.s = problem.sigma, float(problem.sigma[problem.winner])
        self.d = base.x[self.win] - base.x
        self.r0 = active_radius(self.bound, np.zeros(problem.m), self.alpha).r
        rivals = np.delete(np.arange(self.d.size), self.win)
        self.live = {(0.0, self.r0): (rivals, 0.0 * rivals, self.r0 * self.s + 0.0 * rivals)}
        self.star_cells = 0

    def upper_rows(self, r: float) -> np.ndarray:
        """Widths of every i* at t = X_win + r s; each grows with r."""
        sigma = self.sigma
        c_star = (r * self.s + self.d) / sigma  # |X_i* - t| / sigma_i*
        c_star[self.win] = r
        gapped = _cell_widths(self.d, False, r, r, 2.0 * sigma + sigma[:, None], self.s)
        return np.maximum(gapped, c_star[:, None])

    def winner_row(self, a: float, b: float) -> np.ndarray:
        """Smallest widths of i* = winner (t* = t) over r in [a, b]: the basic
        lower cell bound with the scaled gaps (bit for bit the basic one at
        unit sigma), raised to the pinned rivals' requirement at r = a."""
        ahead = (np.maximum(a * self.s - self.d, 0.0) / self.sigma).max()
        scaled = _cell_widths(self.d, True, a, b, 2.0 * self.sigma + self.s, self.s)
        return np.maximum(scaled, ahead)

    def rival_rows(self, a: float, i_star, ua, ub) -> np.ndarray:
        """Smallest widths over r >= a and each cell (i*, [ua, ub]) of u."""
        d, sigma = self.d, self.sigma
        d_star, s_star = d[i_star], sigma[i_star]
        r_req = np.maximum(np.maximum(a, np.abs(np.clip(d_star, ua, ub) - d_star) / s_star),
                           (np.maximum(ua[:, None] - d, 0.0) / sigma).max(axis=1))
        gaps = np.maximum(d - ub[:, None], 0.0) / (2.0 * sigma + s_star[:, None])
        return np.maximum(r_req[:, None], gaps)

    def lower_cell(self, a: float, b: float, i_star, ua, ub):
        """Live (i*, u) cells of the radius cell [a, b], or None to drop it.

        [a, b] is kept at once if the winner's row bound exceeds alpha.
        Otherwise u cells whose bound is <= alpha go, and [a, b] is kept as
        soon as an exact point (r = a, u mid-cell but <= a s) accepts or a
        live cell is no wider than [a, b], as only splitting [a, b] can
        tighten its bound; wider live cells are halved.
        """
        ub = np.minimum(ub, b * self.s)  # t* >= t caps u at r s
        feasible = ua <= ub
        i_star, ua, ub = i_star[feasible], ua[feasible], ub[feasible]
        if self.bound.exceedance(self.winner_row(a, b)) > self.alpha:
            return i_star, ua, ub
        while i_star.size:
            self.star_cells += i_star.size
            u = np.minimum(0.5 * (ua + ub), a * self.s)
            exact, live = (self.bound.exceedance(self.rival_rows(
                a, np.tile(i_star, 2), np.concatenate([u, ua]), np.concatenate([u, ub])
            )) > self.alpha).reshape(2, -1)
            i_star, ua, ub = i_star[live], ua[live], ub[live]
            if exact.any() or np.any(ub - ua <= (b - a) * self.s):
                return i_star, ua, ub
            mid = 0.5 * (ua + ub)
            i_star, ua, ub = np.tile(i_star, 2), np.concatenate([ua, mid]), np.concatenate([mid, ub])
        return None

    def evaluate(self, asked: dict) -> list:
        """Bounds of the cells each side asks for (``_side_radii``).

        Above X_win a cell's bound is the largest sum over i* at its lower
        end, as the upper sums fall with r.  Below it the side asks for one
        step's halves at a time (a budget of one cell), as a kept cell
        passes its live (i*, u) cells to its halves: what its bound dropped
        stays dropped on any part of it.  Their bounds are alpha for a
        dropped half (its bound is no larger) and inf for a kept one.
        """
        bounds = []
        for lower, cells in asked.items():
            if lower:
                parent = self.live.pop((cells[0][0], cells[-1][1]))
                for a, b in cells:
                    self.live[(a, b)] = self.lower_cell(a, b, *parent)
                bounds += [self.alpha if self.live[cell] is None else np.inf for cell in cells]
            else:
                bounds += [float(np.max(self.bound.exceedance(self.upper_rows(a))))
                           for a, _ in cells]
        return bounds


def winner_interval_scaled(problem: ScaledProblem, grid_points: int = 2001) -> WinnerInterval:
    """Certified inversion of the scaled test for the winner's mean.

    Each side searches the standardized radius like ``winner_interval_root``,
    and a lower radius cell is dropped only when its bound is <= alpha for
    every i* and every cell of t*, so every radius beyond each end is
    rejected.  At unit sigma the endpoints are ``winner_interval_root``'s, bit
    for bit.  Union bounds only; ``grid_points`` is validated and ignored,
    and kept only because the benchmark under ``perfbench/`` passes it.  The
    diagnostics count the radius cells bounded (``grid_points``) and kept
    (``accepted_points``) and the (i*, t*) cells bounded.
    """
    _check_grid_points(grid_points)
    bound = problem.base.bound
    if not isinstance(bound, UnionBound):
        raise UnsupportedMethodError("scaled interval inversion supports union bounds only")
    test = _ScaledTest(problem)
    r0, alpha = test.r0, test.alpha
    top = {True: float(bound.exceedance(test.winner_row(r0, r0))),
           False: test.evaluate({False: [(r0, r0)]})[0]}
    found = _side_radii(top, r0, alpha, 1, test.evaluate)
    (r_l, bounded_l, kept_l), (r_u, bounded_u, kept_u) = found[True], found[False]
    diagnostics = {"zero_gap_radius": r0, "bonferroni_lower": r_l == r0,
                   "bonferroni_upper": r_u == r0, "grid_points": bounded_l + bounded_u,
                   "accepted_points": kept_l + kept_u, "star_cells": test.star_cells}
    xw = float(problem.base.x[test.win])
    return WinnerInterval(r_l * test.s, r_u * test.s, xw, test.win, alpha, "scaled", diagnostics)
