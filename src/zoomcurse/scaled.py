"""Variance-adaptive intervals: per-candidate widths proportional to sigma_j.

Tail convention: every marginal tail model here bounds the STANDARDIZED
error, P(|xi_j| / sigma_j > r) <= S(r), and Monte-Carlo banks hold
standardized draws.  Radii r are therefore in standardized units and all
acceptance widths come out as r * sigma_j in score units.

Inverting the scaled test is genuinely harder than the basic case: the
least favorable configuration is indexed by a candidate population winner
i* and its mean t* >= t, so membership of t scans (i*, t*) pairs for one
that accepts.  With equal sigmas every operation here reduces exactly to
its basic counterpart.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ActiveRadius, Problem, WinnerInterval, _accepted_span,
                   _check_scores, active_radius)
from .errors import UnsupportedMethodError
from .tails import UnionBound

N_SECONDARY = 256


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


def active_radius_scaled(bound, theta, sigma, alpha: float) -> ActiveRadius:
    """Standardized active radius of the scaled test at mean vector theta.

    Solves S(max(r, d_j)) <= alpha for the scaled gaps
    d_j = (max theta - theta_j) / (sigma_j + sigma_i*); the active set is
    {j : d_j <= r}.
    """
    theta = _check_scores(theta)
    sigma = _check_sigma(sigma, theta.size)
    i_star = int(np.argmax(theta))
    gaps = theta[i_star] - theta
    d = gaps / (sigma + sigma[i_star])
    return active_radius(bound, 2.0 * d, alpha)


def scaled_worst_case(x, winner: int, t: float, t_star: float, i_star: int,
                      sigma) -> np.ndarray:
    """Least favorable means given the winner's value t and a population
    winner (i_star, t_star).

    Rivals rise to min((X_j (sigma_j + sigma_i*) + t* sigma_j) /
    (2 sigma_j + sigma_i*), t*), the point where the selection width and the
    interval width bind simultaneously.
    """
    x = _check_scores(x)
    sigma = _check_sigma(sigma, x.size)
    if not 0 <= winner < x.size:
        raise ValueError(f"winner index {winner} out of range")
    if not 0 <= i_star < x.size:
        raise ValueError(f"i_star index {i_star} out of range")
    t, t_star = float(t), float(t_star)
    if t_star < t:
        raise ValueError("t_star must not fall below t")
    if i_star == winner and t_star != t:
        raise ValueError("when i_star is the winner, t_star must equal t")
    s_star = sigma[i_star]
    theta = np.minimum((x * (sigma + s_star) + t_star * sigma) / (2.0 * sigma + s_star),
                       t_star)
    theta[winner] = t
    theta[i_star] = t_star
    return theta


def _accept_grid_t(x, sigma, bound, alpha, i_hat, t, t_hi, n_star):
    """Does any least-favorable pair (i*, t*) accept the winner value t?

    Vectorized over a t* grid and all i* at once; returns (accepted,
    hit_grid_edge) where the edge flag marks acceptances only realized at
    the top of the t* grid.
    """
    m = x.size
    w0 = abs(x[i_hat] - t) / sigma[i_hat]
    ts = np.linspace(t, max(t_hi, t), n_star)
    c = np.abs(x[None, :] - ts[:, None]) / sigma[None, :]
    base_req = np.where(x[None, :] >= ts[:, None], c, -np.inf).max(axis=1)
    # r needed in coordinate i* and in every coordinate above t*
    r_req = np.maximum(w0, np.maximum(base_req[None, :], c.T))  # (m, S)
    d = np.maximum(ts[None, :, None] - x[None, None, :], 0.0) \
        / (2.0 * sigma[None, None, :] + sigma[:, None, None])
    d[:, :, i_hat] = (ts[None, :] - t) / (sigma[i_hat] + sigma[:, None])
    d[np.arange(m), :, np.arange(m)] = 0.0
    vals = np.asarray(bound.exceedance(np.maximum(r_req[:, :, None], d)))
    vals[i_hat, 1:] = 0.0  # i* = winner forces t* = t
    hits = vals > alpha
    if hits.any():
        edge_only = not hits[:, :-1].any()
        return True, edge_only
    return False, False


def winner_interval_scaled(problem: ScaledProblem, grid_points: int = 2001, *,
                           n_star: int = N_SECONDARY) -> WinnerInterval:
    """Grid inversion of the scaled test for the winner's mean.

    For each candidate value t the least favorable configurations are
    scanned over all i* and an ``n_star``-point secondary grid of t* values
    spanning [t, X_win + r0 * max(sigma)]; endpoints round one grid step
    outward.  Union bounds only: the (i*, t*) scan needs cheap vectorized
    re-evaluation of the joint bound.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    bound = problem.base.bound
    if not isinstance(bound, UnionBound):
        raise UnsupportedMethodError(
            "scaled interval inversion supports union bounds only")
    x, sigma, alpha = problem.base.x, problem.sigma, problem.base.alpha
    i_hat = problem.winner
    r0 = active_radius(bound, np.zeros(problem.m), alpha).r
    lo, hi = x[i_hat] - r0 * sigma[i_hat], x[i_hat] + r0 * sigma[i_hat]
    t_hi = x[i_hat] + r0 * float(sigma.max())
    grid = np.linspace(lo, hi, grid_points)
    step = (hi - lo) / (grid_points - 1)
    accept = np.zeros(grid_points, dtype=bool)
    edge_hits = 0
    for s, t in enumerate(grid):
        ok, edge_only = _accept_grid_t(x, sigma, bound, alpha, i_hat, float(t),
                                       t_hi, n_star)
        accept[s] = ok
        edge_hits += int(ok and edge_only)
    first, last, bridged, accepted = _accepted_span(accept)
    t_l = max(grid[first] - step, lo)
    t_u = min(grid[last] + step, hi)
    diagnostics = {
        "grid_points": grid_points,
        "grid_step": step,
        "zero_gap_radius": r0,
        "secondary_points": n_star,
        "secondary_edge_hits": edge_hits,
        "accepted_points": accepted,
        "bridged": bridged,
    }
    return WinnerInterval(float(t_l), float(t_u), float(x[i_hat]), i_hat, alpha,
                          "scaled-grid", diagnostics)
