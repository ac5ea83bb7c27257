"""Reference forms that the tests compare the package against.

Direct, unoptimized statements of the least favorable configurations and
of the acceptance test, plus a uniform t-grid walk of the winner's
union-bound test: the sigma-scaled inversion walks the same grid, so at
unit sigma it must match this walk bit for bit.  The package itself uses
none of them.
"""
import math

import numpy as np

from zoomcurse.core import _check_scores, active_radius
from zoomcurse.errors import InternalCheckError
from zoomcurse.topk import top_indices


def worst_case_theta(x, winner: int, t: float) -> np.ndarray:
    """Least favorable mean vector with the winner's mean pinned at t.

    Every rival mean is pulled up to min((2*X_j + t) / 3, t): high enough to
    maximize the active radius, but never above the winner.
    """
    x = _check_scores(x)
    if not 0 <= winner < x.size:
        raise ValueError(f"winner index {winner} out of range")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    theta = np.minimum((2.0 * x + t) / 3.0, t)
    theta[winner] = t
    return theta


def contains(problem, t: float) -> bool:
    """Membership of t in the winner's confidence interval (closed at the boundary)."""
    i_hat = problem.winner
    theta = worst_case_theta(problem.x, i_hat, t)
    gaps = np.max(theta) - theta
    ar = active_radius(problem.bound, gaps, problem.alpha)
    # the empirical winner is active in its own worst case (gap 0)
    if i_hat not in ar.active:
        raise InternalCheckError("the winner must be active in its own worst case")
    return bool(abs(problem.x[i_hat] - t) <= ar.r)


def gaps_topk(theta, k: int) -> np.ndarray:
    """Gap of each coordinate to the k-th largest entry, floored at zero."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must form a non-empty 1-d vector")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if not 1 <= k <= theta.size:
        raise ValueError(f"k must lie in [1, {theta.size}], got {k}")
    kth = np.partition(theta, theta.size - k)[theta.size - k]
    return np.maximum(kth - theta, 0.0)


def tilde_theta(x, k: int, r: float) -> np.ndarray:
    """Least favorable means of the top-k boxes at half-width r.

    Winners sit at X_j - r; each loser rises to min((2 X_j + b) / 3, b) with
    b the shifted anchor X_(k) - r, mirroring the single-winner worst case
    with the anchor in the winner's role.
    """
    x = _check_scores(x)
    win = top_indices(x, k)
    b = x[win[-1]] - float(r)
    theta = np.minimum((2.0 * x + b) / 3.0, b)
    theta[win] = x[win] - r
    return theta


def endpoint_sum(bound, d, r, sign):
    """Union bound along the worst case at radius r: sum_j S_j(max(r, (d_j +- r)/3)).

    ``sign`` (+1 upper, -1 lower) broadcasts against ``r``.
    """
    r = np.asarray(r, dtype=float)[..., None]
    widths = np.maximum(r, (d + np.asarray(sign)[..., None] * r) / 3.0)
    return bound.exceedance(widths)


def union_grid_accepts(bound, x, winner: int, grid, alpha: float) -> np.ndarray:
    """Strict acceptance of each winner value on ``grid`` under a union bound.

    The half-gaps of worst_case_theta in closed form: max(0, t - X_j)/3 for
    rivals, 0 for the winner.
    """
    w = np.abs(x[winner] - grid)
    half = np.maximum(grid[:, None] - x, 0.0) / 3.0
    half[:, winner] = 0.0
    return np.asarray(bound.exceedance(np.maximum(w[:, None], half))) > alpha


def union_grid_interval(problem, grid_points: int) -> tuple:
    """The uniform t-grid walk over the zero-gap box, one step outward.

    Endpoints round outward by one grid step past the first and last
    accepted points, clamped to the box.
    """
    x, bound, alpha = problem.x, problem.bound, problem.alpha
    i_hat = problem.winner
    r0 = active_radius(bound, np.zeros(problem.m), alpha).r
    lo, hi = x[i_hat] - r0, x[i_hat] + r0
    grid = np.linspace(lo, hi, grid_points)
    step = (hi - lo) / (grid_points - 1)
    accept = union_grid_accepts(bound, x, i_hat, grid, alpha)
    if not accept.any():
        raise InternalCheckError("no point accepted; t = X_winner must be a member")
    first = int(np.argmax(accept))
    last = accept.size - 1 - int(np.argmax(accept[::-1]))
    return float(max(grid[first] - step, lo)), float(min(grid[last] + step, hi))
