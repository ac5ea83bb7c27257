"""Simultaneous confidence boxes for the top-k score vector.

The k empirically best candidates share one box half-width r, found by
inverting an acceptance test along the one-parameter path of least
favorable mean vectors ``tilde_theta(x, k, r)``: winners pinned at
X_j - r, every loser pulled up toward the k-th winner's value.  Accepted
radii form an interval starting at 0, so the grid scan keeps the largest
accepted point and rounds outward; a Monte-Carlo bank is swept exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Problem, _accepted_span, _bisect_edges, _check_scores, _mc_sweep,
                   active_radius)
from .stepdown import marginal_model, stepdown_lower
from .tails import MonteCarloBound


@dataclass(frozen=True)
class TopKResult:
    """Common half-width boxes [X_j - r_max, X_j + r_max] over the k winners."""

    k: int
    winners: tuple
    r_max: float
    boxes: np.ndarray = field(repr=False, compare=False)
    alpha: float
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)


def top_indices(x, k: int) -> np.ndarray:
    """Indices of the k largest scores, ranked, ties to the lowest index."""
    x = _check_scores(x)
    if not 1 <= k <= x.size:
        raise ValueError(f"k must lie in [1, {x.size}], got {k}")
    order = np.lexsort((np.arange(x.size), -x))
    return order[:k]


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
    """Least favorable means at box half-width r.

    Winners sit at X_j - r; each loser rises to
    min((2 X_j + b) / 3, b) with b the shifted anchor X_(k) - r, mirroring
    the single-winner worst case with the anchor in the winner's role.
    """
    x = _check_scores(x)
    win = top_indices(x, k)
    b = x[win[-1]] - float(r)
    theta = np.minimum((2.0 * x + b) / 3.0, b)
    theta[win] = x[win] - r
    return theta


def _topk_halfgaps(x, win, r) -> np.ndarray:
    """Half of gaps_topk(tilde_theta(x, k, r), k), closed form, r column-friendly."""
    b = x[win[-1]] - np.asarray(r)
    half = np.maximum(b - x, 0.0) / 3.0
    half[..., win] = 0.0
    return half


def _topk_accept_union(bound, x, win, grid, alpha) -> np.ndarray:
    widths = np.maximum(grid[:, None], _topk_halfgaps(x, win, grid[:, None]))
    return np.asarray(bound.exceedance(widths)) > alpha


def topk_interval(problem: Problem, k: int, grid_points: int = 2001, *,
                  refine: bool = False) -> TopKResult:
    """Largest accepted half-width on a radius grid over [0, zero-gap radius].

    r = 0 is always a member; the returned radius rounds one step outward
    past the last accepted grid point (or bisects the bracket under
    ``refine``), so resolution errs wide.  On a Monte-Carlo bound the
    accepted radii are swept exactly and ``grid_points``/``refine`` do not
    change the result (see ``winner_interval_grid``).
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    x, bound, alpha = problem.x, problem.bound, problem.alpha
    win = top_indices(x, k)
    r0 = active_radius(bound, np.zeros(problem.m), alpha).r
    if isinstance(bound, MonteCarloBound):
        # gap of coordinate j at radius r is relu(2 (X_(k) - r - X_j) / 3); the
        # row condition any_j |xi_j| > max(r, gap_j/2) is, in r, the union of
        # open intervals (dhat_j - 3 |xi_j|, |xi_j|) with dhat_j = X_(k) - X_j
        dhat = x[win[-1]] - x
        points, accept = _mc_sweep(bound, alpha, lambda a: (dhat - 3.0 * a, a), 0.0, r0)
        step, refine = 0.0, False
    else:
        points = np.linspace(0.0, r0, grid_points)
        step = r0 / (grid_points - 1)
        accept = _topk_accept_union(bound, x, win, points, alpha)
    accept[0] = True  # the zero radius never leaves the region
    _, last, bridged, accepted = _accepted_span(accept)
    if isinstance(bound, MonteCarloBound):
        r_max = points[last + 1]
    elif refine and last < grid_points - 1:
        r_max = _bisect_edges(lambda r: _topk_accept_union(bound, x, win, r, alpha),
                              np.array([points[last] + step]), np.array([points[last]]))[0]
    else:
        r_max = min(points[last] + step, r0)
    boxes = np.stack([x[win] - r_max, x[win] + r_max], axis=1)
    diagnostics = {
        "grid_points": int(accept.size),
        "grid_step": step,
        "zero_gap_radius": r0,
        "accepted_points": accepted,
        "bridged": bridged,
        "refined": bool(refine),
    }
    return TopKResult(int(k), tuple(int(j) for j in win), float(r_max), boxes,
                      alpha, "grid", diagnostics)


def topk_stepdown(problem: Problem, k: int) -> TopKResult:
    """Step-down half-width for the top-k boxes (identical marginals only).

    Runs the lower-endpoint step-down on the observed gaps to the k-th
    winner; its radius dominates the grid/root answer.
    """
    model = marginal_model(problem.bound)
    x = problem.x
    win = top_indices(x, k)
    gaps = np.maximum(x[win[-1]] - x, 0.0)
    trace = stepdown_lower(gaps, model, problem.alpha)
    r = trace.radius
    boxes = np.stack([x[win] - r, x[win] + r], axis=1)
    return TopKResult(int(k), tuple(int(j) for j in win), float(r), boxes,
                      problem.alpha, "stepdown", {"trace": trace})
