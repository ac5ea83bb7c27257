"""Simultaneous confidence boxes for the top-k score vector.

The k empirically best candidates share one box half-width r, found by
inverting an acceptance test along the one-parameter path of least
favorable mean vectors: winners pinned at X_j - r, every loser pulled up
toward the k-th winner's shifted value X_(k) - r.  Along that path the
test is the winner interval's lower endpoint equation anchored at X_(k), so
the radius comes from the same solver (``core._radii``, lower side only):
a certified cell search under a union bound, an exact breakpoint sweep on a
Monte-Carlo bank.  The accepted radii need not form an interval; the
largest one is returned, and r = 0 is always accepted.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Problem, _check_grid_points, _check_scores, _radii
from .stepdown import marginal_model, stepdown_lower


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


def topk_interval(problem: Problem, k: int, grid_points: int = 2001) -> TopKResult:
    """Largest accepted common half-width of the top-k boxes.

    Along the least favorable path, coordinate j's width at radius r is
    max(r, (d_j - r)/3) with d_j = X_(k) - X_j: the winner's lower endpoint
    equation anchored at the k-th score, solved as for the winner interval,
    so for k = 1 ``r_max`` is the winner interval's ``r_l`` bit for bit.
    ``grid_points`` is validated and ignored; it is kept only because the
    benchmark under ``perfbench/`` passes it.
    """
    _check_grid_points(grid_points)
    x = problem.x
    win = top_indices(x, k)
    (r_max,), diagnostics = _radii(problem, x[win[-1]] - x, upper=False)
    boxes = np.stack([x[win] - r_max, x[win] + r_max], axis=1)
    return TopKResult(int(k), tuple(int(j) for j in win), r_max, boxes,
                      problem.alpha, "grid", diagnostics)


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
