"""Step-down radii: iterative budget reallocation over sorted score gaps.

Both routines walk the empirical gaps in decreasing order.  While the
current gap is large enough to rule its coordinate out of the acceptance
region, that coordinate's error contribution is subtracted from the budget
and the per-coordinate share of what remains is recomputed.  The radius at
the stopping step dominates the corresponding endpoint-equation root, so
these give slightly wider intervals.

Requires one shared marginal tail across coordinates (the budget shares
alpha_j / (m - j + 1) assume one quantile function): the bound must be
``exchangeable`` and carry its per-coordinate ``models``, as a
``UnionBound`` of equal models does.

Both radii are clamped at the Bonferroni radius S_inv(alpha / m): the
endpoint-equation roots never exceed it, so the clamped interval still
contains the root interval.  A trace's steps record the walk as taken;
its ``radius`` is the clamped result.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Problem, WinnerInterval, _check_alpha, _check_gaps
from .errors import InfeasibleAlphaError, InternalCheckError, UnsupportedMethodError


@dataclass(frozen=True)
class StepdownStep:
    coordinate: int
    gap: float
    budget: float
    radius: float
    stopped: bool


@dataclass(frozen=True)
class StepdownTrace:
    radius: float
    side: str
    alpha: float
    steps: tuple = field(compare=False)

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def marginal_model(bound):
    """The shared marginal tail model of an exchangeable bound with
    ``models``, or refuse any other bound."""
    if not (bound.exchangeable and hasattr(bound, "models")):
        raise UnsupportedMethodError(
            "step-down methods need one shared marginal tail model")
    return bound.models[0]


def _sorted_gaps(gaps) -> tuple[np.ndarray, np.ndarray]:
    gaps = _check_gaps(gaps, np.size(gaps))
    order = np.argsort(-gaps, kind="stable")
    return gaps[order], order


def _isf(model, q: float) -> float:
    if q <= 0.0:
        raise InfeasibleAlphaError("error budget exhausted before the step-down stopped")
    try:
        return float(model.isf(q))
    except ValueError as exc:
        raise InfeasibleAlphaError(str(exc)) from exc


def _walk(gaps, model, alpha: float, side: str) -> StepdownTrace:
    alpha = _check_alpha(alpha)
    g, order = _sorted_gaps(gaps)
    m = g.size
    lower = side == "lower"
    r_bonf = _isf(model, alpha / m)
    r_base = _isf(model, alpha)
    budget = alpha
    steps = []
    for j in range(m):
        try:
            r = _isf(model, budget / (m - j))
        except InfeasibleAlphaError:
            # budget exhausted: the Bonferroni radius is valid on its own
            r, stop = r_bonf, True
        else:
            stop = g[j] <= (4.0 if lower else 2.0) * r
        steps.append(StepdownStep(int(order[j]), float(g[j]), budget, r, stop))
        if stop:
            return StepdownTrace(min(r, r_bonf), side, alpha, tuple(steps))
        budget -= float(model.sf(((g[j] - r) if lower else (g[j] + r_base)) / 3.0))
    raise InternalCheckError("step-down must stop at the zero gap")


def stepdown_lower(gaps, model, alpha: float) -> StepdownTrace:
    """Radius for the interval's lower end: stop once the gap is within 4 radii.

    While a sorted gap exceeds 4 * radius, its coordinate sits deep in the
    rejection region at the lower endpoint's worst case and gives back
    S((gap - radius) / 3) of budget.
    """
    return _walk(gaps, model, alpha, "lower")


def stepdown_upper(gaps, model, alpha: float) -> StepdownTrace:
    """Radius for the interval's upper end: stop once the gap is within 2 radii.

    The budget refund here is S((gap + r_base) / 3) with r_base the single
    undivided quantile, computed once up front.  With many rivals those
    refunds can outrun the per-rival share, so the radius is clamped at the
    Bonferroni radius S_inv(alpha / m), and a walk that exhausts its budget
    stops there instead of failing.
    """
    return _walk(gaps, model, alpha, "upper")


def winner_interval_stepdown(problem: Problem) -> WinnerInterval:
    """Winner interval from the two step-down radii (wider than the root method)."""
    model = marginal_model(problem.bound)
    x = problem.x
    i_hat = problem.winner
    gaps = x[i_hat] - x
    lower = stepdown_lower(gaps, model, problem.alpha)
    upper = stepdown_upper(gaps, model, problem.alpha)
    diagnostics = {"lower_trace": lower, "upper_trace": upper}
    return WinnerInterval(lower.radius, upper.radius, float(x[i_hat]), i_hat,
                          problem.alpha, "stepdown", diagnostics)
