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
contains the root interval.  A trace's arrays record the walk as taken;
its ``radius`` is the clamped result.

The walk runs in array passes rather than one rival at a time.  A pass
starts from a guess of every step's refund and computes, for a prefix of
the sorted gaps:

- the budgets, as one cumulative sum of [alpha, -refund_0, ...].  It adds
  left to right, so it rounds exactly as ``budget -= refund`` does;
- the shares budget_j / (m - j) and all radii in one S_inv call.  A share
  below ``MIN_TAIL_PROB`` has exhausted the budget: its radius is the
  Bonferroni radius, and the walk stops there;
- the first stop j*, and the refunds of the steps before it in one S call.

Step j's budget depends only on the refunds before j.  So when a pass's
refunds equal its guess on [0, j*), its budgets, radii and stop satisfy
the sequential recurrence and stop rule exactly: they are the sequential
walk's, digit for digit.  Step 0's budget is alpha in every pass, and a
pass whose guess is exact before step p computes step p exactly, so the
passes reach that fixed point within j* + 2 of them.  Steps past the first
stop never enter, so a pass needs only a prefix that holds a stop; the
prefix grows 4x while it holds none.  Above the anchor the refunds do not
depend on the radii, so two passes settle each prefix.  Step 0's share is
alpha / m, so its radius is the Bonferroni radius, and a walk that stops
there needs no pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Problem, WinnerInterval, _check_alpha, _check_gaps
from .errors import InfeasibleAlphaError, InternalCheckError, UnsupportedMethodError
from .tails import MIN_TAIL_PROB


@dataclass(frozen=True)
class StepdownTrace:
    """The walk as taken: step j tested coordinate ``coordinates[j]``, whose
    gap ``gaps[j]`` is the j-th largest, with budget ``budgets[j]`` and
    radius ``radii[j]``; the last step is the one that stopped.  ``radius``
    is the clamped result."""

    radius: float
    side: str
    alpha: float
    coordinates: np.ndarray = field(compare=False)
    gaps: np.ndarray = field(compare=False)
    budgets: np.ndarray = field(compare=False)
    radii: np.ndarray = field(compare=False)

    @property
    def n_steps(self) -> int:
        return self.radii.size


def marginal_model(bound):
    """The shared marginal tail model of an exchangeable bound with
    ``models``, or refuse any other bound."""
    if not (bound.exchangeable and hasattr(bound, "models")):
        raise UnsupportedMethodError(
            "step-down methods need one shared marginal tail model")
    return bound.models[0]


def _walk(gaps, model, alpha: float, side: str) -> StepdownTrace:
    alpha = _check_alpha(alpha)
    gaps = _check_gaps(gaps, np.size(gaps))
    order = np.argsort(-gaps, kind="stable")
    g, m = gaps[order], gaps.size
    lower = side == "lower"
    try:
        r_bonf, r_base = model.isf(np.array([alpha / m, alpha])).tolist()
    except ValueError as exc:
        raise InfeasibleAlphaError(str(exc)) from exc
    if g[0] <= (4.0 if lower else 2.0) * r_bonf:  # step 0's share is alpha / m: no pass
        return StepdownTrace(r_bonf, side, alpha, order[:1].copy(), g[:1].copy(),
                             np.array([alpha]), np.array([r_bonf]))
    refunds, n = np.zeros(m), min(4, m)  # each step's refund as last found; a prefix of n steps
    while True:
        budgets = np.cumsum(np.concatenate(([alpha], -refunds[:n - 1])))
        shares = budgets / (m - np.arange(n))
        live = shares >= MIN_TAIL_PROB  # elsewhere the budget is exhausted
        radii = np.full(n, r_bonf)
        radii[live] = model.isf(shares[live])
        stops = ~live | (g[:n] <= (4.0 if lower else 2.0) * radii)
        j = int(np.argmax(np.append(stops, True)))  # the first stop, or n
        found = model.sf(((g[:j] - radii[:j]) if lower else (g[:j] + r_base)) / 3.0)
        if j < n and (found == refunds[:j]).all():
            break
        if j == m:
            raise InternalCheckError("step-down must stop at the zero gap")
        refunds[:j] = found
        n = min(4 * n, m) if j == n else n  # grow the prefix while it holds no stop
    # copies, so a trace does not keep m-long arrays alive
    steps = [a[:j + 1].copy() for a in (order, g, budgets, radii)]
    return StepdownTrace(min(float(radii[j]), r_bonf), side, alpha, *steps)


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
