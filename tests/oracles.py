"""Reference forms that the tests compare the package against.

Direct, unoptimized statements of the least favorable configurations and
of the acceptance tests, basic and sigma-scaled, the union bound summed
model by model, a canonical order for comparing merged Monte-Carlo exceed
pieces, the two-scan forms of the Monte-Carlo lower pieces and reaches
that the fused block scan replaced, and the union radius search that asks
for one step's cells per exceedance call, which the look-ahead search
replaced, and the bisection that solved ``active_radius`` under a union
bound before that search took it over.  ``bank_exceedance`` is a bank's
joint exceedance counted row by row, which no solver asks a bank for.
``CountingBound`` is a stack bound that is not a ``UnionBound``.
``sweep_configs`` builds the cells of the acceptance sweep, for its test and
for ``tools/sweep_digest.py``.  The package itself uses none of them.
"""
import math

import numpy as np

from zoomcurse.core import (MAX_MERGE_PASSES, MAX_SEARCH_STEPS, RADIUS_TOL, ActiveRadius,
                            _check_scores, _merged_pieces, _step_widths, active_radius)
from zoomcurse.errors import InternalCheckError
from zoomcurse.scaled import _check_sigma
from zoomcurse.simulate import SimConfig
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


def scaled_worst_case(x, winner: int, t, t_star, i_star: int, sigma) -> np.ndarray:
    """Least favorable means given the winner's value t and a population
    winner (i_star, t_star).

    Rivals rise to min((X_j (sigma_j + sigma_i*) + t* sigma_j) /
    (2 sigma_j + sigma_i*), t*), the point where the selection width and the
    interval width bind simultaneously.  t and t_star broadcast; the means
    run along the last axis.
    """
    x = _check_scores(x)
    sigma = _check_sigma(sigma, x.size)
    if not 0 <= winner < x.size:
        raise ValueError(f"winner index {winner} out of range")
    if not 0 <= i_star < x.size:
        raise ValueError(f"i_star index {i_star} out of range")
    t, t_star = np.broadcast_arrays(np.asarray(t, dtype=float),
                                    np.asarray(t_star, dtype=float))
    if np.any(t_star < t):
        raise ValueError("t_star must not fall below t")
    if i_star == winner and np.any(t_star != t):
        raise ValueError("when i_star is the winner, t_star must equal t")
    s_star = sigma[i_star]
    top = t_star[..., None]
    theta = np.minimum((x * (sigma + s_star) + top * sigma) / (2.0 * sigma + s_star), top)
    theta[..., winner] = t
    theta[..., i_star] = t_star
    return theta


def scaled_sums(problem, t, t_star, i_star: int):
    """Union bound of the scaled test at the least favorable means of (t, i*, t*).

    The widths are max(r_req, d_j) with the scaled gaps d_j of
    active_radius_scaled and r_req the largest standardized displacement
    |X_j - theta_j| / sigma_j among the coordinates pinned at t or t*.  A
    rival below t* sits where its displacement equals its gap, so it needs
    no radius.  t is accepted when some (i*, t*) gives a sum above alpha.
    """
    x, sigma, win = problem.base.x, problem.sigma, problem.winner
    theta = scaled_worst_case(x, win, t, t_star, i_star, sigma)
    top = np.asarray(t_star, dtype=float)[..., None]
    gaps = (top - theta) / (sigma + sigma[i_star])
    pinned = x >= top
    pinned[..., win] = pinned[..., i_star] = True
    r_req = np.where(pinned, np.abs(x - theta) / sigma, 0.0).max(axis=-1)
    return problem.base.bound.exceedance(np.maximum(r_req[..., None], gaps))


def sequential_exceedance(bound, widths):
    """Union bound summed one marginal model at a time, left to right."""
    w = np.asarray(widths, dtype=float)
    total = sum(np.asarray(model.sf(w[..., j])) for j, model in enumerate(bound.models))
    return np.minimum(total, 1.0)


def bank_exceedance(bound, widths) -> float:
    """Fraction of a bank's rows with some |xi_j| strictly above widths_j."""
    w = np.asarray(widths, dtype=float)
    return float(np.mean(np.any(bound.abs_samples > w, axis=1)))


class CountingBound:
    """A stack bound of another class than ``UnionBound``: it wraps a union
    bound, forwards ``m``, ``exceedance``, ``feasible_radius`` and
    ``exchangeable``, keeps its own ``_r0`` memo, and counts its exceedance
    calls and the width rows they bound."""

    def __init__(self, bound):
        self.bound, self.calls, self.rows, self._r0 = bound, 0, 0, {}
        self.m, self.exchangeable = bound.m, bound.exchangeable

    def feasible_radius(self, alpha: float) -> float:
        return self.bound.feasible_radius(alpha)

    def exceedance(self, widths):
        self.calls += 1
        self.rows += np.size(widths) // self.m
        return self.bound.exceedance(widths)


def sorted_pieces(starts, ends):
    """Flat (starts, ends) of merged pieces in one canonical order, by start
    then end, so two merges that list their rows differently compare."""
    order = np.lexsort((ends, starts))
    return starts[order], ends[order]


def lower_pieces_two_scans(a, d, r0):
    """Merged lower exceed pieces of |xi| rows on [0, r0], from L = d - 3|xi|
    and U = min(|xi|, r0) formed for every row: the seed E = max U over
    L <= 0 and the last end max U over U > L of each row, max passes for the
    rows whose last end lies past E, the sort merge for the rest."""
    L = d - 3.0 * a
    U = np.minimum(a, r0)
    E = np.max(U * (L <= 0.0), axis=1)
    last_end = np.max(U * (U > L), axis=1)
    live = np.flatnonzero((E > 0.0) & (last_end > E))
    for _ in range(MAX_MERGE_PASSES):
        if live.size == 0:
            break
        grown = np.max(U[live] * (L[live] < E[live, None]), axis=1)
        keep = (grown > E[live]) & (last_end[live] > grown)
        E[live] = grown
        live = live[keep]
    single = (E > 0.0) & (last_end <= E)
    starts, ends = _merged_pieces(np.maximum(L[~single], 0.0), U[~single])
    return (np.concatenate([np.zeros(np.count_nonzero(single)), starts]),
            np.concatenate([E[single], ends]))


def mc_reach_scan(a, d):
    """Per row, the radius above the anchor up to which the row exceeds:
    max over j of min(|xi_j|, 3 |xi_j| - d_j), in a scan of its own."""
    return np.minimum(a, 3.0 * a - d).max(axis=1)


def radius_search_one_step(lower: bool, hi: float):
    """Certified depth-first search for the largest accepted radius in [0, hi],
    asking for one step's halves at a time.

    Each step yields the halves of the current cell whose bound is needed
    (both below the anchor, the upper one above it) and is sent, for each,
    whether that bound exceeds alpha.  The upper half is searched first; a
    dropped half is gone, a kept lower half waits on a stack.  Returns the
    upper end of the first kept cell of width <= RADIUS_TOL, or of the
    current cell after MAX_SEARCH_STEPS steps.
    """
    a, b = 0.0, hi
    below = []
    for _ in range(MAX_SEARCH_STEPS):
        if b - a <= RADIUS_TOL:
            break
        mid = 0.5 * (a + b)
        keep = yield ((a, mid), (mid, b)) if lower else ((mid, b),)
        keep_low, keep_high = keep if lower else (True, keep[0])
        if keep_low:
            below.append((a, mid))
        if keep_high:
            a = mid
        elif below:
            a, b = below.pop()
        else:
            raise InternalCheckError("the cell holding r = 0 was rejected")
    return b


def union_radii_one_step(bound, d, alpha: float, hi: float, upper: bool):
    """``core._union_radii`` with one exceedance call per search step: the
    searches of both sides run in lockstep, each step's cells stacked lower
    side first.  Returns the radii and the numbers of cells bounded and kept."""
    sides = (True, False)[:1 + upper]
    at_hi = bound.exceedance(_step_widths(d, {True: [(hi, hi)],
                                              False: [(hi, hi)] if upper else []}))
    radii = [hi] * len(sides)
    searches = {i: radius_search_one_step(lower, hi) for i, lower in enumerate(sides)
                if at_hi[i] - alpha < (-1e-12 if lower else 0.0)}
    sent = dict.fromkeys(searches)
    bounded = kept = 0
    while searches:
        cells = {}
        for i, search in list(searches.items()):
            try:
                cells[i] = search.send(sent[i])
            except StopIteration as stop:
                radii[i] = stop.value
                del searches[i]
        if cells:
            rows = _step_widths(d, {True: cells.get(0, ()), False: cells.get(1, ())})
            keep = (np.asarray(bound.exceedance(rows)) > alpha).tolist()
            bounded += len(keep)
            kept += sum(keep)
            answers = iter(keep)
            sent = {i: [next(answers) for _ in cells[i]] for i in cells}
    return radii, bounded, kept


SWEEP_METHODS = ("zoom_grid", "zoom_stepdown", "bonferroni", "uncorrected",
                 "topk:3", "identity_set")
SWEEP_SEED = 20260815


def sweep_configs() -> dict:
    """The 12 cells of the acceptance sweep (c05), keyed (m, winners, rho).

    {m in 10, 100} x {winners 1, m/2, m} x {rho 0, 0.5}.  Separation is 8
    detectability units for a lone winner and 4 otherwise, 2000 trials per
    cell, one shared seed.  ``tools/sweep_digest.py`` hashes their reports.
    """
    return {(m, m_w, rho): SimConfig(m=m, m_winners=m_w, gap_mult=8.0 if m_w == 1 else 4.0,
                                     rho=rho, alpha=0.1, trials=2000, seed=SWEEP_SEED,
                                     methods=SWEEP_METHODS, n_mc=100_000, grid_points=2001)
            for m in (10, 100) for m_w in (1, m // 2, m) for rho in (0.0, 0.5)}


def active_radius_bisection(bound, gaps, alpha: float) -> float:
    """The radius of ``active_radius`` under a union bound, by plain bisection.

    exceedance(max(r, gaps/2)) is non-increasing in r and equals 1 at r = 0,
    so [0, hi] with hi the largest marginal S_inv(alpha / m) is halved until
    it is no wider than RADIUS_TOL, keeping the upper half while the sum at
    the midpoint exceeds alpha.  Returns the upper end.
    """
    halfgaps = 0.5 * np.asarray(gaps, dtype=float)
    hi = bound.feasible_radius(alpha)
    lo = 0.0
    while hi - lo > RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if bound.exceedance(np.maximum(mid, halfgaps)) <= alpha:
            hi = mid
        else:
            lo = mid
    return hi
