"""Reference forms that the tests compare the package against.

Direct, unoptimized statements of the least favorable configurations and
of the acceptance tests, basic and sigma-scaled, the union bound summed
model by model, the dense sort merge of per-row Monte-Carlo exceed
intervals and a canonical order for comparing merged pieces, the two-scan
forms of the Monte-Carlo lower pieces and reaches that the fused block scan
replaced, the three-sort breakpoint sweep that counting by rank replaced,
and the union radius search that asks
for one step's cells per exceedance call, which the look-ahead search
replaced, and the bisection that solved ``active_radius`` under a union
bound before that search took it over.  ``stepdown_walk`` is the
sequential step-down walk, one rival per step, that the array passes of
``stepdown._walk`` replaced.  ``bank_exceedance`` is a bank's
joint exceedance counted row by row, which no solver asks a bank for.
``CountingBound`` is a stack bound that is not a ``UnionBound``, and
``blocked_bank`` a bank over an array, read in blocks of a chosen size.
``active_set`` is the active set that ``ActiveRadius`` no longer carries;
``accepted_projections`` projects the accepted mean vectors of a grid onto
each coordinate, and ``near_winner_pieces`` is the two-piece merge that
``near_winner_interval`` replaced.
``sweep_configs`` builds the cells of the acceptance sweep, for its test and
for ``tools/sweep_digest.py``.  The package itself uses none of them.
"""
import math
from types import SimpleNamespace

import numpy as np

from zoomcurse.core import (MAX_SEARCH_STEPS, RADIUS_TOL, _check_scores, _mc_accept_threshold,
                            _step_widths, active_radius)
from zoomcurse.errors import InternalCheckError
from zoomcurse.scaled import _check_sigma
from zoomcurse.simulate import SimConfig
from zoomcurse.stepdown import StepdownTrace
from zoomcurse.tails import GaussianTail, UnionBound
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
    r = active_radius(problem.bound, gaps, problem.alpha).r
    # the empirical winner is active in its own worst case (gap 0)
    if i_hat not in active_set(gaps, r):
        raise InternalCheckError("the winner must be active in its own worst case")
    return bool(abs(problem.x[i_hat] - t) <= r)


def active_set(gaps, r: float) -> tuple:
    """Coordinates whose width max(r, gaps_j / 2) is the radius itself:
    {j : gaps_j <= 2 r}, the active set of the test at radius r."""
    return tuple(np.flatnonzero(np.asarray(gaps, dtype=float) <= 2.0 * r).tolist())


def accepted_projections(x, alpha: float, g_win: int, g_other: int):
    """Project the confidence region's direct definition onto every coordinate.

    Enumerates mean vectors on a box grid (g_win points along the winner's
    axis, g_other along each other one), finds each one's active radius
    under the standard Gaussian union bound by lockstep bisection, and keeps
    those whose acceptance box contains the scores x.  Returns, per
    coordinate, the least and the greatest surviving value and the grid
    step along its axis.  The grid covers every accepted mean vector: the
    top mean is within r0 of its score, and a mean below 2 X_j - max(theta)
    cannot accept coordinate j.
    """
    x = _check_scores(x)
    m = x.size
    i_hat = int(np.argmax(x))
    gauss = GaussianTail(1.0)
    bound = UnionBound((gauss,) * m)
    r0 = gauss.isf(alpha / m)
    axes = []
    for j in range(m):
        if j == i_hat:
            axes.append(np.linspace(x[i_hat] - r0, x[i_hat] + r0, g_win))
        else:
            lo = 2.0 * x[j] - x[i_hat] - r0 - 0.5
            axes.append(np.linspace(lo, x[i_hat] + r0 + 0.5, g_other))
    mesh = np.meshgrid(*axes, indexing="ij")
    theta = np.stack([a.ravel() for a in mesh], axis=1)
    gaps = theta.max(axis=1, keepdims=True) - theta
    lo = np.zeros(theta.shape[0])
    hi = np.full(theta.shape[0], r0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = bound.exceedance(np.maximum(mid[:, None], gaps / 2.0)) <= alpha
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    width = np.maximum(hi[:, None], gaps / 2.0)
    member = np.all(np.abs(x[None, :] - theta) <= width, axis=1)
    if not member.any():
        raise InternalCheckError("no mean vector on the grid accepts the scores")
    accepted = theta[member]
    steps = np.array([axis[1] - axis[0] for axis in axes])
    return accepted.min(axis=0), accepted.max(axis=0), steps


def near_winner_pieces(x, index: int, winner: int, r_l: float, r_u: float) -> tuple:
    """The near-winner region of candidate ``index`` as two pieces merged:
    the winner-tracking piece, when non-empty, and the far piece, sorted,
    each piece that starts inside the last kept one merged into it."""
    deficit = float(x[winner] - x[index])
    pieces = []
    lo1 = max(x[winner] - 3.0 * r_l, x[index] - r_l)
    hi1 = min(x[winner] + r_u, x[index] + r_l)
    if lo1 <= hi1:
        pieces.append((float(lo1), float(hi1)))
    lo2 = x[index] - deficit - r_u
    hi2 = x[index] + (deficit + r_u) / 3.0
    pieces.append((float(lo2), float(hi2)))
    pieces.sort()
    merged = [pieces[0]]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


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


def active_radius_scaled(bound, theta, sigma, alpha: float) -> tuple:
    """Standardized active radius of the scaled test at mean vector theta,
    and its active set.

    Solves S(max(r, d_j)) <= alpha for the scaled gaps
    d_j = (max theta - theta_j) / (sigma_j + sigma_i*); the active set is
    {j : d_j <= r}.  Returns (r, active set).
    """
    theta = _check_scores(theta)
    sigma = _check_sigma(sigma, theta.size)
    i_star = int(np.argmax(theta))
    gaps = theta[i_star] - theta
    d = gaps / (sigma + sigma[i_star])
    r = active_radius(bound, 2.0 * d, alpha).r
    return r, active_set(2.0 * d, r)


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
    """The starts above 0 and the ends of flat merged pieces, each sorted:
    what ``core._mc_scan`` gives the sweep, in one canonical order, so two
    merges that list their rows differently compare, and so does one that
    lists the zero starts with one that leaves them out."""
    return np.sort(starts[starts > 0.0]), np.sort(ends)


def merged_pieces(L, U) -> tuple[np.ndarray, np.ndarray]:
    """Per-row unions of the open intervals (L, U) of (rows, m) arrays, as
    flat (starts, ends), by a stable argsort of every row's starts.

    Intervals within one row are merged first so each row counts at most
    once; touching open intervals stay separate: (a,b) and (b,c) omit b.
    """
    n, m = L.shape
    empty = ~(U > L)
    l_key = np.where(empty, np.inf, L)
    u_val = np.where(empty, -np.inf, U)
    order = np.argsort(l_key, axis=1, kind="stable")
    ls = np.take_along_axis(l_key, order, axis=1)
    us = np.take_along_axis(u_val, order, axis=1)
    umax = np.maximum.accumulate(us, axis=1)
    new = np.isfinite(ls)
    if m > 1:
        new[:, 1:] &= ls[:, 1:] >= umax[:, :-1]
    rows, cols = np.nonzero(new)
    if rows.size == 0:
        return np.empty(0), np.empty(0)
    last = np.empty(rows.size, dtype=bool)
    last[:-1] = rows[1:] != rows[:-1]
    last[-1] = True
    next_col = np.concatenate([cols[1:], [1]])
    return ls[rows, cols], umax[rows, np.where(last, m - 1, next_col - 1)]


def mc_sweep_sorted(n: int, alpha: float, starts, ends, lo: float, hi: float):
    """``core._mc_sweep`` by three sorts, on any window [lo, hi] and with
    every piece's start given, those at or below lo too (``_mc_sweep`` is
    this at lo = 0 with the zero starts left out): the starts, the ends and
    their union, whose distinct values inside (lo, hi) are the
    breakpoints, with each breakpoint's count #{starts <= p} - #{ends <= p}
    binary-searched in both sorted arrays.  Returns the breakpoints (lo and
    hi included) and whether each open cell between neighbours reaches the
    threshold."""
    starts, ends = np.sort(starts), np.sort(ends)
    inside = np.unique(np.concatenate([starts, ends]))
    points = np.concatenate([[lo], inside[(inside > lo) & (inside < hi)], [hi]])
    count = (np.searchsorted(starts, points[:-1], side="right")
             - np.searchsorted(ends, points[:-1], side="right"))
    return points, count >= _mc_accept_threshold(n, alpha)


# Growth passes of ``lower_pieces_two_scans`` before a row goes to the sort.
MERGE_PASSES = 16


def blocked_bank(a, rows: int):
    """The bank protocol that ``core._mc_scan`` reads (``blocks()``,
    ``row_max`` and ``row_arg``) over the |xi| rows ``a``, in blocks of
    ``rows`` rows."""
    return SimpleNamespace(row_max=a.max(axis=1), row_arg=a.argmax(axis=1),
                           blocks=lambda: (a[s:s + rows] for s in range(0, len(a), rows)))


def lower_pieces_two_scans(a, d, r0):
    """Merged lower exceed pieces of |xi| rows on [0, r0], from L = d - 3|xi|
    and U = min(|xi|, r0) formed for every row: the seed E = max U over
    L <= 0 and the last end max U over U > L of each row, up to MERGE_PASSES
    passes E <- max U over L < E for the rows whose last end lies past E,
    and ``merged_pieces`` for every row the passes leave unsettled."""
    L = d - 3.0 * a
    U = np.minimum(a, r0)
    E = np.max(U * (L <= 0.0), axis=1)
    last_end = np.max(U * (U > L), axis=1)
    live = np.flatnonzero((E > 0.0) & (last_end > E))
    for _ in range(MERGE_PASSES):
        if live.size == 0:
            break
        grown = np.max(U[live] * (L[live] < E[live, None]), axis=1)
        keep = (grown > E[live]) & (last_end[live] > grown)
        E[live] = grown
        live = live[keep]
    single = (E > 0.0) & (last_end <= E)
    starts, ends = merged_pieces(np.maximum(L[~single], 0.0), U[~single])
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


def stepdown_walk(gaps, model, alpha: float, side: str) -> StepdownTrace:
    """The step-down trace walked one sorted gap at a time.

    Each step reads its radius S_inv(budget / (m - j)) and, unless it stops,
    subtracts its refund from the budget: S((gap - radius) / 3) below the
    anchor (stop once the gap is within 4 radii), S((gap + S_inv(alpha)) / 3)
    above it (within 2 radii).  A share the tail model refuses has exhausted
    the budget: that step stops at the Bonferroni radius S_inv(alpha / m),
    which also clamps the result.  Each radius and refund is read through a
    one-entry array, which gives the digits of every entry of a longer one.
    """
    g = np.asarray(gaps, dtype=float)
    order = np.argsort(-g, kind="stable")
    g, m = g[order], g.size
    lower = side == "lower"
    r_bonf, r_base = model.isf(alpha / m), model.isf(alpha)
    budget, steps = alpha, []
    for j in range(m):
        try:
            r = float(model.isf(np.array([budget / (m - j)]))[0])
        except ValueError:
            r, stop = r_bonf, True
        else:
            stop = g[j] <= (4.0 if lower else 2.0) * r
        steps.append((order[j], g[j], budget, r))
        if stop:
            # columns: coordinates, gaps, budgets, radii
            return StepdownTrace(min(r, r_bonf), side, alpha, *map(np.array, zip(*steps)))
        refund = ((g[j] - r) if lower else (g[j] + r_base)) / 3.0
        budget -= float(model.sf(np.array([refund]))[0])
    raise InternalCheckError("step-down must stop at the zero gap")
