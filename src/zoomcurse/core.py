"""Selection-adjusted acceptance regions and winner confidence intervals.

The confidence interval for the empirically best candidate inverts a family
of acceptance tests indexed by the candidate mean vector.  For a candidate
value t of the winner's mean, only the least favorable configuration of the
other means matters (``worst_case_theta``); membership then reduces to
comparing the winner's displacement |X_win - t| against the configuration's
active radius.

Two inversion strategies are provided: a grid scan of the acceptance
predicate (union bounds; on a Monte-Carlo bank the same entry point sweeps
the exact breakpoints of the exceed count instead) and a direct root solve
of the endpoint equations (union bounds only).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleAlphaError, InternalCheckError, UnsupportedMethodError
from .sampling import m_statistic, mc_order_index, mc_quantile
from .tails import MonteCarloBound, UnionBound

RADIUS_TOL = 1e-10


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_scores(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("scores must form a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("scores must be finite")
    return x


@dataclass(frozen=True)
class Problem:
    """Observed scores plus the joint noise bound to invert against."""

    x: np.ndarray = field(repr=False)
    bound: UnionBound | MonteCarloBound
    alpha: float
    labels: tuple | None = None

    def __post_init__(self):
        x = _check_scores(self.x)
        if self.bound.m != x.size:
            raise ValueError(f"bound covers {self.bound.m} coordinates, scores have {x.size}")
        _check_alpha(self.alpha)
        if self.labels is not None and len(self.labels) != x.size:
            raise ValueError("labels must match the number of scores")
        object.__setattr__(self, "x", x)

    @property
    def m(self) -> int:
        return self.x.size

    @property
    def winner(self) -> int:
        # ties resolve to the lowest index, matching argmax
        return int(np.argmax(self.x))


@dataclass(frozen=True)
class ActiveRadius:
    """Critical radius of an acceptance test plus its active coordinate set."""

    r: float
    active: tuple
    alpha_used: float


@dataclass(frozen=True)
class WinnerInterval:
    """Confidence interval [t_l, t_u] for the winner's mean."""

    t_l: float
    t_u: float
    x_winner: float
    winner: int
    alpha: float
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (self.t_l <= self.x_winner <= self.t_u):
            raise ValueError("interval must contain the observed winner score")

    @property
    def r_l(self) -> float:
        return self.x_winner - self.t_l

    @property
    def r_u(self) -> float:
        return self.t_u - self.x_winner

    @property
    def width(self) -> float:
        return self.t_u - self.t_l


def _check_gaps(gaps, m: int) -> np.ndarray:
    gaps = np.asarray(gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size != m:
        raise ValueError(f"gaps must be 1-d with {m} entries")
    if np.any(np.isnan(gaps)) or np.any(gaps < 0):
        raise ValueError("gaps must be non-negative")
    if gaps.min() != 0.0:
        raise ValueError("gap vectors are anchored: the leading coordinate has gap 0")
    return gaps


def _union_feasible_radius(bound: UnionBound, q: float) -> float:
    """A radius at which the union bound is certainly <= m * q."""
    try:
        return max(model.isf(q) for model in bound.models)
    except ValueError as exc:
        raise InfeasibleAlphaError(
            f"error budget too small for the marginal tail model: {exc}") from exc


def active_radius(bound, gaps, alpha: float, *, tol: float = RADIUS_TOL) -> ActiveRadius:
    """Smallest radius r whose widened test max(r, gaps/2) passes the joint bound.

    Union bounds are inverted by bisection; Monte-Carlo bounds come directly
    from the conservative order statistic of the per-row max statistic, with
    no iteration.
    """
    alpha = _check_alpha(alpha)
    gaps = _check_gaps(gaps, bound.m)
    if isinstance(bound, MonteCarloBound):
        r = mc_quantile(m_statistic(bound, gaps), 1.0 - alpha)
    else:
        halfgaps = 0.5 * gaps
        hi = _union_feasible_radius(bound, alpha / bound.m)
        lo = 0.0
        # exceedance(max(r, gaps/2)) is non-increasing in r and equals 1 at
        # r = 0 (the anchored coordinate contributes S(0) = 1)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if bound.exceedance(np.maximum(mid, halfgaps)) <= alpha:
                hi = mid
            else:
                lo = mid
        r = hi
    active = np.nonzero(gaps <= 2.0 * r)[0]
    return ActiveRadius(float(r), tuple(int(j) for j in active), alpha)


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


def _worst_case_halfgaps(x, winner: int, t) -> np.ndarray:
    """Half-gaps of worst_case_theta for a column of candidate values t.

    Closed form: gap_j = max(0, 2*(t - X_j)/3) for rivals, 0 for the winner.
    ``t`` may be a scalar or a column vector (broadcast against x).
    """
    half = np.maximum(np.asarray(t) - x, 0.0) / 3.0
    half[..., winner] = 0.0
    return half


def contains(problem: Problem, t: float) -> bool:
    """Membership of t in the winner's confidence interval (closed at the boundary)."""
    i_hat = problem.winner
    theta = worst_case_theta(problem.x, i_hat, t)
    gaps = np.max(theta) - theta
    ar = active_radius(problem.bound, gaps, problem.alpha)
    # the empirical winner is active in its own worst case (gap 0) -- keep
    # the check as a tripwire for the construction above
    if i_hat not in ar.active:
        raise InternalCheckError("the winner must be active in its own worst case")
    return bool(abs(problem.x[i_hat] - t) <= ar.r)


def _mc_accept_threshold(n: int, alpha: float) -> int:
    """Count of strictly-exceeding rows above which a width is inside the radius.

    Matches the mc_quantile order statistic: w <= quantile iff at least
    n - ceil((1-alpha)*n) + 1 rows exceed w strictly.
    """
    return n - mc_order_index(1.0 - alpha, n) + 1


def _merged_pieces(L, U) -> tuple[np.ndarray, np.ndarray]:
    """Per-row unions of the open intervals (L, U), as flat (starts, ends).

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


_MC_CHUNK_ELEMS = 4_000_000


def _mc_sweep(bound: MonteCarloBound, alpha: float, intervals, lo: float, hi: float):
    """Exact acceptance cells of a Monte-Carlo bank on [lo, hi].

    ``intervals(a)`` maps rows of |xi| to the open per-coordinate intervals
    (L, U) on which each row exceeds.  Clipped to [lo, hi] and merged per
    row, their pieces make the exceed count piecewise constant: just right
    of a breakpoint p it is #{starts <= p} - #{ends <= p}.  Returns the
    sorted breakpoints (lo and hi included) and, for each open cell between
    neighbours, whether its count reaches the acceptance threshold.
    """
    a_all = bound.abs_samples
    n, m = a_all.shape
    chunk = max(1, _MC_CHUNK_ELEMS // m)
    starts, ends = [], []
    for s in range(0, n, chunk):
        low, high = intervals(a_all[s:s + chunk])
        piece_starts, piece_ends = _merged_pieces(np.maximum(low, lo), np.minimum(high, hi))
        starts.append(piece_starts)
        ends.append(piece_ends)
    starts = np.sort(np.concatenate(starts))
    ends = np.sort(np.concatenate(ends))
    inside = np.unique(np.concatenate([starts, ends]))
    points = np.concatenate([[lo], inside[(inside > lo) & (inside < hi)], [hi]])
    count = (np.searchsorted(starts, points[:-1], side="right")
             - np.searchsorted(ends, points[:-1], side="right"))
    return points, count >= _mc_accept_threshold(n, alpha)


def _accepted_span(accept) -> tuple[int, int, bool, int]:
    """First and last accepted cell, whether rejected cells lie between them,
    and how many cells were accepted."""
    if not accept.any():
        raise InternalCheckError("no point accepted; t = X_winner must be a member")
    first = int(np.argmax(accept))
    last = accept.size - 1 - int(np.argmax(accept[::-1]))
    return first, last, not bool(accept[first:last + 1].all()), int(np.count_nonzero(accept))


def _bisect_edges(accepted, bad, good, iters: int = 50) -> np.ndarray:
    """Shrink brackets [bad, good] around acceptance boundaries in lockstep.

    ``accepted`` maps a vector of points to a boolean vector, one entry per
    bracket.  Returns the rejected ends, so every edge errs outward.
    """
    for _ in range(iters):
        mid = 0.5 * (bad + good)
        ok = accepted(mid)
        good = np.where(ok, mid, good)
        bad = np.where(ok, bad, mid)
    return bad


def _winner_accept_union(bound, x, winner: int, grid, alpha: float) -> np.ndarray:
    w = np.abs(x[winner] - grid)
    half = _worst_case_halfgaps(x, winner, grid[:, None])
    vals = np.asarray(bound.exceedance(np.maximum(w[:, None], half)))
    # strict: a point exactly on the radius is dropped here and restored by
    # the outward rounding of the caller
    return vals > alpha


def winner_interval_grid(problem: Problem, grid_points: int = 2001, *,
                         refine: bool = False) -> WinnerInterval:
    """Invert the acceptance test on a uniform grid over the widest possible interval.

    Endpoints round outward by one grid step (clamped to the zero-gap radius
    box), so grid resolution can only widen the interval.  With ``refine``
    the two boundary brackets are bisected down to ~1e-12 and the rejected
    ends returned, which stays conservative while removing the one-step
    slack.

    On a Monte-Carlo bound the acceptance set is found exactly instead, by a
    sweep over the breakpoints of the exceed count; ``grid_points`` and
    ``refine`` then do not change the result.  The diagnostics count the
    sweep's cells as ``grid_points``/``accepted_points``, with ``grid_step``
    0 and ``refined`` false.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    x, bound, alpha = problem.x, problem.bound, problem.alpha
    i_hat = problem.winner
    r0 = active_radius(bound, np.zeros(problem.m), alpha).r
    lo, hi = x[i_hat] - r0, x[i_hat] + r0
    if isinstance(bound, MonteCarloBound):
        xw = x[i_hat]
        # row exceeds at t iff t falls in some (X_win - |xi_j|,
        # min(X_win + |xi_j|, X_j + 3 |xi_j|)): the membership condition
        # |xi_j| > max(|X_win - t|, halfgap_j(t)) rewritten as a t-interval
        points, accept = _mc_sweep(
            bound, alpha, lambda a: (xw - a, np.minimum(xw + a, x + 3.0 * a)), lo, hi)
        first, last, bridged, accepted = _accepted_span(accept)
        t_l, t_u, step, refine = points[first], points[last + 1], 0.0, False
    else:
        grid = np.linspace(lo, hi, grid_points)
        step = (hi - lo) / (grid_points - 1)
        accept = _winner_accept_union(bound, x, i_hat, grid, alpha)
        first, last, bridged, accepted = _accepted_span(accept)
        t_l = max(grid[first] - step, lo)
        t_u = min(grid[last] + step, hi)
        inner = np.array([first > 0, last < grid_points - 1])
        if refine and inner.any():
            bad = np.array([grid[first] - step, grid[last] + step])
            good = np.array([grid[first], grid[last]])
            bad[inner] = _bisect_edges(
                lambda t: _winner_accept_union(bound, x, i_hat, t, alpha),
                bad[inner], good[inner])
            t_l, t_u = np.where(inner, bad, (t_l, t_u))
    diagnostics = {
        "grid_points": int(accept.size),
        "grid_step": step,
        "zero_gap_radius": r0,
        "accepted_points": accepted,
        "bridged": bridged,
        "refined": bool(refine),
    }
    return WinnerInterval(float(t_l), float(t_u), float(x[i_hat]), i_hat, alpha,
                          "grid", diagnostics)


def _endpoint_sum(bound: UnionBound, dhat, r, sign):
    """Union bound along the worst case at radius r: sum_j S_j(max(r, (dhat_j +- r)/3)).

    ``sign`` (+1 upper, -1 lower) broadcasts against ``r``.
    """
    r = np.asarray(r, dtype=float)[..., None]
    widths = np.maximum(r, (dhat + np.asarray(sign)[..., None] * r) / 3.0)
    return bound.exceedance(widths)


def winner_interval_root(problem: Problem, *, tol: float = RADIUS_TOL,
                         scan_steps: int = 1024) -> WinnerInterval:
    """Solve the endpoint equations of the winner interval directly (union bounds).

    The upper-radius equation is strictly decreasing and has a unique root.
    The lower-radius equation need not be monotone, so the largest root is
    located by scanning downward from the zero-gap radius in ``scan_steps``
    coarse steps before bracketing.  Both brackets are bisected in lockstep
    to width ``tol`` and their rejected (outer) ends returned, so each
    radius errs wide by at most ``tol``.
    """
    bound = problem.bound
    if not isinstance(bound, UnionBound):
        raise UnsupportedMethodError("root inversion requires a union bound")
    x, alpha = problem.x, problem.alpha
    i_hat = problem.winner
    dhat = x[i_hat] - x
    r0 = active_radius(bound, np.zeros(problem.m), alpha).r
    sign = np.array([-1.0, 1.0])  # lower, upper
    # a radius stays at r0 when the sum there already reaches alpha; both
    # reductions to the zero-gap radius land here exactly
    inner = np.array([float(_endpoint_sum(bound, dhat, r0, -1.0)) - alpha < -1e-12,
                      float(_endpoint_sum(bound, dhat, r0, +1.0)) - alpha < 0.0])
    bad = np.array([r0, r0])
    good = np.zeros(2)
    if inner[0]:
        rs = np.linspace(r0, 0.0, scan_steps + 1)
        vals = np.asarray(_endpoint_sum(bound, dhat, rs, -1.0)) - alpha
        k = int(np.argmax(vals >= 0.0))  # exists: the sum is >= 1 - alpha at r = 0
        bad[0], good[0] = rs[k - 1], rs[k]
    if inner.any():
        iters = int(np.ceil(np.log2(max(r0, tol) / tol)))  # r0 is 0 for a zero-noise tail
        bad[inner] = _bisect_edges(
            lambda r: np.asarray(_endpoint_sum(bound, dhat, r, sign[inner])) >= alpha,
            bad[inner], good[inner], iters)
    r_l, r_u = float(bad[0]), float(bad[1])
    if r_l < r_u - 1e-9:
        raise InternalCheckError("lower radius cannot undercut the upper radius")
    diagnostics = {
        "zero_gap_radius": r0,
        "scan_steps": scan_steps,
        "bonferroni_lower": bool(r_l == r0),
        "bonferroni_upper": bool(r_u == r0),
    }
    return WinnerInterval(float(x[i_hat] - r_l), float(x[i_hat] + r_u), float(x[i_hat]),
                          i_hat, alpha, "root", diagnostics)
