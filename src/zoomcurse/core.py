"""Selection-adjusted acceptance regions and winner confidence intervals.

The confidence interval for the empirically best candidate inverts a family
of acceptance tests indexed by the candidate mean vector.  For a candidate
value t of the winner's mean only the least favorable configuration of the
other means matters: every rival mean rises to min((2 X_j + t)/3, t).
Membership then reduces to comparing the winner's displacement |X_win - t|
against that configuration's active radius.

The inversion reduces to two endpoint equations in the radius r below and
above the anchor, and one function (``_radii``) solves them for the winner
interval and, anchored at the k-th score, for the top-k boxes.  The solver
reads what a bound can do, not its class (the two kinds are listed in
``tails``): a bound with ``row_max`` is a bank of noise draws, and any
other is a stack bound, whose ``exceedance`` bounds a stack of width rows.
Each kind has a lower side that is searched and an upper side that is
monotone.
Both radii lie in [0, r0], r0 the zero-gap radius, which ``active_radius``
solves once per bound and level and keeps in the bound's ``_r0`` memo: the
simulation's thousands of intervals on one bound share one solve, and no
result depends on what the memo holds.  Under a stack bound every radius
is the end of one certified search over [0, hi] (``_radius_search``): a
cell search on the lower side and a bisection on the upper side.  One
function (``_union_radii``) runs the searches of the sides it is given on
one test's width rows: the winner and top-k radii on the basic test, and
``active_radius``'s, r0 included, as the upper side alone of the active
test max(r, gaps/2).  One driver (``_side_radii``) runs every search,
keyed by side, in lockstep, after one rule that keeps a side whose sum at
hi reaches alpha at hi: ``_union_radii``'s and the sigma-scaled ones
(``scaled``).  A search that needs a cell's bound asks ahead of need:
first for a shallow dyadic subtree, later for the path it is predicted to
take, toward a point interpolated in log(bound) - log(alpha) between its
cell's ends, for a number of levels that doubles while paths are used to
the end and shrinks after a miss.  Both sides' cells go to one
exceedance call on a stack of width rows built per side from columns of
cell ends (``_step_widths``), at most 2 ** 14 widths (rows x m) per side
past a step's own cells, so at m = 10000 each call holds one step, as
without look-ahead.  The search
then replays its steps from the bounds it holds until one needs a cell it
lacks.  Each decision reads the bound of the very cell a one-step search
asks for, and a row's bound does not depend on the rows beside it, so no
radius or count of cells depends on the look-ahead; a wrong prediction
costs rows, not results.  On a bank r0 is one partition of the
bank's row maxima, stored when the bank is built, and each call reads the
bank in one pass (``_mc_scan``), giving every row's exceed pieces below
the anchor and its reach above it.  The lower exceed count is piecewise
constant in r and a sweep over its breakpoints gives it exactly
(``_mc_sweep``).  Above the anchor each row exceeds up to its own reach,
so the upper radius is an order statistic of the reaches.  The scan
settles most rows exactly from their stored maximum (``row_max``) and
its column (``row_arg``), by three rules stated and proved there, and
reads in full only the rows left.  One fused pass per block gives
their pieces and reaches; most of them exceed on one piece from r = 0 to
the largest end among their intervals that start at or below 0, which
the pass settles from the row maxima alone (``_lower_pieces``).  Each of
the few rows whose intervals reach past it is gathered as that piece plus
its intervals that start above 0, and the gathered rows of every block
are merged by one sort per call (``_merge_by_row``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalCheckError, UnsupportedMethodError
from .sampling import m_statistic, mc_order_index, mc_quantile

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
    """Observed scores plus the joint noise bound to invert against: a
    stack bound such as ``UnionBound`` or a bank such as ``MonteCarloBound``
    (the two kinds are listed in ``tails``)."""

    x: np.ndarray = field(repr=False)
    bound: object
    alpha: float

    def __post_init__(self):
        x = _check_scores(self.x)
        if self.bound.m != x.size:
            raise ValueError(f"bound covers {self.bound.m} coordinates, scores have {x.size}")
        _check_alpha(self.alpha)
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
    """Critical radius r of an acceptance test at one gap vector."""

    r: float


@dataclass(frozen=True)
class WinnerInterval:
    """Confidence interval [t_l, t_u] = [x_winner - r_l, x_winner + r_u] for
    the winner's mean; the radii are the solver's, the endpoints follow."""

    r_l: float
    r_u: float
    x_winner: float
    winner: int
    alpha: float
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)
    t_l: float = field(init=False)
    t_u: float = field(init=False)

    def __post_init__(self):
        if not (self.r_l >= 0.0 and self.r_u >= 0.0):
            raise InternalCheckError(f"radii must be non-negative, got {self.r_l}, {self.r_u}")
        object.__setattr__(self, "t_l", self.x_winner - self.r_l)
        object.__setattr__(self, "t_u", self.x_winner + self.r_u)

    @property
    def width(self) -> float:
        return self.t_u - self.t_l


def _check_gaps(gaps, m: int) -> np.ndarray:
    gaps = np.asarray(gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size != m:
        raise ValueError(f"gaps must be 1-d with {m} entries")
    if np.any(np.isnan(gaps)) or np.any(gaps < 0):
        raise ValueError("gaps must be non-negative")
    if gaps.size == 0 or gaps.min() != 0.0:
        raise ValueError("gap vectors are anchored: the leading coordinate has gap 0")
    return gaps


def _check_grid_points(grid_points: int) -> None:
    """The one rule left of the retired grid: at least 3 points."""
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")


def _solve_radius(bound, gaps, alpha: float) -> float:
    """The radius of ``active_radius``, solved afresh.

    Under a stack bound, exceedance(max(r, gaps/2)) is non-increasing in r
    and equals 1 at r = 0 (the anchored coordinate contributes S(0) = 1),
    so the radius is the upper side alone of ``_union_radii`` on [0, hi],
    hi the bound's ``feasible_radius``, with the active test's geometry
    k = 2 and s = 0: ``_cell_widths`` gives max(a, gaps/2) there (up to the
    sign of a zero width, which no tail tells apart), a cell's bound being
    the sum at its lower end.  That search makes the bisection's midpoints,
    decisions and stop, bit for bit, but for the rule of every stack-bound
    search that a side whose sum at hi reaches alpha stays at hi.  hi is
    where the sum is at most alpha up to rounding, so the two differ only
    where a midpoint's computed sum is at most alpha while the sum at hi is
    at least alpha; the rule then keeps hi, the wider radius.
    """
    if hasattr(bound, "row_max"):
        return mc_quantile(m_statistic(bound, gaps), 1.0 - alpha)
    hi = bound.feasible_radius(alpha)
    return _union_radii(bound, gaps, alpha, hi, (False,), 2.0, 0.0)[0][0]


def active_radius(bound, gaps, alpha: float) -> ActiveRadius:
    """Smallest radius r whose widened test max(r, gaps/2) passes the joint bound.

    Stack bounds are inverted by the certified search of the other stack
    radii: the upper side of ``_union_radii`` on the active test's width
    rows (a bisection that looks ahead); banks come directly from the
    conservative order statistic of the per-row max statistic, with no
    iteration.  The zero-gap radius r0, which every interval of a bound at
    a level starts from, is solved the same way, once per bound and level:
    the bound keeps it in its ``_r0`` memo, and later zero-gap calls read it
    back.  A level that raises is not stored.  The bounds are immutable and
    the stored value is the one a fresh solve returns, so no result depends
    on what the memo holds.
    """
    alpha = _check_alpha(alpha)
    gaps = _check_gaps(gaps, bound.m)
    if gaps.any():
        r = _solve_radius(bound, gaps, alpha)
    else:
        r = bound._r0.get(alpha)
        if r is None:
            r = bound._r0[alpha] = _solve_radius(bound, gaps, alpha)
    return ActiveRadius(float(r))


def _mc_accept_threshold(n: int, alpha: float) -> int:
    """Count of strictly-exceeding rows above which a width is inside the radius.

    Matches the mc_quantile order statistic: w <= quantile iff at least
    n - ceil((1-alpha)*n) + 1 rows exceed w strictly.
    """
    return n - mc_order_index(1.0 - alpha, n) + 1


def _merge_by_row(rows, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Per-row unions of non-empty open intervals given as flat (row, start,
    end) triples, as flat (starts, ends).

    The triples are sorted by (row, start); a piece starts where a start
    reaches the running maximum of the row's earlier ends, so touching open
    intervals stay separate ((a,b) and (b,c) omit b), and ends at that
    maximum.  The maximum is taken on integer ranks of the ends, each row's
    offset above every rank of the rows before it, so it is exact and one
    accumulate serves every row.
    """
    order = np.lexsort((starts, rows))
    rows, starts = rows[order], starts[order]
    values, rank = np.unique(ends[order], return_inverse=True)
    offset = rows * values.size
    top = values[np.maximum.accumulate(rank + offset) - offset]  # the row's largest end so far
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (starts[1:] >= top[:-1])
    return starts[new], np.concatenate([top[:-1][new[1:]], top[-1:]])


def _lower_pieces(a, row_max, d, r0: float, upper: bool):
    """Exceed pieces below the anchor, on [0, r0], of a block of |xi| rows
    and, if ``upper``, the rows' reaches above it, from one scan of the block.

    Row i exceeds at radius r below the anchor on the open intervals
    (max(L_j, 0), U_j) with L = d - 3 |xi| and U = min(|xi|, r0).  The block
    is read once: with t = 3 |xi|, the seed of the piece at 0 is
    E = min(max |xi_j| over t_j >= d_j, r0), the largest U over the
    intervals with L <= 0 and so their union (0, E) (d - t <= 0 iff t >= d,
    since a rounded difference keeps its sign, and min with r0 commutes with
    max), and the reach is max min(|xi_j|, t_j - d_j), the radius above the
    anchor up to which the row exceeds (``_radii``).  If E > 0 equals
    min(row_max, r0), the largest U of all, every non-empty interval ends by
    E; each starts below its end, so inside (0, E), and the row is exactly
    the piece (0, E).  Only the others are gathered: each gives its seed
    (0, E) if E > 0 and its non-empty intervals with L > 0, as (row, start,
    end) triples for ``_merge_by_row``, L compared as rounded.  L and U are
    formed in place over the block: L from t (fl(d - t) = -fl(t - d),
    rounding being symmetric), U in the scratch buffer.  Returns (E of the
    one-piece rows, rows, starts, ends, reach), rows indexing the block and
    reach None unless ``upper``.
    """
    t = np.multiply(a, 3.0)
    scratch = np.multiply(a, t >= d)  # |xi| >= 0, so a masked-out entry is 0
    E = np.minimum(scratch.max(axis=1), r0)
    reach = None
    if upper:
        np.subtract(t, d, out=t)
        reach = np.minimum(a, t, out=scratch).max(axis=1)
    gather = (E <= 0.0) | (E != np.minimum(row_max, r0))
    rest = np.flatnonzero(gather)
    if rest.size == 0:  # no gathered row, nothing more to form
        return E, rest, E[:0], E[:0], reach
    L = np.negative(t, out=t) if upper else np.subtract(d, t, out=t)
    U = np.minimum(a, r0, out=scratch)
    i, j = np.nonzero((L > 0.0) & (U > L) & gather[:, None])
    seeded = rest[E[rest] > 0.0]
    return (E[~gather], np.concatenate([seeded, i]),
            np.concatenate([np.zeros(seeded.size), L[i, j]]),
            np.concatenate([E[seeded], U[i, j]]), reach)


def _mc_scan(bound, d, r0: float, k: int | None = None):
    """Flat lower pieces on [0, r0] of every bank row and, if ``k`` is given,
    the k-th smallest reach, from one pass over the bank.

    Rows are first settled from the stored row maximum a* = ``row_max``,
    its column's gap d* = d[``row_arg``] and t* = 3 a*, as rounded:
    - lower side: a row with t* >= d* is the piece (0, min(a*, r0)), or no
      piece if that is empty, as ``_lower_pieces`` gives it, since its
      masked maximum E is a*;
    - upper side, settled: LB = min(a*, t* - d*) is the reach's own term of
      column j*, so LB <= reach <= a*, and a row with LB = a* has reach a*;
    - upper side, skipped: with T the k-th smallest LB, at least n - k + 1
      rows have LB >= T and so reach T or more, so the k-th smallest reach
      is at least T and a row with a* < T lies below it.  With c rows
      skipped it is the (k - c)-th smallest reach of the others (c < k, as
      each skipped row has LB <= a* < T).
    The bank is read block by block, and ``_lower_pieces`` runs (with those
    rows' ``row_max``) only on the rows of each block that no rule settles,
    gathered.  The triples of the gathered rows of every block are merged
    once, after the pass (``_merge_by_row``).  Returns (starts, ends,
    radius), radius None unless ``k``.
    """
    a_top = bound.row_max
    t_top = np.multiply(a_top, 3.0)
    d_top = d[bound.row_arg]
    scan = t_top < d_top  # the rows the lower rule does not settle
    if k is not None:
        lb = np.minimum(a_top, np.subtract(t_top, d_top, out=d_top), out=d_top)
        skip = a_top < np.partition(lb, k - 1)[k - 1]
        scan |= (lb != a_top) & ~skip
        reach = a_top.copy()  # the reach of every row the upper rules settle
    parts, stop = [], 0
    for a in bound.blocks():
        start, stop = stop, stop + a.shape[0]
        rows = start + np.flatnonzero(scan[start:stop])
        if rows.size == 0:
            continue
        single, gathered, starts, ends, r = _lower_pieces(a[rows - start], a_top[rows], d, r0,
                                                          k is not None)
        parts.append((single, rows[gathered], starts, ends))
        if k is not None:
            reach[rows] = r
    E = np.minimum(a_top[~scan], r0)  # the rows settled without a read
    parts.append((E[E > 0.0], np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)))
    single, rows, starts, ends = zip(*parts)
    starts, ends = _merge_by_row(*map(np.concatenate, (rows, starts, ends)))
    radius = None
    if k is not None:
        c = int(np.count_nonzero(skip))
        if not c < k:
            raise InternalCheckError(f"{c} rows skipped below the order statistic {k}")
        others = reach[~skip] if c else reach
        radius = float(np.partition(others, k - c - 1)[k - c - 1])
    return (np.concatenate([np.zeros(sum(map(len, single))), starts]),
            np.concatenate([*single, ends]), radius)


def _mc_sweep(n: int, alpha: float, starts, ends, lo: float, hi: float):
    """Exact acceptance cells of a bank of n rows on [lo, hi].

    ``starts`` and ``ends`` are the flat open pieces, merged per row and
    lying in [lo, hi], on which each row exceeds (``_mc_scan``).  Since each
    row counts once, the exceed count is piecewise constant: just right of a
    breakpoint p it is #{starts <= p} - #{ends <= p}.  Returns the sorted breakpoints (lo
    and hi included) and, for each open cell between neighbours, whether
    its count reaches the acceptance threshold.
    """
    starts, ends = np.sort(starts), np.sort(ends)
    inside = np.unique(np.concatenate([starts, ends]))
    points = np.concatenate([[lo], inside[(inside > lo) & (inside < hi)], [hi]])
    count = (np.searchsorted(starts, points[:-1], side="right")
             - np.searchsorted(ends, points[:-1], side="right"))
    return points, count >= _mc_accept_threshold(n, alpha)


# Steps allowed per radius search.  A sum lying within rounding error of
# alpha over a long range keeps cells alive at every depth; at the cap the
# search stops on its current cell, which is kept and so still conservative.
MAX_SEARCH_STEPS = 200


def _cell_widths(d, lower: bool, a, b, k=3.0, s=1.0) -> np.ndarray:
    """Widths at which the endpoint sum is largest over radii r in [a, b].

    Term j of the lower sum has width max(r, (d_j - s r)/k_j), V-shaped with
    its minimum at d_j/(k_j + s); the upper width max(r, (d_j + s r)/k_j)
    grows with r.  The basic test has k = 3 and s = 1; the active test of
    ``active_radius``, max(r, gaps/2), is the upper width at k = 2 and
    s = 0; the sigma-scaled one passes its own.  Each tail S_j is
    non-increasing, so taking every term at its own smallest width on the
    cell bounds the whole sum there.  With a == b this is the sum at r = a
    itself.
    """
    if lower:
        c = np.clip(d / (k + s), a, b)
        return np.maximum(c, (d - c * s) / k)
    return np.maximum(a, (d + a * s) / k)


# Look-ahead of a union radius search.  A search's first call asks for a
# dyadic subtree of FIRST_LEVELS levels of [0, hi]; later calls ask for one
# predicted path, whose length doubles after a call whose cells were used to
# the end and falls to twice the levels used after a miss.  One side's call
# holds at most PATH_WIDTHS widths (rows x m), so a stacked call of both sides
# at most twice that; the cells a step needs always go, so at m > 2 ** 13 no
# side asks for more than its step's cells.
FIRST_LEVELS = 3
PATH_WIDTHS = 2 ** 14


def _guess(points: dict, alpha: float, a: float, b: float) -> float:
    """Where in the cell [a, b] a search is predicted to go: the point at
    which log(bound) - log(alpha) falls through zero, interpolated linearly
    between the cell's ends.  ``points`` holds the smallest known bound of
    a cell starting at each end; both ends are known, as a kept cell starts
    at a (or a = 0, where the sum is 1) and a dropped one at b (or b = hi).
    Bounds are read in [1e-300, 1], so a kept cell sent as inf counts as 1,
    and a sum above alpha at b as alpha: the search is predicted to go to
    b.  A guess only chooses which cells are bounded ahead of need."""
    f_a, f_b = (math.log(min(max(points[c], 1e-300), 1.0) / alpha) for c in (a, b))
    return a + (b - a) * f_a / (f_a - min(f_b, 0.0)) if f_a > 0.0 else 0.5 * (a + b)


def _look_ahead(lower: bool, cell, known: dict, alpha: float, levels: int, rows: int,
                guess: float | None):
    """Cells for one exceedance call of a search at ``cell``, and the levels they span.

    Level by level down from ``cell``, the halves the search asks for there
    (both below the anchor, the upper one above), for at most ``levels``
    levels, and no level past the first that takes the cells beyond
    ``rows``; cells of width <= RADIUS_TOL, where the search stops, are not
    split.  If ``guess`` is None (the first call, when nothing is known)
    every cell of each level is split: a dyadic subtree.  Otherwise the
    cells lie on one path, which goes into the upper half where its known
    bound exceeds alpha, or, unknown, where ``guess`` lies above its lower
    end, and known halves are not asked for again.  The midpoints are the
    search's own, so a cell the search reaches is the cell it asks for, bit
    for bit.
    """
    cells = []
    if guess is None:
        frontier = [cell]
        for depth in range(levels):
            frontier = [half for a, b in frontier if b - a > RADIUS_TOL
                        for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
            step = frontier if lower else frontier[1::2]
            if not step or (cells and len(cells) + len(step) > rows):
                return cells, depth
            cells += step
        return cells, levels
    a, b = cell
    for depth in range(levels):
        if b - a <= RADIUS_TOL:
            return cells, depth
        mid = 0.5 * (a + b)
        high = (mid, b)
        up = known.get(high)  # a step's halves are asked for together
        if up is None:
            if cells and len(cells) + 1 + lower > rows:
                return cells, depth
            cells += ((a, mid), high) if lower else (high,)
        a, b = high if (guess > mid if up is None else up > alpha) else (a, mid)
    return cells, levels


def _radius_search(lower: bool, hi: float, alpha: float, rows: int, top: float):
    """Certified depth-first search for the largest accepted radius in [0, hi].

    A generator.  Each step needs the bounds of the endpoint sum on the
    halves of the current cell: both halves below the anchor; above it a
    cell's bound is the sum at its lower end, so the lower half shares the
    bound of the kept current cell and only the upper half is needed (the
    search is a bisection).  A cell whose bound is <= alpha holds no
    accepted radius and is dropped whole.  The upper half is searched
    first, so every radius above the current cell is rejected.

    When a step needs a cell it has no bound of, the search yields a list of
    cells and is sent their bounds as floats, which it keeps.  The list
    looks ahead (``_look_ahead``): a dyadic subtree of [0, hi] first, and
    later the path predicted from its current cell by ``_guess`` from the
    bounds at the cell's ends (``top`` is the sum at hi), at most ``rows``
    cells but for the step's own, so with ``rows`` 1 it is that step's
    halves.  The steps then replay from the kept bounds until one needs a
    cell it lacks.  Every decision reads the bound of exactly the cell a
    one-step search asks for, and a cell's bound does not depend on which
    cells share its call, so the radius is the one-step search's bit for
    bit; a wrong guess costs only rows.  ``_side_radii`` drives every search:
    ``_union_radii``'s (the union endpoint radii and ``active_radius``'s)
    and the sigma-scaled ones.  Returns the upper end of the first kept
    cell of width <= RADIUS_TOL, or of the current (kept) cell after
    MAX_SEARCH_STEPS steps, and the numbers of cells the steps bounded and
    kept (cells asked for ahead and never used are not counted).
    """
    a, b = 0.0, hi  # the cell holding r = 0 is never dropped: its sum has S(0) = 1
    below = []      # kept cells under the current one, searched on backtracking
    known = {}      # bound of every cell sent
    points = {0.0: 1.0, hi: top}  # smallest bound of a known cell starting at each point
    levels, depth, used, last = FIRST_LEVELS, 0, 0, None
    bounded = kept = 0
    for _ in range(MAX_SEARCH_STEPS):
        if b - a <= RADIUS_TOL:
            break
        mid = 0.5 * (a + b)
        low, high = (a, mid), (mid, b)
        if high not in known:  # a step's halves are asked for together
            if last is not None:
                levels = 2 * levels if used >= depth else 2 * used
            guess = None if last is None else _guess(points, alpha, a, b)
            cells, depth = _look_ahead(lower, (a, b), known, alpha, levels, rows, guess)
            for cell, bound in zip(cells, (yield cells)):
                known[cell] = bound
                if cell[0] not in points or bound < points[cell[0]]:
                    points[cell[0]] = bound
            last, used = set(cells), 0
        used += high in last
        keep_high = known[high] > alpha
        if lower:
            keep_low = known[low] > alpha
            bounded += 2
            kept += keep_low + keep_high
        else:
            keep_low = True  # the lower half shares the current cell's bound
            bounded += 1
            kept += keep_high
        if keep_low:
            below.append(low)
        if keep_high:
            a = mid
        elif below:
            a, b = below.pop()
        else:
            raise InternalCheckError("the cell holding r = 0 was rejected, "
                                     "though its sum contains S(0) = 1")
    return b, bounded, kept


def _step_widths(d, asked: dict, k=3.0, s=1.0) -> np.ndarray:
    """Width rows of one search round: the rows of each side's cells in
    turn, ``asked`` mapping the side's ``lower`` flag to its cells, on the
    test of geometry (k, s) (``_cell_widths``).

    Each side's rows come from one ``_cell_widths`` call on column vectors
    of its cells' ends (a, b).  Every width is elementwise, so each row is
    the row of a call on its own cell bit for bit, but for the sign of a
    zero width (numpy's loops settle a tie of -0.0 and +0.0 by shape),
    which no tail tells apart.  A lone side's rows are returned uncopied.
    """
    parts = [_cell_widths(d, lower, *np.array(cells).T[:, :, None], k, s)
             for lower, cells in asked.items() if cells]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _side_radii(top: dict, hi: float, alpha: float, rows: int, evaluate) -> dict:
    """Radius in [0, hi] and cells bounded and kept of each side of ``top``,
    which maps the side's ``lower`` flag to its sum at hi.

    A side whose sum at hi already reaches alpha stays at hi (every
    reduction to the zero-gap radius lands there exactly).  The others run
    ``_radius_search`` in lockstep, asking for at most ``rows`` cells per
    call past a step's own: each round every live search asks for its
    cells and one ``evaluate(asked)`` call bounds them all.  ``asked`` maps
    each side to its cells, and ``evaluate`` returns one list of their
    bounds, side after side in the order of ``asked``.
    """
    done = dict.fromkeys(top, (hi, 0, 0))
    searches = {lower: _radius_search(lower, hi, alpha, rows, s) for lower, s in top.items()
                if s - alpha < (-1e-12 if lower else 0.0)}
    sent = dict.fromkeys(searches)  # None starts each generator
    while searches:
        asked = {}
        for side, search in list(searches.items()):
            try:
                asked[side] = search.send(sent[side])
            except StopIteration as stop:
                done[side] = stop.value
                del searches[side]
        if asked:
            bounds = evaluate(asked)
            for side, cells in asked.items():
                sent[side], bounds = bounds[:len(cells)], bounds[len(cells):]
    return done


def _union_radii(bound, d, alpha: float, hi: float, sides: tuple, k=3.0, s=1.0):
    """Largest accepted radius in [0, hi] of each endpoint equation in
    ``sides`` (``lower`` flags), under a stack bound.

    The lower sum is sum_j S_j(max(r, (d_j - s r)/k)), the upper one has
    d_j + s r (``_cell_widths``): the basic test by default, the active test
    of ``active_radius`` with k = 2 and s = 0.  Each round of ``_side_radii``
    bounds the cells the sides ask for in one exceedance call on their
    stacked rows (``_step_widths``), at most PATH_WIDTHS // m rows per side
    but for a step's own cells; the sums at hi come from one such call on
    point cells.  Returns the radii, in the order of ``sides``, and the
    numbers of cells the searches bounded and kept, which, like the radii,
    are the one-step searches' own.
    """
    def evaluate(asked):
        return bound.exceedance(_step_widths(d, asked, k, s)).tolist()

    top = dict(zip(sides, evaluate({lower: [(hi, hi)] for lower in sides})))
    found = _side_radii(top, hi, alpha, PATH_WIDTHS // d.size, evaluate)
    radii, bounded, kept = zip(*(found[lower] for lower in sides))
    return list(radii), sum(bounded), sum(kept)


def _radii(problem: Problem, d, upper: bool) -> tuple[list, dict]:
    """Lower radius, and the upper one if ``upper``, for the gaps d = X_anchor - X.

    Both lie in [0, r0], r0 the zero-gap radius (``active_radius``, solved
    once per bound and level).  Under a stack bound the lower side is a
    certified cell search and the upper side a bisection
    (``_union_radii``).  On a bank (a bound with ``row_max``) r0 comes from
    the bank's stored row maxima (``m_statistic`` at zero gaps), with no
    scan, and one pass over the bank (``_mc_scan``) gives both sides.  A
    row exceeds at radius r below the anchor iff r lies in some open
    interval (d_j - 3 |xi_j|, |xi_j|), and the sweep of each row's union of
    them on [0, r0] gives the lower side exactly; the cell holding r = 0 is
    always kept, so the anchor itself is never left out.  Above the anchor
    the exceed count falls with r, so the upper radius is the conservative
    order statistic of the rows' reaches, the k-th smallest, as r0 is of
    the row maxima, selected by ``_mc_scan``, which settles most rows from
    ``row_max`` and ``row_arg``.  ``bridged`` flags a rejected cell below
    the last accepted one that holds a float: breakpoints that
    agree in exact arithmetic may round one ulp apart, and the open cell
    between them holds no radius.  The diagnostics count the lower and
    upper cells bounded (``grid_points``) and kept (``accepted_points``);
    Monte-Carlo ones are the lower side's.
    """
    bound, alpha = problem.bound, problem.alpha
    r0 = active_radius(bound, np.zeros(problem.m), alpha).r
    diagnostics = {"zero_gap_radius": r0}
    if hasattr(bound, "row_max"):
        k = mc_order_index(1.0 - alpha, bound.n) if upper else None
        starts, ends, r_u = _mc_scan(bound, d, r0, k)
        points, accept = _mc_sweep(bound.n, alpha, starts, ends, 0.0, r0)
        accept[0] = True
        last = accept.size - 1 - int(np.argmax(accept[::-1]))
        radii = [float(points[last + 1]), r_u][:1 + upper]
        bounded, kept = accept.size, int(np.count_nonzero(accept))
        rejected = np.flatnonzero(~accept[:last + 1])
        holds = np.nextafter(points[rejected], np.inf) < points[rejected + 1]
        diagnostics["bridged"] = bool(holds.any())
    else:
        radii, bounded, kept = _union_radii(bound, d, alpha, r0, (True, False)[:1 + upper])
    if upper and radii[0] < radii[1] - 1e-9:
        raise InternalCheckError("lower radius cannot undercut the upper radius")
    diagnostics.update(bonferroni_lower=bool(radii[0] == r0), grid_points=bounded,
                       accepted_points=kept)
    if upper:
        diagnostics["bonferroni_upper"] = bool(radii[1] == r0)
    return radii, diagnostics


def _winner_interval(problem: Problem, method: str) -> WinnerInterval:
    xw = float(problem.x[problem.winner])
    (r_l, r_u), diagnostics = _radii(problem, xw - problem.x, upper=True)
    return WinnerInterval(r_l, r_u, xw, problem.winner, problem.alpha, method, diagnostics)


def winner_interval_root(problem: Problem) -> WinnerInterval:
    """Solve the endpoint equations of the winner interval (stack bounds).

    The upper sum is non-increasing in r, and its search bisects.  The
    lower sum need not be monotone, so its search bounds the sum on whole
    cells and drops only cells it can certify; a narrow accepted bump cannot
    be stepped over.  Each radius is the upper end of a kept cell of width
    ``RADIUS_TOL``, so it errs wide by at most about that much.  The
    diagnostics count the cells bounded (``grid_points``) and kept
    (``accepted_points``).
    """
    if hasattr(problem.bound, "row_max"):
        raise UnsupportedMethodError("root inversion requires a union bound")
    return _winner_interval(problem, "root")


def winner_interval_grid(problem: Problem, grid_points: int = 2001, *,
                         refine: bool = False) -> WinnerInterval:
    """Winner interval from the one solver of the problem's bound (``_radii``).

    A stack bound gets the endpoints of ``winner_interval_root`` bit for
    bit; a bank is swept below X_win and read off an order
    statistic above it.  Neither uses a grid: ``grid_points`` is validated
    and ignored, ``refine`` is ignored, and both are kept only because the
    benchmark under ``perfbench/`` passes them.
    """
    _check_grid_points(grid_points)
    return _winner_interval(problem, "grid")
