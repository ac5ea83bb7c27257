"""Property tests of the union bound and its radius solver over random problems.

Marginals from every tail family, alone and mixed, up to 40 candidates,
alpha in [1e-3, 0.5], and scores that may tie.  The union search's stacked
step rows are pinned to per-cell rows bit for bit, and the look-ahead
search to the one-step search it replaced, with its guesses honest or
forced wrong, up to 1000 candidates; ``active_radius`` is pinned to the
bisection that search replaced, and ``near_winner_interval`` to the
two-piece merge it replaced.  Empirical tables holding zeros solve under
every union solver.  A last test pins the
Monte-Carlo bank scan's per-row pieces to the dense sort merge and, with
the reaches, to the two separate scans it replaced, on tables built to tie,
touch, chain and reach past their piece at 0, read in blocks of any size,
and the bank sweep's counts by rank to the three-sort sweep they replaced.
Hypothesis keeps no example database here, so a run writes no files.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoomcurse import core
from zoomcurse.core import (Problem, _cell_widths, _mc_scan, _mc_sweep, _step_widths,
                            _union_radii, active_radius, winner_interval_grid,
                            winner_interval_root)
from zoomcurse.errors import InfeasibleAlphaError
from zoomcurse.meta import near_winner_interval, population_value_interval
from zoomcurse.scaled import ScaledProblem, winner_interval_scaled
from zoomcurse.tails import (MIN_TAIL_PROB, EmpiricalTail, GaussianTail, SubGaussianTail,
                             UnionBound)
from zoomcurse.topk import topk_interval

from oracles import (MERGE_PASSES, active_radius_bisection, blocked_bank, endpoint_sum,
                     lower_pieces_two_scans, mc_reach_scan, mc_sweep_sorted, merged_pieces,
                     near_winner_pieces, sequential_exceedance, sorted_pieces,
                     union_radii_one_step)

_T5 = np.random.default_rng(5)
EMPIRICAL = EmpiricalTail(np.abs(_T5.standard_t(5, size=300)))
TABLES = (EMPIRICAL, EmpiricalTail(np.abs(_T5.standard_t(3, size=40))),
          EmpiricalTail(np.abs(_T5.normal(0.0, 1.5, size=120))))
TIED_SCORES = (-4.0, -1.5, 0.0, 0.5, 0.75, 2.0)
FAMILIES = ("gaussian", "subgaussian", "empirical", "scales", "proxies", "tables", "mixed")
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def union_bounds(draw, m):
    """A union bound over m marginals of one of FAMILIES."""
    family = draw(st.sampled_from(FAMILIES))
    scales = st.lists(st.floats(0.25, 4.0), min_size=m, max_size=m)
    if family == "gaussian":
        models = (GaussianTail(1.0),) * m
    elif family == "subgaussian":
        models = (SubGaussianTail(1.3),) * m
    elif family == "empirical":
        models = (EMPIRICAL,) * m
    elif family == "scales":
        models = tuple(GaussianTail(s) for s in draw(scales))
    elif family == "proxies":
        models = tuple(SubGaussianTail(s) for s in draw(scales))
    elif family == "tables":
        models = tuple(draw(st.lists(st.sampled_from(TABLES), min_size=m, max_size=m)))
    else:
        kinds = st.sampled_from((GaussianTail, SubGaussianTail, EmpiricalTail))
        models = tuple(TABLES[int(s) % 3] if kind is EmpiricalTail else kind(s)
                       for kind, s in zip(draw(st.lists(kinds, min_size=m, max_size=m)),
                                          draw(scales)))
    return UnionBound(models)


@st.composite
def union_problems(draw):
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        score = st.sampled_from(TIED_SCORES)
    else:
        score = st.floats(-20.0, 20.0, allow_nan=False)
    x = np.array(draw(st.lists(score, min_size=m, max_size=m)))
    alpha = draw(st.floats(1e-3, 0.5))
    return Problem(x, draw(union_bounds(m)), alpha)


@st.composite
def bounds_and_widths(draw):
    """A union bound and a (rows, m) stack of widths, some zero or infinite."""
    m = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 6))
    width = st.one_of(st.floats(0.0, 12.0), st.sampled_from((0.0, np.inf)))
    widths = np.array(draw(st.lists(width, min_size=rows * m, max_size=rows * m)))
    return draw(union_bounds(m)), widths.reshape(rows, m)


@SETTINGS
@given(bounds_and_widths())
def test_a_row_of_a_stack_is_the_single_row_bound(case):
    bound, widths = case
    stacked = bound.exceedance(widths)
    for i, row in enumerate(widths):
        assert stacked[i] == bound.exceedance(row)
    assert bound.exceedance(widths[None])[0].tolist() == stacked.tolist()


@SETTINGS
@given(bounds_and_widths())
def test_family_groups_match_the_model_by_model_sum(case):
    bound, widths = case
    grouped, ref = bound.exceedance(widths), sequential_exceedance(bound, widths)
    # the tails agree bit for bit; only the order of summation differs
    assert np.all(np.abs(grouped - ref) <= bound.m * np.spacing(ref))


@SETTINGS
@given(bounds_and_widths(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_feasible_radius_is_the_largest_marginal_quantile(case, alpha):
    bound, _ = case
    if alpha / bound.m < MIN_TAIL_PROB:
        with pytest.raises(InfeasibleAlphaError):
            bound.feasible_radius(alpha)
    else:
        assert bound.feasible_radius(alpha) == max(model.isf(alpha / bound.m)
                                                   for model in bound.models)


@SETTINGS
@given(union_problems())
def test_grid_root_and_meta_endpoints_are_bit_identical(p):
    root = winner_interval_root(p)
    for iv in (winner_interval_grid(p), winner_interval_grid(p, 101, refine=True)):
        assert (iv.t_l, iv.t_u) == (root.t_l, root.t_u)
    if p.bound.exchangeable:
        pop = population_value_interval(p)
        assert (pop.t_l, pop.t_u) == (root.t_l, root.t_u)


@SETTINGS
@given(union_problems())
def test_top1_radius_is_the_winner_lower_radius(p):
    root = winner_interval_root(p)
    assert topk_interval(p, 1).r_max == root.r_l


@SETTINGS
@given(union_problems())
def test_no_winner_value_outside_the_interval_is_accepted(p):
    root = winner_interval_root(p)
    xw, r0 = root.x_winner, root.diagnostics["zero_gap_radius"]
    assert xw - r0 <= root.t_l and root.t_u <= xw + r0
    d = xw - p.x
    lower = np.linspace(xw - r0, root.t_l, 2001)
    upper = np.linspace(root.t_u, xw + r0, 2001)
    for t, sign in ((lower[lower < root.t_l], -1.0), (upper[upper > root.t_u], +1.0)):
        if t.size:
            sums = np.asarray(endpoint_sum(p.bound, d, np.abs(xw - t), sign))
            assert np.all(sums <= p.alpha)


@SETTINGS
@given(union_problems(), st.integers(0, 39))
def test_near_winner_interval_is_the_two_piece_merge_bit_for_bit(p, index):
    # one marginal for all, so the bound is exchangeable as the region needs
    p = Problem(p.x, UnionBound((p.bound.models[0],) * p.m), p.alpha)
    index %= p.m
    res = near_winner_interval(p, index)
    iv = res.diagnostics["winner_interval"]
    assert repr(res.pieces) == repr(near_winner_pieces(p.x, index, iv.winner, iv.r_l, iv.r_u))


@SETTINGS
@given(union_problems(), st.sampled_from((-1000.0, -3.25, 0.5, 64.0)))
def test_radii_are_translation_invariant(p, shift):
    moved = Problem(p.x + shift, p.bound, p.alpha)
    a, b = winner_interval_root(p), winner_interval_root(moved)
    # the gaps X_win - X_j round differently after the shift; the radii
    # may move by that rounding and one solver cell (1e-10)
    assert abs(a.r_l - b.r_l) <= 1e-9 and abs(a.r_u - b.r_u) <= 1e-9


@SETTINGS
@given(st.lists(st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.5)), min_size=1, max_size=9),
       st.lists(st.sampled_from(TIED_SCORES), min_size=1, max_size=4),
       st.floats(0.05, 0.9), st.data())
def test_empirical_tables_holding_zeros_solve(table, scores, alpha, data):
    # zero values make no knot, so S(0) = 1 and no solver rejects the cell
    # holding r = 0; each interval holds its own score
    tail = EmpiricalTail([0.0, *table])
    assert tail.sf(0.0) == 1.0
    x = np.array(scores)
    bound = UnionBound((tail,) * x.size)
    try:
        bound.feasible_radius(alpha)
    except InfeasibleAlphaError:
        return
    p = Problem(x, bound, alpha)
    sigma = data.draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=x.size,
                               max_size=x.size))
    xw = x[p.winner]
    for iv in (winner_interval_root(p), winner_interval_scaled(ScaledProblem(p, sigma))):
        assert iv.t_l <= xw <= iv.t_u
    assert topk_interval(p, data.draw(st.integers(1, x.size))).r_max >= 0.0
    index = data.draw(st.integers(0, x.size - 1))
    lo, hi = near_winner_interval(p, index).hull
    assert lo <= x[index] <= hi


@SETTINGS
@given(bounds_and_widths(), st.booleans())
@example(case=(UnionBound((GaussianTail(1.0),) * 40),
               np.random.default_rng(0).uniform(3.0, 6.0, size=(6, 40))), transposed=True)
def test_a_lone_family_sums_as_the_family_loop(case, transposed):
    # one family fills the tails without the copy into a preallocated stack;
    # the sums stay those of the loop bit for bit, also for a stack that is
    # not in C order (the example's unclamped sums round differently when a
    # Fortran-order stack of tails is summed along its rows)
    bound, widths = case
    if len(bound._families) > 1:
        return
    if transposed:
        widths = np.asfortranarray(widths)
    (cols, tail, param, _), = bound._families
    tails = np.empty(widths.shape)
    tails[..., cols] = tail(widths[..., cols], param)
    looped = np.minimum(tails.sum(axis=-1), 1.0)
    assert bound.exceedance(widths).tobytes() == looped.tobytes()


@st.composite
def search_steps(draw):
    """Gaps d, lower and upper cells (a <= b) and scaled (k, s) for ``_step_widths``.

    Gaps may tie, be signed zeros or be negative (a top-k anchor's gaps to
    the winners above it); cell ends may be zero, equal or tie with d/4.
    """
    m = draw(st.integers(1, 30))
    gap = st.one_of(st.floats(-10.0, 20.0), st.sampled_from((0.0, -0.0, 1.0, -1.0, 4.0)))
    d = np.array(draw(st.lists(gap, min_size=m, max_size=m)))
    end = st.one_of(st.floats(0.0, 8.0), st.sampled_from((0.0, 0.25, 1.0, 2.5)))
    cell = st.tuples(end, end).map(sorted).map(tuple)
    lower = draw(st.lists(cell, max_size=4))
    upper = draw(st.lists(cell, min_size=0 if lower else 1, max_size=3))
    sigma = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=m, max_size=m)))
    s = draw(st.floats(0.25, 4.0))
    return d, lower, upper, 2.0 * sigma + s, s


def _same_bits(x, y) -> bool:
    """Equal bit for bit up to the sign of a zero (adding +0.0 clears it)."""
    return (x + 0.0).tobytes() == (y + 0.0).tobytes()


STEP_BOUNDS = (lambda m: UnionBound((GaussianTail(1.0),) * m),
               lambda m: UnionBound((EMPIRICAL,) * m),
               lambda m: UnionBound(tuple(SubGaussianTail(1.0 + j % 3) for j in range(m))))


@SETTINGS
@given(search_steps())
def test_stacked_step_rows_are_the_per_cell_rows_bit_for_bit(case):
    # numpy's clip and maximum loops settle a tie of -0.0 and +0.0 either way
    # depending on the operands' shapes, so a zero width may change sign; no
    # tail tells the two apart, and the sums are the same bit for bit
    d, lower, upper, k, s = case
    rows = [_cell_widths(d, True, a, b) for a, b in lower]
    rows += [_cell_widths(d, False, a, b) for a, b in upper]
    stacked, one_by_one = _step_widths(d, {True: lower, False: upper}), np.stack(rows)
    assert _same_bits(stacked, one_by_one)
    for make in STEP_BOUNDS:
        bound = make(d.size)
        assert bound.exceedance(stacked).tobytes() == bound.exceedance(one_by_one).tobytes()
    # columns of cell ends give the per-cell rows with the scaled k and s too
    for side, cells in ((True, lower), (False, upper)):
        if cells:
            ends = np.array(cells)
            stacked = _cell_widths(d, side, ends[:, :1], ends[:, 1:], k, s)
            one_by_one = np.stack([_cell_widths(d, side, a, b, k, s) for a, b in cells])
            assert _same_bits(stacked, one_by_one)


SEARCH_TAILS = {
    "identical": lambda m, rng: UnionBound((GaussianTail(1.0),) * m),
    "distinct": lambda m, rng: UnionBound(tuple(GaussianTail(float(s))
                                                for s in rng.uniform(0.5, 2.0, m))),
    "subgaussian": lambda m, rng: UnionBound((SubGaussianTail(1.3),) * m),
    "empirical": lambda m, rng: UnionBound((EMPIRICAL,) * m),
}


@st.composite
def radius_searches(draw):
    """A union bound, gaps, alpha, the search range and the sides of ``_union_radii``.

    m in {1, 2, 10, 100, 1000}; the scores hold a lone leader, a cluster, a
    tie or m/2 leaders, each anchored at the winner (both sides) or at the
    k-th score (a top-k lower side, gaps to the winners above negative).
    The range is the zero-gap radius, or past the marginals' support where
    alpha / m is out of an empirical table's reach.
    """
    m = draw(st.sampled_from((1, 2, 10, 100, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bound = SEARCH_TAILS[draw(st.sampled_from(sorted(SEARCH_TAILS)))](m, rng)
    shape = draw(st.sampled_from(("lone", "cluster", "tied", "half")))
    gap = draw(st.floats(0.0, 20.0))
    if shape == "lone":
        x = np.concatenate([[gap], rng.normal(size=m - 1)])
    elif shape == "cluster":
        x = rng.normal(scale=draw(st.floats(0.01, 3.0)), size=m)
    elif shape == "tied":
        x = np.zeros(m)
    else:
        x = np.where(np.arange(m) < max(m // 2, 1), 0.0, -gap) + rng.normal(scale=0.3, size=m)
    alpha = draw(st.floats(1e-4, 0.5))
    k = draw(st.integers(1, min(3, m))) if draw(st.booleans()) else 0
    d = (np.sort(x)[-k] if k else x.max()) - x
    try:
        hi = active_radius(bound, np.zeros(m), alpha).r
    except InfeasibleAlphaError:
        hi = 1.5 * max(EMPIRICAL.table)
    return bound, d, alpha, hi, not k


_GUESS = core._guess
GUESSES = {  # the interpolated guess, the cell's end on its wrong side, and each end
    "interpolated": _GUESS,
    "wrong end": lambda points, alpha, a, b: (
        a if _GUESS(points, alpha, a, b) > 0.5 * (a + b) else b),
    "low": lambda points, alpha, a, b: a,
    "high": lambda points, alpha, a, b: b,
}


@settings(max_examples=300, deadline=None, database=None)
@given(radius_searches(), st.sampled_from(sorted(GUESSES)))
@example(case=(UnionBound((GaussianTail(1.0),) * 1000),
               np.concatenate([[0.0], np.full(999, 15.0)]), 0.05,
               3.5, True), guess="wrong end")
@example(case=(UnionBound((EmpiricalTail((1.0, 2.0, 3.0, 4.0)),)), np.zeros(1), 0.25,
               4.0, True), guess="interpolated")  # the sum at r = 3 is alpha exactly
def test_look_ahead_search_is_the_one_step_search_bit_for_bit(case, guess):
    # radii, cells bounded and cells kept, whatever cells the look-ahead
    # bounds ahead of need: a wrong guess changes only which
    bound, d, alpha, hi, upper = case
    want = union_radii_one_step(bound, d, alpha, hi, upper)
    with mock.patch.object(core, "_guess", GUESSES[guess]):
        got = _union_radii(bound, d, alpha, hi, (True, False)[:1 + upper])
    assert got == want


ACTIVE_TAILS = {**SEARCH_TAILS, "mixed": lambda m, rng: UnionBound(tuple(
    (GaussianTail(float(s)), SubGaussianTail(float(s)), TABLES[int(10 * s) % 3])[kind]
    for kind, s in zip(rng.integers(0, 3, m), rng.uniform(0.5, 2.0, m))))}


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from((1, 2, 10, 100, 1000)), st.sampled_from(sorted(ACTIVE_TAILS)),
       st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 0.5), st.booleans())
def test_active_radius_is_the_bisection_bit_for_bit(m, tails, seed, alpha, zero_gaps):
    # the search above the anchor makes the bisection's decisions: random
    # anchored gaps, some inf, or zero gaps on a fresh bound (an empty memo)
    rng = np.random.default_rng(seed)
    bound = ACTIVE_TAILS[tails](m, rng)
    gaps = np.zeros(m)
    if not zero_gaps:
        gaps = rng.exponential(rng.uniform(0.1, 8.0), m)
        gaps[rng.random(m) < 0.1] = np.inf
        gaps[rng.integers(m)] = 0.0
    try:
        want = active_radius_bisection(bound, gaps, alpha)
    except InfeasibleAlphaError:
        with pytest.raises(InfeasibleAlphaError):
            active_radius(bound, gaps, alpha)
        return
    assert active_radius(bound, gaps, alpha).r.hex() == float(want).hex()


ON_GRID = st.integers(0, 30).map(lambda k: k / 10.0)  # 0.1 grid: ties, touching ends


@st.composite
def exceed_tables(draw):
    """|xi| rows, a gap vector and r0 for ``_mc_scan``, of five kinds.

    "grid" draws both on the 0.1 grid, zeros included; "chain" takes gaps
    d_j = c_(j-1) + 3 c_j + s from a non-decreasing row c, so interval j
    starts where interval j-1 ends (s = 0), inside it (s < 0) or past it,
    with rows that are c or c with its small entries redrawn; "zero-gap" sets
    |xi| = 0 in every column of gap 0; "lone-leader" puts every gap but the
    first near 8, so a row whose first |xi| is not its largest is read in
    full, not settled, and one with some |xi| above 2 has a second piece;
    "random" draws floats.  Chains run up to MERGE_PASSES + 3 links, past
    the pass cap of the two-scan oracle.  Outside chains and lone leaders
    some gaps may be negative, as the gaps to a top-k anchor of the winners
    above it are.  Some rows may be all zero.  r0 is 0, on the grid, or a
    random float.
    """
    kind = draw(st.sampled_from(("grid", "chain", "zero-gap", "lone-leader", "random")))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, MERGE_PASSES + 3 if kind == "chain" else 8))
    value = st.floats(0.0, 3.0) if kind == "random" else ON_GRID
    a = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m))).reshape(n, m)
    d = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    if kind == "chain":
        c = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))) / 10.0
        shift = draw(st.sampled_from((0.0, -0.1, -0.05, 0.1)))
        d = np.concatenate([[0.0], c[:-1]]) + 3.0 * c + shift
        d[0] = 0.0
        whole = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        a = np.where(whole[:, None] | (a > 0.5), c, a)
    elif kind == "lone-leader":
        d = np.concatenate([[0.0], 8.0 + d[1:] / 3.0])
    else:
        if kind == "zero-gap":
            d[draw(st.integers(0, m - 1))] = 0.0
            a[:, d == 0.0] = 0.0
        below = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        d[below] = -d[below]
    a[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    r0 = draw(st.one_of(st.just(0.0), ON_GRID, st.floats(0.0, 4.0)))
    return a, d, r0


# Gaps below the anchor (-1) and a tie: in rows 0 and 7 the first largest
# |xi| fails its gap and the tied one after it clears its own.  Rows 3 and
# 5 are all zero.  In blocks of 4 rows, rows 0-2 leave the lower rule
# unsettled, so the first block gathers most of its rows, and the second
# gathers row 7 alone.
SETTLE_GAPS = np.array([0.0, -1.0, 6.0, 3.0])
SETTLE_ROWS = np.array([[0.2, 0.5, 1.5, 1.5], [0.1, 0.3, 1.0, 0.2], [0.0, 0.0, 1.8, 0.0],
                        [0.0, 0.0, 0.0, 0.0], [2.5, 0.1, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0],
                        [0.3, 1.2, 0.9, 0.1], [0.1, 0.2, 1.9, 1.9]])


@settings(max_examples=400, deadline=None, database=None)
@given(exceed_tables(), st.integers(1, 12))
@example((SETTLE_ROWS, SETTLE_GAPS, 2.0), 4)
@example((SETTLE_ROWS, SETTLE_GAPS, 0.0), 4)
@example((SETTLE_ROWS, SETTLE_GAPS, 1.0), 3)
def test_lower_pieces_are_the_sort_merge_bit_for_bit(case, block_rows):
    # one read of the bank, in blocks of any size, gives the ends and the
    # starts above 0 of the pieces of the dense sort merge and of the
    # separate lower scan, and every order statistic of the reaches of the
    # separate upper scan; the sweep relies on the bounds of both, and on
    # one end for each start
    a, d, r0 = case
    bank = blocked_bank(a, block_rows)
    wants = [sorted_pieces(*merged_pieces(np.maximum(d - 3.0 * a, 0.0), np.minimum(a, r0))),
             sorted_pieces(*lower_pieces_two_scans(a, d, r0))]
    reaches = np.sort(mc_reach_scan(a, d))
    for k in (None, *range(1, len(a) + 1)):
        starts, ends, radius = _mc_scan(bank, d, r0, k)
        assert np.all((starts > 0.0) & (starts < r0)) and np.all((ends > 0.0) & (ends <= r0))
        assert starts.size <= ends.size
        for want in wants:
            for have, ref in zip(sorted_pieces(starts, ends), want):
                assert have.tobytes() == ref.tobytes()
        assert radius is None if k is None else radius.hex() == float(reaches[k - 1]).hex()


# A 0.1 grid, so values repeat, or floats, all above 0, as ``_mc_scan``
# gives them.
SWEEP_VALUE = st.one_of(st.integers(1, 35).map(lambda k: k / 10.0),
                        st.floats(0.0, 3.5, exclude_min=True))


@st.composite
def sweep_cases(draw):
    """Arguments of ``_mc_sweep`` as ``_mc_scan`` gives them: hi, the ends,
    each in (0, hi], and the starts above 0, each in (0, hi), no more of
    them than ends (sometimes none), the other pieces starting at 0.  All
    are drawn from one small pool of values, so values repeat, a start may
    equal an end and ends fall at hi.  Starts and ends are drawn apart, as
    the sweep reads them."""
    pool = draw(st.lists(SWEEP_VALUE, min_size=1, max_size=8))
    hi = draw(st.sampled_from(pool))
    ends = np.array(draw(st.lists(st.sampled_from([v for v in pool if v <= hi]),
                                  max_size=12)), dtype=float)
    inner = [v for v in pool if v < hi]
    starts = np.array(draw(st.lists(st.sampled_from(inner), max_size=ends.size))
                      if inner else [], dtype=float)
    n = draw(st.integers(max(1, ends.size), 16))
    return n, draw(st.floats(0.01, 0.99)), starts, ends, hi


@settings(max_examples=500, deadline=None, database=None)
@given(sweep_cases())
@example((1, 0.1, np.empty(0), np.empty(0), 1.0))
@example((1, 0.1, np.empty(0), np.empty(0), 0.0))
@example((3, 0.5, np.empty(0), np.array([0.4]), 0.4))
@example((4, 0.4, np.array([0.5, 1.0, 1.0]), np.array([0.5, 1.0, 1.0, 3.0]), 3.0))
def test_sweep_counts_by_rank_are_the_three_sorts_bit_for_bit(case):
    # the three-sort sweep is fed every start, the pieces' zero starts too
    n, alpha, starts, ends, hi = case
    every = np.concatenate([np.zeros(ends.size - starts.size), starts])
    for have, want in zip(_mc_sweep(*case), mc_sweep_sorted(n, alpha, every, ends, 0.0, hi)):
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes()
