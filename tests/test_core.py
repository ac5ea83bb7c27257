import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from zoomcurse import core
from zoomcurse.core import (MAX_MERGE_PASSES, Problem, WinnerInterval, _cell_widths,
                            _lower_pieces, _mc_accept_threshold, _mc_sweep, _merged_pieces,
                            _union_radii, active_radius, winner_interval_grid,
                            winner_interval_root)
from zoomcurse.errors import (InfeasibleAlphaError, InternalCheckError,
                              UnsupportedMethodError)
from zoomcurse.meta import near_winner_interval, population_value_interval, winner_identity_set
from zoomcurse.sampling import EquicorrelatedSampler, draw_bank, mc_quantile
from zoomcurse.scaled import ScaledProblem, winner_interval_scaled
from zoomcurse.tails import (EmpiricalTail, GaussianTail, MonteCarloBound,
                             SubGaussianTail, UnionBound)
from zoomcurse.stepdown import winner_interval_stepdown
from zoomcurse.topk import topk_interval, topk_stepdown

from oracles import (CountingBound, active_set, bank_exceedance, contains, endpoint_sum,
                     mc_reach_scan, sorted_pieces, union_radii_one_step, worst_case_theta)

# frozen from a 50-digit erf oracle
GAUSS_ISF_10 = 1.6448536269514722         # two-sided 0.1 quantile
GAUSS_ISF_10_OVER_3 = 2.1280452341849847
# largest/unique roots of the two endpoint equations, scores (10, 0), alpha 0.1
ROOT_LOWER_RADIUS = 1.6721438087774834
ROOT_UPPER_RADIUS = 1.6453565336780483


def gaussian_problem(x, alpha=0.1):
    x = np.asarray(x, dtype=float)
    return Problem(x, UnionBound((GaussianTail(1.0),) * x.size), alpha)


class TestProblem:
    def test_validation(self):
        b = UnionBound((GaussianTail(1.0),) * 2)
        with pytest.raises(ValueError):
            Problem(np.array([1.0]), b, 0.1)  # size mismatch
        with pytest.raises(ValueError):
            Problem(np.array([1.0, np.nan]), b, 0.1)
        with pytest.raises(ValueError):
            Problem(np.array([1.0, 2.0]), b, 1.0)

    def test_winner_breaks_ties_low(self):
        assert gaussian_problem([3.0, 7.0, 7.0]).winner == 1


class TestWorstCaseTheta:
    def test_hand_example(self):
        theta = worst_case_theta(np.array([10.0, 0.0]), 0, 9.0)
        np.testing.assert_allclose(theta, [9.0, 3.0])

    def test_winner_pinned_and_rivals_below(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=6) * 3
            t = rng.normal() * 3
            winner = int(np.argmax(x))
            theta = worst_case_theta(x, winner, t)
            assert theta[winner] == t
            assert np.all(theta <= t + 1e-15)
            others = np.delete(np.arange(6), winner)
            np.testing.assert_allclose(
                theta[others], np.minimum((2 * x[others] + t) / 3, t), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_theta(np.array([1.0]), 2, 0.0)
        with pytest.raises(ValueError):
            worst_case_theta(np.array([1.0]), 0, np.inf)


class TestActiveRadius:
    def test_zero_gaps_give_bonferroni_radius(self):
        b = UnionBound((GaussianTail(1.0),) * 3)
        ar = active_radius(b, np.zeros(3), 0.1)
        assert ar.r == pytest.approx(GAUSS_ISF_10_OVER_3, abs=1e-9)
        assert active_set(np.zeros(3), ar.r) == (0, 1, 2)

    def test_huge_gaps_reduce_to_marginal(self):
        b = UnionBound((GaussianTail(1.0),) * 2)
        ar = active_radius(b, np.array([0.0, 1e9]), 0.1)
        assert ar.r == pytest.approx(GAUSS_ISF_10, abs=1e-9)
        assert active_set(np.array([0.0, 1e9]), ar.r) == (0,)

    def test_monotone_in_gaps(self):
        b = UnionBound((GaussianTail(1.0),) * 4)
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = np.concatenate([[0.0], rng.uniform(0, 10, size=3)])
            bigger = g * np.array([1.0, 2.0, 2.0, 2.0])
            assert active_radius(b, bigger, 0.1).r <= active_radius(b, g, 0.1).r + 1e-12

    def test_radius_solves_the_inequality(self):
        b = UnionBound((GaussianTail(1.0),) * 3)
        g = np.array([0.0, 2.0, 5.0])
        r = active_radius(b, g, 0.1).r
        assert b.exceedance(np.maximum(r, g / 2)) <= 0.1
        assert b.exceedance(np.maximum(r - 1e-6, g / 2)) > 0.1

    def test_mc_matches_quantile_definition(self):
        bank = draw_bank(EquicorrelatedSampler(3, 0.4), 2000, seed=9)
        g = np.array([0.0, 1.0, 3.0])
        r = active_radius(bank, g, 0.1).r
        # exactly the conservative order statistic: just feasible at r,
        # infeasible any lower
        assert bank_exceedance(bank, np.maximum(r, g / 2)) <= 0.1
        assert bank_exceedance(bank, np.maximum(np.nextafter(r, 0.0), g / 2)) > 0.1

    def test_gap_anchoring_enforced(self):
        b = UnionBound((GaussianTail(1.0),) * 2)
        with pytest.raises(ValueError):
            active_radius(b, np.array([0.5, 1.0]), 0.1)
        with pytest.raises(ValueError):
            active_radius(b, np.array([0.0, -1.0]), 0.1)

    def test_infeasible_budget(self):
        b = UnionBound((GaussianTail(1.0),) * 2)
        with pytest.raises(InfeasibleAlphaError):
            active_radius(b, np.zeros(2), 1e-12)


def _count_exceedance(monkeypatch) -> list:
    calls, exceedance = [], UnionBound.exceedance

    def counted(self, widths):
        calls.append(1)
        return exceedance(self, widths)

    monkeypatch.setattr(UnionBound, "exceedance", counted)
    return calls


MEMO_TABLE = np.abs(np.random.default_rng(4).standard_t(4, size=400))
MEMO_BOUNDS = {  # a fresh bound of each family per call: its memo starts empty
    "gaussian": lambda m: UnionBound((GaussianTail(1.0),) * m),
    "subgaussian": lambda m: UnionBound((SubGaussianTail(1.2),) * m),
    "empirical": lambda m: UnionBound((EmpiricalTail(tuple(MEMO_TABLE)),) * m),
    "scales": lambda m: UnionBound(tuple(GaussianTail(1.0 + 0.1 * j) for j in range(m))),
    "bank": lambda m: draw_bank(EquicorrelatedSampler(m, 0.5), 20_000, seed=17),
}


def _memo_results(bound, x, alpha):
    """Every result a bound can give on scores x, as reprs (diagnostics included)."""
    p = Problem(x, bound, alpha)
    out = [winner_interval_grid(p), topk_interval(p, 2), topk_interval(p, 1)]
    if isinstance(bound, UnionBound):
        out.append(winner_interval_root(p))
        sigma = np.linspace(0.8, 1.6, x.size)
        out.append(winner_interval_scaled(ScaledProblem(p, sigma)))
        out.append(winner_interval_scaled(ScaledProblem(p, np.ones(x.size))))
    if bound.exchangeable:
        out += [winner_identity_set(p), near_winner_interval(p, 1),
                near_winner_interval(p, x.size - 1), population_value_interval(p)]
    return [repr(result) for result in out]


class TestZeroGapMemo:
    """r0 is solved once per bound and level; the memo never changes a result."""

    def test_second_zero_gap_call_makes_no_exceedance_call(self, monkeypatch):
        b = UnionBound((GaussianTail(1.0),) * 5)
        calls = _count_exceedance(monkeypatch)
        first = active_radius(b, np.zeros(5), 0.1)
        assert 0 < len(calls) <= 6  # the sum at hi and the search's look-ahead calls
        del calls[:]
        second = active_radius(b, np.zeros(5), 0.1)
        assert calls == []
        assert second.r == first.r and second == first
        # signed zeros are zero gaps too, with the same radius
        assert active_radius(b, -np.zeros(5), 0.1).r == first.r and calls == []
        # nonzero gaps are solved afresh every time
        gaps = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        active_radius(b, gaps, 0.1)
        assert calls
        del calls[:]
        active_radius(b, gaps, 0.1)
        assert calls

    @pytest.mark.parametrize("m", [10, 100, 1000])
    @pytest.mark.parametrize("family", ["gaussian", "subgaussian", "empirical", "scales"])
    def test_a_fresh_zero_gap_radius_makes_at_most_6_calls(self, monkeypatch, family, m):
        # one call for the sum at hi, then the look-ahead search; at alpha 0.5,
        # alpha / m stays within the 400-value empirical table's reach
        bound = MEMO_BOUNDS[family](m)
        calls = _count_exceedance(monkeypatch)
        active_radius(bound, np.zeros(m), 0.5 if family == "empirical" else 0.1)
        assert 0 < len(calls) <= 6

    # (calls, rows) of exceedance for a fresh r0 and for an anchored radius
    # whose gaps lead to a score 1 ahead of normal scores of scale 3
    SOLVE_COUNTS = {
        ("empirical", 10): ((1, 1), (6, 46)), ("empirical", 100): ((5, 42), (5, 42)),
        ("empirical", 1000): ((5, 42), (5, 42)),
        ("gaussian", 10): ((5, 40), (5, 40)), ("gaussian", 100): ((5, 40), (5, 40)),
        ("gaussian", 1000): ((5, 41), (6, 43)),
        ("scales", 10): ((5, 41), (5, 41)), ("scales", 100): ((5, 44), (5, 44)),
        ("scales", 1000): ((6, 48), (6, 48)),
        ("subgaussian", 10): ((5, 41), (5, 41)), ("subgaussian", 100): ((1, 1), (5, 41)),
        ("subgaussian", 1000): ((1, 1), (6, 43)),
    }

    @pytest.mark.parametrize("m", [10, 100, 1000])
    @pytest.mark.parametrize("family", ["empirical", "gaussian", "scales", "subgaussian"])
    def test_a_fresh_solve_makes_the_pinned_calls_and_rows(self, family, m):
        # pinned: a change to how active_radius builds or asks for rows shows here
        alpha = 0.5 if family == "empirical" else 0.1
        x = np.random.default_rng(m).normal(scale=3.0, size=m)
        x[0] = x.max() + 1.0
        counts = []
        for gaps in (np.zeros(m), x[0] - x):
            bound = CountingBound(MEMO_BOUNDS[family](m))
            active_radius(bound, gaps, alpha)
            counts.append((bound.calls, bound.rows))
        assert tuple(counts) == self.SOLVE_COUNTS[family, m]

    def test_bank_partitions_its_row_maxima_once(self, monkeypatch):
        bank = draw_bank(EquicorrelatedSampler(4, 0.3), 5000, seed=3)
        partitions, quantile = [], core.mc_quantile

        def counted(values, level):
            partitions.append(1)
            return quantile(values, level)

        monkeypatch.setattr(core, "mc_quantile", counted)
        first = active_radius(bank, np.zeros(4), 0.1).r
        assert active_radius(bank, np.zeros(4), 0.1).r == first
        assert partitions == [1]
        p = Problem(np.array([1.0, 0.5, 0.0, -2.0]), bank, 0.1)
        topk_interval(p, 2)  # lower side only: r0 is read, not recomputed
        assert partitions == [1]

    def test_a_new_level_is_solved_afresh(self, monkeypatch):
        b = UnionBound((SubGaussianTail(1.0),) * 3)
        calls = _count_exceedance(monkeypatch)
        r10 = active_radius(b, np.zeros(3), 0.1).r
        del calls[:]
        r05 = active_radius(b, np.zeros(3), 0.05).r
        assert calls and r05 > r10
        assert r05 == active_radius(UnionBound((SubGaussianTail(1.0),) * 3), np.zeros(3), 0.05).r
        assert set(b._r0) == {0.1, 0.05}

    def test_an_infeasible_level_raises_every_time_and_is_not_stored(self):
        b = UnionBound((GaussianTail(1.0),) * 2)
        for _ in range(3):
            with pytest.raises(InfeasibleAlphaError):
                active_radius(b, np.zeros(2), 1e-12)
        assert b._r0 == {}
        active_radius(b, np.zeros(2), 0.1)
        with pytest.raises(InfeasibleAlphaError):
            active_radius(b, np.zeros(2), 1e-12)
        assert set(b._r0) == {0.1}

    def test_the_memo_is_not_part_of_equality_hash_or_repr(self):
        warm, cold = (UnionBound((GaussianTail(1.0),) * 3) for _ in range(2))
        before = (repr(warm), hash(warm))
        active_radius(warm, np.zeros(3), 0.1)
        assert warm._r0 and not cold._r0
        assert warm == cold and hash(warm) == hash(cold) == before[1]
        assert repr(warm) == repr(cold) == before[0]
        assert "_r0" not in {f.name for f in dataclasses.fields(UnionBound)}
        bank = draw_bank(EquicorrelatedSampler(3, 0.0), 500, seed=1)
        text = repr(bank)
        active_radius(bank, np.zeros(3), 0.1)
        assert bank._r0 and repr(bank) == text
        assert "_r0" not in {f.name for f in dataclasses.fields(MonteCarloBound)}

    @pytest.mark.parametrize("family", sorted(MEMO_BOUNDS))
    def test_results_are_the_same_with_a_cold_and_a_warm_memo(self, family):
        rng = np.random.default_rng(8)
        for m, alpha in ((6, 0.1), (6, 0.05), (12, 0.2)):
            x = np.round(rng.normal(0.0, 2.0, size=m), 1)  # ties likely
            make = MEMO_BOUNDS[family]
            cold = _memo_results(make(m), x, alpha)
            warm_bound = make(m)
            active_radius(warm_bound, np.zeros(m), alpha)
            assert alpha in warm_bound._r0
            assert _memo_results(warm_bound, x, alpha) == cold
            # and again with the memo filled by those very calls
            assert _memo_results(warm_bound, x, alpha) == cold


class TestContains:
    def test_winner_score_is_always_a_member(self):
        p = gaussian_problem([4.0, 1.0, 0.5])
        assert contains(p, 4.0)

    def test_agrees_with_root_endpoints(self):
        p = gaussian_problem([10.0, 0.0])
        iv = winner_interval_root(p)
        eps = 1e-6
        assert contains(p, iv.t_l + eps)
        assert contains(p, iv.t_u - eps)
        assert not contains(p, iv.t_l - eps)
        assert not contains(p, iv.t_u + eps)


class TestWinnerIntervalRoot:
    def test_frozen_two_candidate_instance(self):
        iv = winner_interval_root(gaussian_problem([10.0, 0.0]))
        assert iv.r_l == pytest.approx(ROOT_LOWER_RADIUS, abs=1e-9)
        assert iv.r_u == pytest.approx(ROOT_UPPER_RADIUS, abs=1e-9)
        assert iv.winner == 0 and iv.method == "root"
        assert not iv.diagnostics["bonferroni_lower"]

    def test_tied_scores_hit_bonferroni_exactly(self):
        iv = winner_interval_root(gaussian_problem([5.0, 5.0, 5.0]))
        r0 = iv.diagnostics["zero_gap_radius"]
        assert iv.t_l == 5.0 - r0 and iv.t_u == 5.0 + r0
        assert iv.diagnostics["bonferroni_lower"]
        assert iv.diagnostics["bonferroni_upper"]

    def test_reduction_thresholds(self):
        # §-style characterization: lower radius sticks at the simultaneous
        # radius iff the largest gap is within 4 radii (2 radii for upper)
        for m in (2, 5, 10):
            b = UnionBound((GaussianTail(1.0),) * m)
            r0 = active_radius(b, np.zeros(m), 0.1).r
            for frac, side in ((4.0, "lower"), (2.0, "upper")):
                for delta, sticks in ((-0.01, True), (0.01, False)):
                    x = np.zeros(m)
                    x[-1] = -(frac * r0 + delta)
                    iv = winner_interval_root(Problem(x, b, 0.1))
                    r = iv.r_l if side == "lower" else iv.r_u
                    if sticks:
                        assert r == pytest.approx(r0, abs=1e-9)
                    else:
                        assert r < r0 - 1e-7

    def test_upper_radius_never_exceeds_lower(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.normal(size=rng.integers(2, 7)) * rng.uniform(0.5, 4)
            iv = winner_interval_root(gaussian_problem(x))
            assert iv.r_u <= iv.r_l + 1e-9
            assert iv.r_l <= iv.diagnostics["zero_gap_radius"] + 1e-12

    def test_zero_noise_tail_gives_point_interval(self):
        # an all-zero empirical table has zero-gap radius 0: nothing to bracket
        bound = UnionBound((EmpiricalTail([0.0, 0.0, 0.0]),) * 2)
        iv = winner_interval_root(Problem(np.array([1.0, 0.0]), bound, 0.1))
        assert (iv.t_l, iv.t_u) == (1.0, 1.0)

    def test_stores_the_radii_and_rejects_negative_ones(self):
        iv = WinnerInterval(0.25, 0.5, 3.0, 0, 0.1, "root")
        assert (iv.r_l, iv.r_u, iv.t_l, iv.t_u) == (0.25, 0.5, 2.75, 3.5)
        for r_l, r_u in ((-1e-300, 0.0), (0.0, -1.0), (np.nan, 0.0)):
            with pytest.raises(InternalCheckError):
                WinnerInterval(r_l, r_u, 3.0, 0, 0.1, "root")

    def test_rejects_mc_bound(self):
        bank = draw_bank(EquicorrelatedSampler(2, 0.0), 100, seed=0)
        p = Problem(np.array([1.0, 0.0]), bank, 0.1)
        with pytest.raises(UnsupportedMethodError):
            winner_interval_root(p)


class TestWinnerIntervalGrid:
    def test_refined_grid_matches_roots(self):
        p = gaussian_problem([10.0, 0.0])
        iv = winner_interval_grid(p, 2001, refine=True)
        assert iv.r_l == pytest.approx(ROOT_LOWER_RADIUS, abs=1e-8)
        assert iv.r_u == pytest.approx(ROOT_UPPER_RADIUS, abs=1e-8)
        # no grid is left to refine: refine changes nothing
        assert iv == winner_interval_grid(p, 101)

    def test_unrefined_grid_brackets_roots_conservatively(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.normal(size=rng.integers(2, 6)) * 2
            p = gaussian_problem(x)
            root = winner_interval_root(p)
            # no grid is left: every variant is the root solver's interval
            for grid in (winner_interval_grid(p, 501),
                         winner_interval_grid(p, 501, refine=True)):
                assert (grid.r_l, grid.r_u) == (root.r_l, root.r_u)
                assert (grid.t_l, grid.t_u) == (root.t_l, root.t_u)

    def test_single_candidate_is_marginal(self):
        iv = winner_interval_grid(gaussian_problem([3.0]), 101)
        assert iv.t_l == pytest.approx(3.0 - GAUSS_ISF_10, abs=1e-9)
        assert iv.t_u == pytest.approx(3.0 + GAUSS_ISF_10, abs=1e-9)

    def test_interval_stays_inside_bonferroni_box(self):
        p = gaussian_problem([2.0, 1.9, 0.0, -3.0])
        iv = winner_interval_grid(p, 301, refine=True)
        r0 = iv.diagnostics["zero_gap_radius"]
        assert 2.0 - r0 <= iv.t_l <= iv.t_u <= 2.0 + r0

    def test_grid_points_validation(self):
        with pytest.raises(ValueError):
            winner_interval_grid(gaussian_problem([1.0]), 2)


def _worst_case_widths(x, winner, t):
    theta = worst_case_theta(x, winner, t)
    return np.maximum(abs(x[winner] - t), 0.5 * (theta.max() - theta))


def _direct_accepts(x, winner, t, abs_rows, alpha) -> bool:
    """Acceptance of one winner value t from its definition: widths from the
    worst case, then a direct count of exceeding rows."""
    widths = _worst_case_widths(x, winner, t)
    exceed = int(np.count_nonzero(np.any(abs_rows > widths, axis=1)))
    return exceed >= _mc_accept_threshold(abs_rows.shape[0], alpha)


def _small_mc_problem(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    bank = draw_bank(EquicorrelatedSampler(m, rng.uniform(0, 0.8)), 500, seed=seed + 100)
    x = np.sort(rng.normal(size=m) * 3)[::-1].copy()
    return Problem(x, bank, 0.1)


class TestMonteCarloGridAcceptance:
    """The exact breakpoint sweep must agree with direct row counts."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_accept_mask_matches_scalar_recompute(self, seed):
        p = _small_mc_problem(seed)
        x, bank, a = p.x, p.bound, p.bound.abs_samples
        r0 = active_radius(bank, np.zeros(p.m), 0.1).r
        lo, hi = x[0] - r0, x[0] + r0

        # the t-axis exceed intervals, clipped to [lo, hi]
        upper = np.minimum(x[0] + a, x + 3.0 * a)
        pieces = _merged_pieces(np.maximum(x[0] - a, lo), np.minimum(upper, hi))
        points, accept = _mc_sweep(bank.n, 0.1, *pieces, lo, hi)
        # the count is constant on each open cell, so its midpoint decides it
        mids = 0.5 * (points[:-1] + points[1:])
        direct = np.array([_direct_accepts(x, 0, t, a, 0.1) for t in mids])
        np.testing.assert_array_equal(accept, direct)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_dense_scan_never_accepts_outside_the_hull(self, seed):
        p = _small_mc_problem(seed)
        iv = winner_interval_grid(p)
        r0 = iv.diagnostics["zero_gap_radius"]
        a = p.bound.abs_samples
        ts = np.linspace(p.x[0] - r0 - 0.5, p.x[0] + r0 + 0.5, 3001)
        accepted = ts[[_direct_accepts(p.x, 0, t, a, 0.1) for t in ts]]
        assert accepted.size > 0
        assert iv.t_l <= accepted.min() and accepted.max() <= iv.t_u
        # tight: the direct count accepts just inside both hull ends
        assert _direct_accepts(p.x, 0, iv.t_l + 1e-9, a, 0.1)
        assert _direct_accepts(p.x, 0, iv.t_u - 1e-9, a, 0.1)
        assert winner_interval_grid(p, 101, refine=True) == iv

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_radii_are_the_top1_radius_and_the_reach_quantile(self, seed):
        p = _small_mc_problem(seed)
        iv = winner_interval_grid(p)
        assert topk_interval(p, 1).r_max == iv.r_l
        # a row exceeds at t = X_win + r iff r < min(|xi_j|, 3 |xi_j| - d_j)
        # for some j: its reach, so the upper radius is their order statistic
        d = p.x[0] - p.x
        reach = [max(min(a, 3.0 * a - dj) for a, dj in zip(row, d))
                 for row in p.bound.abs_samples.tolist()]
        assert iv.r_u == mc_quantile(reach, 0.9)
        a = p.bound.abs_samples
        for r in np.linspace(0.0, iv.r_u, 7)[:-1] + 1e-9:
            assert _direct_accepts(p.x, 0, p.x[0] + r, a, 0.1)

    def test_hand_built_touching_pieces(self):
        # three rows; row 0 has touching pieces (0,1),(1,2), row 2 a nested
        # duplicate that must not count twice, and the last column is empty
        L = np.array([[0.0, 1.0, 0.0], [0.5, 3.0, 0.0], [1.0, 1.6, 0.0]])
        U = np.array([[1.0, 2.0, 0.0], [1.5, 4.0, 0.0], [3.0, 1.8, 0.0]])
        starts, ends = _merged_pieces(L, U)
        np.testing.assert_array_equal(starts, [0.0, 1.0, 0.5, 3.0, 1.0])
        np.testing.assert_array_equal(ends, [1.0, 2.0, 1.5, 4.0, 3.0])
        # cells (0,.5) (.5,1) (1,1.5) (1.5,2) (2,3) (3,4) hold 1 2 3 2 1 1 rows
        for alpha, expected in ((0.7, [0, 0, 1, 0, 0, 0]), (0.4, [0, 1, 1, 1, 0, 0])):
            points, accept = _mc_sweep(3, alpha, starts, ends, 0.0, 4.0)
            np.testing.assert_array_equal(points, [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
            np.testing.assert_array_equal(accept, np.array(expected, dtype=bool))

    def test_mc_interval_against_wider_bank_brackets(self):
        # grid interval under the empirical bound contains the winner score
        # and stays within the zero-gap box
        bank = draw_bank(EquicorrelatedSampler(3, 0.5), 4000, seed=5)
        p = Problem(np.array([2.0, 1.5, -1.0]), bank, 0.1)
        iv = winner_interval_grid(p, 401, refine=True)
        r0 = iv.diagnostics["zero_gap_radius"]
        assert iv.t_l <= 2.0 <= iv.t_u
        assert 2.0 - r0 - 1e-12 <= iv.t_l and iv.t_u <= 2.0 + r0 + 1e-12


def _count_sorted_rows(monkeypatch) -> list:
    """Wrap core._merged_pieces so each call records how many rows it merged."""
    rows, merge = [], core._merged_pieces

    def counted(L, U):
        rows.append(L.shape[0])
        return merge(L, U)

    monkeypatch.setattr(core, "_merged_pieces", counted)
    return rows


class TestLowerPieces:
    """The grown single piece at 0 and its fallback to the sort merge."""

    def test_rows_off_the_fast_path_take_the_sort(self, monkeypatch):
        # chain j covers (j/2, j/2 + 1): each pass joins one more link, so
        # a chain longer than the cap is still growing when the passes stop
        links = MAX_MERGE_PASSES + 2
        j = np.arange(links, dtype=float)
        chain = (0.5 * j + 1.0, 2.0 * j + 3.0)  # |xi| and d with L = j/2
        rows = [
            chain,
            (chain[0][:3], chain[1][:3]),  # the same chain, short: one piece (0, 2)
            (np.array([1.0, 2.0]), np.array([3.0, 7.0])),  # touching: (0, 1), (1, 2)
            (np.array([1.0]), np.array([3.5])),  # no piece at 0: (0.5, 1)
            (np.array([0.0, 1.0]), np.array([0.0, 2.0])),  # zero gap at |xi| 0: (0, 1)
            (np.array([0.5, 1.0]), np.array([0.0, 4.0])),  # empty (1, 1) past the piece: (0, 0.5)
        ]
        # each row on columns of its own; its |xi| is 0 on the others, where
        # every interval is empty (at gap 0 it is (0, 0))
        d = np.concatenate([g for _, g in rows])
        a = np.zeros((len(rows), d.size))
        stop = np.cumsum([r.size for r, _ in rows])
        for i, (r, _) in enumerate(rows):
            a[i, stop[i] - r.size:stop[i]] = r
        r0 = 100.0
        sorted_rows = _count_sorted_rows(monkeypatch)
        starts, ends, reach = _lower_pieces(a, a.max(axis=1), d, r0, upper=True)
        assert sorted_rows == [3]  # the long chain, the touching pair, the late piece
        assert reach.tobytes() == mc_reach_scan(a, d).tobytes()
        expected = _merged_pieces(np.maximum(d - 3.0 * a, 0.0), np.minimum(a, r0))
        got = sorted_pieces(starts, ends)
        for have, want in zip(got, sorted_pieces(*expected)):
            assert have.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got[0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(got[1], [0.5, 1.0, 1.0, 2.0, 0.5 * links + 0.5, 1.0, 2.0])

    def test_fast_path_serves_an_equicorrelated_winner_call(self, monkeypatch):
        # scores and bank as in the benchmark's m = 250 bank: the sort
        # merge must stay a fallback for a few rows, not the common path
        m, n = 250, 20_000
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, m)
        x[:3] += (2.0, 1.5, 1.0)
        p = Problem(x, draw_bank(EquicorrelatedSampler(m, 0.5), n, seed=11), 0.1)
        sorted_rows = _count_sorted_rows(monkeypatch)
        iv = winner_interval_grid(p)
        assert iv.t_l < x[0] < iv.t_u
        assert len(sorted_rows) >= 1 and sum(sorted_rows) < 0.01 * n


def test_winner_and_topk_calls_read_the_bank_once(monkeypatch):
    # r0 comes from the bank's stored row maxima, and the lower pieces and
    # the upper reaches from one fused scan, so each call is one pass
    bank = draw_bank(EquicorrelatedSampler(6, 0.4), 30_000, seed=21)
    p = Problem(np.array([1.5, 1.2, 0.4, -0.3, 0.0, -1.0]), bank, 0.1)
    assert len(list(bank.blocks())) > 1
    scans, blocks = [], MonteCarloBound.blocks

    def counted(self):
        scans.append(1)
        return blocks(self)

    monkeypatch.setattr(MonteCarloBound, "blocks", counted)
    winner_interval_grid(p)
    assert scans == [1]
    topk_interval(p, 3)
    assert scans == [1, 1]


# alpha 0.1, Gaussian tails: above 1.75 the lower sum exceeds alpha only on a
# narrow bump around R1 (by 1e-6 at R1); a search that steps over the bump
# returns a lower radius near 1.748
R1 = 3.0961058
BUMP_SCORES = np.concatenate([[0.0], np.full(50, -4.0 * R1), np.full(500, -100.0)])


class TestUnionRadiusSolver:
    def test_narrow_bump_is_not_stepped_over(self):
        x = BUMP_SCORES
        d = x[0] - x
        # independently of the package: the lower sum at R1 exceeds alpha
        lower_sum = np.sum(2.0 * norm.sf(np.maximum(R1, (d - R1) / 3.0)))
        assert lower_sum > 0.1
        p = gaussian_problem(x)
        for iv in (winner_interval_root(p), winner_interval_grid(p),
                   winner_interval_grid(p, refine=True)):
            assert iv.r_l >= R1
        assert topk_interval(p, 1).r_max >= R1

    def test_cell_bound_dominates_worst_case_sum(self):
        rng = np.random.default_rng(23)
        models = (GaussianTail(1.0), SubGaussianTail(1.3),
                  EmpiricalTail(np.linspace(0.0, 4.0, 41)))
        for trial in range(120):
            model = models[trial % 3]
            m = int(rng.integers(1, 30))
            x = rng.normal(size=m) * rng.uniform(0.5, 6.0)
            bound = UnionBound((model,) * m)
            i_hat = int(np.argmax(x))
            d = x[i_hat] - x
            a, b = np.sort(rng.uniform(0.0, 5.0, size=2))
            for lower in (True, False):
                widths = _cell_widths(d, lower, a, b)
                cell = bound.exceedance(widths)
                for r in rng.uniform(a, b, size=20):
                    # the sum at r, straight from the worst-case configuration
                    # (its own rounding may pass the bound's by an ulp)
                    t = x[i_hat] - r if lower else x[i_hat] + r
                    theta = worst_case_theta(x, i_hat, t)
                    direct_widths = np.maximum(r, 0.5 * (theta.max() - theta))
                    assert cell >= bound.exceedance(direct_widths) - 1e-12
                    # term by term: no cell width exceeds the width at r
                    assert np.all(widths <= direct_widths + 1e-12)
            # a point cell is the sum at that point
            assert (bound.exceedance(_cell_widths(d, True, a, a))
                    == endpoint_sum(bound, d, a, -1.0))


def _counted_searches(x, anchor: int, alpha=0.1):
    """(look-ahead, one-step) counting bounds after ``_union_radii`` and its
    one-step reference ran on the gaps to the ``anchor``-th score, with both
    sides for the winner (anchor 1), checking they agree."""
    bound = UnionBound((GaussianTail(1.0),) * x.size)
    r0 = active_radius(bound, np.zeros(x.size), alpha).r
    d = np.sort(x)[-anchor] - x
    ahead, one_step = CountingBound(bound), CountingBound(bound)
    got = _union_radii(ahead, d, alpha, r0, (True, False)[:1 + (anchor == 1)])
    assert got == union_radii_one_step(one_step, d, alpha, r0, anchor == 1)
    assert got[1] > 0  # some side searched
    return ahead, one_step


class TestLookAhead:
    """The look-ahead asks for rows ahead of need only where a call is cheap."""

    @pytest.mark.parametrize("anchor", [1, 3])
    def test_large_m_keeps_the_one_step_calls_and_rows(self, anchor):
        rng = np.random.default_rng(31)
        x = np.concatenate([[16.0, 15.5, 15.0], rng.normal(size=9997)])
        ahead, one_step = _counted_searches(x, anchor)
        assert (ahead.calls, ahead.rows) == (one_step.calls, one_step.rows)

    @pytest.mark.parametrize("lead", [20.0, 8.0, 0.0])
    def test_small_m_winner_interval_makes_5x_fewer_calls(self, lead):
        rng = np.random.default_rng(32)
        x = np.concatenate([[lead], rng.normal(size=9)])
        ahead, one_step = _counted_searches(x, 1)
        assert 5 * ahead.calls <= one_step.calls

    def test_winner_interval_makes_the_counted_calls(self, monkeypatch):
        # once r0 is in the bound's memo, the entry point makes the search's calls
        x = np.concatenate([[20.0], np.random.default_rng(32).normal(size=9)])
        p = gaussian_problem(x)
        active_radius(p.bound, np.zeros(x.size), p.alpha)
        ahead, _ = _counted_searches(x, 1)
        calls = _count_exceedance(monkeypatch)
        assert winner_interval_root(p).r_l > 0.0
        assert len(calls) == ahead.calls


def _protocol_results(bound, x, alpha=0.1):
    """Every solver entry point that takes a stack bound, on scores x: reprs
    of the results (diagnostics included), so equal lists are bit-identical
    results."""
    m = x.size
    p = Problem(x, bound, alpha)
    d = x.max() - x
    out = [active_radius(bound, np.zeros(m), alpha), active_radius(bound, d, alpha),
           winner_interval_root(p), winner_interval_grid(p), topk_interval(p, min(3, m)),
           winner_interval_scaled(ScaledProblem(p, np.linspace(0.5, 2.0, m)))]
    if bound.exchangeable:
        out += [population_value_interval(p), winner_identity_set(p),
                near_winner_interval(p, m - 1)]
    else:
        for fn in (population_value_interval, winner_identity_set):
            with pytest.raises(UnsupportedMethodError):
                fn(p)
    return [repr(r) for r in out]


class TestStackBoundProtocol:
    """A stack bound of another class gets the wrapped union's results from
    every solver that reads what a bound can do; the solvers name no class."""

    @pytest.mark.parametrize("m", [1, 3, 10, 100])
    @pytest.mark.parametrize("shape", ["lone", "cluster", "tied"])
    @pytest.mark.parametrize("scales", ["identical", "distinct"])
    def test_wrapped_union_gives_the_union_results(self, m, shape, scales):
        rng = np.random.default_rng(m)
        x = {"lone": np.concatenate([[6.0], rng.normal(size=m - 1)]),
             "cluster": 0.3 * rng.normal(size=m),
             "tied": np.full(m, 2.5)}[shape]
        s = np.ones(m) if scales == "identical" else np.linspace(1.0, 2.0, m)
        models = tuple(GaussianTail(float(v)) for v in s)
        union, fake = UnionBound(models), CountingBound(UnionBound(models))
        assert _protocol_results(fake, x) == _protocol_results(union, x)
        assert fake.calls > 0

    def test_stepdown_refuses_a_stack_bound_without_marginals(self):
        p = Problem(np.array([1.0, 0.0]), CountingBound(UnionBound((GaussianTail(1.0),) * 2)),
                    0.1)
        with pytest.raises(UnsupportedMethodError):
            winner_interval_stepdown(p)
        with pytest.raises(UnsupportedMethodError):
            topk_stepdown(p, 1)
