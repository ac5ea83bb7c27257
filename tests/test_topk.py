import numpy as np
import pytest

from zoomcurse.core import (Problem, _mc_accept_threshold, _mc_sweep, active_radius,
                            winner_interval_grid)
from zoomcurse.errors import UnsupportedMethodError
from zoomcurse.sampling import EquicorrelatedSampler, draw_bank
from zoomcurse.tails import GaussianTail, UnionBound
from zoomcurse.topk import TopKResult, top_indices, topk_interval, topk_stepdown

from oracles import gaps_topk, merged_pieces, tilde_theta, worst_case_theta

GAUSS = GaussianTail(1.0)

# m=3, k=2, scores (10, 9.9, 0), alpha 0.1 — frozen reference run
TOPK_GRID_RADIUS = 1.9973859927892882      # refined grid boundary
TOPK_SD_STEP2_BUDGET = 0.09042055785332687
TOPK_SD_RADIUS = 2.0026927363346538


def gaussian_problem(x, alpha=0.1):
    x = np.asarray(x, dtype=float)
    return Problem(x, UnionBound((GAUSS,) * x.size), alpha)


class TestSelectionHelpers:
    def test_top_indices_ranked_with_low_ties(self):
        x = np.array([5.0, 7.0, 7.0, 3.0])
        np.testing.assert_array_equal(top_indices(x, 2), [1, 2])
        np.testing.assert_array_equal(top_indices(x, 1), [1])
        np.testing.assert_array_equal(top_indices(x, 4), [1, 2, 0, 3])
        with pytest.raises(ValueError):
            top_indices(x, 5)
        with pytest.raises(ValueError):
            top_indices(x, 0)

    def test_gaps_topk_hand_values(self):
        theta = np.array([10.0, 9.9, 0.0])
        np.testing.assert_allclose(gaps_topk(theta, 2), [0.0, 0.0, 9.9])
        np.testing.assert_allclose(gaps_topk(theta, 1), [0.0, 0.1, 10.0])
        np.testing.assert_allclose(gaps_topk(theta, 3), [0.0, 0.0, 0.0])

    def test_tilde_theta_k1_matches_winner_worst_case(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=5) * 4
            r = rng.uniform(0.1, 3.0)
            i_hat = int(np.argmax(x))
            np.testing.assert_allclose(
                tilde_theta(x, 1, r), worst_case_theta(x, i_hat, x[i_hat] - r),
                rtol=0, atol=1e-12)

    def test_tilde_theta_winners_pinned(self):
        x = np.array([10.0, 9.9, 0.0, -4.0])
        th = tilde_theta(x, 2, 1.5)
        assert th[0] == 10.0 - 1.5 and th[1] == 9.9 - 1.5
        assert np.all(th[2:] <= 9.9 - 1.5)
        # losers still rank below the shifted anchor
        np.testing.assert_array_equal(top_indices(th, 2), [0, 1])


class TestTopkInterval:
    def test_frozen_grid_instance(self):
        res = topk_interval(gaussian_problem([10.0, 9.9, 0.0]), 2)
        assert res.winners == (0, 1)
        assert res.r_max == pytest.approx(TOPK_GRID_RADIUS, abs=1e-8)
        np.testing.assert_allclose(
            res.boxes, [[10.0 - res.r_max, 10.0 + res.r_max],
                        [9.9 - res.r_max, 9.9 + res.r_max]])

    def test_k1_recovers_winner_lower_radius(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            p = gaussian_problem(rng.normal(size=4) * 3)
            box = topk_interval(p, 1, 801)
            iv = winner_interval_grid(p, 801, refine=True)
            assert box.r_max == pytest.approx(iv.r_l, abs=1e-8)

    def test_k_equal_m_ties_give_zero_gap_radius(self):
        p = gaussian_problem([5.0, 5.0, 5.0])
        r0 = active_radius(p.bound, np.zeros(3), 0.1).r
        res = topk_interval(p, 3, 501)
        assert res.r_max == pytest.approx(r0, rel=1e-12)
        assert res.r_max <= r0
        sd = topk_stepdown(p, 3)
        assert sd.r_max == pytest.approx(r0, abs=1e-9)

    def test_unrefined_rounds_outward(self):
        p = gaussian_problem([10.0, 9.9, 0.0])
        coarse = topk_interval(p, 2, 101)
        # no grid is left to round: it is the default solver's radius
        assert coarse.r_max == topk_interval(p, 2).r_max

    def test_grid_points_validation(self):
        with pytest.raises(ValueError):
            topk_interval(gaussian_problem([1.0, 0.0]), 1, 2)


class TestTopkStepdown:
    def test_frozen_trace(self):
        res = topk_stepdown(gaussian_problem([10.0, 9.9, 0.0]), 2)
        tr = res.diagnostics["trace"]
        assert tr.n_steps == 2
        assert tr.steps[0].radius == pytest.approx(2.1280452341849847, abs=1e-12)
        assert tr.steps[1].budget == pytest.approx(TOPK_SD_STEP2_BUDGET, abs=1e-12)
        assert res.r_max == pytest.approx(TOPK_SD_RADIUS, abs=1e-9)

    def test_dominates_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, m + 1))
            p = gaussian_problem(rng.normal(size=m) * rng.uniform(0.5, 5))
            grid = topk_interval(p, k, 401)
            sd = topk_stepdown(p, k)
            assert sd.r_max >= grid.r_max - 1e-9
            assert sd.winners == grid.winners

    def test_needs_one_shared_marginal(self):
        p = Problem(np.array([1.0, 0.0]),
                    UnionBound((GaussianTail(1.0), GaussianTail(2.0))), 0.1)
        with pytest.raises(UnsupportedMethodError):
            topk_stepdown(p, 1)


def _direct_topk_accepts(x, k, r, abs_rows, alpha) -> bool:
    """Acceptance of one radius r from its definition: widths from
    tilde_theta and gaps_topk, then a direct count of exceeding rows."""
    widths = np.maximum(r, 0.5 * gaps_topk(tilde_theta(x, k, r), k))
    exceed = int(np.count_nonzero(np.any(abs_rows > widths, axis=1)))
    return exceed >= _mc_accept_threshold(abs_rows.shape[0], alpha)


class TestTopkMonteCarlo:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accept_mask_matches_scalar_recompute(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m + 1))
        bank = draw_bank(EquicorrelatedSampler(m, rng.uniform(0, 0.7)), 400,
                         seed=seed + 31)
        p = Problem(rng.normal(size=m) * 2, bank, 0.1)
        dhat = p.x[top_indices(p.x, k)[-1]] - p.x
        r0 = active_radius(bank, np.zeros(m), 0.1).r
        a = bank.abs_samples
        points, accept = _mc_sweep(bank.n, 0.1, *merged_pieces(
            np.maximum(dhat - 3.0 * a, 0.0), np.minimum(a, r0)), 0.0, r0)
        mids = 0.5 * (points[:-1] + points[1:])
        direct = [_direct_topk_accepts(p.x, k, r, bank.abs_samples, 0.1) for r in mids]
        np.testing.assert_array_equal(accept, direct)
        # no radius beyond r_max is accepted, and r_max is tight
        res = topk_interval(p, k)
        rs = np.linspace(0.0, r0 + 0.5, 2001)
        ok = [_direct_topk_accepts(p.x, k, r, bank.abs_samples, 0.1) for r in rs]
        assert rs[ok].max() <= res.r_max
        assert _direct_topk_accepts(p.x, k, res.r_max - 1e-9, bank.abs_samples, 0.1)
        assert topk_interval(p, k, 101).r_max == res.r_max

    def test_mc_interval_runs_and_stays_in_budget_box(self):
        bank = draw_bank(EquicorrelatedSampler(3, 0.4), 3000, seed=4)
        p = Problem(np.array([2.0, 1.8, -1.0]), bank, 0.1)
        res = topk_interval(p, 2, 401)
        assert isinstance(res, TopKResult)
        assert 0.0 < res.r_max <= res.diagnostics["zero_gap_radius"] + 1e-12
