import numpy as np
import pytest

from zoomcurse.core import Problem, winner_interval_root
from zoomcurse.errors import InfeasibleAlphaError, UnsupportedMethodError
from zoomcurse.sampling import EquicorrelatedSampler, draw_bank
from zoomcurse.stepdown import (marginal_model, stepdown_lower, stepdown_upper,
                                winner_interval_stepdown)
from zoomcurse.tails import GaussianTail, SubGaussianTail, UnionBound

from oracles import endpoint_sum

GAUSS = GaussianTail(1.0)

# hand-traced two-candidate run, gaps (10, 0), alpha 0.1, frozen against a
# 50-digit erf oracle
LOWER_STEP1_RADIUS = 1.9599639845400542   # isf(0.05)
LOWER_STEP2_BUDGET = 0.09263804801722296  # 0.1 - sf((10 - r1) / 3)
LOWER_RADIUS = 1.6816432014833371
UPPER_STEP2_BUDGET = 0.09989623616502226  # 0.1 - sf((10 + isf(0.1)) / 3)
UPPER_RADIUS = 1.6453568806843894


class TestLowerTrace:
    def test_frozen_two_candidate_trace(self):
        tr = stepdown_lower(np.array([10.0, 0.0]), GAUSS, 0.1)
        assert tr.side == "lower" and tr.n_steps == 2
        s1, s2 = tr.steps
        assert (s1.coordinate, s1.gap, s1.stopped) == (0, 10.0, False)
        assert s1.budget == 0.1
        assert s1.radius == pytest.approx(LOWER_STEP1_RADIUS, abs=1e-12)
        assert (s2.coordinate, s2.gap, s2.stopped) == (1, 0.0, True)
        assert s2.budget == pytest.approx(LOWER_STEP2_BUDGET, abs=1e-12)
        assert tr.radius == pytest.approx(LOWER_RADIUS, abs=1e-9)
        assert tr.radius == s2.radius

    def test_single_candidate_is_marginal_quantile(self):
        tr = stepdown_lower(np.array([0.0]), GAUSS, 0.1)
        assert tr.radius == pytest.approx(1.6448536269514722, abs=1e-12)
        assert tr.n_steps == 1 and tr.steps[0].stopped

    def test_small_gaps_stop_at_step_one(self):
        # every gap within 4 radii: full Bonferroni share, no deductions
        tr = stepdown_lower(np.array([0.0, 1.0, 2.0]), GAUSS, 0.1)
        assert tr.n_steps == 1
        assert tr.radius == pytest.approx(GAUSS.isf(0.1 / 3), abs=1e-12)

    def test_steps_walk_gaps_in_decreasing_order(self):
        tr = stepdown_lower(np.array([0.0, 30.0, 12.0, 25.0]), GAUSS, 0.1)
        gaps_seen = [s.gap for s in tr.steps]
        assert gaps_seen == sorted(gaps_seen, reverse=True)
        assert [s.coordinate for s in tr.steps][:3] == [1, 3, 2]


class TestUpperTrace:
    def test_frozen_two_candidate_trace(self):
        tr = stepdown_upper(np.array([10.0, 0.0]), GAUSS, 0.1)
        assert tr.n_steps == 2
        assert tr.steps[1].budget == pytest.approx(UPPER_STEP2_BUDGET, abs=1e-12)
        assert tr.radius == pytest.approx(UPPER_RADIUS, abs=1e-9)

    def test_stops_later_than_lower(self):
        # 2r < gap < 4r: the lower run stops immediately, the upper keeps going
        g = np.array([0.0, 6.5])
        low = stepdown_lower(g, GAUSS, 0.1)
        up = stepdown_upper(g, GAUSS, 0.1)
        assert low.n_steps == 1 and up.n_steps == 2

    def test_many_far_rivals_clamp_at_bonferroni(self):
        # rivals 7.9-9.5 below the winner: each refund S((gap + r_base)/3)
        # outruns the per-rival share until the budget runs out
        m = 1000
        gaps = np.concatenate([[0.0], np.random.default_rng(0).uniform(7.9, 9.5, m - 1)])
        tr = stepdown_upper(gaps, GAUSS, 0.1)
        assert tr.steps[-1].radius > 4.5  # where the walk itself stopped
        assert tr.radius == GAUSS.isf(0.1 / m)
        s_u = endpoint_sum(UnionBound((GAUSS,) * m), gaps, tr.radius, +1.0)
        assert s_u <= 0.1
        assert stepdown_lower(gaps, GAUSS, 0.1).radius <= tr.radius

    def test_exhausted_budget_stops_at_bonferroni(self):
        # 106 rivals 8.25 below: the budget runs out while every gap still
        # exceeds two radii, which used to raise InfeasibleAlphaError
        m = 107
        gaps = np.concatenate([[0.0], np.full(m - 1, 8.25)])
        tr = stepdown_upper(gaps, GAUSS, 0.1)
        last = tr.steps[-1]
        assert last.budget < 0 and last.stopped and last.gap > 2 * last.radius
        assert tr.radius == GAUSS.isf(0.1 / m)

    def test_budget_never_below_refund(self):
        tr = stepdown_upper(np.array([0.0, 8.0, 9.0, 50.0]), GAUSS, 0.1)
        budgets = [s.budget for s in tr.steps]
        assert budgets == sorted(budgets, reverse=True)
        assert budgets[-1] > 0


class TestDominance:
    """Step-down radii sit above the endpoint-equation roots and still
    satisfy the simultaneous error budget."""

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            x = rng.normal(size=m) * rng.uniform(0.5, 6.0)
            bound = UnionBound((GAUSS,) * m)
            p = Problem(x, bound, 0.1)
            root = winner_interval_root(p)
            sd = winner_interval_stepdown(p)
            assert sd.r_l >= root.r_l - 1e-9
            assert sd.r_u >= root.r_u - 1e-9
            dhat = x[p.winner] - x
            assert endpoint_sum(bound, dhat, sd.r_l, -1.0) <= 0.1 + 1e-9
            assert endpoint_sum(bound, dhat, sd.r_u, +1.0) <= 0.1 + 1e-9

    def test_subgaussian_marginals(self):
        x = np.array([4.0, 0.0, -2.0])
        bound = UnionBound((SubGaussianTail(1.0),) * 3)
        p = Problem(x, bound, 0.05)
        root = winner_interval_root(p)
        sd = winner_interval_stepdown(p)
        assert sd.r_l >= root.r_l - 1e-9 and sd.r_u >= root.r_u - 1e-9


class TestValidationAndInterval:
    def test_unanchored_gaps_rejected(self):
        with pytest.raises(ValueError):
            stepdown_lower(np.array([1.0, 2.0]), GAUSS, 0.1)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            stepdown_lower(np.array([0.0]), GAUSS, 0.0)

    def test_tiny_alpha_is_infeasible(self):
        with pytest.raises(InfeasibleAlphaError):
            stepdown_lower(np.zeros(4), GAUSS, 1e-13)

    def test_marginal_model_refusals(self):
        bank = draw_bank(EquicorrelatedSampler(2, 0.0), 50, seed=0)
        with pytest.raises(UnsupportedMethodError):
            marginal_model(bank)
        mixed = UnionBound((GaussianTail(1.0), GaussianTail(2.0)))
        with pytest.raises(UnsupportedMethodError):
            marginal_model(mixed)
        assert marginal_model(UnionBound((GAUSS, GAUSS))) is GAUSS

    def test_interval_wraps_the_two_radii(self):
        p = Problem(np.array([10.0, 0.0]), UnionBound((GAUSS, GAUSS)), 0.1)
        iv = winner_interval_stepdown(p)
        assert iv.method == "stepdown"
        assert iv.t_l == pytest.approx(10.0 - LOWER_RADIUS, abs=1e-9)
        assert iv.t_u == pytest.approx(10.0 + UPPER_RADIUS, abs=1e-9)
        assert iv.diagnostics["lower_trace"].side == "lower"
        assert iv.diagnostics["upper_trace"].side == "upper"
