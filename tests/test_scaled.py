import numpy as np
import pytest

from zoomcurse.core import Problem, active_radius, winner_interval_grid
from zoomcurse.errors import UnsupportedMethodError
from zoomcurse.sampling import EquicorrelatedSampler, draw_bank
from zoomcurse.scaled import ScaledProblem, _ScaledTest, winner_interval_scaled
from zoomcurse.tails import EmpiricalTail, GaussianTail, SubGaussianTail, UnionBound

from oracles import (active_radius_scaled, scaled_sums, scaled_worst_case,
                     worst_case_theta)

GAUSS_ISF_10 = 1.6448536269514722


def gaussian_problem(x, alpha=0.1):
    x = np.asarray(x, dtype=float)
    return Problem(x, UnionBound((GaussianTail(1.0),) * x.size), alpha)


def random_scaled_problem(rng, family: int, alpha: float = 0.1) -> ScaledProblem:
    """m = 2..5 with a Gaussian, sub-Gaussian or empirical tail.  About half
    the draws are a lone leader, each rival 1 to 4 times (2 sigma_win +
    sigma_j) below it, so that some lower ends leave the Bonferroni box."""
    m = int(rng.integers(2, 6))
    model = (GaussianTail(1.0), SubGaussianTail(1.2),
             EmpiricalTail(np.abs(rng.standard_t(5, size=300))))[family]
    sigma = rng.uniform(0.3, 3.0, size=m)
    if rng.random() < 0.5:
        x = rng.normal(size=m) * rng.uniform(0.5, 6.0)
    else:
        x = np.concatenate([[0.0], -(2.0 * sigma[0] + sigma[1:])
                            * rng.uniform(1.0, 4.0, size=m - 1)])
    return ScaledProblem(Problem(x, UnionBound((model,) * m), alpha), sigma)


class TestScaledProblem:
    def test_validation(self):
        p = gaussian_problem([1.0, 0.0])
        with pytest.raises(ValueError):
            ScaledProblem(p, np.array([1.0]))
        with pytest.raises(ValueError):
            ScaledProblem(p, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ScaledProblem(p, np.array([1.0, np.inf]))
        sp = ScaledProblem(p, np.array([1.0, 2.0]))
        assert sp.m == 2 and sp.winner == 0


class TestScaledActiveRadius:
    def test_unit_sigma_reduces_exactly(self):
        rng = np.random.default_rng(0)
        b = UnionBound((GaussianTail(1.0),) * 4)
        for _ in range(20):
            theta = rng.normal(size=4) * 3
            gaps = theta.max() - theta
            plain = active_radius(b, gaps, 0.1)
            scaled = active_radius_scaled(b, theta, np.ones(4), 0.1)
            assert scaled.r == plain.r  # 2 * (g / 2) is exact
            assert scaled.active == plain.active

    def test_small_sigma_winner_narrows_radius(self):
        # rival widths shrink when the loser coordinates are noisier
        b = UnionBound((GaussianTail(1.0),) * 2)
        theta = np.array([5.0, 0.0])
        tight = active_radius_scaled(b, theta, np.array([1.0, 1.0]), 0.1)
        loose = active_radius_scaled(b, theta, np.array([1.0, 9.0]), 0.1)
        # larger rival sigma shrinks the scaled gap, pulling it back into
        # the active set and pushing the radius toward the zero-gap value
        assert loose.r >= tight.r
        assert loose.active == (0, 1) and tight.active == (0,)


class TestScaledWorstCase:
    def test_unit_sigma_matches_basic_worst_case(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=5) * 4
            winner = int(np.argmax(x))
            t = float(rng.normal() * 4)
            got = scaled_worst_case(x, winner, t, t, winner, np.ones(5))
            np.testing.assert_array_equal(got, worst_case_theta(x, winner, t))

    def test_pins_and_ordering(self):
        x = np.array([3.0, 1.0, -2.0])
        sigma = np.array([0.5, 2.0, 1.0])
        theta = scaled_worst_case(x, 0, 2.0, 4.0, 1, sigma)
        assert theta[0] == 2.0 and theta[1] == 4.0
        assert np.all(theta <= 4.0 + 1e-15)

    def test_validation(self):
        x = np.array([3.0, 1.0])
        s = np.ones(2)
        with pytest.raises(ValueError):
            scaled_worst_case(x, 0, 2.0, 1.0, 1, s)   # t_star below t
        with pytest.raises(ValueError):
            scaled_worst_case(x, 0, 2.0, 3.0, 0, s)   # winner as i_star, t_star != t
        with pytest.raises(ValueError):
            scaled_worst_case(x, 2, 2.0, 2.0, 0, s)
        with pytest.raises(ValueError):
            scaled_worst_case(x, 0, 2.0, 2.0, -1, s)


class TestCellBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_bound_dominates_direct_sum(self, seed):
        # at random points of random cells, and for every i*, each bound the
        # solver drops cells with is >= the sum built from scaled_worst_case
        # (1e-12 slack for the direct path's own rounding)
        rng = np.random.default_rng(seed)
        sp = random_scaled_problem(rng, seed % 3)
        test = _ScaledTest(sp)
        bound, win = sp.base.bound, sp.winner
        xw, s = sp.base.x[win], sp.sigma[win]
        r0 = active_radius(bound, np.zeros(sp.m), sp.base.alpha).r
        for _ in range(25):
            a, b = np.sort(rng.uniform(0.0, r0, size=2))
            r = rng.uniform(a, b)
            t = xw - r * s
            assert bound.exceedance(test.winner_row(a, b)) >= \
                scaled_sums(sp, t, t, win) - 1e-12
            ua = rng.uniform(0.0, r * s)
            ub = rng.uniform(ua, b * s)
            u = rng.uniform(ua, min(ub, r * s))
            for i in range(sp.m):
                if i != win:
                    cell = (np.array([i]), np.array([ua]), np.array([ub]))
                    assert bound.exceedance(test.rival_rows(a, *cell))[0] >= \
                        scaled_sums(sp, t, xw - u, i) - 1e-12
            t_up = xw + rng.uniform(a, r0) * s
            rows = bound.exceedance(test.upper_rows(a))
            for i in range(sp.m):
                assert rows[i] >= scaled_sums(sp, t_up, t_up, i) - 1e-12


class TestTStarLemma:
    @pytest.mark.parametrize("family", range(3))
    def test_sum_never_rises_beyond_max_of_t_and_winner_score(self, family):
        # the reason the solver needs no upper end for t*
        rng = np.random.default_rng(40 + family)
        for _ in range(15):
            sp = random_scaled_problem(rng, family)
            win = sp.winner
            xw = sp.base.x[win]
            r0 = active_radius(sp.base.bound, np.zeros(sp.m), sp.base.alpha).r
            reach = r0 * float(sp.sigma.max())
            for t in rng.uniform(xw - 3.0 * reach, xw + reach, size=6):
                t_star = max(t, xw) + np.sort(rng.uniform(0.0, 3.0 * reach, size=40))
                t_star[0] = max(t, xw)
                for i in range(sp.m):
                    if i != win:
                        sums = scaled_sums(sp, t, t_star, i)
                        # 1e-15: rounding of the direct path
                        assert np.all(np.diff(sums) <= 1e-15)


class TestBruteForce:
    """The solver against a dense (t, i*, t*) scan of the direct sums.

    t runs over the Bonferroni box and t* over the long range
    [t, X_win + r0 * max(sigma)] the former t* grid spanned.
    """

    N_T = N_STAR = 301

    def accepted(self, sp):
        x, sigma, win, alpha = sp.base.x, sp.sigma, sp.winner, sp.base.alpha
        r0 = active_radius(sp.base.bound, np.zeros(sp.m), alpha).r
        ts = np.linspace(x[win] - r0 * sigma[win], x[win] + r0 * sigma[win], self.N_T)
        top = x[win] + r0 * sigma.max()
        accept = np.asarray(scaled_sums(sp, ts, ts, win)) > alpha
        frac = np.linspace(0.0, 1.0, self.N_STAR)
        t_star = ts[:, None] + frac * np.maximum(top - ts, 0.0)[:, None]
        for i in range(sp.m):
            if i != win:
                accept |= (np.asarray(scaled_sums(sp, ts[:, None], t_star, i))
                           > alpha).any(axis=1)
        return ts, accept, ts[1] - ts[0]

    @pytest.mark.parametrize("alpha", (0.05, 0.1, 0.2))
    def test_no_accepted_value_outside_and_hull_is_tight(self, alpha):
        rng = np.random.default_rng(int(alpha * 1000))
        interior = 0
        for k in range(12):
            sp = random_scaled_problem(rng, k % 3, alpha)
            iv = winner_interval_scaled(sp)
            ts, accept, step = self.accepted(sp)
            # grid points at the box edge may land an ulp beyond it
            assert not np.any(accept & ((ts < iv.t_l - 1e-12) | (ts > iv.t_u + 1e-12)))
            hull = ts[accept]
            assert iv.t_l >= hull.min() - 2.0 * step
            assert iv.t_u <= hull.max() + 2.0 * step
            interior += not iv.diagnostics["bonferroni_lower"]
        assert interior > 0  # some lower ends come from the search, not the box


class TestScaledInterval:
    def test_unit_sigma_is_bit_identical_to_basic_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            p = gaussian_problem(rng.normal(size=m) * 3)
            scaled = winner_interval_scaled(ScaledProblem(p, np.ones(m)), 301)
            basic = winner_interval_grid(p)
            assert (scaled.t_l, scaled.t_u) == (basic.t_l, basic.t_u)

    def test_grid_points_change_nothing(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            sp = random_scaled_problem(rng, 0)
            coarse = winner_interval_scaled(sp, 3)
            fine = winner_interval_scaled(sp, 2001)
            assert (coarse.t_l, coarse.t_u) == (fine.t_l, fine.t_u)
            assert coarse.diagnostics == fine.diagnostics

    def test_single_candidate_scales_the_marginal(self):
        p = gaussian_problem([3.0])
        iv = winner_interval_scaled(ScaledProblem(p, np.array([2.0])))
        assert iv.t_l == pytest.approx(3.0 - 2 * GAUSS_ISF_10, abs=1e-6)
        assert iv.t_u == pytest.approx(3.0 + 2 * GAUSS_ISF_10, abs=1e-6)

    def test_low_noise_winner_gets_narrower_interval(self):
        x = np.array([2.0, 1.9, 0.0])
        p = gaussian_problem(x)
        even = winner_interval_scaled(ScaledProblem(p, np.ones(3)), 501)
        quiet = winner_interval_scaled(
            ScaledProblem(p, np.array([0.25, 1.0, 1.0])), 501)
        assert quiet.width < even.width
        assert quiet.t_l <= 2.0 <= quiet.t_u

    def test_interval_stays_inside_scaled_box(self):
        x = np.array([2.0, 1.0, -1.0])
        sigma = np.array([0.5, 1.5, 1.0])
        iv = winner_interval_scaled(ScaledProblem(gaussian_problem(x), sigma), 501)
        r0 = iv.diagnostics["zero_gap_radius"]
        assert 2.0 - r0 * 0.5 - 1e-12 <= iv.t_l <= iv.t_u <= 2.0 + r0 * 0.5 + 1e-12
        assert iv.method == "scaled"

    def test_rejects_monte_carlo_bounds(self):
        bank = draw_bank(EquicorrelatedSampler(2, 0.0), 100, seed=0)
        p = Problem(np.array([1.0, 0.0]), bank, 0.1)
        with pytest.raises(UnsupportedMethodError):
            winner_interval_scaled(ScaledProblem(p, np.ones(2)))

    def test_grid_points_validation(self):
        sp = ScaledProblem(gaussian_problem([1.0, 0.0]), np.ones(2))
        with pytest.raises(ValueError):
            winner_interval_scaled(sp, 1)
