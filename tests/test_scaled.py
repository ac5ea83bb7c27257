import numpy as np
import pytest

from zoomcurse.core import Problem, active_radius, winner_interval_grid
from zoomcurse.errors import UnsupportedMethodError
from zoomcurse.sampling import EquicorrelatedSampler, draw_bank
from zoomcurse.scaled import (ScaledProblem, _accept_grid_t,
                              active_radius_scaled, scaled_worst_case,
                              winner_interval_scaled)
from zoomcurse.tails import GaussianTail, UnionBound

from oracles import union_grid_interval, worst_case_theta

GAUSS_ISF_10 = 1.6448536269514722


def gaussian_problem(x, alpha=0.1):
    x = np.asarray(x, dtype=float)
    return Problem(x, UnionBound((GaussianTail(1.0),) * x.size), alpha)


def slow_accept(x, sigma, bound, alpha, i_hat, t, t_hi, n_star):
    """Unvectorized re-derivation of the (i*, t*) membership scan."""
    m = x.size
    ts = np.linspace(t, max(t_hi, t), n_star)
    w0 = abs(x[i_hat] - t) / sigma[i_hat]
    for i_star in range(m):
        for s, t_star in enumerate(ts):
            if i_star == i_hat and s > 0:
                continue
            req = max(w0, abs(x[i_star] - t_star) / sigma[i_star])
            for j in range(m):
                if x[j] >= t_star:
                    req = max(req, abs(x[j] - t_star) / sigma[j])
            v = np.empty(m)
            for j in range(m):
                if j == i_star:
                    d = 0.0
                elif j == i_hat:
                    d = (t_star - t) / (sigma[i_hat] + sigma[i_star])
                else:
                    d = max(t_star - x[j], 0.0) / (2.0 * sigma[j] + sigma[i_star])
                v[j] = max(req, d)
            if bound.exceedance(v) > alpha:
                return True
    return False


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


class TestMembershipScan:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unvectorized_scan(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        scales = rng.uniform(0.5, 2.0, size=m)
        bound = UnionBound(tuple(GaussianTail(1.0) for _ in range(m)))
        x = rng.normal(size=m) * 2
        sigma = scales
        i_hat = int(np.argmax(x))
        t_hi = float(x.max() + 2 * sigma.max())
        for t in rng.uniform(x[i_hat] - 4, x[i_hat] + 4, size=8):
            fast, _ = _accept_grid_t(x, sigma, bound, 0.1, i_hat, float(t),
                                     t_hi, 16)
            slow = slow_accept(x, sigma, bound, 0.1, i_hat, float(t), t_hi, 16)
            assert fast == slow


class TestScaledInterval:
    def test_unit_sigma_is_bit_identical_to_basic_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            p = gaussian_problem(rng.normal(size=m) * 3)
            sp = ScaledProblem(p, np.ones(m))
            scaled = winner_interval_scaled(sp, 301)
            assert (scaled.t_l, scaled.t_u) == union_grid_interval(p, 301)
            exact = winner_interval_grid(p)
            # outward rounding covers the exact interval, up to the rounding
            # of grid points (one step short of the box edge can miss it by an ulp)
            assert scaled.t_l <= exact.t_l + 1e-12 and exact.t_u <= scaled.t_u + 1e-12

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
        assert iv.method == "scaled-grid"

    def test_rejects_monte_carlo_bounds(self):
        bank = draw_bank(EquicorrelatedSampler(2, 0.0), 100, seed=0)
        p = Problem(np.array([1.0, 0.0]), bank, 0.1)
        with pytest.raises(UnsupportedMethodError):
            winner_interval_scaled(ScaledProblem(p, np.ones(2)))

    def test_grid_points_validation(self):
        sp = ScaledProblem(gaussian_problem([1.0, 0.0]), np.ones(2))
        with pytest.raises(ValueError):
            winner_interval_scaled(sp, 1)
