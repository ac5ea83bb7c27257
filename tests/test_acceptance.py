"""End-to-end acceptance gate.

Eleven numbered criteria, one test each, covering: degenerate reductions,
threshold behavior, step-down domination, hand-traced radii, a 12-cell
coverage/width sweep, adaptivity and ordering guarantees, brute-force
cross-checks of the interval construction, the equal-sigma reduction, and
CLI byte-determinism.  Each test prints one `[criterion N] PASS` line.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import norm

from zoomcurse.core import Problem, winner_interval_grid, winner_interval_root
from zoomcurse.meta import near_winner_interval, population_value_interval
from zoomcurse.scaled import ScaledProblem, winner_interval_scaled
from zoomcurse.simulate import run_simulation
from zoomcurse.stepdown import stepdown_lower, stepdown_upper, winner_interval_stepdown
from zoomcurse.tails import GaussianTail, UnionBound
from zoomcurse.topk import topk_interval, topk_stepdown

from oracles import sweep_configs

GAUSS = GaussianTail(1.0)
MARGINAL_RADIUS = 1.6448536269514722  # two-sided standard normal, level 0.1


def gaussian_problem(x, alpha=0.1):
    x = np.asarray(x, dtype=float)
    return Problem(x, UnionBound((GAUSS,) * x.size), alpha)


@pytest.fixture(scope="module")
def sweep():
    """The 12 cells of ``sweep_configs``, raw per-trial records kept."""
    t0 = time.perf_counter()
    reports = {key: run_simulation(cfg, include_raw=True)
               for key, cfg in sweep_configs().items()}
    return {"reports": reports, "elapsed": time.perf_counter() - t0}


def test_c01_single_candidate_reduces_to_marginal():
    t0 = time.perf_counter()
    x = 2.5
    p = gaussian_problem([x])
    intervals = {
        "root": winner_interval_root(p),
        "grid": winner_interval_grid(p, 2001, refine=True),
        "stepdown": winner_interval_stepdown(p),
        "scaled": winner_interval_scaled(ScaledProblem(p, np.ones(1)), 2001),
        "population": population_value_interval(p),
        "near_winner": near_winner_interval(p, 0),
    }
    for name, iv in intervals.items():
        lo, hi = (iv.pieces[0] if name == "near_winner" else (iv.t_l, iv.t_u))
        assert lo == pytest.approx(x - MARGINAL_RADIUS, abs=1e-4), name
        assert hi == pytest.approx(x + MARGINAL_RADIUS, abs=1e-4), name
    for res in (topk_interval(p, 1, 2001), topk_stepdown(p, 1)):
        assert res.r_max == pytest.approx(MARGINAL_RADIUS, abs=1e-4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 1] PASS — every m=1 method gives X ± 1.6449 "
          f"(1e-4), {elapsed:.2f}s")


def test_c02_reduction_thresholds_at_4r_and_2r():
    for m in (2, 5, 10):
        r_b = GAUSS.isf(0.1 / m)
        for factor, side in ((4.0, "r_l"), (2.0, "r_u")):
            for delta, at_bonferroni in ((-0.01, True), (0.01, False)):
                x = np.zeros(m)
                x[-1] = -(factor * r_b + delta)
                iv = winner_interval_root(gaussian_problem(x))
                r = iv.r_l if side == "r_l" else iv.r_u
                if at_bonferroni:
                    assert abs(r - r_b) <= 1e-6, (m, side, delta)
                else:
                    assert r < r_b - 1e-6, (m, side, delta)
    print("[criterion 2] PASS — r_l/r_u stick at the simultaneous radius "
          "iff the largest gap is within 4r/2r (1e-6)")


def test_c03_stepdown_radii_dominate_and_stay_in_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    alpha = 0.1
    root_checks = 0
    for trial in range(10_000):
        m = int(rng.integers(1, 51))
        gaps = rng.uniform(0.0, rng.uniform(0.5, 20.0), size=m)
        gaps[rng.integers(m)] = 0.0
        r_l = stepdown_lower(gaps, GAUSS, alpha).radius
        r_u = stepdown_upper(gaps, GAUSS, alpha).radius
        # independent evaluation of both endpoint sums
        s_l = np.sum(2.0 * norm.sf(np.maximum(r_l, (gaps - r_l) / 3.0)))
        s_u = np.sum(2.0 * norm.sf(np.maximum(r_u, (gaps + r_u) / 3.0)))
        assert s_l <= alpha + 1e-9
        assert s_u <= alpha + 1e-9
        if trial % 33 == 0:  # direct domination check on a subset
            iv = winner_interval_root(gaussian_problem(-gaps))
            assert r_l >= iv.r_l - 1e-9
            assert r_u >= iv.r_u - 1e-9
            root_checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 3] PASS — 10000 gap vectors (m<=50): budget sums "
          f"<= alpha, {root_checks} direct root comparisons, {elapsed:.1f}s")


def test_c04_hand_traced_radii():
    gaps = np.array([10.0, 0.0])
    r_l = stepdown_lower(gaps, GAUSS, 0.1).radius
    r_u = stepdown_upper(gaps, GAUSS, 0.1).radius
    assert r_l == pytest.approx(1.682, abs=1e-3)
    assert r_u == pytest.approx(1.6455, abs=1e-3)
    # and against the exact pre-derived values
    assert r_l == pytest.approx(1.6816432014833371, abs=1e-9)
    assert r_u == pytest.approx(1.6453568806843894, abs=1e-9)
    print("[criterion 4] PASS — gaps (10,0): lower 1.682, upper 1.6455 (1e-3)")


@pytest.mark.slow
def test_c05_coverage_across_all_cells(sweep):
    floor = 0.9 - 3.0 * np.sqrt(0.09 / 2000.0)  # ~0.8799
    watched = ("zoom_grid", "zoom_stepdown", "topk:3", "identity_set")
    lowest = (None, 1.0)
    for key, report in sweep["reports"].items():
        for name in watched:
            cov = report.summaries[name]["coverage"]
            assert cov >= floor, (key, name, cov)
            if cov < lowest[1]:
                lowest = ((key, name), cov)
    assert sweep["elapsed"] < 600.0
    print(f"[criterion 5] PASS — 12 cells x 4 methods all cover >= "
          f"{floor:.4f} (min {lowest[1]:.4f} at {lowest[0]}), "
          f"sweep {sweep['elapsed']:.0f}s")


@pytest.mark.slow
def test_c06_lone_winner_width_approaches_uncorrected(sweep):
    report = sweep["reports"][(100, 1, 0.0)]
    width = report.summaries["zoom_grid"]["width_median_sub"]
    target = 2.0 * MARGINAL_RADIUS
    assert abs(width - target) / target <= 0.05
    print(f"[criterion 6] PASS — m=100 lone winner: median zoom width "
          f"{width:.4f} vs uncorrected {target:.4f} (within 5%)")


@pytest.mark.slow
def test_c07_per_trial_width_ordering(sweep):
    for key, report in sweep["reports"].items():
        grid = np.asarray(report.raw["zoom_grid"]["width"])
        sd = np.asarray(report.raw["zoom_stepdown"]["width"])
        bonf = np.asarray(report.raw["bonferroni"]["width"])
        assert np.all(grid <= bonf + 1e-8), key
        assert np.all(grid <= sd + 1e-8), key
    rep = sweep["reports"][(100, 1, 0.0)]
    ratio = (rep.summaries["zoom_grid"]["width_median"]
             / rep.summaries["bonferroni"]["width_median"])
    assert ratio < 0.95
    print(f"[criterion 7] PASS — zoom <= Bonferroni and grid <= stepdown "
          f"on every trial; median ratio {ratio:.3f} at the lone-winner cell")


def test_c08_population_value_equals_winner_interval():
    rng = np.random.default_rng(1008)
    for trial in range(1000):
        m = int(rng.integers(2, 8))
        p = gaussian_problem(rng.normal(size=m) * rng.uniform(0.5, 5.0))
        if trial % 20 == 0:
            iv = winner_interval_grid(p, 301)
        else:
            iv = winner_interval_root(p)
        pop = population_value_interval(p)
        assert pop.t_l == iv.t_l and pop.t_u == iv.t_u
    print("[criterion 8] PASS — 1000 instances: population-max endpoints "
          "bit-identical to the winner interval")


def _oracle_hull(x, alpha, g_win, g_other):
    """Project the region's direct definition onto the winner coordinate.

    Enumerates mean vectors on a box grid, finds each one's active radius by
    lockstep bisection, keeps those whose acceptance box contains the scores,
    and returns the extent of the surviving winner-coordinate values.
    """
    m = x.size
    i_hat = int(np.argmax(x))
    bound = UnionBound((GAUSS,) * m)
    r0 = GAUSS.isf(alpha / m)
    axes = []
    for j in range(m):
        if j == i_hat:
            axes.append(np.linspace(x[i_hat] - r0, x[i_hat] + r0, g_win))
        else:
            # means below 2*X_j - max(theta) can never accept coordinate j
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
    assert member.any()
    vals = theta[member, i_hat]
    return float(vals.min()), float(vals.max()), float(axes[i_hat][1] - axes[i_hat][0])


def test_c09_brute_force_projection_oracle():
    rng = np.random.default_rng(1009)
    for trial in range(14):
        m = 2 if trial % 2 == 0 else 3
        x = rng.normal(size=m) * rng.uniform(0.5, 3.0)
        iv = winner_interval_root(gaussian_problem(x))
        lo, hi, step = (_oracle_hull(x, 0.1, 161, 161) if m == 2
                        else _oracle_hull(x, 0.1, 41, 41))
        assert lo >= iv.t_l - 1e-9 and hi <= iv.t_u + 1e-9  # containment
        assert lo <= iv.t_l + 2.0 * step and hi >= iv.t_u - 2.0 * step
    print("[criterion 9] PASS — 14 small instances: brute-force projection "
          "contained in [t_l, t_u], hull within 2 oracle steps")


def test_c10_equal_sigma_reduction():
    rng = np.random.default_rng(1010)
    exact = 0
    for trial in range(200):
        m = int(rng.integers(1, 11))
        x = rng.normal(size=m) * rng.uniform(0.5, 4.0)
        if trial % 4 != 0:  # unit scales: reduction is exact
            p = gaussian_problem(x)
            scaled = winner_interval_scaled(ScaledProblem(p, np.ones(m)), 301)
            basic = winner_interval_root(p)
            assert (scaled.t_l, scaled.t_u) == (basic.t_l, basic.t_u)
            exact += 1
        else:  # one shared non-unit scale: the same interval in score units
            c = float(rng.uniform(0.5, 2.0))
            basic = winner_interval_root(
                Problem(x, UnionBound((GaussianTail(c),) * m), 0.1))
            scaled = winner_interval_scaled(
                ScaledProblem(gaussian_problem(x), np.full(m, c)), 301)
            # both solvers stop within 1e-10 of their radius, standardized or not
            assert abs(scaled.t_l - basic.t_l) <= 1e-9
            assert abs(scaled.t_u - basic.t_u) <= 1e-9
    print(f"[criterion 10] PASS — 200 instances: {exact} bit-exact against "
          f"winner_interval_root at unit sigma, rest within 1e-9 at a shared scale")


def test_c11_cli_byte_determinism(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("label,score\na,10.0\nb,9.2\nc,0.0\n")
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("m = 5\nm_winners = 1\ngap_mult = 6\ntrials = 25\n"
                   "n_mc = 5000\ngrid_points = 301\nseed = 3\n"
                   "methods = zoom_grid, zoom_stepdown, bonferroni\n")
    runs = {
        "root": ["winner-ci", "--input", str(scores), "--alpha", "0.1",
                 "--tail", "gaussian:1", "--method", "root"],
        "mc-grid": ["winner-ci", "--input", str(scores), "--alpha", "0.1",
                    "--noise", "equicorrelated:0.5", "--seed", "7",
                    "--mc-samples", "20000", "--refine"],
        "simulate": ["simulate", "--config", str(cfg),
                     "--out-json", str(tmp_path / "rep.json")],
    }
    for name, argv in runs.items():
        cmd = [sys.executable, "-m", "zoomcurse.cli"] + argv
        first = subprocess.run(cmd, capture_output=True, check=True)
        repeat_file = None
        if name == "simulate":
            repeat_file = (tmp_path / "rep.json").read_bytes()
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout, name
        assert json.loads(first.stdout)["schema"] == "zoomcurse/v1"
        if repeat_file is not None:
            assert (tmp_path / "rep.json").read_bytes() == repeat_file
    print("[criterion 11] PASS — repeated CLI runs byte-identical "
          "(union root, Monte-Carlo grid, simulation report)")
