import json

import numpy as np
import pytest

from zoomcurse.simulate import (SimConfig, parse_config_text, run_simulation,
                                simultaneous_radius, width_comparison)

FAST = dict(trials=40, n_mc=2000, grid_points=301, seed=7)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(m=5, m_winners=1, gap_mult=4.0)
        assert cfg.alpha == 0.1 and cfg.trials == 2000
        assert "zoom_grid" in cfg.methods

    @pytest.mark.parametrize("kw", [
        dict(m=0, m_winners=1, gap_mult=1.0),
        dict(m=5, m_winners=6, gap_mult=1.0),
        dict(m=5, m_winners=0, gap_mult=1.0),
        dict(m=5, m_winners=1, gap_mult=0.0),
        dict(m=5, m_winners=1, gap_mult=float("inf")),
        dict(m=5, m_winners=1, gap_mult=float("nan")),
        dict(m=5, m_winners=1, gap_mult=1.0, rho=1.0),
        dict(m=5, m_winners=1, gap_mult=1.0, rho=-0.1),
        dict(m=5, m_winners=1, gap_mult=1.0, trials=0),
        dict(m=5, m_winners=1, gap_mult=1.0, n_mc=0),
        dict(m=5, m_winners=1, gap_mult=1.0, alpha=0.0),
        dict(m=5, m_winners=1, gap_mult=1.0, methods=("nope",)),
        dict(m=5, m_winners=1, gap_mult=1.0, methods=("topk:6",)),
        dict(m=5, m_winners=1, gap_mult=1.0, methods=("topk:0",)),
        dict(m=5, m_winners=1, gap_mult=1.0, methods=()),
        dict(m=5, m_winners=1, gap_mult=1.0, grid_points=2),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    def test_overflowing_losers_mean_is_refused_naming_gap_mult(self):
        cfg = SimConfig(m=3, m_winners=1, gap_mult=1e308, trials=2, n_mc=100)
        with pytest.raises(ValueError, match="gap_mult"):
            run_simulation(cfg)
        # without losers there is no mean to overflow
        cfg = SimConfig(m=3, m_winners=3, gap_mult=1e308, trials=2, n_mc=100)
        assert run_simulation(cfg).summaries

    def test_negative_seed_refused(self):
        # it used to fail inside numpy's SeedSequence, naming no key
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimConfig(m=5, m_winners=1, gap_mult=1.0, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            parse_config_text("m = 3\nm_winners = 1\ngap_mult = 2\nseed = -1")

    def test_method_listed_twice(self):
        # both specs normalize to topk:1, which would run twice
        with pytest.raises(ValueError, match="topk:1 is listed twice"):
            SimConfig(m=5, m_winners=1, gap_mult=1.0, methods=("topk:1", "topk:01"))

    def test_method_specs_normalized(self):
        cfg = SimConfig(m=5, m_winners=1, gap_mult=1.0,
                        methods=(" zoom_grid ", "topk:03"))
        assert cfg.methods == ("zoom_grid", "topk:3")


class TestConfigText:
    def test_full_round(self):
        cfg = parse_config_text("""
            # experiment cell
            m = 6
            m_winners = 2   # near-tied pair
            gap_mult = 4.5
            rho = 0.5
            methods = zoom_grid, bonferroni
            trials = 10
        """)
        assert cfg.m == 6 and cfg.m_winners == 2 and cfg.rho == 0.5
        assert cfg.methods == ("zoom_grid", "bonferroni")
        assert cfg.trials == 10

    def test_missing_required(self):
        with pytest.raises(ValueError, match="m_winners"):
            parse_config_text("m = 3\ngap_mult = 2.0")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("m = 3\nm_winners = 1\ngap_mult = 2\nfoo = 1")

    def test_key_given_twice(self):
        with pytest.raises(ValueError, match="line 4: key 'm' is given twice"):
            parse_config_text("m = 3\nm_winners = 1\ngap_mult = 2\nm = 5")

    def test_bad_scalar(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_text("m = three\nm_winners = 1\ngap_mult = 2")

    def test_not_key_value(self):
        with pytest.raises(ValueError, match="expected key"):
            parse_config_text("just words")


class TestSimultaneousRadius:
    def test_single_candidate_matches_marginal(self):
        cfg = SimConfig(m=1, m_winners=1, gap_mult=1.0, n_mc=100_000, seed=3)
        assert simultaneous_radius(cfg) == pytest.approx(1.6448536269514722,
                                                         abs=0.05)

    def test_grows_with_m_shrinks_with_rho(self):
        base = dict(m_winners=1, gap_mult=1.0, n_mc=50_000, seed=3)
        r1 = simultaneous_radius(SimConfig(m=2, **base))
        r2 = simultaneous_radius(SimConfig(m=20, **base))
        r3 = simultaneous_radius(SimConfig(m=20, rho=0.9, **base))
        assert r1 < r2 and r3 < r2


class TestRunSimulation:
    def test_deterministic_json(self):
        cfg = SimConfig(m=4, m_winners=1, gap_mult=6.0, **FAST)
        a = run_simulation(cfg, include_raw=True).to_json()
        b = run_simulation(cfg, include_raw=True).to_json()
        assert a == b
        payload = json.loads(a)
        assert set(payload) == {"config", "r_sim", "summaries", "raw"}

    def test_per_trial_width_ordering(self):
        cfg = SimConfig(m=4, m_winners=1, gap_mult=6.0,
                        methods=("zoom_grid", "zoom_stepdown", "bonferroni"),
                        **FAST)
        raw = run_simulation(cfg, include_raw=True).raw
        grid = np.array(raw["zoom_grid"]["width"])
        sd = np.array(raw["zoom_stepdown"]["width"])
        bonf = np.array(raw["bonferroni"]["width"])
        assert np.all(grid <= sd + 1e-8)
        assert np.all(sd <= bonf + 1e-8)

    def test_coverage_sane_on_separated_instance(self):
        cfg = SimConfig(m=5, m_winners=1, gap_mult=8.0,
                        methods=("zoom_grid", "identity_set", "topk:2"), **FAST)
        rep = run_simulation(cfg)
        for name in cfg.methods:
            assert rep.summaries[name]["coverage"] >= 0.8
        # fully separated winner: the identity set is usually a singleton
        assert rep.summaries["identity_set"]["width_median"] == 1.0

    def test_quantiles_ordered(self):
        cfg = SimConfig(m=4, m_winners=2, gap_mult=4.0, **FAST)
        for s in run_simulation(cfg).summaries.values():
            assert s["width_q05"] <= s["width_median"] <= s["width_q95"]
            assert s["width_q05_sub"] <= s["width_median_sub"] <= s["width_q95_sub"]

    def test_csv_layout(self):
        cfg = SimConfig(m=3, m_winners=1, gap_mult=4.0,
                        methods=("zoom_grid", "bonferroni"), **FAST)
        lines = run_simulation(cfg).to_csv().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("method,coverage,width_mean")
        assert lines[1].split(",")[0] == "bonferroni"  # sorted rows
        assert len(lines[1].split(",")) == len(lines[0].split(","))


class TestWidthComparison:
    def test_ratios_cover_all_pairs(self):
        cfg = SimConfig(m=4, m_winners=1, gap_mult=6.0,
                        methods=("zoom_grid", "bonferroni", "uncorrected"),
                        **FAST)
        cmp = width_comparison(run_simulation(cfg))
        assert set(cmp["median_width"]) == set(cfg.methods)
        assert len(cmp["ratio"]) == 6
        ab = cmp["ratio"]["zoom_grid/bonferroni"]
        ba = cmp["ratio"]["bonferroni/zoom_grid"]
        assert ab * ba == pytest.approx(1.0, rel=1e-12)
        assert ab <= 1.0 + 1e-12  # the corrected interval never runs wider

    def test_needs_two_methods(self):
        cfg = SimConfig(m=3, m_winners=1, gap_mult=4.0,
                        methods=("zoom_grid",), **FAST)
        with pytest.raises(ValueError):
            width_comparison(run_simulation(cfg))
