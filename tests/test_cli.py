import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from zoomcurse import core, simulate
from zoomcurse.cli import _json_default, main, parse_noise_spec, parse_tail_spec, read_scores
from zoomcurse.core import WinnerInterval
from zoomcurse.tails import MonteCarloBound

SCHEMA = json.loads(
    resources.files("zoomcurse").joinpath("schema/envelope.schema.json").read_text())


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


@pytest.fixture
def scores_csv(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("label,score\nalpha,10.0\nbeta,0.0\n")
    return str(path)


@pytest.fixture
def sigma_csv(tmp_path):
    path = tmp_path / "scores_sigma.csv"
    path.write_text("label,score,sigma\nalpha,10.0,1.0\nbeta,0.0,2.0\n")
    return str(path)


class TestReadScores:
    def test_round_trip(self, scores_csv):
        table = read_scores(scores_csv)
        assert table.labels == ("alpha", "beta")
        np.testing.assert_array_equal(table.x, [10.0, 0.0])
        assert table.sigma is None

    def test_sigma_column(self, sigma_csv):
        table = read_scores(sigma_csv)
        np.testing.assert_array_equal(table.sigma, [1.0, 2.0])

    @pytest.mark.parametrize("body", [
        "",
        "score,label\na,1\n",
        "label,score\n",
        "label,score\na,1\na,2\n",
        "label,score\na,one\n",
        "label,score\na,1,2\n",
        "label,score,sigma\na,1,0\n",
        "label,score\na,inf\n",
    ])
    def test_rejects(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError):
            read_scores(str(path))


class TestSpecParsers:
    def test_tail_specs(self, tmp_path):
        assert parse_tail_spec("gaussian:2.0").scale == 2.0
        assert parse_tail_spec("subgaussian:1.5").proxy == 1.5
        knots = tmp_path / "knots.txt"
        knots.write_text("1.0\n-2.0  # sign is dropped\n0.5\n")
        tail = parse_tail_spec(f"empirical:{knots}")
        assert tail.isf(1e-12) == pytest.approx(2.0)
        for bad in ("gaussian", "gaussian:-1", "weird:1", "empirical:/no/such"):
            with pytest.raises(ValueError):
                parse_tail_spec(bad)

    def test_noise_specs(self, tmp_path):
        assert parse_noise_spec("independent", 3).rho == 0.0
        assert parse_noise_spec("equicorrelated:0.5", 3).rho == 0.5
        rows = tmp_path / "rows.csv"
        rows.write_text("0.1,0.2\n-0.3,0.4\n")
        # a table of draws is its own bank, checked in full
        bank = parse_noise_spec(f"table:{rows}", 2)
        assert isinstance(bank, MonteCarloBound) and not bank.exchangeable
        np.testing.assert_array_equal(bank.abs_samples, [[0.1, 0.2], [0.3, 0.4]])
        late_nan = tmp_path / "late_nan.csv"
        late_nan.write_text("0.1,0.2\n-0.3,nan\n")
        for bad, m in (("independent:x", 2), ("equicorrelated:nope", 2),
                       ("equicorrelated:1.5", 2), (f"table:{rows}", 3),
                       (f"table:{late_nan}", 2), ("mystery:1", 2)):
            with pytest.raises(ValueError):
                parse_noise_spec(bad, m)


class TestWinnerCi:
    def test_stepdown_frozen_interval(self, capsys, scores_csv):
        env = run_json(capsys, ["winner-ci", "--input", scores_csv,
                                "--alpha", "0.1", "--tail", "gaussian:1",
                                "--method", "stepdown"])
        assert env["mode"] == "winner-ci" and env["winner"] == "alpha"
        lo, hi = env["result"]["interval"]
        assert lo == pytest.approx(10.0 - 1.6816432014833371, abs=1e-9)
        assert hi == pytest.approx(10.0 + 1.6453568806843894, abs=1e-9)
        assert env["diagnostics"]["lower_trace"]["side"] == "lower"

    def test_root_matches_stepdown_ordering(self, capsys, scores_csv):
        root = run_json(capsys, ["winner-ci", "--input", scores_csv,
                                 "--alpha", "0.1", "--tail", "gaussian:1",
                                 "--method", "root"])
        assert root["result"]["radius_lower"] == pytest.approx(
            1.6721438087774834, abs=1e-9)

    def test_grid_with_mc_noise(self, capsys, scores_csv):
        env = run_json(capsys, ["winner-ci", "--input", scores_csv,
                                "--alpha", "0.1", "--noise", "equicorrelated:0.3",
                                "--seed", "5", "--mc-samples", "4000", "--refine"])
        lo, hi = env["result"]["interval"]
        assert lo <= 10.0 <= hi
        assert env["seed"] == 5

    def test_sigma_column_takes_scaled_path(self, capsys, sigma_csv):
        env = run_json(capsys, ["winner-ci", "--input", sigma_csv,
                                "--alpha", "0.1", "--tail", "gaussian:1"])
        assert env["method"] == "scaled"
        lo, hi = env["result"]["interval"]
        assert lo <= 10.0 <= hi

    def test_empirical_tail(self, capsys, scores_csv, tmp_path):
        rng = np.random.default_rng(0)
        knots = tmp_path / "knots.txt"
        knots.write_text("\n".join(str(v) for v in rng.normal(size=500)))
        env = run_json(capsys, ["winner-ci", "--input", scores_csv,
                                "--alpha", "0.1",
                                "--tail", f"empirical:{knots}",
                                "--method", "root"])
        assert env["result"]["width"] > 0

    def test_empirical_tail_with_zeros(self, capsys, tmp_path):
        # zeros in the knots file: S(0) is still 1, so no solver rejects the
        # cell holding r = 0 (this exited 4 with an internal error)
        knots = tmp_path / "k.txt"
        knots.write_text("0\n0\n1\n")
        scores = tmp_path / "s.csv"
        scores.write_text("label,score\na,10\nb,0\n")
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("label,score,sigma\na,10,1\nb,0,2\n")
        spec = ["--input", str(scores), "--alpha", "0.5", "--tail", f"empirical:{knots}"]
        for argv in (["winner-ci", *spec, "--method", "root"],
                     ["winner-ci", *spec[2:], "--input", str(sigma)]):
            lo, hi = run_json(capsys, argv)["result"]["interval"]
            assert lo <= 10.0 <= hi
        assert run_json(capsys, ["topk-ci", *spec, "--k", "1"])["result"]["r_max"] > 0.0
        assert run_json(capsys, ["identity-set", *spec])["result"]["members"] == ["a"]
        lo, hi = run_json(capsys, ["near-winner", *spec, "--label", "b"])["result"]["hull"]
        assert lo <= 0.0 <= hi

    def test_stepdown_empirical_tail_many_far_rivals(self, capsys, tmp_path):
        # a lone leader 8 above 49 rivals under a |t_5| tail: the upper
        # walk's refunds exhaust the budget, which used to exit 3
        rng = np.random.default_rng(0)
        knots = tmp_path / "t5.txt"
        knots.write_text("\n".join(repr(float(v)) for v in np.abs(rng.standard_t(5, size=500))))
        x = rng.normal(size=50)
        x[rng.integers(50)] = x.max() + 8.0
        table = tmp_path / "lone.csv"
        table.write_text("label,score\n" + "".join(f"c{j},{float(v)!r}\n" for j, v in enumerate(x)))
        env = run_json(capsys, ["winner-ci", "--input", str(table), "--alpha", "0.1",
                                "--tail", f"empirical:{knots}", "--method", "stepdown"])
        r_bonf = parse_tail_spec(f"empirical:{knots}").isf(0.1 / 50)
        assert env["result"]["radius_upper"] == pytest.approx(r_bonf, abs=1e-12)
        assert env["result"]["radius_lower"] <= r_bonf

    def test_table_noise_runs_without_seed(self, capsys, scores_csv, tmp_path):
        rng = np.random.default_rng(1)
        rows = tmp_path / "noise.csv"
        rows.write_text("\n".join(f"{a},{b}" for a, b in rng.normal(size=(800, 2))))
        env = run_json(capsys, ["winner-ci", "--input", scores_csv,
                                "--alpha", "0.1", "--noise", f"table:{rows}"])
        assert env["result"]["width"] > 0

    @pytest.mark.parametrize("noise", ["table", "empirical"])
    def test_zero_gap_radius_gives_point_results(self, capsys, scores_csv, tmp_path, noise):
        # 95 of 100 noise rows are zero (Monte-Carlo bound), or every tail
        # value is (union bound): the zero-gap radius is 0, so only the
        # observed scores are accepted
        if noise == "table":
            rows = tmp_path / "noise.csv"
            rows.write_text("".join("0.0,0.0\n" if j < 95 else "1.0,-2.0\n"
                                    for j in range(100)))
            spec = ["--noise", f"table:{rows}"]
        else:
            zeros = tmp_path / "zeros.txt"
            zeros.write_text("0\n0\n0\n")
            spec = ["--tail", f"empirical:{zeros}"]
        env = run_json(capsys, ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
                                "--method", "grid", *spec])
        assert env["result"]["interval"] == [10.0, 10.0]
        env = run_json(capsys, ["topk-ci", "--input", scores_csv, "--alpha", "0.1",
                                "--k", "1", *spec])
        assert env["result"]["r_max"] == 0.0

    @pytest.mark.parametrize("scores, rows, alpha, expected", [
        # no radius cell reaches the acceptance count: only the zero radius
        # (kept by convention) is left; this used to exit 4
        ({"a": 1.1, "b": 3.0, "c": -4.4},
         [[0.0] * 3] * 6 + [[-0.4, 0.1, 0.0]] + [[0.0] * 3] * 2 + [[0.0, 0.0, -0.2]]
         + [[0.0] * 3] * 2 + [[-0.5, 0.0, 0.0]], 0.1, (2.9, 3.0)),
        # the accepted winner values all lie below X_win; this used to exit 2
        ({"a": 0.3, "b": 2.6}, [[0.5, 0.0], [-0.7, 0.0]], 0.2, (1.9, 2.6)),
    ], ids=["no-cell-accepted", "accepted-below-winner"])
    def test_degenerate_bank_keeps_the_winner_score(self, capsys, tmp_path,
                                                    scores, rows, alpha, expected):
        table = tmp_path / "s.csv"
        table.write_text("label,score\n" + "".join(f"{k},{v}\n" for k, v in scores.items()))
        bank = tmp_path / "bank.csv"
        bank.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        spec = ["--input", str(table), "--alpha", str(alpha), "--noise", f"table:{bank}"]
        env = run_json(capsys, ["winner-ci", *spec])
        lo, hi = env["result"]["interval"]
        assert lo <= max(scores.values()) <= hi
        assert (lo, hi) == pytest.approx(expected, abs=1e-12)
        top1 = run_json(capsys, ["topk-ci", *spec, "--k", "1"])
        assert env["result"]["radius_lower"] == top1["result"]["r_max"]


class TestOtherModes:
    def test_topk(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("label,score\na,10.0\nb,9.9\nc,0.0\n")
        env = run_json(capsys, ["topk-ci", "--input", str(path), "--alpha", "0.1",
                                "--tail", "gaussian:1", "--k", "2",
                                "--method", "stepdown"])
        assert env["result"]["winners"] == ["a", "b"]
        assert env["result"]["r_max"] == pytest.approx(2.0026927363346538, abs=1e-9)
        assert set(env["result"]["boxes"]) == {"a", "b"}

    def test_identity_set(self, capsys, scores_csv):
        env = run_json(capsys, ["identity-set", "--input", scores_csv,
                                "--alpha", "0.1", "--tail", "gaussian:1"])
        assert env["result"]["members"] == ["alpha"]
        assert env["result"]["size"] == 1
        assert env["method"] == "grid"
        with pytest.raises(SystemExit):  # the inverter switch is gone
            main(["identity-set", "--input", scores_csv, "--alpha", "0.1",
                  "--tail", "gaussian:1", "--method", "root"])

    def test_near_winner_by_label(self, capsys, scores_csv):
        env = run_json(capsys, ["near-winner", "--input", scores_csv,
                                "--alpha", "0.1", "--tail", "gaussian:1",
                                "--label", "beta"])
        (lo, hi), = env["result"]["pieces"]
        assert lo == pytest.approx(-11.645356533678048, abs=1e-6)
        assert hi == pytest.approx(3.8817855112260161, abs=1e-6)
        assert env["result"]["hull"] == [lo, hi]
        assert env["method"] == "grid"

    def test_simulate_writes_files(self, capsys, tmp_path):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("m = 3\nm_winners = 1\ngap_mult = 6\ntrials = 8\n"
                       "n_mc = 1000\ngrid_points = 201\n"
                       "methods = zoom_grid, bonferroni\n")
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        env = run_json(capsys, ["simulate", "--config", str(cfg),
                                "--out-json", str(out_json),
                                "--out-csv", str(out_csv)])
        assert env["result"]["comparison"]["ratio"]["zoom_grid/bonferroni"] <= 1.0
        report = json.loads(out_json.read_text())
        assert set(report["summaries"]) == {"zoom_grid", "bonferroni"}
        assert out_csv.read_text().startswith("method,coverage")

    @pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_simulate_unwritable_output_exits_2(self, capsys, tmp_path, flag, where):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("m = 2\nm_winners = 1\ngap_mult = 6\ntrials = 2\nn_mc = 100\n"
                       "methods = bonferroni\n")
        path = tmp_path / "missing" / "r.out" if where == "missing directory" else tmp_path
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), flag, str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"zoomcurse: cannot write {path}: ")


class TestExitCodes:
    def test_input_errors_exit_2(self, capsys, scores_csv, sigma_csv, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("label,score\na,1\na,2\n")
        twice_cfg = tmp_path / "twice.cfg"
        twice_cfg.write_text("m = 3\nm_winners = 1\ngap_mult = 6\nm = 5\n")
        good_cfg = tmp_path / "good.cfg"
        good_cfg.write_text("m = 2\nm_winners = 1\ngap_mult = 6\ntrials = 2\nn_mc = 100\n")
        cases = [
            ["winner-ci", "--input", str(bad_csv), "--alpha", "0.1",
             "--tail", "gaussian:1"],
            ["winner-ci", "--input", scores_csv, "--alpha", "1.5",
             "--tail", "gaussian:1"],
            ["winner-ci", "--input", scores_csv, "--alpha", "0.1"],
            ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
             "--noise", "independent"],  # sampling without --seed
            ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
             "--noise", "independent", "--seed", "1", "--method", "root"],
            ["winner-ci", "--input", sigma_csv, "--alpha", "0.1",
             "--tail", "gaussian:1", "--method", "root"],
            ["topk-ci", "--input", scores_csv, "--alpha", "0.1",
             "--tail", "gaussian:1", "--k", "3"],
            ["topk-ci", "--input", sigma_csv, "--alpha", "0.1",
             "--tail", "gaussian:1", "--k", "1"],
            ["near-winner", "--input", scores_csv, "--alpha", "0.1",
             "--tail", "gaussian:1"],  # neither selector
            ["near-winner", "--input", scores_csv, "--alpha", "0.1",
             "--tail", "gaussian:1", "--index", "0", "--label", "beta"],
            ["near-winner", "--input", scores_csv, "--alpha", "0.1",
             "--tail", "gaussian:1", "--label", "gamma"],
            ["simulate", "--config", str(tmp_path / "missing.cfg")],
            ["simulate", "--config", str(twice_cfg)],
            ["simulate", "--config", str(good_cfg), "--include-raw"],  # no --out-json
        ]
        for argv in cases:
            code, _, err = run_cli(capsys, argv)
            assert code == 2, (argv, err)
            assert err.startswith("zoomcurse:")

    @pytest.mark.parametrize("argv, message", [
        (["winner-ci", "--input", "{scores}", "--noise", "independent", "--seed", "1",
          "--mc-samples", "0"], "--mc-samples must be >= 1"),
        (["identity-set", "--input", "{sigma}", "--tail", "gaussian:1"],
         "identity sets do not take per-candidate sigma"),
        (["near-winner", "--input", "{sigma}", "--tail", "gaussian:1", "--index", "0"],
         "near-winner intervals do not take per-candidate sigma"),
        (["near-winner", "--input", "{scores}", "--tail", "gaussian:1", "--index", "7"],
         "--index must lie in [0, 2]"),
        (["winner-ci", "--input", "{scores}", "--tail", "gaussian:abc"],
         "gaussian scale must be a number, got 'abc'"),
    ], ids=["mc-samples-0", "identity-set-sigma", "near-winner-sigma", "index-past-end",
            "tail-scale-not-a-number"])
    def test_refusal_exits_2_naming_its_cause(self, capsys, tmp_path, sigma_csv, argv, message):
        scores = tmp_path / "three.csv"
        scores.write_text(INPUT_BODIES["input"], encoding="utf-8")
        argv = [arg.format(scores=scores, sigma=sigma_csv) for arg in argv]
        code, out, err = run_cli(capsys, [*argv, "--alpha", "0.1"])
        assert (code, out, err) == (2, "", f"zoomcurse: {message}\n")

    def test_infeasible_alpha_exits_3(self, capsys, scores_csv):
        code, _, err = run_cli(capsys, ["winner-ci", "--input", scores_csv,
                                        "--alpha", "1e-12",
                                        "--tail", "gaussian:1"])
        assert code == 3
        assert "infeasible" in err

    def test_infeasible_simulation_level_exits_3_before_any_draw(self, capsys, tmp_path,
                                                                  monkeypatch):
        # alpha / m lies below the tails' supported minimum; this used to exit 2
        def refuse(*args, **kwargs):
            raise AssertionError("a bank was drawn for a level that exits 3")
        monkeypatch.setattr("zoomcurse.simulate.draw_bank", refuse)
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("m = 3\nm_winners = 1\ngap_mult = 6\nalpha = 1e-13\ntrials = 2\n")
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 3 and out == ""
        assert err.startswith("zoomcurse: infeasible: ")

    @pytest.mark.parametrize("gap_mult, draws", [("inf", 0), ("1e308", 1)])
    def test_unbuildable_layout_exits_2_naming_gap_mult(self, capsys, tmp_path, monkeypatch,
                                                        gap_mult, draws):
        # the losers' mean -gap_mult * r_sim used to overflow to -inf and exit 2
        # with "scores must be finite"; an infinite gap_mult is refused before
        # any draw, a finite one once r_sim is known
        drawn, draw = [], simulate.draw_bank

        def counted(*args, **kwargs):
            drawn.append(1)
            return draw(*args, **kwargs)

        monkeypatch.setattr(simulate, "draw_bank", counted)
        cfg = tmp_path / "far.cfg"
        cfg.write_text(f"m = 3\nm_winners = 1\ngap_mult = {gap_mult}\ntrials = 2\nn_mc = 100\n")
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 2 and out == "" and len(drawn) == draws
        assert err.startswith("zoomcurse: ") and "gap_mult" in err
        assert "scores must be finite" not in err

    @pytest.mark.parametrize("bound", ["tail", "table"])
    def test_seed_without_a_draw_exits_2(self, capsys, scores_csv, tmp_path, bound):
        # nothing reads the seed of a tail or a table bank; this used to exit 0
        rows = tmp_path / "bank.csv"
        rows.write_text("0.1,0.2\n-0.3,0.4\n")
        spec = ["--tail", "gaussian:1"] if bound == "tail" else ["--noise", f"table:{rows}"]
        code, out, err = run_cli(capsys, ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
                                          *spec, "--seed", "7"])
        assert code == 2 and out == ""
        assert err.startswith("zoomcurse:") and "--seed" in err and "--noise" in err

    def test_internal_check_exits_4(self, capsys, scores_csv, monkeypatch):
        # infinite lower cell widths bound every lower sum by 0, so the radius
        # solver drops the cell holding r = 0, which S(0) = 1 keeps for every
        # real tail; the upper side, r0's included, keeps its real widths.
        # The cell ends come as columns, one row per cell
        widths = core._cell_widths

        def broken(d, lower, a, b, *geometry):
            if lower:
                return np.full(np.broadcast(d, a, b).shape, np.inf)
            return widths(d, lower, a, b, *geometry)

        monkeypatch.setattr("zoomcurse.core._cell_widths", broken)
        code, out, err = run_cli(capsys, ["winner-ci", "--input", scores_csv,
                                          "--alpha", "0.1", "--tail", "gaussian:1"])
        assert code == 4 and out == ""
        assert "internal error" in err

    @pytest.mark.parametrize("command", [["winner-ci"], ["winner-ci", "--method", "root"],
                                         ["topk-ci", "--k", "1"], ["identity-set"],
                                         ["near-winner", "--index", "1"]])
    def test_tail_with_noise_exits_2(self, capsys, scores_csv, command):
        # the tail used to be dropped in favour of the bank, with exit 0
        code, out, err = run_cli(capsys, [*command, "--input", scores_csv, "--alpha", "0.1",
                                          "--tail", "gaussian:1",
                                          "--noise", "equicorrelated:0.5", "--seed", "1"])
        assert code == 2 and out == ""
        assert err.startswith("zoomcurse:") and "--tail and --noise" in err

    @pytest.mark.parametrize("table", ["scores", "sigma"])
    def test_mc_samples_without_noise_exits_2(self, capsys, scores_csv, sigma_csv, table):
        # the bank size used to be ignored, with exit 0
        path = scores_csv if table == "scores" else sigma_csv
        code, out, err = run_cli(capsys, ["winner-ci", "--input", path, "--alpha", "0.1",
                                          "--tail", "gaussian:1", "--mc-samples", "500"])
        assert code == 2 and out == ""
        assert err.startswith("zoomcurse:") and "--mc-samples" in err and "--noise" in err

    def test_sigma_table_with_tail_and_noise_exits_2(self, capsys, sigma_csv):
        code, out, err = run_cli(capsys, ["winner-ci", "--input", sigma_csv, "--alpha", "0.1",
                                          "--tail", "gaussian:1", "--noise", "independent",
                                          "--seed", "1"])
        assert code == 2 and out == "" and "--tail and --noise" in err

    @pytest.mark.parametrize("table, argv", [
        ("scores", ["topk-ci", "--k", "99"]),
        ("sigma", ["winner-ci"]),
    ], ids=["topk-bad-k", "sigma-table"])
    def test_refused_before_any_bank_is_drawn(self, capsys, scores_csv, sigma_csv,
                                              monkeypatch, table, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a bank was drawn for a call that exits 2")
        monkeypatch.setattr("zoomcurse.cli.draw_bank", refuse)
        path = scores_csv if table == "scores" else sigma_csv
        code, out, err = run_cli(capsys, [*argv, "--input", path, "--alpha", "0.1",
                                          "--noise", "independent", "--seed", "1"])
        assert code == 2 and out == "" and err.startswith("zoomcurse:")

    @pytest.mark.parametrize("body", ["", "# no draws here\n\n"], ids=["empty", "comments"])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.filterwarnings("error")  # numpy's warning on a file without rows
    def test_table_without_rows_exits_2(self, capsys, tmp_path, body, m):
        scores = tmp_path / "s.csv"
        scores.write_text("label,score\n" + "".join(f"c{j},{j}\n" for j in range(m)))
        rows = tmp_path / "bank.csv"
        rows.write_text(body)
        code, out, err = run_cli(capsys, ["winner-ci", "--input", str(scores), "--alpha", "0.1",
                                          "--noise", f"table:{rows}"])
        assert (code, out, err) == (2, "", f"zoomcurse: {rows}: no rows\n")

    def test_more_samples_than_table_rows_exits_2(self, capsys, scores_csv, tmp_path):
        rows = tmp_path / "bank.csv"
        rows.write_text("0.1,0.2\n-0.3,0.4\n")
        code, out, err = run_cli(capsys, ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
                                          "--noise", f"table:{rows}", "--mc-samples", "3"])
        assert (code, out, err) == (2, "", "zoomcurse: requested 3 rows but table has 2\n")

    def test_negative_seed_exits_2_before_any_draw(self, capsys, scores_csv, tmp_path,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("noise was drawn for a call that exits 2")
        monkeypatch.setattr("zoomcurse.sampling.EquicorrelatedSampler.draw", refuse)
        code, out, err = run_cli(capsys, ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
                                          "--noise", "independent", "--seed", "-1"])
        assert code == 2 and out == "" and "seed must be >= 0" in err
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("m = 2\nm_winners = 1\ngap_mult = 6\ntrials = 2\nseed = -1\n")
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 2 and out == "" and "seed must be >= 0" in err

    @pytest.mark.parametrize("command", [["identity-set"], ["near-winner", "--index", "1"]])
    def test_table_bank_is_not_exchangeable_exits_2(self, capsys, scores_csv, tmp_path,
                                                    command):
        rows = tmp_path / "bank.csv"
        rows.write_text("\n".join(f"{a},{b}" for a, b in
                                   np.random.default_rng(2).normal(size=(200, 2))))
        code, out, err = run_cli(capsys, [*command, "--input", scores_csv, "--alpha", "0.1",
                                          "--noise", f"table:{rows}"])
        assert code == 2 and out == ""
        assert err.startswith("zoomcurse:") and "exchangeable" in err

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


TABLE_COMMANDS = {"winner-ci": [], "topk-ci": ["--k", "1"], "identity-set": [],
                  "near-winner": ["--index", "1"]}


class TestRetiredFlags:
    """--grid-points is gone; --refine is a no-op kept on winner-ci only."""

    @staticmethod
    def usage_error(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
    def test_grid_points_exits_2(self, capsys, scores_csv, command):
        self.usage_error(capsys, [command, *TABLE_COMMANDS[command], "--input", scores_csv,
                                  "--alpha", "0.1", "--tail", "gaussian:1",
                                  "--grid-points", "401"])

    @pytest.mark.parametrize("command", sorted(set(TABLE_COMMANDS) - {"winner-ci"}))
    def test_refine_exits_2_outside_winner_ci(self, capsys, scores_csv, command):
        self.usage_error(capsys, [command, *TABLE_COMMANDS[command], "--input", scores_csv,
                                  "--alpha", "0.1", "--tail", "gaussian:1", "--refine"])

    def test_winner_ci_refine_changes_nothing(self, capsys, scores_csv):
        argv = ["winner-ci", "--input", scores_csv, "--alpha", "0.1",
                "--tail", "subgaussian:1", "--method", "grid"]
        assert run_json(capsys, [*argv, "--refine"]) == run_json(capsys, argv)


def test_json_default_covers_envelope_values():
    iv = WinnerInterval(0.5, 0.25, 2.0, 1, 0.1, "grid", {"hits": np.int64(3)})
    payload = {
        "interval": iv,  # t_l and t_u are init=False fields
        "nested": {"inner": iv},
        "pair": (1, np.float64(0.1)),
        "row": np.array([1.5, 2.0]),
        "grid": np.arange(4).reshape(2, 2),
        "flags": [np.bool_(True), np.bool_(False)],
        "count": np.int64(7),
        "single": np.float32(0.1),
        "missing": None,
    }
    plain_iv = {"r_l": 0.5, "r_u": 0.25, "x_winner": 2.0, "winner": 1, "alpha": 0.1,
                "method": "grid", "diagnostics": {"hits": 3}, "t_l": 1.5, "t_u": 2.25}
    plain = {
        "interval": plain_iv,
        "nested": {"inner": plain_iv},
        "pair": [1, 0.1],
        "row": [1.5, 2.0],
        "grid": [[0, 1], [2, 3]],
        "flags": [True, False],
        "count": 7,
        "single": float(np.float32(0.1)),
        "missing": None,
    }
    dump = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    assert dump == json.dumps(plain, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        json.dumps({"bad": object()}, default=_json_default)


# one file of each input kind, each with a character outside ASCII, so that
# its Latin-1 bytes are not UTF-8
INPUT_BODIES = {"input": "label,score\ncaf\u00e9,1.5\nb,0.25\nc,-1.0\n",
                "table": "# draws, \u00e9chantillon\n"
                         "0.1,-0.2,0.3\n-0.4,0.5,0.6\n0.7,0.8,-0.9\n1.0,0.1,0.2\n",
                "empirical": "0.5  # demi-\u00e9cart\n1.0\n2.5\n",
                "config": "# cellule r\u00e9duite\nm = 3\nm_winners = 1\ngap_mult = 4\n"
                          "trials = 3\nn_mc = 500\nmethods = zoom_grid, bonferroni\n"}


def _plain_inputs(tmp_path) -> dict:
    files = {name: tmp_path / f"{name}.txt" for name in INPUT_BODIES}
    for name, path in files.items():
        path.write_text(INPUT_BODIES[name], encoding="utf-8", newline="")
    return files


def _input_argv(files, kind):
    """The command that reads the file of ``kind`` (and the plain others it needs)."""
    if kind == "config":
        return ["simulate", "--config", str(files["config"])]
    spec = {"input": ["--tail", "gaussian:1"],
            "table": ["--noise", f"table:{files['table']}"],
            "empirical": ["--tail", f"empirical:{files['empirical']}"]}[kind]
    return ["winner-ci", "--input", str(files["input"]), "--alpha", "0.3", *spec]


def _reads_as_the_plain_file(capsys, tmp_path, kind, text):
    """The file of ``kind`` written as ``text`` gives the plain file's output."""
    plain = _plain_inputs(tmp_path)
    code, out, err = run_cli(capsys, _input_argv(plain, kind))
    assert code == 0, err
    changed = {**plain, kind: tmp_path / "changed.txt"}
    changed[kind].write_text(text, encoding="utf-8", newline="")
    assert run_cli(capsys, _input_argv(changed, kind)) == (code, out, err)


class TestByteStability:
    def test_repeated_runs_identical(self, scores_csv):
        argv = [sys.executable, "-m", "zoomcurse.cli", "winner-ci",
                "--input", scores_csv, "--alpha", "0.1",
                "--noise", "equicorrelated:0.2", "--seed", "11",
                "--mc-samples", "3000"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        jsonschema.validate(json.loads(first.stdout), SCHEMA)

    @pytest.mark.parametrize("kind", sorted(INPUT_BODIES))
    def test_byte_order_mark_reads_as_the_plain_file(self, capsys, tmp_path, kind):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        _reads_as_the_plain_file(capsys, tmp_path, kind, "\ufeff" + INPUT_BODIES[kind])

    @pytest.mark.parametrize("ends", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("kind", sorted(INPUT_BODIES))
    def test_line_ends_read_as_the_plain_file(self, capsys, tmp_path, kind, ends):
        _reads_as_the_plain_file(capsys, tmp_path, kind, INPUT_BODIES[kind].replace("\n", ends))

    @pytest.mark.parametrize("line", ["", " , "], ids=["empty", "blank-cells"])
    def test_blank_score_line_reads_as_the_plain_file(self, capsys, tmp_path, line):
        # a line between two data rows, empty or of blank cells, is skipped
        header, first, rest = INPUT_BODIES["input"].split("\n", 2)
        _reads_as_the_plain_file(capsys, tmp_path, "input", "\n".join([header, first, line, rest]))

    @pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
    @pytest.mark.parametrize("kind", sorted(INPUT_BODIES))
    def test_another_encoding_exits_2_naming_the_file(self, capsys, tmp_path, kind, encoding):
        files = _plain_inputs(tmp_path)
        files[kind] = tmp_path / "encoded.txt"
        files[kind].write_bytes(INPUT_BODIES[kind].encode(encoding))
        code, out, err = run_cli(capsys, _input_argv(files, kind))
        assert code == 2 and out == ""
        assert err.startswith(f"zoomcurse: {files[kind]}: not UTF-8 text")

    @pytest.mark.parametrize("kind, body, message", [
        ("empirical", "0.5,1\n1.0,2\n", "2 columns, need 1"),
        ("table", "0.1,0.2\n0.3,0.4\n", "2 columns, need 3"),
        ("empirical", "0.5\n   \n1.0\n", "malformed numeric CSV"),
        ("empirical", "1_000\n", "malformed numeric CSV"),
        ("empirical", "0.5\nnan\n1.0\n", "values must be finite"),
        ("empirical", "0.5\n-inf\n", "values must be finite"),
        ("table", "0.1,0.2,0.3\n0.4,inf,0.6\n", "values must be finite"),
    ], ids=["knots-columns", "table-columns", "knots-blank-line", "knots-underscore",
            "knots-nan", "knots-minus-inf", "table-inf"])
    def test_numeric_file_refusal_names_the_file(self, capsys, tmp_path, kind, body, message):
        files = _plain_inputs(tmp_path)
        files[kind] = tmp_path / "numbers.txt"
        files[kind].write_text(body)
        code, out, err = run_cli(capsys, _input_argv(files, kind))
        assert (code, out, err) == (2, "", f"zoomcurse: {files[kind]}: {message}\n")


def _numpy_scipy_modules(imports: str) -> set:
    code = (f"import sys, {imports}; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return set(out.split())


def test_cli_import_loads_only_what_numpy_and_scipy_special_load():
    # runtime imports are limited to numpy and scipy.special
    extra = _numpy_scipy_modules("zoomcurse.cli") - _numpy_scipy_modules("numpy, scipy.special")
    assert not extra, sorted(extra)


PUBLIC_NAMES = [
    "ActiveRadius", "EmpiricalTail", "EquicorrelatedSampler", "GaussianTail",
    "IdentitySet", "InfeasibleAlphaError", "MonteCarloBound", "NearWinnerInterval",
    "Problem", "ScaledProblem", "SimConfig", "SimReport", "StepdownStep",
    "StepdownTrace", "SubGaussianTail", "TopKResult", "UnionBound",
    "UnsupportedMethodError", "WinnerInterval", "active_radius", "draw_bank",
    "near_winner_interval", "population_value_interval", "run_simulation",
    "topk_interval", "topk_stepdown", "winner_identity_set", "winner_interval_grid",
    "winner_interval_root", "winner_interval_scaled", "winner_interval_stepdown",
]


def test_public_surface_is_pinned():
    import zoomcurse
    assert len(PUBLIC_NAMES) == 31
    assert sorted(zoomcurse.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(zoomcurse, name) is not None
    # solver helpers stay importable from their modules, outside the namespace
    from zoomcurse.sampling import m_statistic, mc_order_index, mc_quantile
    from zoomcurse.simulate import parse_config_text, width_comparison
    from zoomcurse.stepdown import stepdown_lower, stepdown_upper
    from zoomcurse.topk import top_indices
    for helper in (m_statistic, mc_order_index, mc_quantile, parse_config_text,
                   stepdown_lower, stepdown_upper, top_indices, width_comparison):
        assert helper.__name__ not in zoomcurse.__all__
