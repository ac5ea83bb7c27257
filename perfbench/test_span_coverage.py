"""Span-coverage self-check of the traced benchmark run.

Each per-layer metric must read non-zero on the workloads it is meant to
serve (or its function must be reported absent), and each predicted bypass
must read exactly zero, so a renamed function cannot silently read 0.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# metric -> workloads on which it must fire, and the traced function behind it
SERVES = {
    "tails.exceedance.calls": (("sim-cell", "union-mix", "cli"), "tails.UnionBound.exceedance"),
    "tails.identical_marginals.calls": (("sim-cell", "union-mix"),
                                        "tails.UnionBound.identical_marginals"),
    "tails.sf.calls": (("sim-cell", "union-mix"), "tails.GaussianTail.sf"),
    "tails.isf.calls": (("sim-cell", "union-mix"), "tails.GaussianTail.isf"),
    "sampling.draw_bank.calls": (("mc-bank", "sim-cell", "cli"), "sampling.draw_bank"),
    "sampling.draw_bank.rows_drawn": (("mc-bank", "sim-cell"), "sampling.draw_bank"),
    "sampling.bank_bytes": (("mc-bank",), "tails.MonteCarloBound"),
    "sampling.m_statistic.calls": (("mc-bank", "sim-cell"), "sampling.m_statistic"),
    "sampling.mc_quantile.calls": (("mc-bank", "sim-cell"), "sampling.mc_quantile"),
    "core.active_radius.calls": (("sim-cell", "union-mix"), "core.active_radius"),
    "core.active_radius.exceedance_per_call": (("sim-cell", "union-mix"), "core.active_radius"),
    "core.winner_interval_root.calls": (("union-mix", "cli"), "core.winner_interval_root"),
    "core.winner_interval_grid.calls": (("sim-cell", "union-mix", "mc-bank"),
                                        "core.winner_interval_grid"),
    "core.grid.accepted_ratio": (("sim-cell", "union-mix", "mc-bank"),
                                 "core.winner_interval_grid"),
    "stepdown.winner_interval_stepdown.calls": (("union-mix", "sim-cell"),
                                                "stepdown.winner_interval_stepdown"),
    "stepdown.winner_interval_stepdown.steps_per_call": (("union-mix",),
                                                         "stepdown.winner_interval_stepdown"),
    "topk.topk_interval.calls": (("sim-cell", "mc-bank", "union-mix"), "topk.topk_interval"),
    "topk.topk_stepdown.calls": (("union-mix",), "topk.topk_stepdown"),
    "meta.winner_identity_set.self_s": (("union-mix", "mc-bank"), "meta.winner_identity_set"),
    "meta.near_winner_interval.self_s": (("union-mix", "mc-bank"), "meta.near_winner_interval"),
    "meta.population_value_interval.self_s": (("union-mix",),
                                              "meta.population_value_interval"),
    "scaled.winner_interval_scaled.calls": (("union-mix", "cli"), "scaled.winner_interval_scaled"),
    "scaled.exceedance_rows": (("union-mix", "cli"), "scaled.winner_interval_scaled"),
    "simulate.run_simulation.calls": (("sim-cell",), "simulate.run_simulation"),
    "simulate.simultaneous_radius.self_s": (("sim-cell",), "simulate.simultaneous_radius"),
    "simulate.trials": (("sim-cell",), "simulate.run_simulation"),
    "cli.main_s": (("cli",), "cli.main"),
    "cli.stdout_bytes": (("cli",), "cli.main"),
    "cli.import_s": (("sim-cell", "union-mix", "mc-bank", "cli"), "cli.main"),
}

# predicted bypasses: these must read exactly zero
BYPASS = {
    "mc-bank": ("tails.exceedance.calls", "tails.sf.calls", "core.winner_interval_root.calls"),
    "union-mix": ("sampling.draw_bank.calls", "sampling.m_statistic.calls",
                  "simulate.run_simulation.calls"),
}


@pytest.fixture(scope="module")
def reports():
    out = {}
    for workload in ("sim-cell", "union-mix", "mc-bank", "cli"):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", "3", "--seconds", "1", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        report_line, result_line = proc.stdout.strip().splitlines()[-2:]
        out[workload] = (json.loads(report_line), json.loads(result_line))
    return out


@pytest.mark.parametrize("metric", sorted(SERVES))
def test_span_fires_where_it_serves(reports, metric):
    workloads, function = SERVES[metric]
    for workload in workloads:
        report, result = reports[workload]
        if function in report["absent"]:
            continue
        assert result["metrics"][metric]["value"] > 0, (metric, workload)


@pytest.mark.parametrize("workload", sorted(BYPASS))
def test_predicted_bypass_reads_zero(reports, workload):
    report, result = reports[workload]
    for metric in BYPASS[workload]:
        assert result["metrics"][metric]["value"] == 0, (metric, workload)
    if workload == "mc-bank":
        assert report["union_exceedance_calls"] == 0


def test_every_per_layer_metric_is_reported(reports):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    for workload, (_, result) in reports.items():
        assert set(result["metrics"]) == names, workload
