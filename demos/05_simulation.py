"""Coverage and width, measured: the simulation harness.

One SimConfig describes a cell (candidate count, how many are tied at the
top, separation, correlation); run_simulation plays `trials` independent
selections and reports per-method coverage and width quantiles. Reports
serialize byte-stably, so a cell is rerunnable and diffable.

Two cells bracket the phenomenon: a tied pack, where selection bias is
maximal, and a lone winner, where it vanishes.
"""
from zoomcurse.simulate import SimConfig, run_simulation, width_comparison

METHODS = ("zoom_grid", "zoom_stepdown", "bonferroni", "uncorrected",
           "topk:3", "identity_set")
COMMON = dict(m=40, rho=0.3, alpha=0.1, trials=400, seed=20260815,
              methods=METHODS, n_mc=20_000)


def show(title, cfg):
    report = run_simulation(cfg)
    print(f"=== {title}: m={cfg.m}, winners={cfg.m_winners}, "
          f"rho={cfg.rho}, {cfg.trials} trials ===")
    print(f"{'method':14s} {'coverage':>9s} {'med width':>10s}")
    for name in cfg.methods:
        s = report.summaries[name]
        print(f"{name:14s} {s['coverage']:9.3f} {s['width_median']:10.3f}")
    return report


tied = show("tied pack", SimConfig(m_winners=40, gap_mult=4.0, **COMMON))
print("every candidate can win, so the winner's score is biased upward:")
print("the uncorrected interval collapses below its nominal 90%. The")
print("adaptive methods hold coverage by paying full simultaneous width.")
print()

lone = show("lone winner", SimConfig(m_winners=1, gap_mult=6.0, **COMMON))
print("with one candidate far ahead there is nothing to select between;")
print("the adaptive interval sheds the correction and matches the")
print("uncorrected width, while Bonferroni keeps paying for all 40.")
print("identity_set 'width' counts surviving candidates, not a length.")

print()
print("=== width ratios at the lone-winner cell (medians) ===")
ratios = width_comparison(lone)["ratio"]
for pair in ("zoom_grid/bonferroni", "zoom_grid/zoom_stepdown",
             "zoom_stepdown/bonferroni"):
    print(f"  {pair:26s} {ratios[pair]:.4f}")

print()
print("=== byte-stable reports ===")
cfg = SimConfig(m_winners=1, gap_mult=6.0, **COMMON)
again = run_simulation(cfg)
print(f"same config twice, identical JSON: "
      f"{run_simulation(cfg).to_json() == again.to_json()}")
print("write with report.to_json() / report.to_csv(), or via the CLI:")
print("  zoomcurse simulate --config cell.cfg --out-json report.json")
