"""The selection problem and the three winner-interval constructions.

Pick the best of m noisy scores, then ask for a confidence interval for the
winner's true mean. The naive marginal interval under-covers; the classical
simultaneous (Bonferroni) interval over-pays. The adaptive interval charges
only for candidates that are genuinely in contention.
"""
import numpy as np

from zoomcurse import (GaussianTail, Problem, UnionBound, winner_interval_grid,
                       winner_interval_root, winner_interval_stepdown)

ALPHA = 0.1
MARGINAL = GaussianTail(1.0).isf(ALPHA)

rng = np.random.default_rng(1)

print("=== 1. Why the naive interval fails ===")
# 20 candidates, all with true mean 0: the winner's score is pure luck.
m, trials = 20, 20_000
wins = rng.normal(size=(trials, m)).max(axis=1)
naive_covers = np.mean(np.abs(wins) <= MARGINAL)
print(f"m={m} nulls, naive 90% interval covers the winner's mean "
      f"{naive_covers:.1%} of the time (want 90%)")

print()
print("=== 2. The adaptive interval on a real-looking leaderboard ===")
x = np.array([12.4, 11.9, 10.2, 7.5, 3.1, 2.8])
p = Problem(x, UnionBound((GaussianTail(1.0),) * x.size), ALPHA)
iv = winner_interval_root(p)
r_bonf = GaussianTail(1.0).isf(ALPHA / x.size)
print(f"scores: {x}")
print(f"winner: index {iv.winner} (score {iv.x_winner})")
print(f"adaptive:   [{iv.t_l:.4f}, {iv.t_u:.4f}]  "
      f"(half-widths {iv.r_l:.4f} / {iv.r_u:.4f})")
print(f"bonferroni: [{x[0] - r_bonf:.4f}, {x[0] + r_bonf:.4f}]  "
      f"(half-width {r_bonf:.4f})")
print(f"marginal:   [{x[0] - MARGINAL:.4f}, {x[0] + MARGINAL:.4f}]  "
      f"(half-width {MARGINAL:.4f}, NOT valid after selection)")
print("only the runner-up at 11.9 is close enough to cost anything;")
print("the three stragglers are free.")

print()
print("=== 3. Three constructions, one answer ===")
grid = winner_interval_grid(p)
sd = winner_interval_stepdown(p)
for name, v in (("root (exact)", iv), ("grid", grid), ("step-down", sd)):
    print(f"{name:12s} [{v.t_l:.6f}, {v.t_u:.6f}]")
print("grid runs the root solver on a union bound, so it matches bit for bit;")
print("the closed-form step-down is a hair wider by construction but needs")
print("no root-finding.")

print()
print("=== 4. The interval adapts to the lead ===")
print(f"{'lead':>6s} {'r_l':>8s} {'r_u':>8s}")
for lead in (0.0, 1.0, 3.0, 5.0, 8.0, 12.0):
    xs = np.array([lead, 0.0, 0.0, 0.0, 0.0, 0.0])
    v = winner_interval_root(Problem(xs, p.bound, ALPHA))
    print(f"{lead:6.1f} {v.r_l:8.4f} {v.r_u:8.4f}")
print(f"tied pack -> simultaneous radius {r_bonf:.4f}; runaway winner -> "
      f"marginal radius {MARGINAL:.4f}.")
