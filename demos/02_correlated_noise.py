"""Monte-Carlo noise banks: exploiting correlation between candidates.

Analytic tail bounds treat coordinates one at a time (union bound). When the
noise is exchangeable — e.g. every candidate is evaluated on the same test
set — the joint distribution is known up to sampling, and a Monte-Carlo bank
gives strictly tighter simultaneous radii. For a bank, winner_interval_grid
sweeps the exact breakpoints of the exceed count, so the interval has no grid
slack and needs no refinement.
"""
import numpy as np

from zoomcurse import GaussianTail, Problem, UnionBound, winner_interval_grid
from zoomcurse.sampling import EquicorrelatedSampler, draw_bank

ALPHA = 0.1
x = np.array([10.0, 9.1, 8.9, 6.0, 5.5])
m = x.size

print("=== 1. Union bound (correlation-agnostic) ===")
p_union = Problem(x, UnionBound((GaussianTail(1.0),) * m), ALPHA)
iv_union = winner_interval_grid(p_union)
print(f"interval [{iv_union.t_l:.4f}, {iv_union.t_u:.4f}]  "
      f"width {iv_union.t_u - iv_union.t_l:.4f}")

print()
print("=== 2. Monte-Carlo bank at several correlation levels ===")
print(f"{'rho':>5s} {'t_l':>9s} {'t_u':>9s} {'width':>8s}")
for rho in (0.0, 0.3, 0.6, 0.9):
    bound = draw_bank(EquicorrelatedSampler(m, rho), 200_000, seed=42)
    iv = winner_interval_grid(Problem(x, bound, ALPHA))
    print(f"{rho:5.1f} {iv.t_l:9.4f} {iv.t_u:9.4f} "
          f"{iv.t_u - iv.t_l:8.4f}")
print("shared noise cancels out of the gaps: at rho=0.9 the interval is")
print("much narrower than anything a per-coordinate bound can certify.")

print()
print("=== 3. Determinism: same seed, same bank, same bytes ===")
a = draw_bank(EquicorrelatedSampler(m, 0.6), 50_000, seed=7)
b = draw_bank(EquicorrelatedSampler(m, 0.6), 50_000, seed=7)
print(f"two draws identical: {np.array_equal(a.abs_samples, b.abs_samples)}")
big = draw_bank(EquicorrelatedSampler(m, 0.6), 80_000, seed=7)
print(f"50k bank is a prefix of the 80k bank: "
      f"{np.array_equal(big.abs_samples[:50_000], a.abs_samples)}")
print("growing n refines the same experiment instead of rerolling it.")
