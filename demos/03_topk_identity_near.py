"""Beyond the single winner: top-k boxes, the identity set, near-winners.

Three follow-up questions after a selection:
  * how good are the top k, jointly?              -> topk_interval
  * who could actually be the true best?          -> winner_identity_set
  * what about a candidate that did NOT win?      -> near_winner_interval
"""
import numpy as np

from zoomcurse import GaussianTail, Problem, UnionBound, winner_interval_root
from zoomcurse.meta import (near_winner_interval, population_value_interval,
                            winner_identity_set)
from zoomcurse.topk import topk_interval, topk_stepdown

ALPHA = 0.1
labels = ["ada", "bix", "cor", "dua", "eke", "fir"]
x = np.array([12.4, 11.9, 10.2, 7.5, 3.1, 2.8])
p = Problem(x, UnionBound((GaussianTail(1.0),) * x.size), ALPHA)

print("=== 1. Simultaneous boxes for the top 3 ===")
res = topk_interval(p, k=3)
print(f"common half-width r_max = {res.r_max:.4f}")
for w, (lo, hi) in zip(res.winners, res.boxes):
    print(f"  {labels[w]:4s} score {x[w]:5.1f} -> [{lo:.4f}, {hi:.4f}]")
sd = topk_stepdown(p, k=3)
print(f"step-down variant: r_max = {sd.r_max:.4f} (closed form, >= r_max above)")

print()
print("=== 2. Who could be the true best? ===")
ids = winner_identity_set(p)
print(f"scores {x}")
print(f"identity set: {[labels[j] for j in ids.indices]} "
      f"(threshold {ids.threshold:.4f})")
print("dua, eke, fir are too far behind to be the population best at 90%;")
print("ada, bix, cor all remain plausible.")

print()
print("=== 3. Interval for the population-best value ===")
pop = population_value_interval(p)
win = winner_interval_root(p)
print(f"population max in [{pop.t_l:.4f}, {pop.t_u:.4f}]")
print(f"winner's mean in  [{win.t_l:.4f}, {win.t_u:.4f}]  (same interval:")
print("the winner's parameter and the best parameter share one region)")

print()
print("=== 4. Valid intervals for the non-winners ===")
for label in ("bix", "cor", "eke"):
    j = labels.index(label)
    lo, hi = near_winner_interval(p, j).hull
    print(f"  {label:4s} score {x[j]:5.1f} -> [{lo:.3f}, {hi:.3f}]")
print("the further behind the winner a candidate is, the more its interval")
print("must stretch downward: losing is evidence, but only one-sided.")
