"""zoomcurse: valid confidence intervals for empirically selected winners.

Pick the best-looking of m noisy candidates and its score is biased up;
a naive interval around it undercovers.  This package inverts a family of
selection-aware acceptance regions whose per-coordinate widths grow with
each candidate's plausible suboptimality, giving intervals for the winner
(and top-k boxes, population-best sets, near-winner regions) that stay
valid after selection, under marginal tail bounds plus a union bound or an
exact Monte-Carlo noise model.
"""
from .core import (ActiveRadius, Problem, WinnerInterval, active_radius,
                   winner_interval_grid, winner_interval_root)
from .errors import InfeasibleAlphaError, UnsupportedMethodError
from .meta import (IdentitySet, NearWinnerInterval, near_winner_interval,
                   population_value_interval, winner_identity_set)
from .sampling import EquicorrelatedSampler, draw_bank
from .scaled import ScaledProblem, winner_interval_scaled
from .simulate import (SimConfig, SimReport, parse_config_text, run_simulation,
                       width_comparison)
from .stepdown import (StepdownStep, StepdownTrace, stepdown_lower,
                       stepdown_upper, winner_interval_stepdown)
from .tails import (EmpiricalTail, GaussianTail, MonteCarloBound,
                    SubGaussianTail, UnionBound)
from .topk import TopKResult, topk_interval, topk_stepdown

__version__ = "0.1.0"

__all__ = [
    "ActiveRadius", "EmpiricalTail", "EquicorrelatedSampler", "GaussianTail",
    "IdentitySet", "InfeasibleAlphaError", "MonteCarloBound", "NearWinnerInterval",
    "Problem", "ScaledProblem", "SimConfig", "SimReport", "StepdownStep",
    "StepdownTrace", "SubGaussianTail", "TopKResult", "UnionBound",
    "UnsupportedMethodError", "WinnerInterval",
    "active_radius", "draw_bank", "near_winner_interval", "parse_config_text",
    "population_value_interval", "run_simulation", "stepdown_lower",
    "stepdown_upper", "topk_interval", "topk_stepdown", "width_comparison",
    "winner_identity_set", "winner_interval_grid", "winner_interval_root",
    "winner_interval_scaled", "winner_interval_stepdown",
]
