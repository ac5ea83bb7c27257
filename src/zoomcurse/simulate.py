"""Coverage/width experiments: selection-adjusted intervals vs baselines.

Candidate means follow a two-block layout: ``m_winners`` coordinates at 0
and the rest at -gap_mult * r_sim, where r_sim is the simultaneous max-z
radius under the configured equicorrelated noise (so gap_mult expresses
separation in detectability units).  Per-trial scores add one draw of the
noise; every requested method then produces an interval (or set) for its
data-dependent target and we record whether the truth was covered.

Every trial of a cell inverts the same union bound, so its zero-gap radius
r0 is solved once per cell and level (``core.active_radius`` keeps it on
the bound) instead of by a fresh bisection in each winner and top-k
interval; the intervals, and so the reports, are the same either way.

Determinism contract: identical configs (seed included) give byte-identical
JSON reports, regardless of how trials are scheduled -- each trial owns a
namespaced generator and the Monte-Carlo bank has its own stream.
"""
from __future__ import annotations

import dataclasses
import io
import json
import typing
from dataclasses import dataclass, field

import numpy as np

from .core import Problem, _check_alpha, _check_grid_points, active_radius, winner_interval_grid
from .meta import _identity_set
from .sampling import EquicorrelatedSampler, draw_bank
from .stepdown import winner_interval_stepdown
from .tails import GaussianTail, UnionBound
from .topk import topk_interval

BASE_METHODS = ("zoom_grid", "zoom_stepdown", "bonferroni", "uncorrected",
                "identity_set")
DEFAULT_METHODS = ("zoom_grid", "zoom_stepdown", "bonferroni", "uncorrected")
SUBSAMPLE_TRIALS = 100  # headline width quantiles use this many leading trials


def _parse_method(name: str) -> str:
    name = name.strip()
    if name in BASE_METHODS:
        return name
    if name.startswith("topk:"):
        k = name.split(":", 1)[1]
        if not k.isdigit() or int(k) < 1:
            raise ValueError(f"bad top-k method spec {name!r}")
        return f"topk:{int(k)}"
    raise ValueError(f"unknown method {name!r}; valid: {', '.join(BASE_METHODS)}, topk:<k>")


@dataclass(frozen=True)
class SimConfig:
    """One experiment cell; see module docstring for the mean layout.

    ``grid_points`` is validated and ignored; it is kept only because the
    benchmark under ``perfbench/`` sets it.  A method may be listed once.
    """

    m: int
    m_winners: int
    gap_mult: float
    rho: float = 0.0
    alpha: float = 0.1
    trials: int = 2000
    seed: int = 0
    methods: tuple = DEFAULT_METHODS
    n_mc: int = 100_000
    grid_points: int = 2001

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.m_winners <= self.m:
            raise ValueError("m_winners must lie in [1, m]")
        if not self.gap_mult > 0:
            raise ValueError("gap_mult must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        _check_alpha(self.alpha)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_grid_points(self.grid_points)
        methods = tuple(_parse_method(name) for name in self.methods)
        if not methods:
            raise ValueError("at least one method is required")
        for i, name in enumerate(methods):
            if name in methods[:i]:
                raise ValueError(f"method {name} is listed twice")
            if name.startswith("topk:") and int(name.split(":")[1]) > self.m:
                raise ValueError(f"{name} needs k <= m = {self.m}")
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class SimReport:
    """Per-method coverage and width summaries plus optional raw trials."""

    config: SimConfig
    r_sim: float
    summaries: dict
    raw: dict | None = field(default=None, compare=False)

    def to_json(self) -> str:
        payload = {
            "config": dataclasses.asdict(self.config),
            "r_sim": self.r_sim,
            "summaries": self.summaries,
        }
        if self.raw is not None:
            payload["raw"] = self.raw
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        cols = ("method", "coverage", "width_mean", "width_median", "width_q05",
                "width_q95", "width_median_sub", "width_q05_sub", "width_q95_sub")
        out.write(",".join(cols) + "\n")
        for name in sorted(self.summaries):
            s = self.summaries[name]
            out.write(",".join([name] + [repr(s[c]) for c in cols[1:]]) + "\n")
        return out.getvalue()


def _summarize(widths: np.ndarray, covered: np.ndarray) -> dict:
    sub = widths[:SUBSAMPLE_TRIALS]
    return {
        "coverage": float(np.mean(covered)),
        "width_mean": float(np.mean(widths)),
        "width_median": float(np.median(widths)),
        "width_q05": float(np.quantile(widths, 0.05)),
        "width_q95": float(np.quantile(widths, 0.95)),
        "width_median_sub": float(np.median(sub)),
        "width_q05_sub": float(np.quantile(sub, 0.05)),
        "width_q95_sub": float(np.quantile(sub, 0.95)),
    }


def simultaneous_radius(config: SimConfig) -> float:
    """Monte-Carlo max-z radius at the config's noise law (gap-free statistic)."""
    sampler = EquicorrelatedSampler(config.m, config.rho)
    bank_seed = int(np.random.SeedSequence([config.seed, 0]).generate_state(1)[0])
    bank = draw_bank(sampler, config.n_mc, bank_seed)
    return active_radius(bank, np.zeros(config.m), config.alpha).r


def run_simulation(config: SimConfig, *, include_raw: bool = False) -> SimReport:
    m, alpha = config.m, config.alpha
    sampler = EquicorrelatedSampler(m, config.rho)
    r_sim = simultaneous_radius(config)
    theta = np.zeros(m)
    theta[config.m_winners:] = -config.gap_mult * r_sim
    best = frozenset(range(config.m_winners))
    model = GaussianTail(1.0)
    bound = UnionBound((model,) * m)
    r_bonf = model.isf(alpha / m)
    r_unc = model.isf(alpha)
    need_grid = any(name in ("zoom_grid", "identity_set") for name in config.methods)
    widths = {name: np.empty(config.trials) for name in config.methods}
    covered = {name: np.empty(config.trials, dtype=bool) for name in config.methods}

    for trial in range(config.trials):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, trial]))
        x = theta + sampler.draw(rng, 1)[0]
        problem = Problem(x, bound, alpha)
        i_hat = problem.winner
        t_true = float(theta[i_hat])
        iv_grid = winner_interval_grid(problem) if need_grid else None
        for name in config.methods:
            if name == "zoom_grid":
                w, ok = iv_grid.width, iv_grid.t_l <= t_true <= iv_grid.t_u
            elif name == "zoom_stepdown":
                iv = winner_interval_stepdown(problem)
                w, ok = iv.width, iv.t_l <= t_true <= iv.t_u
            elif name == "bonferroni":
                w, ok = 2.0 * r_bonf, abs(x[i_hat] - t_true) <= r_bonf
            elif name == "uncorrected":
                w, ok = 2.0 * r_unc, abs(x[i_hat] - t_true) <= r_unc
            elif name == "identity_set":
                # winner_identity_set's rule on the zoom_grid inversion, not a second one
                members = _identity_set(x, iv_grid, alpha)
                w, ok = float(len(members)), best.issubset(members.indices)
            else:
                k = int(name.split(":")[1])
                res = topk_interval(problem, k)
                win = list(res.winners)
                w = 2.0 * res.r_max
                ok = bool(np.all(np.abs(x[win] - theta[win]) <= res.r_max))
            widths[name][trial] = w
            covered[name][trial] = ok

    summaries = {name: _summarize(widths[name], covered[name])
                 for name in config.methods}
    raw = None
    if include_raw:
        raw = {name: {"width": widths[name].tolist(),
                      "covered": covered[name].tolist()}
               for name in config.methods}
    return SimReport(config, float(r_sim), summaries, raw)


def width_comparison(report: SimReport) -> dict:
    """Median widths plus all pairwise median ratios, machine-readable."""
    if len(report.summaries) < 2:
        raise ValueError("need at least two methods to compare")
    medians = {name: s["width_median"] for name, s in report.summaries.items()}
    ratios = {}
    for a in sorted(medians):
        for b in sorted(medians):
            if a != b:
                ratios[f"{a}/{b}"] = medians[a] / medians[b]
    return {"median_width": medians, "ratio": ratios}


_CONFIG_TYPES = typing.get_type_hints(SimConfig)


def parse_config_text(text: str) -> SimConfig:
    """Parse ``key = value`` lines (# comments allowed) into a SimConfig.

    ``methods`` is a comma-separated list; all other keys are scalars.  A
    key may be given once.
    """
    fields: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: key {key!r} is given twice")
        if key == "methods":
            fields[key] = tuple(part.strip() for part in value.split(",") if part.strip())
        elif key in _CONFIG_TYPES:
            try:
                fields[key] = _CONFIG_TYPES[key](value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    for required in ("m", "m_winners", "gap_mult"):
        if required not in fields:
            raise ValueError(f"config is missing required key {required!r}")
    return SimConfig(**fields)
