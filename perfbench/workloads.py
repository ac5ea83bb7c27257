"""The four benchmark workloads: inputs, call rounds and correctness oracles.

Each workload is built from the workload seed alone; the package only ever
sees the generated inputs.  A workload's timed phase repeats one fixed round
of calls, so every run measures the same mix of work.  After the timed phase
an untimed oracle checks the first round's results, and every later round
must reproduce them bit for bit.

Why these four:
- sim-cell: ``run_simulation`` on two cells of the c05 acceptance sweep, the
  path that dominates the test suite.  Its cost is per-call overhead of many
  small union-bound inversions (active-radius bisection, the marginal
  property check on every exceedance, scalar refine steps).
- union-mix: single calls of every union-bound entry point over m, score
  shape and tail model.  Same ``core``/``tails`` code as sim-cell, used as
  few large vectorized calls; never touches ``sampling``.
- mc-bank: Monte-Carlo bounds.  The cost is the bank scan, the per-row
  interval merge and bank memory; union ``tails`` code is never called.
- cli: one ``python -m zoomcurse.cli`` process at a time on small tables.
  Only this workload sees interpreter start, imports, argparse and JSON.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from scipy.special import ndtr, ndtri

ALPHA = 0.1
TOL = 1e-9
SIM_METHODS = ("zoom_grid", "zoom_stepdown", "bonferroni", "uncorrected",
               "topk:3", "identity_set")


@dataclasses.dataclass
class Call:
    """One entry point call of a round; ``units`` results it produces."""

    label: str
    family: str
    m: int
    units: int
    run: object


def canon(obj):
    """JSON-able, exact form of a result (floats by repr) for digests."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return canon(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).hexdigest()
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def fingerprint(result) -> str:
    return json.dumps(canon(result), sort_keys=True)


# -- shared input builders -----------------------------------------------------

def scores(rng, m: int, shape: str) -> np.ndarray:
    """Score vectors of three shapes: a lone leader, a near-tie cluster, all tied."""
    if shape == "lone":
        x = rng.normal(0.0, 1.0, m)
        x[rng.integers(m)] = x.max() + 8.0
    elif shape == "cluster":
        x = rng.normal(-4.0, 1.0, m)
        top = rng.choice(m, size=min(m, 5), replace=False)
        x[top] = 2.0 + rng.normal(0.0, 0.1, top.size)
    elif shape == "tied":
        x = np.full(m, rng.normal())
    else:
        raise ValueError(shape)
    return x


def gaussian_isf(q: float, scale=1.0):
    """Two-sided Gaussian quantile, computed here rather than by the package."""
    return -ndtri(0.5 * q) * np.asarray(scale)


def _inside(inner, outer) -> bool:
    return outer[0] - TOL <= inner[0] and inner[1] <= outer[1] + TOL


# -- union-mix -------------------------------------------------------------------

# (method, m, score shape, tail model, repeats per round).  The weights hold
# every m and every method family to about a third of the timed phase (the
# report prints the measured shares).  As many calls per round cost under
# 50 ms as over 65 ms, so the median call falls inside the block of m = 1000
# grid and top-k calls between.  Calls of a few milliseconds vary far more
# from run to run on a shared machine.  Methods that need one shared marginal
# model are not run on the distinct-marginals family.  Step-down runs only on
# tied scores, where it stops at its first step, and on the Gaussian lone
# leader at m = 100, which stayed inside the Bonferroni box on 5000 seeds; the
# inputs on which it leaves the box are in STEPDOWN_DEFECTS instead.
UNION_MIX = (
    # m = 10000: few calls, each a large vectorized array pass
    ("refine", 10000, "lone", "gaussian", 1),
    ("root", 10000, "lone", "gaussian", 1),
    ("root", 10000, "cluster", "gaussian", 1),
    ("root", 10000, "tied", "gaussian", 1),
    ("stepdown", 10000, "tied", "gaussian", 1),
    ("topk_stepdown", 10000, "cluster", "gaussian", 1),
    ("identity", 10000, "cluster", "gaussian", 1),
    ("near", 10000, "lone", "gaussian", 1),
    ("population", 10000, "tied", "gaussian", 1),
    # m = 1000: the grid and top-k calls of 50-65 ms hold the median call
    ("grid", 1000, "lone", "gaussian", 1),
    ("grid", 1000, "cluster", "subgaussian", 4),
    ("grid", 1000, "tied", "empirical", 2),
    ("topk", 1000, "tied", "empirical", 2),
    ("refine", 1000, "cluster", "gaussian", 1),
    ("topk", 1000, "cluster", "gaussian", 5),
    ("topk", 1000, "lone", "subgaussian", 4),
    ("root", 1000, "lone", "gaussian", 2),
    ("root", 1000, "cluster", "gaussian", 2),
    ("root", 1000, "tied", "gaussian", 2),
    ("root", 1000, "cluster", "subgaussian", 2),
    ("root", 1000, "tied", "empirical", 2),
    ("stepdown", 1000, "tied", "gaussian", 1),
    ("stepdown", 1000, "tied", "empirical", 1),
    ("topk_stepdown", 1000, "cluster", "gaussian", 1),
    ("topk_stepdown", 1000, "lone", "subgaussian", 1),
    ("identity", 1000, "cluster", "gaussian", 2),
    ("near", 1000, "lone", "gaussian", 2),
    ("population", 1000, "tied", "empirical", 2),
    # m = 100: every method, shape and tail family
    ("root", 100, "lone", "gaussian", 1),
    ("root", 100, "cluster", "subgaussian", 1),
    ("root", 100, "tied", "empirical", 1),
    ("root", 100, "cluster", "distinct", 7),
    ("grid", 100, "lone", "gaussian", 1),
    ("grid", 100, "lone", "distinct", 2),
    ("refine", 100, "cluster", "subgaussian", 1),
    ("refine", 100, "cluster", "distinct", 1),
    ("stepdown", 100, "lone", "gaussian", 1),
    ("stepdown", 100, "tied", "empirical", 1),
    ("topk", 100, "tied", "empirical", 1),
    ("topk", 100, "cluster", "distinct", 5),
    ("topk_stepdown", 100, "tied", "empirical", 1),
    ("identity", 100, "cluster", "subgaussian", 1),
    ("near", 100, "tied", "empirical", 1),
    ("population", 100, "lone", "gaussian", 1),
    # scaled (per-candidate sigma) inversions
    ("scaled", 5, "cluster", "gaussian", 1),
    ("scaled", 10, "lone", "gaussian", 2),
)
# Inputs on which winner_interval_stepdown returns an upper radius above the
# Bonferroni radius isf(alpha/m), against the README's clamp, on most seeds
# (the m = 100 cluster on a few).  Each rival it rules out is charged
# S((gap + r_base) / 3), and with many rivals those charges outrun the
# per-rival share.  A run that times them
# cannot report correct outputs, so they are not timed; known_defects() runs
# them untimed and lists what the oracle finds.  Each key is also an input of
# UNION_MIX, so the probe adds no set-up.
STEPDOWN_DEFECTS = ((10000, "lone", "gaussian"), (10000, "cluster", "gaussian"),
                    (1000, "cluster", "gaussian"), (100, "cluster", "subgaussian"))
SCALED_GRID = {5: 2001, 10: 201}
FAMILY = {"root": "root", "grid": "grid", "refine": "grid", "stepdown": "stepdown",
          "topk": "topk", "topk_stepdown": "topk", "identity": "meta",
          "near": "meta", "population": "meta", "scaled": "scaled"}
TOPK = 3


class UnionMix:
    """Single calls of the union-bound entry points; see UNION_MIX."""

    def __init__(self, zc, seed: int):
        self.zc = zc
        rng = np.random.default_rng([seed, 11])
        self.empirical_table = np.abs(rng.standard_t(5, size=4000))
        self.instances = {}
        for method, m, shape, tail, _ in UNION_MIX:
            key = (m, shape, tail)
            if key in self.instances:
                continue
            x = scores(rng, m, shape)
            scales = rng.uniform(0.5, 2.0, m) if tail == "distinct" else None
            sigma = rng.uniform(0.5, 2.0, m) if method == "scaled" else None
            self.instances[key] = {"x": x, "scales": scales, "sigma": sigma,
                                   "problem": zc.Problem(x, self._bound(tail, m, scales), ALPHA)}
        self.calls = []
        for method, m, shape, tail, repeats in UNION_MIX:
            key = (m, shape, tail)
            call = Call(f"{method}/m{m}/{shape}/{tail}", FAMILY[method], m, 1,
                        self._runner(method, key))
            self.calls.extend([call] * repeats)
        # one untimed warm-up call per method family, on a small instance
        warm = zc.Problem(scores(rng, 20, "cluster"),
                          self._bound("gaussian", 20, None), ALPHA)
        zc.winner_interval_root(warm)
        zc.winner_interval_grid(warm, 2001, refine=True)
        zc.winner_interval_stepdown(warm)
        zc.topk_interval(warm, TOPK, 2001)
        zc.topk_stepdown(warm, TOPK)
        zc.winner_identity_set(warm)
        zc.near_winner_interval(warm, warm.winner)
        zc.population_value_interval(warm)
        zc.winner_interval_scaled(zc.ScaledProblem(warm, np.linspace(0.5, 2.0, 20)), 21)

    def _bound(self, tail: str, m: int, scales):
        zc = self.zc
        if tail == "gaussian":
            return zc.UnionBound((zc.GaussianTail(1.0),) * m)
        if tail == "subgaussian":
            return zc.UnionBound((zc.SubGaussianTail(1.2),) * m)
        if tail == "empirical":
            return zc.UnionBound((zc.EmpiricalTail(self.empirical_table),) * m)
        if tail == "distinct":
            return zc.UnionBound(tuple(zc.GaussianTail(float(s)) for s in scales))
        raise ValueError(tail)

    def _runner(self, method: str, key):
        zc, inst = self.zc, self.instances[key]
        p = inst["problem"]
        return {
            "root": lambda: zc.winner_interval_root(p),
            "grid": lambda: zc.winner_interval_grid(p, 2001),
            "refine": lambda: zc.winner_interval_grid(p, 2001, refine=True),
            "stepdown": lambda: zc.winner_interval_stepdown(p),
            "topk": lambda: zc.topk_interval(p, TOPK, 2001),
            "topk_stepdown": lambda: zc.topk_stepdown(p, TOPK),
            "identity": lambda: zc.winner_identity_set(p),
            "near": lambda: zc.near_winner_interval(p, p.winner),
            "population": lambda: zc.population_value_interval(p),
            "scaled": lambda: zc.winner_interval_scaled(
                zc.ScaledProblem(p, inst["sigma"]), SCALED_GRID[key[0]]),
        }[method]

    def round(self):
        return self.calls

    def _bonferroni(self, key) -> float:
        m, _, tail = key
        q = ALPHA / m
        if tail == "gaussian":
            return float(gaussian_isf(q))
        if tail == "subgaussian":
            return 1.2 * float(np.sqrt(2.0 * np.log(2.0 / q)))
        if tail == "empirical":
            values = np.sort(self.empirical_table)
            knots_r = np.concatenate([[0.0], values])
            knots_s = np.concatenate([[1.0], 1.0 - np.arange(1, values.size + 1) / values.size])
            return float(np.interp(q, knots_s[::-1], knots_r[::-1]))
        return float(gaussian_isf(q, self.instances[key]["scales"]).max())

    def _endpoint_sums(self, key, root) -> tuple:
        """Union bound along the worst case at the root radii, via ndtr."""
        inst = self.instances[key]
        x, scales = inst["x"], inst["scales"]
        scales = 1.0 if scales is None else scales
        d = root.x_winner - x
        sums = []
        for r, sign in ((root.r_l, -1.0), (root.r_u, +1.0)):
            widths = np.maximum(r, (d + sign * r) / 3.0)
            sums.append(float(np.sum(2.0 * ndtr(-widths / scales))))
        return tuple(sums)

    def check(self, results: dict) -> dict:
        """Oracle over one round's results: label -> list of failure messages."""
        failures = {}
        roots = {self._key(label): res for label, res in results.items()
                 if label.startswith("root/")}

        def root_of(key):  # instances whose round has no root call get one here
            if key not in roots:
                roots[key] = self.zc.winner_interval_root(self.instances[key]["problem"])
            return roots[key]

        for label, res in results.items():
            method, key = label.split("/")[0], self._key(label)
            inst = self.instances[key]
            x = inst["x"]
            win = int(np.argmax(x))
            r_b = self._bonferroni(key)
            box = (x[win] - r_b, x[win] + r_b)
            errs = []
            if method in ("root", "grid", "refine", "stepdown", "population"):
                iv = (res.t_l, res.t_u)
                if not _inside(iv, box):
                    errs.append(f"interval {iv} leaves the Bonferroni box {box}")
                root = root_of(key)
                if not _inside((root.t_l, root.t_u), iv):
                    errs.append("root interval not inside this interval")
                if method == "root" and key[2] in ("gaussian", "distinct"):
                    for s in self._endpoint_sums(key, res):
                        if s > ALPHA + TOL:
                            errs.append(f"union endpoint sum {s} exceeds alpha")
            elif method == "near":
                hull = res.hull
                if not _inside(hull, box):
                    errs.append(f"near-winner hull {hull} leaves the Bonferroni box")
                root = root_of(key)
                if not _inside((root.t_l, root.t_u), hull):
                    errs.append("root interval not inside the near-winner hull")
            elif method == "identity":
                members = set(np.nonzero(x >= res.threshold)[0].tolist())
                if set(res.indices) != members or win not in members:
                    errs.append("identity set is not {j : x_j >= threshold} with the winner")
                if res.threshold < x[win] - 2.0 * r_b - TOL:
                    errs.append("identity threshold below the Bonferroni threshold")
                if res.threshold > x[win] - 2.0 * root_of(key).r_l + TOL:
                    errs.append("identity threshold above the root threshold")
            elif method in ("topk", "topk_stepdown"):
                if res.r_max > r_b + TOL:
                    errs.append(f"top-k radius {res.r_max} exceeds Bonferroni {r_b}")
                if method == "topk_stepdown":
                    grid = results.get(label.replace("topk_stepdown/", "topk/", 1))
                    if grid is None:
                        grid = self.zc.topk_interval(inst["problem"], TOPK, 2001)
                    if res.r_max < grid.r_max - TOL:
                        errs.append("topk_stepdown narrower than topk_interval")
            elif method == "scaled":
                s_win = inst["sigma"][win]
                sbox = (x[win] - r_b * s_win, x[win] + r_b * s_win)
                if not _inside((res.t_l, res.t_u), sbox):
                    errs.append("scaled interval leaves the Bonferroni box")
            if errs:
                failures[label] = errs
        return failures

    def known_defects(self) -> dict:
        """Oracle findings on the STEPDOWN_DEFECTS inputs; untimed, never gated."""
        found = {}
        for m, shape, tail in STEPDOWN_DEFECTS:
            label = f"stepdown/m{m}/{shape}/{tail}"
            try:
                result = self.zc.winner_interval_stepdown(self.instances[(m, shape, tail)]["problem"])
            except Exception as exc:
                found[label] = [f"{type(exc).__name__}: {exc}"]
                continue
            found.update(self.check({label: result}))
        return found

    @staticmethod
    def _key(label: str):
        _, m, shape, tail = label.split("/")
        return (int(m[1:]), shape, tail)


# -- mc-bank ---------------------------------------------------------------------

# (m, rows, rho, calls).  The third bank asks for fewer rows than one draw
# block, so the sampler draws a whole block and keeps a fraction of it.  Its
# m is 250 rather than 1000 to keep the block draw near 0.4 GB of memory.
# Its four calls cost about the same and do not depend much on the scores;
# two calls per round are cheaper and two dearer, so the median call falls
# inside that block.
MC_BANKS = (
    (100, 100_000, 0.5, ("grid", "refine")),
    (10, 100_000, 0.0, ("grid", "refine", "topk")),
    (250, 20_000, 0.5, ("grid", "topk", "identity", "near")),
)


class McBank:
    """Monte-Carlo bound calls on the banks of MC_BANKS."""

    def __init__(self, zc, seed: int):
        self.zc = zc
        rng = np.random.default_rng([seed, 12])
        self.problems = {}
        self.calls = []
        for m, n, rho, methods in MC_BANKS:
            bound = self._bound(zc.EquicorrelatedSampler(m, rho), n, int(rng.integers(2**31)))
            x = rng.normal(0.0, 1.0, m)
            x[:3] += (2.0, 1.5, 1.0)
            p = zc.Problem(x, bound, ALPHA)
            key = f"m{m}/n{n}"
            self.problems[key] = p
            for method in methods:
                self.calls.append(Call(f"{method}/{key}", method, m, 1, self._runner(method, p)))
        # one untimed warm-up call per method family, on a small bank
        warm = zc.Problem(rng.normal(size=5), self._bound(zc.EquicorrelatedSampler(5, 0.2),
                                                          2000, 1), ALPHA)
        for method in ("grid", "refine", "topk", "identity", "near"):
            self._runner(method, warm)()

    def _bound(self, sampler, n, seed):
        bank = self.zc.draw_bank(sampler, n, seed)
        return bank if isinstance(bank, self.zc.MonteCarloBound) else self.zc.MonteCarloBound(bank)

    def _runner(self, method, p):
        zc = self.zc
        return {
            "grid": lambda: zc.winner_interval_grid(p, 2001),
            "refine": lambda: zc.winner_interval_grid(p, 2001, refine=True),
            "topk": lambda: zc.topk_interval(p, TOPK, 2001),
            "identity": lambda: zc.winner_identity_set(p),
            "near": lambda: zc.near_winner_interval(p, p.winner),
        }[method]

    def round(self):
        return self.calls

    def check(self, results: dict) -> dict:
        failures = {}
        for key, p in self.problems.items():
            r0 = self.zc.active_radius(p.bound, np.zeros(p.m), ALPHA).r
            xw = float(p.x[p.winner])
            box = (xw - r0, xw + r0)
            got = {label.split("/")[0]: res for label, res in results.items()
                   if label.endswith("/" + key)}
            errs = {}
            grid = got.get("grid")
            if grid is not None and not _inside((grid.t_l, grid.t_u), box):
                errs["grid"] = ["grid interval leaves the zero-gap box"]
            refine = got.get("refine")
            if refine is not None and grid is not None and not _inside(
                    (refine.t_l, refine.t_u), (grid.t_l, grid.t_u)):
                errs["refine"] = ["refine interval leaves the grid interval"]
            topk = got.get("topk")
            if topk is not None and topk.r_max > r0 + TOL:
                errs["topk"] = ["top-k radius exceeds the zero-gap radius"]
            ident = got.get("identity")
            if ident is not None:
                if p.winner not in ident.indices:
                    errs["identity"] = ["identity set misses the winner"]
                elif grid is not None and ident.threshold != xw - 2.0 * grid.r_l:
                    errs["identity"] = ["identity threshold differs from the grid interval"]
            near = got.get("near")
            if near is not None and grid is not None and not _inside(
                    near.hull, (grid.t_l, grid.t_u)):
                errs["near"] = ["near-winner hull of the winner leaves the grid interval"]
            for method, e in errs.items():
                failures[f"{method}/{key}"] = e
        return failures


# -- sim-cell --------------------------------------------------------------------

# Trial counts give both cells a similar per-call time, so the median call
# latency does not jump between the two cells' distributions.
SIM_CELLS = (
    dict(m=100, m_winners=1, gap_mult=8.0, rho=0.5, trials=50),
    dict(m=10, m_winners=10, gap_mult=4.0, rho=0.0, trials=240),
)


class SimCell:
    """One run_simulation call per cell of SIM_CELLS."""

    def __init__(self, zc, seed: int):
        self.calls = []
        for cell in SIM_CELLS:
            cfg = zc.SimConfig(alpha=ALPHA, seed=seed, methods=SIM_METHODS,
                               n_mc=100_000, grid_points=2001, **cell)
            label = f"cell/m{cfg.m}/w{cfg.m_winners}/rho{cfg.rho}"
            self.calls.append(Call(label, "run_simulation", cfg.m, cfg.trials,
                                   lambda cfg=cfg: zc.run_simulation(cfg, include_raw=True)))
        # untimed warm-up on a tiny cell with the same method list
        zc.run_simulation(zc.SimConfig(m=5, m_winners=1, gap_mult=4.0, trials=2,
                                       seed=seed, methods=SIM_METHODS, n_mc=1000,
                                       grid_points=101), include_raw=True)

    def round(self):
        return self.calls

    def check(self, results: dict) -> dict:
        failures = {}
        for label, report in results.items():
            raw = report.raw
            zoom = np.asarray(raw["zoom_grid"]["width"])
            bad = int(np.count_nonzero(zoom > np.asarray(raw["bonferroni"]["width"]) + 1e-8))
            bad_sd = int(np.count_nonzero(zoom > np.asarray(raw["zoom_stepdown"]["width"]) + 1e-8))
            errs = []
            if bad:
                errs.append(f"{bad} trials with zoom width above Bonferroni")
            if bad_sd:
                errs.append(f"{bad_sd} trials with zoom width above step-down")
            if errs:
                failures[label] = errs
        return failures


# -- cli -------------------------------------------------------------------------

def _write_table(path, labels, x, sigma=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,score" + (",sigma" if sigma is not None else "") + "\n")
        for j, label in enumerate(labels):
            row = [label, repr(float(x[j]))]
            if sigma is not None:
                row.append(repr(float(sigma[j])))
            fh.write(",".join(row) + "\n")


def cli_cases(seed: int, data_dir: str) -> tuple:
    """Argument lists of the timed CLI cases and of the known-defect cases.

    Their input files are written to data_dir.  The defect case is the
    step-down call on the step-down table with the empirical tail: on many
    seeds the upper walk's charges exhaust the budget and the CLI exits 3,
    although a Bonferroni interval exists (see STEPDOWN_DEFECTS).  The timed
    case uses the Gaussian tail, on which the walk cannot exhaust the budget.
    """
    rng = np.random.default_rng([seed, 14])
    os.makedirs(data_dir, exist_ok=True)

    def table(name, m, shape, sigma=False):
        path = os.path.join(data_dir, f"{name}.csv")
        x = scores(rng, m, shape)
        _write_table(path, [f"c{j:02d}" for j in range(m)], x,
                     rng.uniform(0.5, 2.0, m) if sigma else None)
        return path

    empirical = os.path.join(data_dir, "empirical.txt")
    with open(empirical, "w", encoding="utf-8") as fh:
        fh.write("\n".join(repr(float(v)) for v in np.abs(rng.standard_t(5, size=500))) + "\n")
    config = os.path.join(data_dir, "tiny.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"m = 5\nm_winners = 2\ngap_mult = 4\nrho = 0.3\ntrials = 5\n"
                 f"seed = {seed}\nn_mc = 2000\ngrid_points = 201\n"
                 f"methods = zoom_grid, zoom_stepdown, bonferroni, topk:2, identity_set\n")
    a = ["--alpha", "0.1"]
    stepdown = table("stepdown", 50, "lone")
    cases = [
        ("winner-root", ["winner-ci", "--input", table("root", 3, "lone"), *a,
                         "--tail", "gaussian:1", "--method", "root"]),
        ("winner-refine", ["winner-ci", "--input", table("refine", 20, "cluster"), *a,
                           "--tail", "subgaussian:1", "--method", "grid", "--refine"]),
        ("winner-stepdown", ["winner-ci", "--input", stepdown, *a,
                             "--tail", "gaussian:1", "--method", "stepdown"]),
        ("topk", ["topk-ci", "--input", table("topk", 12, "cluster"), *a,
                  "--tail", f"empirical:{empirical}", "--k", "3"]),
        ("identity", ["identity-set", "--input", table("identity", 30, "cluster"), *a,
                      "--tail", "gaussian:1"]),
        ("near", ["near-winner", "--input", table("near", 8, "tied"), *a,
                  "--tail", "gaussian:1", "--index", "2"]),
        ("noise", ["winner-ci", "--input", table("noise", 10, "cluster"), *a,
                   "--noise", "equicorrelated:0.5", "--mc-samples", "20000",
                   "--seed", str(seed), "--method", "grid"]),
        ("sigma", ["winner-ci", "--input", table("sigma", 4, "cluster", sigma=True), *a,
                   "--tail", "gaussian:1", "--method", "grid"]),
        ("simulate", ["simulate", "--config", config]),
    ]
    defects = [("winner-stepdown-empirical", ["winner-ci", "--input", stepdown, *a,
                                              "--tail", f"empirical:{empirical}",
                                              "--method", "stepdown"])]
    return cases, defects


def check_envelope(stdout: bytes) -> list:
    try:
        env = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    if not isinstance(env, dict) or env.get("schema") != "zoomcurse/v1":
        return ["stdout is not a zoomcurse/v1 envelope"]
    return []


class Cli:
    """CLI processes, one at a time; ``in_process`` runs ``main()`` instead."""

    def __init__(self, zc, seed: int, root: str, data_dir: str, env: dict, in_process=False):
        self.root, self.env = root, env
        self.main = importlib.import_module(f"{zc.__name__}.cli").main if in_process else None
        cases, defects = cli_cases(seed, data_dir)
        self.calls = [Call(name, name.split("-")[0], 0, 1, self._runner(argv))
                      for name, argv in cases]
        self.defects = [(name, self._runner(argv)) for name, argv in defects]
        # untimed warm-up: one process, which also compiles the package's bytecode
        self.calls[0].run()

    def _runner(self, argv):
        if self.main is not None:
            def run():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.main(argv)
                return code, out.getvalue().encode()
            return run
        command = [sys.executable, "-m", "zoomcurse.cli", *argv]

        def run():
            proc = subprocess.run(command, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=120)
            return proc.returncode, proc.stdout
        return run

    def round(self):
        return self.calls

    def check(self, results: dict) -> dict:
        failures = {}
        for label, (code, stdout) in results.items():
            errs = [f"exit code {code}"] if code != 0 else check_envelope(stdout)
            if errs:
                failures[label] = errs
        return failures

    def known_defects(self) -> dict:
        """Oracle findings on the known-defect cases; untimed, never gated."""
        return self.check({name: run() for name, run in self.defects})
