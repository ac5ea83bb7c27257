"""Span tracer that wraps zoomcurse's public functions from outside the package.

Every traced function is replaced at each of its binding sites: the module
that defines it, every zoomcurse module that imported it by name, and the
package namespace.  Methods and properties are wrapped on their class.  A
name that no longer exists is reported as absent instead of failing, so the
traced run survives API churn.

Spans (name, start, end, parent) are kept in memory and written out when the
run ends; self time is a span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute): module-level functions
FUNCTIONS = (
    ("sampling.draw_bank", "sampling", "draw_bank"),
    ("sampling.m_statistic", "sampling", "m_statistic"),
    ("sampling.mc_quantile", "sampling", "mc_quantile"),
    ("core.active_radius", "core", "active_radius"),
    ("core.winner_interval_root", "core", "winner_interval_root"),
    ("core.winner_interval_grid", "core", "winner_interval_grid"),
    ("stepdown.winner_interval_stepdown", "stepdown", "winner_interval_stepdown"),
    ("topk.topk_interval", "topk", "topk_interval"),
    ("topk.topk_stepdown", "topk", "topk_stepdown"),
    ("meta.winner_identity_set", "meta", "winner_identity_set"),
    ("meta.near_winner_interval", "meta", "near_winner_interval"),
    ("meta.population_value_interval", "meta", "population_value_interval"),
    ("scaled.winner_interval_scaled", "scaled", "winner_interval_scaled"),
    ("simulate.run_simulation", "simulate", "run_simulation"),
    ("simulate.simultaneous_radius", "simulate", "simultaneous_radius"),
    ("cli.main", "cli", "main"),
)

# (span name, module, class, attribute): methods and properties
METHODS = (
    ("tails.exceedance", "tails", "UnionBound", "exceedance"),
    ("tails.exceedance", "tails", "MonteCarloBound", "exceedance"),
    ("tails.identical_marginals", "tails", "UnionBound", "identical_marginals"),
    ("tails.sf", "tails", "GaussianTail", "sf"),
    ("tails.sf", "tails", "SubGaussianTail", "sf"),
    ("tails.sf", "tails", "EmpiricalTail", "sf"),
    ("tails.isf", "tails", "GaussianTail", "isf"),
    ("tails.isf", "tails", "SubGaussianTail", "isf"),
    ("tails.isf", "tails", "EmpiricalTail", "isf"),
)

# hooks without a span: they only count
SAMPLER_CLASSES = ("EquicorrelatedSampler", "DiagonalGaussianSampler", "TableSampler")


def _diag(result, key, default=None):
    diagnostics = getattr(result, "diagnostics", None)
    if isinstance(diagnostics, dict):
        return diagnostics.get(key, default)
    return default


def _array_bytes(obj) -> int:
    """Bytes held by the distinct numpy buffers among an object's attributes."""
    seen, total = set(), 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            base = value if value.base is None else value.base
            if id(base) not in seen:
                seen.add(id(base))
                total += value.nbytes
    return total


class Tracer:
    """Installs wrappers, records spans and turns them into per-layer metrics."""

    def __init__(self, package):
        self.package = package
        self.codes: dict[str, int] = {}
        self.name_of: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self._phase_start = 0
        self._setup_counts: dict = {}
        self._plan = self._build_plan()

    # -- wrapping -----------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self.codes:
            self.codes[name] = len(self.name_of)
            self.name_of.append(name)
        return self.codes[name]

    def _span(self, name: str, fn, hook=None):
        code = self._code(name)
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self.stack)

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict:
        counts = self.counts
        draw_code = self._code("sampling.draw_bank")

        def exceedance(args, kwargs, result):
            widths = np.asarray(args[1] if len(args) > 1 else kwargs["widths"])
            rows = int(np.prod(widths.shape[:-1])) if widths.ndim > 1 else 1
            counts["exceedance.rows"] += rows
            counts["exceedance.bytes"] += rows * widths.shape[-1] * 8
            if type(args[0]).__name__ == "UnionBound":
                counts["exceedance.union_calls"] += 1
            # attribute the rows to an enclosing scaled scan, if any
            if self._inside("scaled.winner_interval_scaled"):
                counts["scaled.exceedance_rows"] += rows

        def draw_bank(args, kwargs, result):
            counts["draw_bank.rows_requested"] += int(
                args[1] if len(args) > 1 else kwargs["n"])

        def grid(args, kwargs, result):
            points = _diag(result, "grid_points")
            accepted = _diag(result, "accepted_points")
            if points is not None and accepted is not None:
                counts["grid.points"] += points
                counts["grid.accepted"] += accepted

        def stepdown(args, kwargs, result):
            for key in ("lower_trace", "upper_trace"):
                counts["stepdown.steps"] += getattr(_diag(result, key), "n_steps", 0)

        def scaled(args, kwargs, result):
            counts["scaled.secondary_edge_hits"] += _diag(result, "secondary_edge_hits", 0)

        def simulation(args, kwargs, result):
            config = args[0] if args else kwargs["config"]
            counts["simulate.trials"] += config.trials

        def sampler_draw(fn):
            def draw(sampler, rng, n):
                out = fn(sampler, rng, n)
                if self.stack and self.names[self.stack[-1]] == draw_code:
                    counts["draw_bank.rows_drawn"] += len(out)
                return out
            draw.__wrapped__ = fn
            return draw

        def bound_init(fn):
            def init(bound, *args, **kwargs):
                fn(bound, *args, **kwargs)
                counts["bank_bytes"] += _array_bytes(bound)
            init.__wrapped__ = fn
            return init

        return {"tails.exceedance": exceedance, "sampling.draw_bank": draw_bank,
                "core.winner_interval_grid": grid,
                "stepdown.winner_interval_stepdown": stepdown,
                "scaled.winner_interval_scaled": scaled,
                "simulate.run_simulation": simulation,
                "sampler_draw": sampler_draw, "bound_init": bound_init}

    def _inside(self, name: str) -> bool:
        code = self.codes.get(name)
        return any(self.names[i] == code for i in self.stack)

    def _module(self, short: str):
        try:
            return importlib.import_module(f"{self.package.__name__}.{short}")
        except ImportError:
            return None

    def _build_plan(self) -> list:
        """Resolve every target once: (owner, attribute, replacement) triples."""
        hooks = self._hooks()
        shorts = sorted({short for _, short, _ in FUNCTIONS} | {"tails"})
        modules = [self.package] + [mod for mod in map(self._module, shorts)
                                    if mod is not None]
        plan = []
        for name, short, attr in FUNCTIONS:
            module = self._module(short)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{short}.{attr}")
                continue
            wrapper = self._span(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, key, wrapper))
        for name, short, cls_name, attr in METHODS:
            cls = getattr(self._module(short), cls_name, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if isinstance(original, property) and original.fget is not None:
                replacement = property(self._span(name, original.fget))
            elif callable(original):
                replacement = self._span(name, original, hooks.get(name))
            else:
                self.absent.append(f"{short}.{cls_name}.{attr}")
                continue
            plan.append((cls, attr, replacement))
        sampling = self._module("sampling")
        for cls_name in SAMPLER_CLASSES:
            cls = getattr(sampling, cls_name, None)
            if isinstance(cls, type) and callable(vars(cls).get("draw")):
                plan.append((cls, "draw", hooks["sampler_draw"](vars(cls)["draw"])))
        bound_cls = getattr(self._module("tails"), "MonteCarloBound", None)
        if isinstance(bound_cls, type) and "__init__" in vars(bound_cls):
            plan.append((bound_cls, "__init__", hooks["bound_init"](vars(bound_cls)["__init__"])))
        else:
            self.absent.append("tails.MonteCarloBound")
        return plan

    def install(self) -> None:
        for owner, attr, replacement in self._plan:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.asarray(self.names, dtype=np.int32),
                "start": np.asarray(self.starts), "end": np.asarray(self.ends),
                "parent": np.asarray(self.parents, dtype=np.int64),
                "names": np.asarray(self.name_of)}

    def start_phase(self) -> None:
        """Mark the end of set-up: later spans and counts are per-round work."""
        self._phase_start = len(self.names)
        self._setup_counts = dict(self.counts)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics: set-up once plus one round of the timed phase.

        Spans and counts after ``start_phase`` are divided by the number of
        traced ``rounds``, so counts are the same on every run and self times
        are the mean over the rounds, whatever the run length.
        """
        name = np.asarray(self.names, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        child_time = np.zeros(name.size)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        weight = np.ones(name.size)
        weight[self._phase_start:] = 1.0 / rounds

        def calls(span):
            code = self.codes.get(span)
            return 0.0 if code is None else float(weight[name == code].sum())

        def self_s(span):
            code = self.codes.get(span)
            return 0.0 if code is None else float((self_time * weight)[name == code].sum())

        def under(child, ancestor):
            """Weighted number of ``child`` spans with an ``ancestor`` span above them."""
            c, a = self.codes.get(child), self.codes.get(ancestor)
            if c is None or a is None:
                return 0.0
            flag = np.zeros(name.size, dtype=bool)
            for i in range(name.size):  # parents precede their children
                p = parent[i]
                flag[i] = p >= 0 and (name[p] == a or flag[p])
            return float(weight[flag & (name == c)].sum())

        def ratio(num, den):
            return float(num) / den if den else 0.0

        setup = self._setup_counts
        c = {key: setup.get(key, 0.0) + (value - setup.get(key, 0.0)) / rounds
             for key, value in self.counts.items()}
        c = defaultdict(float, c)
        out = {}
        for span in ("tails.exceedance", "tails.identical_marginals", "tails.sf",
                     "tails.isf", "sampling.draw_bank", "sampling.m_statistic",
                     "sampling.mc_quantile", "core.active_radius",
                     "core.winner_interval_root", "core.winner_interval_grid",
                     "stepdown.winner_interval_stepdown", "topk.topk_interval",
                     "topk.topk_stepdown", "scaled.winner_interval_scaled",
                     "simulate.run_simulation"):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_s"] = self_s(span)
        out["tails.exceedance.rows"] = c["exceedance.rows"]
        out["tails.exceedance.bytes_computed"] = c["exceedance.bytes"]
        out["sampling.draw_bank.rows_requested"] = c["draw_bank.rows_requested"]
        out["sampling.draw_bank.rows_drawn"] = c["draw_bank.rows_drawn"]
        out["sampling.draw_bank.kept_ratio"] = ratio(c["draw_bank.rows_requested"],
                                                     c["draw_bank.rows_drawn"])
        out["sampling.bank_bytes"] = c["bank_bytes"]
        out["core.active_radius.exceedance_per_call"] = ratio(
            under("tails.exceedance", "core.active_radius"), calls("core.active_radius"))
        out["core.winner_interval_grid.exceedance_per_call"] = ratio(
            under("tails.exceedance", "core.winner_interval_grid"),
            calls("core.winner_interval_grid"))
        out["core.grid.accepted_ratio"] = ratio(c["grid.accepted"], c["grid.points"])
        out["stepdown.winner_interval_stepdown.steps_per_call"] = ratio(
            c["stepdown.steps"], calls("stepdown.winner_interval_stepdown"))
        for span in ("meta.winner_identity_set", "meta.near_winner_interval",
                     "meta.population_value_interval"):
            out[f"{span}.self_s"] = self_s(span)
        out["scaled.exceedance_rows"] = c["scaled.exceedance_rows"]
        out["scaled.secondary_edge_hits"] = c["scaled.secondary_edge_hits"]
        out["simulate.simultaneous_radius.self_s"] = self_s("simulate.simultaneous_radius")
        out["simulate.trials"] = c["simulate.trials"]
        main = self.codes.get("cli.main")
        out["cli.main_s"] = (float(np.median(duration[name == main]))
                             if main is not None and np.any(name == main) else 0.0)
        out["union_exceedance_calls"] = c["exceedance.union_calls"]
        return out
