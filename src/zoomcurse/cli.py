"""Command-line interface: score tables in, JSON envelopes out.

Input is a CSV with header ``label,score`` or ``label,score,sigma``.  Every
input file (scores, ``empirical:`` knots, ``table:`` banks, ``simulate``
configs) is opened by one reader, ``_read_input``: UTF-8, with a leading
byte-order mark skipped and any line ends; a file in another encoding is an
input error that names it.  The two numeric kinds, the knots and the banks,
are streamed through one parser, ``_read_numbers``.  Every subcommand
prints one JSON envelope (format ``zoomcurse/v1``; schema shipped alongside
this module) with deterministic, sorted, byte-stable output.

Exit codes: 0 success, 2 input/usage error, 3 the error budget is
statistically infeasible, 4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import Problem, winner_interval_grid, winner_interval_root
from .errors import InfeasibleAlphaError, InternalCheckError
from .meta import near_winner_interval, winner_identity_set
from .sampling import EquicorrelatedSampler, draw_bank
from .scaled import ScaledProblem, winner_interval_scaled
from .simulate import parse_config_text, run_simulation, width_comparison
from .stepdown import winner_interval_stepdown
from .tails import EmpiricalTail, GaussianTail, MonteCarloBound, SubGaussianTail, UnionBound
from .topk import topk_interval, topk_stepdown


class InputError(ValueError):
    """Anything wrong with files, flags, or their combination."""


@dataclass(frozen=True)
class ScoreTable:
    labels: tuple
    x: np.ndarray
    sigma: np.ndarray | None


def _read_input(path: str, parse, newline: str | None = None):
    """``parse(fh)`` of an input file opened as UTF-8 text, a leading
    byte-order mark skipped (``newline`` as for ``open``).  Failing to open
    or to decode it, also while ``parse`` reads, is an input error that
    names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return parse(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_numbers(path: str, columns: int) -> np.ndarray:
    """Rows of a numeric CSV file of ``columns`` columns, streamed from
    ``_read_input`` with any line ends: the ``table:`` bank and, one column,
    the ``empirical:`` knots.  ``#`` starts a comment; an empty line is
    skipped.  Every value must be finite; the check reads the extremes, so
    it makes no copy of the rows."""
    with warnings.catch_warnings():  # loadtxt warns on a file without rows
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = _read_input(path, lambda fh: np.loadtxt(fh, delimiter=",", ndmin=2))
        except InputError:
            raise  # a ValueError too: the file could not be opened or decoded
        except ValueError as exc:
            raise InputError(f"{path}: malformed numeric CSV") from exc
    if rows.shape[0] == 0:
        raise InputError(f"{path}: no rows")
    if rows.shape[1] != columns:
        raise InputError(f"{path}: {rows.shape[1]} columns, need {columns}")
    if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):  # NaN propagates
        raise InputError(f"{path}: values must be finite")
    return rows


def read_scores(path: str) -> ScoreTable:
    """Parse a `label,score[,sigma]` CSV with a mandatory header row."""
    rows = _read_input(path, lambda fh: list(csv.reader(fh)), newline="")
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    if header not in (["label", "score"], ["label", "score", "sigma"]):
        raise InputError(f"{path}: header must be label,score or label,score,sigma")
    with_sigma = len(header) == 3
    labels, scores, sigmas = [], [], []
    for lineno, row in enumerate(rows[1:], 2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} fields")
        labels.append(row[0].strip())
        try:
            scores.append(float(row[1]))
            if with_sigma:
                sigmas.append(float(row[2]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric value") from exc
    if not labels:
        raise InputError(f"{path}: no data rows")
    if len(set(labels)) != len(labels):
        raise InputError(f"{path}: labels must be unique")
    x = np.asarray(scores)
    if not np.all(np.isfinite(x)):
        raise InputError(f"{path}: scores must be finite")
    sigma = None
    if with_sigma:
        sigma = np.asarray(sigmas)
        if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
            raise InputError(f"{path}: sigma values must be positive and finite")
    return ScoreTable(tuple(labels), x, sigma)


def parse_tail_spec(spec: str):
    """gaussian:<scale> | subgaussian:<proxy> | empirical:<path>."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise InputError(f"bad tail spec {spec!r}: expected kind:argument")
    if kind == "gaussian":
        return GaussianTail(_positive(arg, "gaussian scale"))
    if kind == "subgaussian":
        return SubGaussianTail(_positive(arg, "subgaussian proxy"))
    if kind == "empirical":  # the knots' own checks raise ValueError, an input error
        return EmpiricalTail(np.abs(_read_numbers(arg, 1)[:, 0]))
    raise InputError(f"unknown tail kind {kind!r}")


def _positive(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(f"{what} must be a number, got {text!r}") from exc
    if not value > 0:
        raise InputError(f"{what} must be positive, got {value}")
    return value


def parse_noise_spec(spec: str, m: int):
    """equicorrelated:<rho> | independent -> noise sampler; table:<csv> -> the
    table of draws as a bank, every row checked (``_build_bound`` keeps its
    first rows)."""
    kind, _, arg = spec.partition(":")
    if kind == "independent":
        if arg:
            raise InputError("independent noise takes no argument")
        return EquicorrelatedSampler(m, 0.0)
    if kind == "equicorrelated":
        try:
            rho = float(arg)
        except ValueError as exc:
            raise InputError(f"bad correlation {arg!r}") from exc
        try:
            return EquicorrelatedSampler(m, rho)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if kind == "table":
        return MonteCarloBound(_read_numbers(arg, m))
    raise InputError(f"unknown noise kind {kind!r}")


DEFAULT_MC_SAMPLES = 100_000


def _build_bound(args, m: int):
    """Resolve tail/noise flags into a joint bound, refusing bound flags that
    would otherwise be dropped without a word.  A table of draws is its own
    bank: its first ``--mc-samples`` rows, every row by default; it draws
    nothing, so it takes no ``--seed``."""
    if args.noise is not None and args.tail is not None:
        raise InputError("--tail and --noise each give the joint bound; pass one of them")
    if args.noise is None and args.mc_samples is not None:
        raise InputError("--mc-samples sizes the --noise bank; it needs --noise")
    if args.noise is None and args.seed is not None:
        raise InputError("--seed seeds the --noise sampler; it needs --noise")
    if args.noise is not None:
        noise = parse_noise_spec(args.noise, m)
        table = isinstance(noise, MonteCarloBound)
        if args.seed is None and not table:
            raise InputError("--noise sampling requires --seed")
        if args.seed is not None and table:
            raise InputError("--seed seeds the --noise sampler; a table: bank draws nothing")
        n = args.mc_samples
        if n is None:
            n = noise.n if table else DEFAULT_MC_SAMPLES
        if n < 1:
            raise InputError("--mc-samples must be >= 1")
        if not table:
            return draw_bank(noise, n, args.seed)
        if n > noise.n:
            raise InputError(f"requested {n} rows but table has {noise.n}")
        return MonteCarloBound(noise.abs_samples[:n])
    if args.tail is None:
        raise InputError("give a marginal --tail (or a joint --noise model)")
    model = parse_tail_spec(args.tail)
    return UnionBound((model,) * m)


def _json_default(obj):
    """``json.dumps`` hook for what the envelopes carry beyond JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _envelope(mode: str, args, method: str, winner_label, result: dict,
              diagnostics: dict) -> dict:
    return {
        "schema": "zoomcurse/v1",
        "version": __version__,
        "mode": mode,
        "alpha": args.alpha,
        "method": method,
        "seed": args.seed,
        "winner": winner_label,
        "result": result,
        "diagnostics": diagnostics,
    }


def cmd_winner_ci(args) -> dict:
    table = read_scores(args.input)
    if table.sigma is not None:
        if args.method != "grid":
            raise InputError("sigma-scaled intervals support --method grid only")
        if args.noise is not None and args.tail is None:
            raise InputError("per-candidate sigma works with marginal tails only")
    problem = Problem(table.x, _build_bound(args, table.x.size), args.alpha)
    if table.sigma is not None:
        iv = winner_interval_scaled(ScaledProblem(problem, table.sigma))
    else:
        # keyed by the --method choices and built per call, so a function
        # replaced on this module (as the benchmark's tracer does) is called
        iv = {"grid": winner_interval_grid, "root": winner_interval_root,
              "stepdown": winner_interval_stepdown}[args.method](problem)
    result = {
        "interval": [iv.t_l, iv.t_u],
        "winner_index": iv.winner,
        "radius_lower": iv.r_l,
        "radius_upper": iv.r_u,
        "width": iv.width,
    }
    return _envelope("winner-ci", args, iv.method, table.labels[iv.winner],
                     result, iv.diagnostics)


def cmd_topk_ci(args) -> dict:
    table = read_scores(args.input)
    if table.sigma is not None:
        raise InputError("top-k boxes do not take per-candidate sigma")
    if args.k < 1 or args.k > table.x.size:
        raise InputError(f"--k must lie in [1, {table.x.size}]")
    problem = Problem(table.x, _build_bound(args, table.x.size), args.alpha)
    res = {"grid": topk_interval, "stepdown": topk_stepdown}[args.method](problem, args.k)
    result = {
        "k": res.k,
        "winners": [table.labels[j] for j in res.winners],
        "winner_indices": list(res.winners),
        "r_max": res.r_max,
        "boxes": {table.labels[j]: [float(lo), float(hi)]
                  for j, (lo, hi) in zip(res.winners, res.boxes)},
    }
    return _envelope("topk-ci", args, res.method, table.labels[res.winners[0]],
                     result, res.diagnostics)


def cmd_identity_set(args) -> dict:
    table = read_scores(args.input)
    if table.sigma is not None:
        raise InputError("identity sets do not take per-candidate sigma")
    problem = Problem(table.x, _build_bound(args, table.x.size), args.alpha)
    ids = winner_identity_set(problem)
    result = {
        "members": [table.labels[j] for j in ids.indices],
        "member_indices": list(ids.indices),
        "threshold": ids.threshold,
        "size": len(ids),
    }
    # the set is read off winner_interval_grid's interval
    return _envelope("identity-set", args, "grid",
                     table.labels[problem.winner], result, {})


def cmd_near_winner(args) -> dict:
    table = read_scores(args.input)
    if table.sigma is not None:
        raise InputError("near-winner intervals do not take per-candidate sigma")
    if (args.index is None) == (args.label is None):
        raise InputError("give exactly one of --index or --label")
    if args.label is not None:
        if args.label not in table.labels:
            raise InputError(f"label {args.label!r} not in {args.input}")
        index = table.labels.index(args.label)
    else:
        index = args.index
        if not 0 <= index < len(table.labels):
            raise InputError(f"--index must lie in [0, {len(table.labels) - 1}]")
    problem = Problem(table.x, _build_bound(args, table.x.size), args.alpha)
    nw = near_winner_interval(problem, index)
    result = {
        "index": nw.index,
        "label": table.labels[nw.index],
        "pieces": [list(piece) for piece in nw.pieces],
        "hull": list(nw.hull),
    }
    diagnostics = {"deficit": nw.diagnostics["deficit"],
                   "winner_interval": nw.diagnostics["winner_interval"]}
    return _envelope("near-winner", args, diagnostics["winner_interval"].method,
                     table.labels[problem.winner], result, diagnostics)


def cmd_simulate(args) -> dict:
    if args.include_raw and not args.out_json:
        raise InputError("--include-raw needs --out-json, the report it adds the trials to")
    source = _read_input(args.config, lambda fh: fh.read())
    try:
        config = parse_config_text(source)
    except ValueError as exc:
        raise InputError(f"{args.config}: {exc}") from exc
    report = run_simulation(config, include_raw=args.include_raw)
    for path, text in ((args.out_json, report.to_json), (args.out_csv, report.to_csv)):
        if path:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text())
            except OSError as exc:
                raise InputError(f"cannot write {path}: {exc}") from exc
    result = {
        "config": dataclasses.asdict(config),
        "r_sim": report.r_sim,
        "summaries": report.summaries,
    }
    if len(config.methods) > 1:
        result["comparison"] = width_comparison(report)
    shim = argparse.Namespace(alpha=config.alpha, seed=config.seed)
    return _envelope("simulate", shim, "simulation", None, result, {})


def _add_common(sub):
    sub.add_argument("--input", required=True, help="CSV of label,score[,sigma]")
    sub.add_argument("--alpha", type=float, required=True,
                     help="error budget in (0, 1)")
    sub.add_argument("--tail", default=None,
                     help="marginal tail: gaussian:<scale>|subgaussian:<proxy>|empirical:<path>"
                          " (not with --noise)")
    sub.add_argument("--noise", default=None,
                     help="joint noise for the Monte-Carlo bound: "
                          "equicorrelated:<rho>|independent|table:<csv> (not with --tail)")
    sub.add_argument("--mc-samples", type=int, default=None,
                     help="bank rows for --noise, which it requires (default 100000, or the whole table)")
    sub.add_argument("--seed", type=int, default=None,
                     help="required whenever --noise is sampled, refused otherwise")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoomcurse",
        description="Valid confidence intervals for empirically selected winners.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("winner-ci", help="interval for the top-scoring candidate")
    _add_common(p)
    p.add_argument("--method", choices=("grid", "root", "stepdown"), default="grid")
    p.add_argument("--refine", action="store_true", help="no effect: kept for compatibility")
    p.set_defaults(func=cmd_winner_ci)

    p = commands.add_parser("topk-ci", help="simultaneous boxes for the top k scores")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("grid", "stepdown"), default="grid")
    p.set_defaults(func=cmd_topk_ci)

    p = commands.add_parser("identity-set",
                            help="candidates not separable from the population best")
    _add_common(p)
    p.set_defaults(func=cmd_identity_set)

    p = commands.add_parser("near-winner",
                            help="interval for any post-hoc candidate of interest")
    _add_common(p)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--label", default=None)
    p.set_defaults(func=cmd_near_winner)

    p = commands.add_parser("simulate", help="coverage/width experiment from a config file")
    p.add_argument("--config", required=True, help="key = value lines; see docs")
    p.add_argument("--include-raw", action="store_true")
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "alpha") and not (0.0 < args.alpha < 1.0):
        print("zoomcurse: --alpha must lie in (0, 1)", file=sys.stderr)
        return 2
    try:
        envelope = args.func(args)
    except ValueError as exc:  # InputError and UnsupportedMethodError included
        print(f"zoomcurse: {exc}", file=sys.stderr)
        return 2
    except InfeasibleAlphaError as exc:
        print(f"zoomcurse: infeasible: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"zoomcurse: internal error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2, default=_json_default) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
