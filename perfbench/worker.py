"""One workload process: set up, print READY, run the timed phase, report.

Started by run.py; it is the process whose set-up time and peak memory are
measured.  With --setup-only it exits right after READY.  Its last stdout line
is a JSON object with the raw results of the run.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import workloads
from tracer import Tracer


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def build(args, zc):
    if args.workload == "union-mix":
        return workloads.UnionMix(zc, args.seed)
    if args.workload == "mc-bank":
        return workloads.McBank(zc, args.seed)
    if args.workload == "sim-cell":
        return workloads.SimCell(zc, args.seed)
    if args.workload == "cli":
        return workloads.Cli(zc, args.seed, args.root,
                             os.path.join(args.out_dir, f"cli-data-{args.seed}"),
                             dict(os.environ), in_process=bool(args.trace))
    raise SystemExit(f"unknown workload {args.workload!r}")


def timed_phase(workload, seconds: float, first: dict) -> dict:
    """Run whole rounds for about ``seconds``; time every call.

    A round starts only if it is expected to end less than half a round past
    ``seconds``, so the run length stays close to ``seconds``.  ``first`` maps
    each call label to its first result and fingerprint; a later result with
    another fingerprint counts as a failed call.
    """
    latencies, records = [], []
    units = rounds = 0
    start = perf_counter()
    elapsed = 0.0
    while rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds:
        rounds += 1
        for call in workload.round():
            t0 = perf_counter()
            try:
                result, error = call.run(), None
            except Exception as exc:  # a failed call is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            latencies.append(t1 - t0)
            if error is None:
                units += call.units
                fp = workloads.fingerprint(result)
                if call.label not in first:
                    first[call.label] = (result, fp)
                elif first[call.label][1] != fp:
                    error = "result differs from the first round"
            records.append((call, error))
        elapsed = perf_counter() - start
    return {"latencies": latencies, "records": records, "units": units,
            "rounds": rounds, "wall": elapsed}


def summarize(phase: dict, failures: dict) -> dict:
    lat = sorted(phase["latencies"])
    n = len(lat)
    busy = sum(lat)
    failed = 0
    errors = {}
    by_family, by_m, by_label = {}, {}, {}
    for (call, error), seconds in zip(phase["records"], phase["latencies"]):
        by_label.setdefault(call.label, []).append(seconds)
        problems = ([error] if error else []) + failures.get(call.label, [])
        if problems:
            failed += 1
            errors.setdefault(call.label, problems)
        by_family[call.family] = by_family.get(call.family, 0.0) + seconds
        by_m[str(call.m)] = by_m.get(str(call.m), 0.0) + seconds
    out = {
        "attempted": n, "failed": failed, "errors": errors,
        "units": phase["units"], "rounds": phase["rounds"], "busy_s": busy,
        "wall_s": phase["wall"],
        "units_per_s": phase["units"] / busy if busy > 0 else 0.0,
        "call_p50_ms": statistics.median(lat) * 1e3 if n else 0.0,
        "share_by_family": {k: v / busy for k, v in sorted(by_family.items())},
        "share_by_m": {k: v / busy for k, v in sorted(by_m.items())},
        "median_ms_by_label": {k: statistics.median(v) * 1e3 for k, v in sorted(by_label.items())},
    }
    if n >= 20:  # the highest percentile with at least ten calls beyond it
        out["call_tail_ms"] = lat[n - 11] * 1e3
        out["call_tail_pct"] = 100.0 * (n - 10) / n
        out["call_tail_n"] = n
    return out


def import_times(root: str) -> dict:
    """Fresh-interpreter import of the CLI module, read from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zoomcurse.cli"],
                          cwd=root, env=dict(os.environ), capture_output=True,
                          text=True, timeout=120)
    total, scipy_optimize = 0, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2][1:]  # one separator space, then two per nesting level
        if name in ("zoomcurse", "zoomcurse.cli"):
            total += cumulative
        if name.strip() == "scipy.optimize" and not scipy_optimize:
            scipy_optimize = cumulative
    if proc.returncode != 0 or total == 0:
        raise RuntimeError("could not import zoomcurse.cli in a fresh interpreter")
    return {"cli.import_s": total * 1e-6, "cli.import.scipy_optimize_s": scipy_optimize * 1e-6}


def main(argv=None) -> int:
    args = parse_args(argv)
    zc = importlib.import_module("zoomcurse")
    src = os.path.join(args.root, "src")
    if not os.path.abspath(zc.__file__).startswith(src + os.sep):
        raise SystemExit(f"zoomcurse was imported from {zc.__file__}, not from {src}")
    tracer = None
    if args.trace:
        tracer = Tracer(zc)
        tracer.install()
    workload = build(args, zc)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    report = {"workload": args.workload, "seed": args.seed,
              "versions": {"python": sys.version.split()[0],
                           "numpy": sys.modules["numpy"].__version__,
                           "scipy": importlib.import_module("scipy").__version__,
                           "zoomcurse": getattr(zc, "__version__", None)}}
    first = {}
    if tracer is None:
        phase = timed_phase(workload, args.seconds, first)
    else:
        # the same mix untraced, then traced: the difference is the tracing overhead
        plain = timed_phase(workload, args.seconds / 2, first)
        tracer.install()
        tracer.start_phase()
        phase = timed_phase(workload, args.seconds / 2, first)
        tracer.uninstall()
    failures = workload.check({label: result for label, (result, _) in first.items()})
    summary = summarize(phase, failures)
    digest = hashlib.sha256()
    for label, (_, fp) in first.items():
        digest.update(f"{label}\t{fp}\n".encode())
    summary["digest"] = digest.hexdigest()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace \
        else resource.RUSAGE_SELF
    summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    report["summary"] = summary
    if hasattr(workload, "known_defects"):
        report["known_defects"] = workload.known_defects()
    if tracer is not None:
        layers = tracer.metrics(phase["rounds"])
        report["union_exceedance_calls"] = layers.pop("union_exceedance_calls")
        layers.update(import_times(args.root))
        stdout_bytes = [len(r[1]) for r, _ in first.values()] \
            if args.workload == "cli" else []
        layers["cli.stdout_bytes"] = statistics.mean(stdout_bytes) if stdout_bytes else 0
        untraced = summarize(plain, failures)
        summary["attempted"] += untraced["attempted"]
        summary["failed"] += untraced["failed"]
        untraced = untraced["units_per_s"]
        layers["trace.units_per_s"] = summary["units_per_s"]
        layers["trace.untraced_units_per_s"] = untraced
        layers["trace.overhead_units_per_s"] = untraced - summary["units_per_s"]
        report["layers"] = layers
        report["absent"] = tracer.absent
        spans = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.npz")
        np.savez(spans, **tracer.arrays())
        report["spans_file"] = spans
    print(json.dumps(report, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
