"""Layered benchmark for zoomcurse: four workloads, end to end and per module.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload union-mix --seed 1 --seconds 15 --trace 0

Each run starts the workload in fresh processes (perfbench/worker.py).  Set-up
is timed from process start until the worker prints READY, in three processes
(two that only set up, then the one that goes on to the timed phase), and the
median is reported.  The timed phase is closed loop with one client: whole
rounds of the workload's calls until --seconds have passed.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's public
functions from outside, runs half the time untraced and half traced, and
prints the per-layer metrics.  The last stdout line is one JSON object with
keys correct, attempted, failed and metrics; the line before it is the full
report, which is also written to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sim-cell", "union-mix", "mc-bank", "cli")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("units_per_s", "1/s"), ("call_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def per_layer_units(name: str) -> str:
    if name.startswith("trace."):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_per_call")):
        return "ratio"
    return "count"


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, setup_only: bool) -> tuple:
    """Start one worker; return (setup seconds, last stdout line or None)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ROOT, "--out-dir", OUT_DIR]
    if setup_only:
        command.append("--setup-only")
    t0 = perf_counter()
    # its own process group, so a kill also reaches the CLI processes it starts
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))[0]:
            raise subprocess.TimeoutExpired(command, CHILD_TIMEOUT_S)
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if ready.strip() != "READY":
            raise ChildError(f"{args.workload} worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{args.workload} worker overran the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise ChildError(f"{args.workload} worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    if not setup_only and not lines:
        raise ChildError(f"{args.workload} worker printed no report")
    return setup_s, (lines[-1] if lines else None)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def steal_ticks() -> int | None:
    """Host steal time of this machine's CPUs so far, in clock ticks."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context(args, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        **versions,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "zoomcurse", "__init__.py")):
        print(f"perfbench: no zoomcurse sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = perf_counter() + CHILD_TIMEOUT_S
    setups = []
    try:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_worker(args, deadline, setup_only=True)[0])
        steal0, t0 = steal_ticks(), perf_counter()
        setup_s, line = run_worker(args, deadline, setup_only=False)
        steal1, t1 = steal_ticks(), perf_counter()
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    report = json.loads(line)
    summary = report["summary"]
    summary["setup_s"] = statistics.median(setups)
    summary["setup_runs_s"] = setups
    summary["error_rate"] = summary["failed"] / summary["attempted"]
    report["context"] = context(args, report.pop("versions"))
    if steal0 is not None and steal1 is not None:
        # share of CPU time the host took from this machine during the main worker
        ticks = os.sysconf("SC_CLK_TCK") * (t1 - t0) * (os.cpu_count() or 1)
        report["context"]["cpu_steal_share"] = (steal1 - steal0) / ticks

    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_units(name)}
                   for name, value in sorted(report["layers"].items())}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    correct = summary["failed"] == 0 and summary["attempted"] > 0
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
