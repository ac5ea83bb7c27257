"""Digest of the Monte-Carlo bank path: one sha256 over the ``repr`` of
winner, top-1..3, identity-set and near-winner results on fixed banks, and
the seconds the run took.

    python3 tools/bank_digest.py

The banks are seeded ``EquicorrelatedSampler`` draws of 20 000 rows at
m in {3, 10, 100} and rho in {0, 0.5}, plus a 5000 x 6 table of standard
normal draws rounded to one decimal, so its rows hold ties and zeros.  Each
bank is solved on four score shapes (a lone leader 8 ahead, a cluster, all
tied, and half the field tied at the top) at alpha 0.05 and 0.2.  The reprs
carry every radius and the diagnostics (zero-gap radius, cell counts and
the ``bridged`` flag), hashed in a fixed order.  ``tools/sweep_digest.py``
covers union bounds only, so this is the byte-identity check of the bank
scan and sweep (``core._mc_scan``, ``core._mc_sweep``): compare the digest
between the parent and the change, run on one host.  The package is
imported from ``src`` next to this directory.

A second line counts, over every bank scan of the run, the bank rows read
in full (the rows handed to ``core._lower_pieces``) and the rows settled
without that read (the scanned banks' rows less those read).  Both counts
depend on the code alone, not on the host.
"""
from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zoomcurse import (EquicorrelatedSampler, MonteCarloBound, Problem,  # noqa: E402
                       core, draw_bank, near_winner_interval, topk_interval,
                       winner_identity_set, winner_interval_grid)

ROWS = 20_000
ALPHAS = (0.05, 0.2)


def banks():
    for seed, (m, rho) in enumerate([(m, rho) for m in (3, 10, 100) for rho in (0.0, 0.5)]):
        yield draw_bank(EquicorrelatedSampler(m, rho), ROWS, seed=seed + 1)
    table = np.round(np.random.default_rng(0).standard_normal((5000, 6)), 1)
    yield MonteCarloBound(table, exchangeable=True)  # iid columns


def score_shapes(m: int, rng):
    field = rng.normal(0.0, 1.0, m)
    lone = field.copy()
    lone[0] = field.max() + 8.0
    cluster = np.sort(rng.normal(0.0, 0.3, m))[::-1]
    half = field.copy()
    half[:max(1, m // 2)] = field.max() + 1.0
    return lone, cluster, np.zeros(m), half


def results(problem: Problem):
    yield winner_interval_grid(problem)
    for k in range(1, min(3, problem.m) + 1):
        yield topk_interval(problem, k)
    yield winner_identity_set(problem)
    runner_up = int(np.argsort(-problem.x, kind="stable")[min(1, problem.m - 1)])
    yield near_winner_interval(problem, runner_up)


def count_rows(counts: dict) -> None:
    """Wrap ``core._mc_scan`` and ``core._lower_pieces`` to add each scan's
    bank rows to ``counts["scanned"]`` and the rows read to ``counts["read"]``."""
    scan, pieces = core._mc_scan, core._lower_pieces

    def counted_scan(bound, *args, **kwargs):
        counts["scanned"] += bound.row_max.size
        return scan(bound, *args, **kwargs)

    def counted_pieces(a, *args, **kwargs):
        counts["read"] += a.shape[0]
        return pieces(a, *args, **kwargs)

    core._mc_scan, core._lower_pieces = counted_scan, counted_pieces


def main() -> None:
    counts = {"scanned": 0, "read": 0}
    count_rows(counts)
    digest = hashlib.sha256()
    start = time.perf_counter()
    for seed, bank in enumerate(banks()):
        for x in score_shapes(bank.m, np.random.default_rng(100 + seed)):
            for alpha in ALPHAS:
                for result in results(Problem(x, bank, alpha)):
                    digest.update(repr(result).encode())
    print(digest.hexdigest(), f"{time.perf_counter() - start:.1f} s")
    print(f"rows read {counts['read']}, settled {counts['scanned'] - counts['read']}")


if __name__ == "__main__":
    main()
