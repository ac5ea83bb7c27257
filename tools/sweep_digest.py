"""Digest of the acceptance sweep: one sha256 over the JSON reports of its 12
cells, and the seconds the run took.

    python3 tools/sweep_digest.py

The cells are ``sweep_configs()`` of ``tests/oracles.py`` (criterion c05 of
``tests/test_acceptance.py``) at their seed; each report is
``SimReport.to_json()`` with the raw per-trial records included, hashed in
the cells' order.  The package is imported from ``src`` next to this
directory.  A change meant to leave every interval alone keeps the digest:
compare it between the parent and the change, run on one host.
"""
from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import sweep_configs  # noqa: E402
from zoomcurse.simulate import run_simulation  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    start = time.perf_counter()
    for config in sweep_configs().values():
        digest.update(run_simulation(config, include_raw=True).to_json().encode())
    print(digest.hexdigest(), f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
