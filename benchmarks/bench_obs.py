"""Observability bench: deterministic counter profiles per engine mode.

Runs the pinned observability cell (``random`` n=40 on ring16, BSA —
the same cell ``tests/test_obs.py`` goldens) under every
``REPRO_HOTPATH`` engine with counter collection on and records the
non-zero counters per mode. The schedules are byte-identical across
modes by contract; the counters are deliberately *not* — they profile
each engine's work (the legacy engine never runs an incremental
settle or walks the route trie), which is
exactly what makes them useful engine regression pins.

Also re-checks the two determinism contracts the counters carry:

* **rep-to-rep** — two runs of the same cell produce identical
  snapshots;
* **--jobs independence** — a 6-cell grid counted serially equals the
  same grid counted across 2 worker processes (per-chunk deltas merge
  commutatively).

Writes ``BENCH_obs.json`` (repo root by default); EXPERIMENTS.md §13
is generated from the committed report and a docs test keeps the two
in sync. Exits 1 if either determinism contract fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs
from repro.experiments.config import Cell
from repro.experiments.runner import run_cells
from repro.util.intervals import HOTPATH_MODES, set_hotpath_mode

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")

#: the pinned cell — must stay the one tests/test_obs.py goldens
CELL = Cell(suite="random", app="random", size=40, granularity=1.0,
            topology="ring", algorithm="bsa", graph_seed=0, system_seed=0)

#: the --jobs identity grid — mirrors tests/test_obs.py
GRID = [
    Cell(suite="random", app="random", size=s, granularity=1.0,
         topology="ring", algorithm=a, graph_seed=s, system_seed=s)
    for s in (18, 20, 22) for a in ("bsa", "dls")
]


def counters_for(cells: List[Cell], jobs: int = 1,
                 chunk_size: Optional[int] = None) -> Dict[str, int]:
    """Non-zero counter snapshot of one sweep, collection scoped."""
    obs.enable()
    obs.reset()
    try:
        run_cells(cells, jobs=jobs, chunk_size=chunk_size, use_cache=False)
        return {k: v for k, v in obs.snapshot().items() if v}
    finally:
        obs.reset()
        obs.reset_spans()
        obs.disable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    per_mode: Dict[str, Dict[str, int]] = {}
    for mode in HOTPATH_MODES:
        set_hotpath_mode(mode)
        per_mode[mode] = counters_for([CELL])
        print(f"mode {mode:>11}: " + ", ".join(
            f"{k.split('.', 1)[1]}={v}" for k, v in per_mode[mode].items()
            if k.startswith(("bsa.", "settle.", "route."))
        ))
    set_hotpath_mode("incremental")

    first = counters_for([CELL])
    reps_identical = first == counters_for([CELL])
    serial = counters_for(GRID, jobs=1)
    parallel = counters_for(GRID, jobs=2, chunk_size=2)
    jobs_identical = serial == parallel
    print(f"rep-to-rep identical: {reps_identical}; "
          f"--jobs 1 == --jobs 2: {jobs_identical}")

    report = {
        "bench": "obs",
        "cell": CELL.key(),
        "modes": per_mode,
        "grid_cells": len(GRID),
        "grid_counters": serial,
        "reps_identical": reps_identical,
        "jobs_identical": jobs_identical,
    }
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {out}")

    if not (reps_identical and jobs_identical):
        print("FAIL: counter determinism contract violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
