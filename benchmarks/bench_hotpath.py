"""Hot-path speedup benchmark: legacy vs incremental.

Runs a Figure-3-style sweep (regular + random graphs x granularities x
the paper's four 16-processor topologies x {BSA, DLS}) twice — with the
original linear-rescan hot path (``legacy``) and with the indexed /
memoized / screened engine with change-driven settle and undo-log
rollback (``incremental``) — and:

* asserts every schedule is **byte-identical** across both modes
  (serializer JSON compared cell by cell, which covers every task time
  and every message hop);
* reports the single-process speedup (legacy->incremental);
* runs the **settle/rollback microbench**: end-to-end BSA on n>=100-task
  workloads, legacy vs incremental — what the indexed engine, the
  candidate screen, the change-driven settle and the undo-log rollback
  buy on the workloads they target;
* records the **scaling curve** (n=100 -> 2000): the incremental
  engine's BSA wall time and validated makespan per size, and fails,
  writing no report, if a makespan differs from the one the committed
  ``BENCH_hotpath.json`` records for that size (after an intended
  schedule change, delete that file and re-run);
* optionally measures parallel-runner scaling (``--jobs N`` wall clock
  vs serial) on the same sweep;
* writes everything to ``BENCH_hotpath.json`` (repo root by default) so
  the speedups are tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full bench
    PYTHONPATH=src python benchmarks/bench_hotpath.py --preset smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines.dls import schedule_dls
from repro.core.bsa import BSAOptions, schedule_bsa
from repro.experiments.config import Cell
from repro.experiments.runner import build_cell_system, run_cells
from repro.schedule.io import schedule_to_json
from repro.schedule.validator import validate_schedule
from repro.util.intervals import set_hotpath_mode

TOPOLOGIES = ("ring", "hypercube", "clique", "random")
ALGORITHMS = ("bsa", "dls")
MODES = ("legacy", "incremental")

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")

#: settle/rollback microbench: BSA end-to-end on n>=100-task workloads,
#: against the legacy reference engine (full settle + deep-copy rollback)
MICROBENCH_WORKLOADS = {
    "default": [
        ("regular", "gauss", 250, 1.0),
        ("regular", "laplace", 300, 1.0),
        ("random", "random", 300, 1.0),
        ("regular", "gauss", 400, 1.0),
    ],
    "smoke": [
        ("regular", "gauss", 150, 1.0),
    ],
}


def sweep_cells(preset: str) -> List[Cell]:
    """A Fig.3-style grid, sized by preset."""
    if preset == "smoke":
        apps, sizes, grans = ("gauss",), (30,), (1.0,)
    elif preset == "default":
        apps, sizes, grans = ("gauss", "laplace"), (40, 80), (0.1, 1.0, 10.0)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    cells = [
        Cell("regular", app, size, gran, topology, algorithm)
        for app in apps
        for size in sizes
        for gran in grans
        for topology in TOPOLOGIES
        for algorithm in ALGORITHMS
    ]
    # a slice of the random suite keeps the sweep honest about both
    # graph families without doubling the runtime
    cells += [
        Cell("random", "random", sizes[-1], 1.0, topology, algorithm)
        for topology in TOPOLOGIES
        for algorithm in ALGORITHMS
    ]
    return cells


def _schedule(cell: Cell):
    system = build_cell_system(cell)
    scheduler = (
        (lambda: schedule_bsa(system, BSAOptions()))
        if cell.algorithm == "bsa"
        else (lambda: schedule_dls(system))
    )
    t0 = time.perf_counter()
    sched = scheduler()
    elapsed = time.perf_counter() - t0
    return sched, elapsed


def run_single_process(cells: List[Cell]) -> Dict:
    """Time every cell under both modes; verify bit-identical
    schedules."""
    totals = {m: 0.0 for m in MODES}
    per_topology: Dict[str, Dict[str, float]] = {
        t: {m: 0.0 for m in MODES} for t in TOPOLOGIES
    }
    mismatches: List[str] = []
    for i, cell in enumerate(cells):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            sched, elapsed = _schedule(cell)
            totals[mode] += elapsed
            per_topology[cell.topology][mode] += elapsed
            blobs[mode] = schedule_to_json(sched)
            if mode == "incremental":
                validate_schedule(sched)
        if len(set(blobs.values())) != 1:
            mismatches.append(cell.key())
        sys.stderr.write(
            f"\r[{i + 1}/{len(cells)}] legacy {totals['legacy']:.1f}s "
            f"incremental {totals['incremental']:.1f}s"
        )
    sys.stderr.write("\n")
    set_hotpath_mode("incremental")
    return {
        "cells": len(cells),
        "legacy_s": round(totals["legacy"], 3),
        "incremental_s": round(totals["incremental"], 3),
        "speedup_incremental": round(totals["legacy"] / totals["incremental"], 2),
        "identical_schedules": not mismatches,
        "mismatched_cells": mismatches,
        "per_topology": {
            t: {
                "legacy_s": round(v["legacy"], 3),
                "incremental_s": round(v["incremental"], 3),
                "speedup_incremental": (
                    round(v["legacy"] / v["incremental"], 2)
                    if v["incremental"] else None
                ),
            }
            for t, v in per_topology.items()
        },
    }


def run_settle_microbench(preset: str, reps: int = 3) -> Dict:
    """End-to-end BSA, legacy vs incremental, n>=100 workloads.

    Incremental's delta over legacy is the indexed planning substrate,
    the candidate screen, the change-driven settle engine and the
    undo-log rollback replacing per-commit deep copies. Identity is asserted via the serializer like the
    main sweep. Each workload is timed ``reps`` times per mode
    (interleaved) and the minimum kept — the bench is
    contention-noise-prone on shared CI boxes.
    """
    workloads = MICROBENCH_WORKLOADS[preset]
    best: Dict[tuple, float] = {}
    blobs: Dict[tuple, str] = {}
    for rep in range(reps):
        for suite, app, size, gran in workloads:
            cell = Cell(suite, app, size, gran, "hypercube", "bsa",
                        n_procs=16, graph_seed=1, system_seed=1)
            for mode in MODES:
                set_hotpath_mode(mode)
                sched, elapsed = _schedule(cell)
                key = (suite, app, size, mode)
                best[key] = min(best.get(key, float("inf")), elapsed)
                if rep == 0:
                    validate_schedule(sched)
                    blobs[key] = schedule_to_json(sched)
    set_hotpath_mode("incremental")
    per_workload = []
    tot = {"legacy": 0.0, "incremental": 0.0}
    identical = True
    for suite, app, size, gran in workloads:
        g = best[(suite, app, size, "legacy")]
        i = best[(suite, app, size, "incremental")]
        tot["legacy"] += g
        tot["incremental"] += i
        same = (blobs[(suite, app, size, "legacy")]
                == blobs[(suite, app, size, "incremental")])
        identical = identical and same
        per_workload.append({
            "workload": f"{app}-n{size}",
            "n_tasks": size,
            "legacy_s": round(g, 3),
            "incremental_s": round(i, 3),
            "speedup": round(g / i, 2),
            "identical": same,
        })
    return {
        "workloads": per_workload,
        "legacy_s": round(tot["legacy"], 3),
        "incremental_s": round(tot["incremental"], 3),
        "speedup": round(tot["legacy"] / tot["incremental"], 2),
        "identical_schedules": identical,
    }


#: scaling-curve sizes: where BSA wall time goes as n grows
SCALING_SIZES = {
    "default": (100, 250, 500, 1000, 2000),
    "smoke": (100, 1000),
}


def run_scaling_curve(preset: str, reps: int = 2) -> Dict:
    """BSA wall clock of the incremental engine, n=100 -> 2000.

    One gauss workload per size on the 16-processor hypercube (the
    microbench cell family), best of ``reps``. Each point records the
    validated schedule's makespan; the n=1000 point is the cell whose
    makespan ``tests/test_hotpath_equivalence.py`` pins. Legacy is left
    out for wall-clock reasons: the sweep and the microbench above
    already assert byte identity against it.
    """
    set_hotpath_mode("incremental")
    points = []
    for size in SCALING_SIZES[preset]:
        cell = Cell("regular", "gauss", size, 1.0, "hypercube", "bsa",
                    n_procs=16, graph_seed=1, system_seed=1)
        best = float("inf")
        for rep in range(reps):
            sched, elapsed = _schedule(cell)
            best = min(best, elapsed)
            if rep == 0:
                validate_schedule(sched)
                makespan = sched.schedule_length()
        points.append({
            "n_tasks": size,
            "incremental_s": round(best, 3),
            "makespan": makespan,
        })
        sys.stderr.write(f"\rscaling n={size}: incremental {best:.2f}s\n")
    return {"points": points}


def curve_makespan_drift(points: List[Dict], reference: str) -> List[str]:
    """Curve sizes whose makespan differs from the reference report.

    The curve runs the incremental engine alone (legacy is too slow at
    n=2000), so its makespans are pinned to the reference instead of to
    a second mode. Sizes the reference lacks, or a missing reference,
    are not compared.
    """
    if not os.path.exists(reference):
        return []
    with open(reference) as fh:
        ref_points = json.load(fh).get("scaling_curve", {}).get("points", [])
    pinned = {p["n_tasks"]: p["makespan"] for p in ref_points if "makespan" in p}
    return [
        f"n={p['n_tasks']}: {p['makespan']!r} != {pinned[p['n_tasks']]!r}"
        for p in points
        if p["n_tasks"] in pinned and p["makespan"] != pinned[p["n_tasks"]]
    ]


def run_obs_guard(preset: str, reps: int = 3) -> Dict:
    """The observability overhead contract, enforced.

    Interleaves three configurations over the microbench workloads:
    obs **off** twice (their spread is the machine's noise floor on
    this run) and obs **on** once, keeping per-config minima. Asserts

    * schedules are byte-identical with collection on — telemetry can
      never leak into an artifact; and
    * the *enabled* overhead stays within ``max(10%, 4x noise)``. The
      disabled path (one module-attribute load + bool test per site) is
      a strict subset of the enabled one, so this bounds it too; its
      absolute cost is additionally covered by the committed
      ``BENCH_hotpath.json`` floors, which were recorded pre-obs.
    """
    from repro import obs

    workloads = MICROBENCH_WORKLOADS[preset]
    configs = ("off_a", "on", "off_b")
    totals = {c: 0.0 for c in configs}
    identical = True
    try:
        for suite, app, size, gran in workloads:
            cell = Cell(suite, app, size, gran, "hypercube", "bsa",
                        n_procs=16, graph_seed=1, system_seed=1)
            best = {c: float("inf") for c in configs}
            blobs = {}
            for rep in range(reps):
                for config in configs:
                    if config == "on":
                        obs.enable()
                        obs.reset()
                    else:
                        obs.disable()
                    sched, elapsed = _schedule(cell)
                    best[config] = min(best[config], elapsed)
                    if rep == 0:
                        blobs[config] = schedule_to_json(sched)
            identical = identical and len(set(blobs.values())) == 1
            for c in configs:
                totals[c] += best[c]
    finally:
        obs.disable()
        obs.reset()
        obs.reset_spans()
    off = min(totals["off_a"], totals["off_b"])
    noise = abs(totals["off_a"] - totals["off_b"]) / off
    overhead = totals["on"] / off - 1.0
    limit = max(0.10, 4.0 * noise)
    return {
        "off_s": round(off, 3),
        "on_s": round(totals["on"], 3),
        "noise": round(noise, 4),
        "enabled_overhead": round(overhead, 4),
        "overhead_limit": round(limit, 4),
        "identical_schedules": identical,
        "ok": identical and overhead <= limit,
    }


def effective_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores, which overstates what a
    cgroup-limited CI container or an affinity-pinned process can use —
    and a jobs-scaling leg on one usable core measures only fork
    overhead. Order: ``process_cpu_count`` (3.13+, affinity-aware) →
    ``sched_getaffinity`` → ``cpu_count`` → 1.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        n = getter()
        if n:
            return n
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def run_jobs_scaling(cells: List[Cell], jobs: int) -> Dict:
    """Wall clock of the parallel runner at --jobs 1 vs --jobs N."""
    timings = {}
    for n in (1, jobs):
        t0 = time.perf_counter()
        run_cells(cells, jobs=n, use_cache=False)
        timings[n] = time.perf_counter() - t0
    return {
        "jobs": jobs,
        "serial_s": round(timings[1], 3),
        "parallel_s": round(timings[jobs], 3),
        "speedup": round(timings[1] / timings[jobs], 2),
        "efficiency": round(timings[1] / timings[jobs] / jobs, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=["smoke", "default"], default="default")
    parser.add_argument("--jobs", type=int, default=0,
                        help="also measure parallel scaling at this job count")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--obs-guard", action="store_true",
                        help="run only the observability overhead guard "
                             "(byte-identity with REPRO_OBS=1 and the "
                             "enabled-overhead ceiling); exit 1 on "
                             "violation, no report written")
    args = parser.parse_args(argv)

    if args.obs_guard:
        og = run_obs_guard(args.preset)
        print(f"obs guard: off {og['off_s']}s -> on {og['on_s']}s "
              f"(overhead {og['enabled_overhead']:+.1%}, noise "
              f"{og['noise']:.1%}, limit {og['overhead_limit']:.1%}), "
              f"identical={og['identical_schedules']}")
        if not og["ok"]:
            print("FAIL: observability guard violated "
                  f"({'schedules differ with REPRO_OBS=1' if not og['identical_schedules'] else 'enabled overhead above limit'})",
                  file=sys.stderr)
            return 1
        return 0

    cells = sweep_cells(args.preset)
    print(f"hot-path bench: preset={args.preset}, {len(cells)} cells "
          f"({len(TOPOLOGIES)} topologies x {ALGORITHMS})")

    report = {
        "bench": "hotpath",
        "preset": args.preset,
        # scaling numbers are only meaningful relative to available cores;
        # host_cpus stays for schema compatibility, effective_cpus is
        # what the process can actually use (affinity/cgroup-aware)
        "host_cpus": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "single_process": run_single_process(cells),
    }
    sp = report["single_process"]
    print(f"single-process: legacy {sp['legacy_s']}s -> incremental "
          f"{sp['incremental_s']}s = {sp['speedup_incremental']}x, "
          f"identical={sp['identical_schedules']}")

    report["settle_microbench"] = run_settle_microbench(args.preset)
    mb = report["settle_microbench"]
    print(f"settle/rollback microbench ({len(mb['workloads'])} BSA workloads, "
          f"n>=100): legacy {mb['legacy_s']}s -> incremental {mb['incremental_s']}s "
          f"= {mb['speedup']}x, identical={mb['identical_schedules']}")

    report["obs_guard"] = run_obs_guard(args.preset)
    og = report["obs_guard"]
    print(f"obs guard: off {og['off_s']}s -> on {og['on_s']}s "
          f"(overhead {og['enabled_overhead']:+.1%}, limit "
          f"{og['overhead_limit']:.1%}), identical={og['identical_schedules']}")

    report["scaling_curve"] = run_scaling_curve(args.preset)
    sc = report["scaling_curve"]
    curve = ", ".join(
        f"n={p['n_tasks']}: {p['incremental_s']}s" for p in sc["points"]
    )
    print(f"scaling curve (incremental): {curve}")
    # fail before the report is written: --out may be the committed file
    drift = curve_makespan_drift(sc["points"], DEFAULT_OUT)
    if drift:
        print(f"FAIL: scaling-curve makespans differ from {DEFAULT_OUT}: "
              f"{'; '.join(drift)}", file=sys.stderr)
        return 1

    if args.jobs and args.jobs > 1:
        usable = report["effective_cpus"]
        if usable < 2:
            report["jobs_scaling"] = {
                "jobs": args.jobs,
                "skipped": True,
                "reason": f"only {usable} usable CPU "
                          f"(host reports {report['host_cpus']}); "
                          f"parallel timing would measure fork overhead",
            }
            print(f"parallel runner: skipped ({report['jobs_scaling']['reason']})")
        else:
            report["jobs_scaling"] = run_jobs_scaling(cells, args.jobs)
            js = report["jobs_scaling"]
            print(f"parallel runner: jobs=1 {js['serial_s']}s -> jobs={js['jobs']} "
                  f"{js['parallel_s']}s = {js['speedup']}x "
                  f"(efficiency {js['efficiency']:.0%})")

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {out}")

    if not sp["identical_schedules"] or not mb["identical_schedules"]:
        print("FAIL: schedules differ between modes", file=sys.stderr)
        return 1
    if not og["ok"]:
        print("FAIL: observability guard violated (byte-identity or "
              "enabled overhead)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
