"""Online-rescheduling benchmark: cone repair vs full tail replan.

Runs seeded arrival/failure scenarios (see ``repro.dynamic``) against
static BSA schedules and measures what the committed-prefix repair
engine buys over the replan oracle:

* **quality** — final schedule length of the repaired schedule vs the
  from-scratch tail replan (``sl_ratio`` <= 1 means repair matched or
  beat the oracle);
* **wall-clock** — repair only re-places the event's cone, the oracle
  re-places the whole tail, so repair should win the clock;
* **determinism** — every scenario is run twice from a fresh system and
  the deterministic event logs must be byte-identical, and once per
  hot-path mode (legacy / incremental) with the same
  assertion.

The prefix-intact and validator-clean invariants are enforced inside
:func:`repro.dynamic.simulate` itself (it raises on violation), so a
bench run doubles as an invariant sweep. Results go to
``BENCH_dynamic.json`` (repo root by default); ``--log`` additionally
writes the concatenated event logs for byte-comparison across runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py              # default
    PYTHONPATH=src python benchmarks/bench_dynamic.py --preset smoke
    PYTHONPATH=src python benchmarks/bench_dynamic.py --log events.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.bsa import BSAOptions, schedule_bsa
from repro.dynamic import simulate
from repro.dynamic.events import FailureInjector, parse_scenario
from repro.experiments.config import Cell
from repro.experiments.runner import build_cell_system
from repro.schedule.validator import validate_schedule
from repro.util.intervals import set_hotpath_mode

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_dynamic.json")

MODES = ("legacy", "incremental")

#: (app, size, topology, n_procs, scenario) — scenario tokens are
#: f<procs>l<links>a<arrivals>s<seed>, parse_scenario's grammar
SCENARIOS = {
    "smoke": [
        ("gauss", 40, "ring", 8, "f1a1s0"),
        ("gauss", 40, "hypercube", 8, "f1l1a2s1"),
    ],
    "default": [
        ("gauss", 80, "ring", 8, "f1a1s0"),
        ("gauss", 80, "hypercube", 16, "f1l1a2s1"),
        ("laplace", 100, "hypercube", 16, "f2a2s2"),
        ("random", 100, "clique", 16, "f1l1a1s3"),
        ("gauss", 150, "hypercube", 16, "f1a3s4"),
    ],
}


def _fresh_run(config, compare_replan: bool = True):
    """Build system + static schedule and run the scenario once.

    ``simulate`` mutates the graph (arrivals) and the schedule in
    place, so every rep must start from a fresh build.
    """
    app, size, topology, n_procs, scenario = config
    suite = "random" if app == "random" else "regular"
    cell = Cell(suite, app, size, 1.0, topology, "bsa", n_procs=n_procs)
    system = build_cell_system(cell)
    sched = schedule_bsa(system, BSAOptions())
    validate_schedule(sched)
    static_sl = sched.schedule_length()
    events = FailureInjector(
        system, parse_scenario(scenario), static_sl
    ).events()
    sim = simulate(sched, events, compare_replan=compare_replan)
    return static_sl, sim


def bench_scenario(config, reps: int = 2) -> Dict:
    """Run one scenario ``reps`` times; assert log determinism."""
    app, size, topology, n_procs, scenario = config
    logs: List[str] = []
    best = {"repair_s": float("inf"), "replan_s": float("inf")}
    static_sl = 0.0
    sim = None
    for _ in range(reps):
        static_sl, sim = _fresh_run(config)
        logs.append(sim.log_json())
        best["repair_s"] = min(best["repair_s"], sim.repair_wall_s)
        best["replan_s"] = min(best["replan_s"], sim.replan_wall_s)
    deterministic = len(set(logs)) == 1
    records = sim.records
    ratios = [
        r.sl_after / r.sl_replan for r in records if r.sl_replan
    ]
    return {
        "workload": f"{app}-n{size}",
        "topology": f"{topology}{n_procs}",
        "scenario": scenario,
        "n_events": len(records),
        "repairs": sum(1 for r in records if r.strategy == "repair"),
        "replan_fallbacks": sum(1 for r in records if r.strategy == "replan"),
        "static_sl": round(static_sl, 3),
        "final_sl": round(sim.schedule.schedule_length(), 3),
        "degradation": round(sim.schedule.schedule_length() / static_sl, 3),
        "mean_sl_ratio": (
            round(sum(ratios) / len(ratios), 3) if ratios else None
        ),
        "repair_s": round(best["repair_s"], 4),
        "replan_s": round(best["replan_s"], 4),
        "repair_speedup": round(best["replan_s"] / best["repair_s"], 2),
        "deterministic": deterministic,
        "log": logs[0],
    }


def bench_mode_identity(config) -> Dict:
    """The event log must be byte-identical across hot-path modes."""
    logs = {}
    try:
        for mode in MODES:
            set_hotpath_mode(mode)
            _, sim = _fresh_run(config, compare_replan=False)
            logs[mode] = sim.log_json()
    finally:
        set_hotpath_mode("incremental")
    return {
        "scenario": config[4],
        "workload": f"{config[0]}-n{config[1]}",
        "identical": len(set(logs.values())) == 1,
        "modes": list(MODES),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    scale = os.environ.get("REPRO_SCALE", "default")
    parser.add_argument(
        "--preset", choices=["smoke", "default"],
        default="smoke" if scale == "smoke" else "default",
        help="scenario grid size (default follows REPRO_SCALE)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--log", default=None,
                        help="also write concatenated event logs (for cmp)")
    args = parser.parse_args(argv)

    configs = SCENARIOS[args.preset]
    print(f"dynamic bench: preset={args.preset}, {len(configs)} scenarios")

    t0 = time.perf_counter()
    scenarios = []
    for i, config in enumerate(configs):
        res = bench_scenario(config)
        scenarios.append(res)
        print(f"  [{i + 1}/{len(configs)}] {res['workload']} "
              f"{res['topology']} {res['scenario']}: "
              f"{res['n_events']} events ({res['repairs']} repaired, "
              f"{res['replan_fallbacks']} replanned), "
              f"SL {res['static_sl']} -> {res['final_sl']} "
              f"(x{res['degradation']}), repair {res['repair_s']}s vs "
              f"replan {res['replan_s']}s = {res['repair_speedup']}x, "
              f"deterministic={res['deterministic']}")

    identity = bench_mode_identity(configs[0])
    print(f"  mode identity ({identity['workload']} {identity['scenario']}): "
          f"identical={identity['identical']} across {MODES}")

    logs = [json.loads(s.pop("log")) for s in scenarios]
    repair_total = sum(s["repair_s"] for s in scenarios)
    replan_total = sum(s["replan_s"] for s in scenarios)
    report = {
        "bench": "dynamic",
        "preset": args.preset,
        "scenarios": scenarios,
        "repair_s": round(repair_total, 4),
        "replan_s": round(replan_total, 4),
        "repair_speedup": round(replan_total / repair_total, 2),
        "deterministic": all(s["deterministic"] for s in scenarios),
        "mode_identity": identity,
        "wall_s": round(time.perf_counter() - t0, 1),
    }

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"aggregate: repair {report['repair_s']}s vs replan "
          f"{report['replan_s']}s = {report['repair_speedup']}x; "
          f"report written to {out}")

    if args.log:
        with open(args.log, "w") as fh:
            json.dump(logs, fh, indent=2)
            fh.write("\n")
        print(f"event logs written to {args.log}")

    if not report["deterministic"]:
        print("FAIL: event logs differ between reps", file=sys.stderr)
        return 1
    if not identity["identical"]:
        print("FAIL: event logs differ between hot-path modes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
