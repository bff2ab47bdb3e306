"""The repository benchmark: one command, one workload, one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bsa_scale --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: an untraced pass for half
the time, then the same (or an equally shaped) stream again with the
layer wrappers of ``layers.py`` installed and the program's own
``repro.obs`` counters on. Their ratio is ``trace.overhead_ratio``.

The workloads, their metrics and bounds are listed in ``BENCHMARK.json``
at the repository root. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A run whose
checks fail still prints it and then exits 1; a run that cannot start
(no ``src/`` next to this directory) exits 2 without printing it.

Everything the run writes stays in ``.perfbench/`` under the repository
root: a scratch directory (cache, temp files) removed at the end, and
``out/`` with a JSON report per run and, for traced runs, the spans as
a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import gen  # noqa: E402
from hostspeed import HostClock, normalize  # noqa: E402

#: set-up is timed at least this many times per run (own + child
#: processes), and more (up to ``SETUP_MAX_SAMPLES``) while the samples
#: add up to less than ``SETUP_MIN_TOTAL_S``
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 7
SETUP_MIN_TOTAL_S = 1.0
#: at most this many sweep worker processes
MAX_JOBS = 2


def effective_cpus() -> int:
    """CPUs this process may run on: ``process_cpu_count`` (3.13+),
    then ``sched_getaffinity``, then ``cpu_count``."""
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None and getter():
        return getter()
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def isolate(work: str) -> None:
    """Point every cache and temp file at a fresh directory, and make
    sure the program runs with its observability layer off."""
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ.pop("REPRO_OBS", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_workload(name: str, seed: int, work: str, clock):
    import workloads

    if name == "bsa_scale":
        return workloads.BsaScale(seed, clock)
    if name == "sweep_paper":
        return workloads.SweepPaper(seed, clock, work,
                                    min(effective_cpus(), MAX_JOBS))
    return workloads.ServeMix(seed, clock)


def timed_setup(args, work: str, clock):
    """Imports, input generation, server start and hot-set priming;
    returns the workload, the wall time and the CPU time."""
    t0, c0 = time.perf_counter(), time.process_time()
    wl = make_workload(args.workload, args.seed, work, clock)
    wl.setup()
    return wl, time.perf_counter() - t0, time.process_time() - c0


def probe_setup(args, clock) -> float:
    """Host-normalized set-up time of a fresh interpreter (imports
    included); the child is bracketed by this process's clock."""
    clock.start()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    factor = clock.factor()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return normalize(probe["wall_s"], probe["cpu_s"], factor)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _p(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(out, setup_s: float) -> dict:
    lat_ms = [x * 1000.0 for x in out.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (_ratio(out.tasks, out.busy_s), "1/s"),
        "ops_per_s": (_ratio(len(out.latencies), out.busy_s), "1/s"),
        "latency_p50_ms": (_p(lat_ms, 50), "ms"),
        "latency_p95_ms": (_p(lat_ms, 95), "ms"),
        "mean_nsl": (statistics.fmean(out.nsl), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _split_p50(out, disposition: str) -> float:
    lat = [x * 1000.0 for x, d in zip(out.latencies, out.dispositions)
           if d == disposition]
    return statistics.median(lat) if lat else 0.0


def per_layer(totals: dict, counters: dict, a, b) -> dict:
    """Per-layer metrics from traced pass ``b`` (untraced pass ``a`` for
    the ratios against it and the hit/miss split)."""
    def s(layer):
        return totals.get(layer, {}).get("s", 0.0)

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    def c(name):
        return counters.get(name, 0)

    overhead = b.extra.get("http_overhead_ms") or []
    m = {
        "serialization.s": (s("serialization"), "s"),
        "bsa.run_s": (s("bsa.run"), "s"),
        # serialization + evaluate_self + commit == run, by construction
        "bsa.evaluate_self_s": (s("bsa.run") - s("serialization")
                                - s("migration.commit"), "s"),
        "bsa.tasks_examined": (c("bsa.tasks_examined"), "count"),
        "bsa.candidates_evaluated": (c("bsa.candidates_evaluated"),
                                     "count"),
        "bsa.candidates_pruned": (c("bsa.candidates_pruned"), "count"),
        "bsa.prune_ratio": (_ratio(c("bsa.candidates_pruned"),
                                   c("bsa.candidates_pruned")
                                   + c("bsa.candidates_evaluated")),
                            "ratio"),
        "bsa.migrations": (c("bsa.migrations"), "count"),
        "bsa.rejected_migrations": (c("bsa.rejected_migrations"), "count"),
        "bsa.sweeps": (c("bsa.sweeps"), "count"),
        "migration.commit_s": (s("migration.commit"), "s"),
        "migration.commits": (calls("migration.commit"), "count"),
        "settle.s": (s("settle"), "s"),
        "settle.calls": (calls("settle"), "count"),
        "settle.cone_pops": (c("settle.cone_pops"), "count"),
        "settle.pops_per_run": (_ratio(c("settle.cone_pops"),
                                       c("settle.incremental_runs")),
                                "count"),
        "settle.budget_fallbacks": (c("settle.budget_fallbacks"), "count"),
        "settle.full_passes": (c("settle.full_passes"), "count"),
        "txn.rollback_s": (s("txn.rollback"), "s"),
        "txn.rollbacks": (c("txn.rollbacks"), "count"),
        "txn.accept_ratio": (_ratio(c("bsa.migrations"),
                                    c("bsa.migrations")
                                    + c("bsa.rejected_migrations")),
                             "ratio"),
        "route.trie_hits": (c("route.trie_hits"), "count"),
        "route.trie_misses": (c("route.trie_misses"), "count"),
        "validator.s": (s("validator"), "s"),
        "validator.calls": (calls("validator"), "count"),
        "bundle.encode_s": (s("bundle.encode"), "s"),
        "bundle.bytes": (b.extra.get("bundle_bytes", 0), "bytes"),
    }
    for alg in gen.SWEEP_ALGORITHMS:
        m[f"sched.{alg}_s"] = (s(f"sched.{alg}"), "s")
    lookups = c("cache.hits") + c("cache.misses") + c("cache.stale")
    m.update({
        "dynamic.simulate_s": (s("dynamic.simulate"), "s"),
        "dynamic.events": (b.extra.get("events", 0), "count"),
        "objectives.s": (s("objectives"), "s"),
        "runner.build_system_s": (s("runner.build_system"), "s"),
        # share of the (jobs=1) sweep wall spent inside cells
        "runner.busy_share": (_ratio(a.extra.get("runtime_s", 0.0),
                                     a.busy_s), "ratio"),
        "cache.get_s": (s("cache.get"), "s"),
        "cache.put_s": (s("cache.put"), "s"),
        "cache.hits": (c("cache.hits"), "count"),
        "cache.misses": (c("cache.misses"), "count"),
        "cache.stale": (c("cache.stale"), "count"),
        "cache.hit_ratio": (_ratio(c("cache.hits"), lookups), "ratio"),
        "cache.disk_bytes": (b.extra.get("cache_bytes", 0), "bytes"),
        "interchange.load_s": (s("interchange.load"), "s"),
        "service.execute_s": (s("service.execute"), "s"),
        "http.overhead_p50_ms": (statistics.median(overhead)
                                 if overhead else 0.0, "ms"),
        "http.hit_p50_ms": (_split_p50(a, "hit"), "ms"),
        "http.miss_p50_ms": (_split_p50(a, "miss"), "ms"),
        "trace.overhead_ratio": (_ratio(b.busy_s, a.busy_s), "ratio"),
    })
    return m


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def run_untraced(wl, seconds: float):
    import layers

    out, _ = wl.run(seconds)
    leaked = layers.find_wrappers()
    if leaked:
        out.fail(f"tracer wrappers present in an untraced run: {leaked}")
    return out


def run_traced(wl, seconds: float, report_dir: str, stem: str):
    """Untraced pass ``a`` for half the time, then traced pass ``b`` over
    the same requests (``serve_mix``: the next, equally shaped blocks,
    since ``a`` left its fresh keys in the cache)."""
    import layers
    from repro import obs
    from workloads import tree_bytes

    half = seconds / 2.0
    if wl.name == "sweep_paper":
        a, grids = wl.run(half, jobs=1, cache_name="trace-a",
                          prefix_grids=1)
        again = dict(grids=grids, jobs=1, cache_name="trace-b",
                     cross_check=False)
    elif wl.name == "serve_mix":
        a, blocks = wl.run(half)
        again = dict(blocks=range(blocks.stop, blocks.stop + len(blocks)),
                     first_block=blocks.stop)
    else:
        a, done = wl.run(half, prefix_rounds=1)
        again = dict(stream=done)
    tracer = layers.Tracer()
    obs.reset()
    obs.reset_spans()
    tracer.install()
    obs.enable()
    try:
        b, _ = wl.run(half, **again)
    finally:
        obs.disable()
        tracer.uninstall()
    counters = obs.snapshot()
    obs.reset_spans()
    if wl.name == "serve_mix":
        b.extra["cache_bytes"] = tree_bytes(os.environ["REPRO_CACHE_DIR"])
    totals = tracer.totals()
    tracer.write(os.path.join(report_dir, f"{stem}.trace.json"))
    metrics = per_layer(totals, counters, a, b)
    a.attempted += b.attempted
    a.failed += b.failed
    a.errors += b.errors
    return a, metrics, totals


def provenance(args) -> dict:
    import hashlib

    from repro import __version__, obs
    from repro.util.intervals import hotpath_mode

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "effective_cpus": effective_cpus(),
        "python": sys.version.split()[0], "numpy": numpy_version,
        "repro": __version__, "engine_mode": hotpath_mode(),
        "repro_obs": obs.enabled(), "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def benchmark_names(key: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(STATE, f"work-{os.getpid()}")
    report_dir = os.path.join(STATE, "out")
    os.makedirs(report_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    isolate(work)
    # forked before any thread or worker pool exists
    clock = None if args.setup_probe else HostClock()
    wl = None
    try:
        if args.setup_probe:
            wl, wall, cpu = timed_setup(args, work, None)
            print(json.dumps({"wall_s": wall, "cpu_s": cpu}))
            return 0
        clock.start()
        wl, wall, cpu = timed_setup(args, work, clock)
        setup_s = normalize(wall, cpu, clock.factor())
        import workloads

        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            out, metrics, totals = run_traced(wl, args.seconds, report_dir,
                                              stem)
            names = benchmark_names("per_layer")
        else:
            samples = [setup_s]
            while len(samples) < SETUP_SAMPLES or (
                    sum(samples) < SETUP_MIN_TOTAL_S
                    and len(samples) < SETUP_MAX_SAMPLES):
                samples.append(probe_setup(args, clock))
            out = run_untraced(wl, args.seconds)
            workloads.check_pins(out, workloads.load_pins(args.workload,
                                                          args.seed))
            metrics = end_to_end(out, statistics.median(samples))
            names = benchmark_names("end_to_end")
            totals = {}
        if sorted(metrics) != sorted(names):
            out.fail(f"metric names {sorted(metrics)} differ from "
                     f"BENCHMARK.json {sorted(names)}")
        prov = provenance(args)
    finally:
        if wl is not None and hasattr(wl, "close"):
            wl.close()
        if clock is not None:
            clock.close()
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "provenance": prov,
        "samples": {"operations": len(out.latencies),
                    "hits": out.dispositions.count("hit"),
                    "misses": out.dispositions.count("miss"),
                    "prefix": len(out.nsl),
                    "busy_s": out.busy_s, "raw_busy_s": out.raw_busy_s,
                    "host_factor_median": (statistics.median(
                        out.host_factors) if out.host_factors else None)},
        "errors": out.errors,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        "layers": totals,
        "digests": out.digests,
    }
    with open(os.path.join(report_dir, f"{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps({"provenance": prov, "samples": report["samples"],
                      "errors": out.errors}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
