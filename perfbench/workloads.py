"""The three workloads: set-up, the measured closed loop, and the checks.

Each workload is a class with ``setup()`` (everything a user pays once:
input generation, server start, hot-set priming) and ``run(...)``, one
closed loop with a single client that returns an :class:`Outcome`. Only
public entry points of the program are called: ``repro.service.execute``,
``repro.experiments.runner.run_cells`` and ``POST /schedule`` on
``repro.service.http.make_server``.

Every operation is checked, and a failed check counts the operation as
failed: every schedule passes ``validate_schedule``, every cache header
and sweep report matches what the generator planned, a ``serve_mix`` hit
returns the bytes of that key's miss, and for seeds listed in
``pins.json`` the digests and schedule lengths match the recorded ones.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import gen
from hostspeed import normalize
# bound before any tracer wrapper exists, so the benchmark's own checks
# never count toward the validator layer
from repro.schedule.metrics import compute_metrics
from repro.schedule.validator import validate_schedule

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
INPUTS = os.path.join(HERE, "inputs")


@dataclass
class Outcome:
    """What one measured loop did."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: seconds per operation (send to last byte, call to return), host
    #: speed normalized (see ``hostspeed``)
    latencies: List[float] = field(default_factory=list)
    #: cache disposition per operation: the X-Repro-Cache header
    #: ("hit" / "miss"), "off" for cache-off calls, "cell" for sweep cells
    dispositions: List[str] = field(default_factory=list)
    #: summed normalized time of the measured operations (client work
    #: between operations excluded), and the same sum unnormalized
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    host_factors: List[float] = field(default_factory=list)
    tasks: int = 0
    #: normalized schedule lengths of the fixed prefix ``mean_nsl`` uses
    nsl: List[float] = field(default_factory=list)
    #: ``[label, sha256, schedule_length]`` for the pinned prefix
    digests: List[list] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def sha256(text) -> str:
    """First 16 hex digits of the SHA-256 of ``text``."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def load_pins(workload: str, seed: int) -> Optional[List[list]]:
    try:
        with open(PINS_PATH) as fh:
            pins = json.load(fh)
    except OSError:
        return None
    return pins.get(workload, {}).get(str(seed))


def check_pins(out: Outcome, pins: Optional[List[list]]) -> None:
    """Compare the recorded prefix with the pins (never re-recorded to
    make a mismatch pass)."""
    if pins is None:
        return
    for got, want in zip(out.digests, pins):
        if got != want:
            out.fail(f"pin mismatch for {want[0]}: got {got[1:]} "
                     f"want {want[1:]}")
    if len(out.digests) < len(pins):
        out.fail(f"only {len(out.digests)} of {len(pins)} pinned "
                 f"operations ran")


def _check_schedule(out: Outcome, label: str, sched) -> Optional[float]:
    """Validate one schedule; return its NSL, or None after a failure."""
    try:
        validate_schedule(sched)
    except Exception as exc:  # noqa: BLE001 - counted, not raised
        out.fail(f"{label}: invalid schedule: {exc}")
        return None
    return compute_metrics(sched).normalized_sl


# ----------------------------------------------------------------------
# bsa_scale
# ----------------------------------------------------------------------

#: ``mean_nsl`` and the pins cover this many leading rounds
PREFIX_ROUNDS = 2


class BsaScale:
    """Cold in-process ``execute(ScheduleRequest(algorithm="bsa"),
    use_cache=False)`` calls on large graphs. See ``gen.bsa_round``."""

    name = "bsa_scale"

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        from repro.service import ScheduleRequest

        self.round0 = [ScheduleRequest.from_dict(d)
                       for d in gen.bsa_round(self.seed, 0)]

    def rounds(self):
        """The endless request stream, round by round."""
        from repro.service import ScheduleRequest

        yield self.round0
        index = 1
        while True:
            yield [ScheduleRequest.from_dict(d)
                   for d in gen.bsa_round(self.seed, index)]
            index += 1

    def run(self, seconds: float, stream=None,
            prefix_rounds: int = PREFIX_ROUNDS) -> Tuple[Outcome, list]:
        """Run whole rounds until ``seconds`` have passed and the first
        ``prefix_rounds`` are done (or exactly the requests in
        ``stream``); return the outcome and the requests run. Whole
        rounds keep the mix fixed: per task, a ring request is about
        twice as slow as a torus one."""
        from repro.service import pipeline

        out = Outcome()
        done = []
        clock = self.clock
        first = len(clock.factors)
        clock.start()
        start = time.perf_counter()
        batches = [stream] if stream is not None else self.rounds()
        for index, batch in enumerate(batches):
            if (index >= prefix_rounds
                    and time.perf_counter() - start >= seconds):
                break
            for req in batch:
                done.append(req)
                self._one(out, clock, pipeline, req,
                          pinned=stream is None and index < prefix_rounds)
        out.host_factors = clock.factors[first:]
        return out, done

    @staticmethod
    def _one(out: Outcome, clock, pipeline, req,
             pinned: bool) -> None:
        out.attempted += 1
        label = req.idempotency_key()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            resp = pipeline.execute(req, use_cache=False)
        except Exception as exc:  # noqa: BLE001 - counted
            out.fail(f"{label}: {type(exc).__name__}: {exc}")
            return
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        elapsed = normalize(wall, cpu, clock.factor())
        out.latencies.append(elapsed)
        out.dispositions.append(resp.cache)
        out.busy_s += elapsed
        out.raw_busy_s += wall
        sched = resp.extra["schedule"]
        out.tasks += sched.system.graph.n_tasks
        out.extra["bundle_bytes"] = (out.extra.get("bundle_bytes", 0)
                                     + len(resp.bundle_text))
        if resp.cache != "off":
            out.fail(f"{label}: cache {resp.cache!r} on a cache-off call")
        nsl = _check_schedule(out, label, sched)
        if pinned and nsl is not None:
            out.nsl.append(nsl)
            out.digests.append([label, sha256(resp.bundle_text),
                                sched.schedule_length()])


# ----------------------------------------------------------------------
# sweep_paper
# ----------------------------------------------------------------------

#: ``mean_nsl`` and the pins cover this many leading grids
PREFIX_GRIDS = 2


class SweepPaper:
    """``run_cells`` over seeded paper-scale grids, a fresh cache
    directory per run. See ``gen.sweep_grid``."""

    name = "sweep_paper"

    def __init__(self, seed: int, clock, work: str, jobs: int) -> None:
        self.seed = seed
        self.clock = clock
        self.work = work
        self.jobs = jobs

    def setup(self) -> None:
        self.grid0 = self.grid(0)

    def grid(self, index: int):
        from repro.experiments.config import Cell

        return [Cell(**d) for d in gen.sweep_grid(self.seed, index)]

    def run(self, seconds: float, grids: Optional[List[int]] = None,
            jobs: Optional[int] = None, cache_name: str = "sweep-cache",
            cross_check: bool = True,
            prefix_grids: int = PREFIX_GRIDS) -> Tuple[Outcome, List[int]]:
        """Run grids 0, 1, ... until ``seconds`` have passed and the first
        ``prefix_grids`` are done (or exactly ``grids``) through one fresh
        ``ResultCache``. The cross-check is off in a traced pass, where
        it would count as program work."""
        from repro.experiments.cache import ResultCache
        from repro.experiments.runner import run_cells

        jobs = self.jobs if jobs is None else jobs
        cache = ResultCache(os.path.join(self.work, cache_name))
        out = Outcome()
        done: List[int] = []
        runtime_s = 0.0
        clock = self.clock
        first = len(clock.factors)
        clock.start()
        start = time.perf_counter()
        index = 0
        while True:
            if grids is not None:
                if index >= len(grids):
                    break
                gi = grids[index]
            else:
                if (len(done) >= prefix_grids
                        and time.perf_counter() - start >= seconds):
                    break
                gi = index
            index += 1
            cells = self.grid0 if gi == 0 else self.grid(gi)
            results, report = run_cells(cells, jobs=jobs, cache=cache,
                                        raise_on_error=False)
            # the parent idles while the workers compute: the whole grid
            # is CPU-bound work
            factor = clock.factor()
            done.append(gi)
            out.busy_s += report.wall_s * factor
            out.raw_busy_s += report.wall_s
            out.attempted += len(cells)
            for key, err in report.failures:
                out.fail(f"{key}: {err}")
            # a leftover or shared cache would turn computed cells into
            # hits and inflate cells_per_s
            if (report.cache_hits, report.stale) != (0, 0) or \
                    report.computed != len(cells) - len(report.failures):
                out.fail(f"grid {gi}: planned {len(cells)} computed cells, "
                         f"report says {report.computed} computed, "
                         f"{report.cache_hits} hits, {report.stale} stale")
            for cell in cells:
                res = results.get(cell.key())
                if res is None:
                    continue
                out.latencies.append(res.runtime_s * factor)
                out.dispositions.append("cell")
                out.tasks += res.n_tasks
                runtime_s += res.runtime_s * factor
                out.extra["events"] = out.extra.get("events", 0) + res.n_events
                if gi < prefix_grids:
                    out.nsl.append(res.normalized_sl)
                    canon = {k: v for k, v in res.to_dict().items()
                             if k != "runtime_s"}
                    out.digests.append([
                        f"grid{gi}/{len(out.nsl) - 1}",
                        sha256(json.dumps(canon, sort_keys=True)),
                        res.schedule_length,
                    ])
            if gi == 0:
                first_grid = (cells, results)
        if cross_check and 0 in done:
            self._cross_check(out, *first_grid)
        out.extra["runtime_s"] = runtime_s
        out.host_factors = clock.factors[first:]
        out.extra["cache_bytes"] = tree_bytes(
            os.path.join(self.work, cache_name))
        return out, done

    def _cross_check(self, out: Outcome, cells, results) -> None:
        """Recompute one static cell per non-BSA scheduler in-process
        through the service pipeline, validate it and require the sweep's
        schedule length. (The pipeline seeds BSA from the request, the
        sweep does not, so BSA cells are left out.)"""
        from repro.service import ScheduleRequest, pipeline

        picked = {}
        for cell in cells:
            if not cell.scenario and cell.algorithm != "bsa":
                picked.setdefault(cell.algorithm, cell)
        for cell in picked.values():
            req = ScheduleRequest(
                workload=cell.app, size=cell.size, topology=cell.topology,
                n_procs=cell.n_procs, algorithm=cell.algorithm,
                seed=cell.graph_seed)
            resp = pipeline.execute(req, use_cache=False)
            sched = resp.extra["schedule"]
            if _check_schedule(out, cell.key(), sched) is None:
                continue
            res = results.get(cell.key())
            if res is not None and sched.schedule_length() != \
                    res.schedule_length:
                out.fail(f"{cell.key()}: sweep SL {res.schedule_length} != "
                         f"in-process SL {sched.schedule_length()}")


def tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------

#: ``mean_nsl`` and the pins cover the fresh requests of this many
#: leading blocks (two full scheduler x size cycles)
SERVE_PREFIX_BLOCKS = 48


class ServeMix:
    """One keep-alive client posting ``/schedule`` to an in-thread
    server over a fresh cache. See ``gen.serve_block``."""

    name = "serve_mix"

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.server = None

    # -- payloads -------------------------------------------------------
    @staticmethod
    def _graph_payload(spec: Dict) -> Dict:
        if "example" in spec:
            with open(os.path.join(INPUTS, spec["example"])) as fh:
                return {"graph": fh.read(), "topology": spec["topology"],
                        "algorithm": spec["algorithm"],
                        "seed": spec["seed"]}
        payload = {"topology": spec["topology"], "n_procs": 16,
                   "algorithm": spec["algorithm"], "seed": spec["seed"]}
        fmt = spec.get("format")
        if fmt is None:
            payload.update(workload=spec["family"], size=spec["size"])
            return payload
        from repro.graph.interchange import dumps_workload, relabel_tasks
        from repro.workloads.suites import random_graph, regular_graph

        if spec["family"] == "random":
            graph = random_graph(spec["size"], 1.0, seed=spec["seed"])
        else:
            # regular graphs have tuple task ids; files need int/str ids
            graph = relabel_tasks(regular_graph(
                spec["family"], spec["size"], 1.0, seed=spec["seed"]))
        payload.update(graph=dumps_workload(graph, fmt), format=fmt)
        return payload

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from repro.service.http import make_server

        self.server = make_server(quiet=True)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=170)
        self.hot_bodies: List[bytes] = []
        self.hot_payloads: List[bytes] = []
        self.priming_errors: List[str] = []
        for spec in gen.serve_hot_set(self.seed):
            payload = json.dumps(self._graph_payload(spec)).encode()
            status, cache, _wall, body = self._post(payload)
            if status != 200 or cache != "miss":
                self.priming_errors.append(
                    f"priming {spec}: status {status}, cache {cache}")
            self.hot_payloads.append(payload)
            self.hot_bodies.append(body)

    def close(self) -> None:
        if self.server is not None:
            self.conn.close()
            self.server.shutdown()
            self.server.server_close()
            self.thread.join()
            self.server = None

    def _post(self, payload: bytes):
        self.conn.request("POST", "/schedule", body=payload,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        body = resp.read()
        return (resp.status, resp.getheader("X-Repro-Cache"),
                resp.getheader("X-Repro-Wall-Ms"), body)

    # -- measured loop --------------------------------------------------
    def run(self, seconds: float, blocks: Optional[range] = None,
            first_block: int = 0) -> Tuple[Outcome, range]:
        """Send whole blocks from ``first_block`` until ``seconds`` have
        passed and the prefix is covered (or exactly ``blocks``)."""
        out = Outcome()
        for message in self.priming_errors:
            out.fail(message)
        overhead_ms: List[float] = []
        # every distinct bundle served, and (label, digest, in_prefix)
        # per response; bundles are checked after the loop
        bodies: Dict[str, bytes] = {sha256(b): b for b in self.hot_bodies}
        served: List[Tuple[str, str, bool]] = []
        clock = self.clock
        first = len(clock.factors)
        clock.start()
        start = time.perf_counter()
        block = first_block
        while True:
            if blocks is not None:
                if block >= blocks.stop:
                    break
            elif (block - first_block >= SERVE_PREFIX_BLOCKS
                  and time.perf_counter() - start >= seconds):
                break
            timings = []  # (wall, cpu) per request of this block
            for kind, item in gen.serve_block(self.seed, block):
                hot = kind == "hot"
                payload = (self.hot_payloads[item] if hot else
                           json.dumps(self._graph_payload(item)).encode())
                label = f"hot{item}" if hot else f"block{block}/fresh"
                out.attempted += 1
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    status, cache, wall_ms, body = self._post(payload)
                except Exception as exc:  # noqa: BLE001 - counted
                    out.fail(f"{label}: {type(exc).__name__}: {exc}")
                    self.conn.close()
                    continue
                # process CPU time covers the in-process server thread
                elapsed = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if status != 200:
                    out.fail(f"{label}: HTTP {status}: {body[:200]!r}")
                    continue
                timings.append((elapsed, cpu))
                out.dispositions.append(cache)
                if wall_ms is not None:
                    overhead_ms.append(elapsed * 1000.0 - float(wall_ms))
                planned = "hit" if hot else "miss"
                if cache != planned:
                    out.fail(f"{label}: X-Repro-Cache {cache!r}, "
                             f"planned {planned!r}")
                if hot and body != self.hot_bodies[item]:
                    out.fail(f"{label}: hit bytes differ from the miss")
                if not hot:
                    out.extra["bundle_bytes"] = (
                        out.extra.get("bundle_bytes", 0) + len(body))
                digest = sha256(body)
                bodies.setdefault(digest, body)
                served.append((label, digest, block < SERVE_PREFIX_BLOCKS))
            factor = clock.factor()
            for wall, cpu in timings:
                elapsed = normalize(wall, cpu, factor)
                out.latencies.append(elapsed)
                out.busy_s += elapsed
                out.raw_busy_s += wall
            block += 1
        out.host_factors = clock.factors[first:]
        self._check_bodies(out, bodies, served)
        out.extra["http_overhead_ms"] = overhead_ms
        return out, range(first_block, block)

    def _check_bodies(self, out: Outcome, bodies: Dict[str, bytes],
                      served: List[Tuple[str, str, bool]]) -> None:
        """Validate every distinct bundle once and count the tasks served.
        ``mean_nsl`` and the pins cover each schedule once (the Zipf ranks
        must not weight them): the whole hot set, then the fresh requests
        of the prefix."""
        from repro.schedule.io import bundle_from_json

        facts: Dict[str, Optional[Tuple[float, float, int]]] = {}
        for digest, body in bodies.items():
            facts[digest] = None
            try:
                sched = bundle_from_json(body.decode("utf-8"))
            except Exception as exc:  # noqa: BLE001 - counted
                out.fail(f"bundle {digest}: unreadable: {exc}")
                continue
            nsl = _check_schedule(out, f"bundle {digest}", sched)
            if nsl is not None:
                facts[digest] = (nsl, sched.schedule_length(),
                                 sched.system.graph.n_tasks)
        pinned = [(f"hot{i}", sha256(body))
                  for i, body in enumerate(self.hot_bodies)]
        for label, digest, in_prefix in served:
            if facts[digest] is not None:
                out.tasks += facts[digest][2]
                if in_prefix and not label.startswith("hot"):
                    pinned.append((label, digest))
        for label, digest in pinned:
            if facts[digest] is not None:
                out.nsl.append(facts[digest][0])
                out.digests.append([label, digest, facts[digest][1]])
