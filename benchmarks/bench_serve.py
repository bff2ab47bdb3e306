"""Service throughput benchmark: ``repro serve`` cold vs warm cache.

Stands up a real :class:`~repro.service.http.ReproServer` on a loopback
port and measures ``POST /schedule`` end to end — request parsing, the
pipeline, bundle serialization, HTTP framing — at two workload sizes:

* **cold** — every request computes (``use_cache=False`` server), so
  the numbers are dominated by the scheduler itself;
* **warm** — a shared cache primed by the first request, so every
  subsequent request is an idempotency-key lookup serving the cached
  canonical bundle. The warm/cold ratio is what the service layer's
  memoization buys an interactive client.

Requests run sequentially from one client connection — the interesting
quantity is per-request latency (p50/p95) and the derived serial
req/sec, not concurrency scaling (the scheduler is CPU-bound; the
threaded server exists for slow clients, not parallel speedup).

Byte-identity is asserted on every response: each body must equal the
bundle the pipeline computes directly, cold or warm.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # default
    PYTHONPATH=src python benchmarks/bench_serve.py --preset smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.cache import ResultCache
from repro.service import ScheduleRequest, execute
from repro.service.http import make_server
from repro.util.intervals import hotpath_mode

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")

#: (label, request payload) — n=100 is the paper-scale interactive case,
#: n=1000 is the scale where compute dominates transport
CASES = {
    "smoke": [
        ("n100", {"workload": "gauss", "size": 100, "topology": "ring",
                  "n_procs": 8, "algorithm": "heft", "seed": 1}),
    ],
    "default": [
        ("n100", {"workload": "gauss", "size": 100, "topology": "ring",
                  "n_procs": 8, "algorithm": "heft", "seed": 1}),
        ("n1000", {"workload": "random", "size": 1000, "topology": "hypercube",
                   "n_procs": 16, "algorithm": "heft", "seed": 1}),
    ],
}

REPEATS = {"smoke": 5, "default": 20}


def _serve_in_thread(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _post_schedule(host, port, payload: dict):
    conn = http.client.HTTPConnection(host, port, timeout=600)
    try:
        t0 = time.perf_counter()
        conn.request("POST", "/schedule", body=json.dumps(payload).encode())
        resp = conn.getresponse()
        body = resp.read()
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    assert resp.status == 200, body.decode(errors="replace")
    return elapsed, resp.getheader("X-Repro-Cache"), body


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[int(idx)]


def _bench_case(label: str, payload: dict, repeats: int,
                tmp_dir: str) -> Dict:
    expected = execute(ScheduleRequest.from_dict(payload),
                       use_cache=False).bundle_text.encode()

    out: Dict = {"case": label, "n_tasks": payload["size"],
                 "algorithm": payload["algorithm"], "repeats": repeats}
    for phase, use_cache in (("cold", False), ("warm", True)):
        # a private primed cache per case keeps phases independent
        if use_cache:
            cache = ResultCache(os.path.join(tmp_dir, f"{label}.cache"))
            execute(ScheduleRequest.from_dict(payload), cache=cache)
            import repro.experiments.cache as cache_mod
            cache_mod._default_cache = cache
        server = make_server(use_cache=use_cache, quiet=True)
        _serve_in_thread(server)
        host, port = server.server_address[:2]
        try:
            samples = []
            for _ in range(repeats):
                elapsed, cache_header, body = _post_schedule(
                    host, port, payload)
                assert body == expected, "served bundle drifted"
                assert cache_header == ("hit" if use_cache else "off")
                samples.append(elapsed)
        finally:
            server.shutdown()
            server.server_close()
        out[phase] = {
            "p50_ms": round(_percentile(samples, 0.50) * 1000, 2),
            "p95_ms": round(_percentile(samples, 0.95) * 1000, 2),
            "req_per_s": round(repeats / sum(samples), 1),
        }
    out["warm_speedup"] = round(
        out["cold"]["p50_ms"] / out["warm"]["p50_ms"], 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("smoke", "default"),
                        default="default")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    import tempfile

    results = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        for label, payload in CASES[args.preset]:
            result = _bench_case(label, payload, REPEATS[args.preset], tmp_dir)
            results.append(result)
            print(f"{label}: cold p50 {result['cold']['p50_ms']} ms "
                  f"({result['cold']['req_per_s']} req/s), "
                  f"warm p50 {result['warm']['p50_ms']} ms "
                  f"({result['warm']['req_per_s']} req/s), "
                  f"{result['warm_speedup']}x")

    report = {
        "bench": "serve",
        "preset": args.preset,
        "engine_mode": hotpath_mode(),
        "cases": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
