"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: it imports nothing from
``repro`` and returns plain tuples and dicts, so the same seed gives the
identical input list and the program under test receives only those
generated inputs. Each generator states why its workload exists.

The lists are *stratified*: the shape of the work (families, sizes,
topologies, schedulers, how many cells carry a failure scenario) is the
same for every seed, and the seed picks the order, the graph seeds and
which concrete item fills each slot. That keeps the cost of one run
close to the cost of any other, so runs made with different seeds can
be compared.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: the benchmark's default ``--seed``; correctness pins exist for it
DEFAULT_SEED = 0

WORKLOADS = ("bsa_scale", "sweep_paper", "serve_mix")


def _rng(seed: int, *salt) -> random.Random:
    # string seeding is stable across processes (no hash randomization)
    return random.Random(":".join(str(s) for s in (seed,) + salt))


# ----------------------------------------------------------------------
# bsa_scale
# ----------------------------------------------------------------------

#: Why bsa_scale: cold, uncached in-process BSA on large graphs over
#: sparse 16-processor networks (ring, 4x4 torus), where routes are long
#: and every migration re-plans routes and re-settles a cone of slots and
#: hops. Settle, candidate evaluation and commit are nearly all of the
#: wall; cache and HTTP are not used, so a serve-side change must not
#: move this workload.
BSA_FAMILIES = ("random", "gauss", "lu", "laplace", "mva")
BSA_TOPOLOGIES = ("ring", "torus")
#: graph size per topology: routes on the ring are twice as long, so its
#: graphs are smaller to keep one schedule near two seconds
BSA_SIZES = {"ring": 300, "torus": 400}
BSA_PROCS = 16


def bsa_round(seed: int, index: int) -> List[Dict]:
    """Round ``index`` of the ``bsa_scale`` request stream: one request
    per (family, topology) pair, in a seeded order, with fresh graph
    seeds. Returns ``ScheduleRequest`` field dicts."""
    rng = _rng(seed, "bsa", index)
    reqs = [
        {"workload": fam, "size": BSA_SIZES[topo], "topology": topo,
         "n_procs": BSA_PROCS, "algorithm": "bsa",
         "seed": rng.randrange(1_000_000)}
        for fam in BSA_FAMILIES for topo in BSA_TOPOLOGIES
    ]
    rng.shuffle(reqs)
    return reqs


# ----------------------------------------------------------------------
# sweep_paper
# ----------------------------------------------------------------------

#: Why sweep_paper: a paper-scale experiment grid through the sweep
#: engine (process pool, per-cell set-up, six schedulers, online repair,
#: objective evaluation, bulk cache writes). Settle is a small share
#: here and small-n BSA is where the array engine loses, so an engine
#: change that helps bsa_scale but slows small graphs shows up here.
SWEEP_ALGORITHMS = ("bsa", "dls", "heft", "cpop", "etf", "spdecomp")
SWEEP_TOPOLOGIES = ("ring", "hypercube", "clique", "torus")
SWEEP_SIZES = (50, 100, 175, 250)
SWEEP_APPS = ("gauss", "lu", "laplace", "mva", "random")
SWEEP_OBJECTIVES = ("energy", "reliability", "throughput",
                    "energy,reliability")
#: cells per grid carrying a failure scenario (1/8) and objectives (1/4)
SWEEP_N_SCENARIO = 12
SWEEP_N_OBJECTIVES = 24


def sweep_grid(seed: int, index: int) -> List[Dict]:
    """Grid ``index`` of the ``sweep_paper`` stream: 96 ``Cell`` field
    dicts, one per (algorithm, topology, size), in grid order. The app
    of each slot is fixed and rotates so every (algorithm, size) pair
    meets several families. Per algorithm, two cells carry a scenario
    (one at n=100, one at n=175) and four carry objectives (one per
    size); the seed picks their topologies, the scenario and objective
    tokens, and every graph seed."""
    rng = _rng(seed, "sweep", index)
    n_topo = len(SWEEP_TOPOLOGIES)
    cells: List[Dict] = []
    for a, alg in enumerate(SWEEP_ALGORITHMS):
        scenario_at = {1: rng.randrange(n_topo), 2: rng.randrange(n_topo)}
        # an objectives cell never coincides with a scenario cell
        objective_at = {
            s: ((scenario_at[s] + 1 + rng.randrange(n_topo - 1)) % n_topo
                if s in scenario_at else rng.randrange(n_topo))
            for s in range(len(SWEEP_SIZES))
        }
        for t, topo in enumerate(SWEEP_TOPOLOGIES):
            for s, size in enumerate(SWEEP_SIZES):
                app = SWEEP_APPS[(a + t + 2 * s) % len(SWEEP_APPS)]
                gseed = rng.randrange(1_000_000)
                cell = {
                    "suite": "random" if app == "random" else "regular",
                    "app": app, "size": size, "granularity": 1.0,
                    "topology": topo, "algorithm": alg, "n_procs": 16,
                    "graph_seed": gseed, "system_seed": gseed,
                    "scenario": "", "objectives": "",
                }
                if scenario_at.get(s) == t:
                    cell["scenario"] = f"f1a2s{rng.randrange(1000)}"
                if objective_at[s] == t:
                    cell["objectives"] = rng.choice(SWEEP_OBJECTIVES)
                cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------

#: Why serve_mix: the only workload where HTTP, request hydration,
#: interchange parsing, bundle encoding and cache reads and writes are
#: large shares. Four of five requests repeat a Zipf-weighted hot set
#: primed during set-up (cache reads that bypass the scheduler); one in
#: five is a fresh request that computes and writes the cache. An engine
#: change should not move the hit latency.
SERVE_HOT_KEYS = 30
#: every block of this many requests holds exactly one fresh request
SERVE_BLOCK = 5
SERVE_ALGORITHMS = ("bsa", "dls", "heft", "cpop", "etf", "spdecomp")
SERVE_FAMILIES = ("random", "gauss", "lu", "laplace", "mva", "forkjoin")
SERVE_TOPOLOGIES = ("hypercube", "ring", "torus", "clique")
SERVE_SIZES = (50, 100, 150, 200)
#: formats fresh inline graphs are rendered in (``None`` = a generated
#: family request with no inline text)
SERVE_FORMATS = (None, None, "stg", "dax", "wfcommons")
#: example interchange files copied under ``inputs/`` (small graphs)
SERVE_EXAMPLES = ("forkjoin.stg", "montage_sample.dax",
                  "epigenomics_sample.wfcommons.json",
                  "series_parallel.dot", "fft8.trace.json")
ZIPF_S = 1.1


def serve_hot_set(seed: int) -> List[Dict]:
    """The ``SERVE_HOT_KEYS`` request specs primed during set-up: small
    example files and small generated graphs, across the schedulers.
    A spec is ``{"example": name}`` or ``{"family": ..., "size": ...}``
    plus ``topology``/``algorithm``/``seed``."""
    rng = _rng(seed, "hot")
    specs = []
    for i in range(SERVE_HOT_KEYS):
        alg = SERVE_ALGORITHMS[i % len(SERVE_ALGORITHMS)]
        spec: Dict = {"algorithm": alg, "topology": "hypercube",
                      "seed": rng.randrange(1_000_000)}
        if i % 3 == 0:
            spec["example"] = SERVE_EXAMPLES[(i // 3) % len(SERVE_EXAMPLES)]
        else:
            spec["family"] = SERVE_FAMILIES[i % len(SERVE_FAMILIES)]
            spec["size"] = (20, 30, 40)[(i // 3) % 3]
            spec["topology"] = SERVE_TOPOLOGIES[i % len(SERVE_TOPOLOGIES)]
        specs.append(spec)
    rng.shuffle(specs)
    return specs


def _zipf_weights(n: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def serve_block(seed: int, index: int) -> List[Tuple[str, object]]:
    """Block ``index`` of the ``serve_mix`` stream: ``SERVE_BLOCK``
    entries, each ``("hot", hot_index)`` or ``("fresh", spec)``, with
    exactly one fresh entry at a seeded position. Fresh specs cycle
    through a fixed table: every 24 consecutive blocks cover each
    (scheduler, size) pair once and each family and topology equally
    often, and every 120 each inline format too.
    The block index is part of the graph seed, so no fresh request
    repeats a key."""
    rng = _rng(seed, "serve", index)
    weights = _zipf_weights(SERVE_HOT_KEYS)
    hot = rng.choices(range(SERVE_HOT_KEYS), weights=weights,
                      k=SERVE_BLOCK - 1)
    entries: List[Tuple[str, object]] = [("hot", h) for h in hot]
    phase = (index + _rng(seed, "phase").randrange(120)) % 120
    fresh = {
        "algorithm": SERVE_ALGORITHMS[phase % len(SERVE_ALGORITHMS)],
        "size": SERVE_SIZES[(phase // len(SERVE_ALGORITHMS))
                            % len(SERVE_SIZES)],
        "format": SERVE_FORMATS[phase % len(SERVE_FORMATS)],
        "family": SERVE_FAMILIES[(phase // 4) % len(SERVE_FAMILIES)],
        "topology": SERVE_TOPOLOGIES[(phase // 3) % len(SERVE_TOPOLOGIES)],
        # the block index makes every fresh key unique within a run
        "seed": 1_000_000 + index * 1000 + rng.randrange(1000),
    }
    entries.insert(rng.randrange(SERVE_BLOCK), ("fresh", fresh))
    return entries
