"""Equivalence regression tests for the indexed engine.

Two layers of protection for the hot-path overhauls (indexed timelines,
memoized routing/costs, bound-based candidate pruning, change-driven
incremental settle, undo-log rollback):

* **pinned makespans** — exact floats for the paper's Table 1 worked
  example and fixed-seed sweep cells across every scheduler and both BSA
  route modes. Any change to scheduling arithmetic, however subtle,
  trips these. All arithmetic involved is deterministic IEEE-754, so the
  pins are machine-independent.
* **legacy/incremental cross-checks** — the same cell scheduled under
  both hot-path modes must serialize to byte-identical JSON (every task
  time and every message hop), on uniform *and* heterogeneous link
  models (full-duplex, bandwidth-skewed torus and fat-tree cells,
  per-message link factors) and under every BSA ablation that changes
  which lower bound screens the candidates.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bsa import BSAOptions, schedule_bsa
from repro.experiments.config import Cell
from repro.experiments.paper_example import run_paper_example
from repro.experiments.pareto import pareto_to_json, run_pareto
from repro.experiments.runner import _SCHEDULERS, build_cell_system
from repro.objectives import evaluate_objectives
from repro.schedule.io import schedule_to_json
from repro.util.intervals import hotpath_mode, set_hotpath_mode

MODES = ("legacy", "incremental")


@pytest.fixture
def both_modes():
    """Restore the session's mode even when a test body fails midway."""
    initial = hotpath_mode()
    yield
    set_hotpath_mode(initial)


#: fixed-seed sweep cells (one regular, one random suite)
CELL_REGULAR = Cell("regular", "gauss", 40, 1.0, "ring", "x",
                    n_procs=8, graph_seed=3, system_seed=3)
CELL_RANDOM = Cell("random", "random", 30, 0.1, "hypercube", "x",
                   n_procs=8, graph_seed=7, system_seed=7)

#: exact schedule lengths per (cell, algorithm) — regenerate only when an
#: intentional algorithmic change is made, never for performance work
PINNED = {
    ("regular", "bsa"): 8696.409356983679,
    ("regular", "dls"): 12834.33279164142,
    ("regular", "heft"): 8929.199845235313,
    ("regular", "cpop"): 48445.270885614154,
    ("regular", "etf"): 73445.85537671586,
    ("random", "bsa"): 19886.270007245133,
    ("random", "dls"): 20494.286130461784,
    ("random", "heft"): 20645.843323245692,
    ("random", "cpop"): 20289.416135906395,
    ("random", "etf"): 30352.23961612196,
}

#: both route modes, neighbors scope (incremental is only defined there)
PINNED_ROUTE_MODES = {
    ("regular", "incremental"): 27743.360255631313,
    ("regular", "shortest"): 23351.958769638226,
    ("random", "incremental"): 28346.984959022604,
    ("random", "shortest"): 19751.398319758886,
}

#: heterogeneous link-model cells: full-duplex, bandwidth-skewed torus
#: and fat tree — the new axes must be as reproducible as the defaults
CELL_TORUS = Cell("random", "random", 30, 1.0, "torus", "x", n_procs=8,
                  graph_seed=13, system_seed=13,
                  duplex="full", bandwidth_skew=8.0)
CELL_FATTREE = Cell("regular", "gauss", 40, 1.0, "fattree", "x", n_procs=8,
                    graph_seed=5, system_seed=5,
                    duplex="full", bandwidth_skew=8.0)

#: PR 3 golden cells: the ETF and CPOP baselines had no pinned values
#: off the uniform half-duplex mesh — one full-duplex uniform torus cell
#: and one half-duplex bandwidth-skewed fat-tree cell close that gap
CELL_TORUS_FD = Cell("random", "random", 36, 1.0, "torus", "x", n_procs=9,
                     graph_seed=21, system_seed=21, duplex="full")
CELL_FATTREE_SKEW = Cell("regular", "gauss", 45, 0.5, "fattree", "x", n_procs=8,
                         graph_seed=11, system_seed=11, bandwidth_skew=6.0)

PINNED_BASELINES_LINK_MODEL = {
    ("torus_fd", "etf"): 37748.29486182677,
    ("torus_fd", "cpop"): 11183.597989604994,
    ("fattree_skew", "etf"): 67869.06198404686,
    ("fattree_skew", "cpop"): 61669.64289322252,
}

PINNED_LINK_MODEL = {
    ("torus", "bsa"): 1658.676355513322,
    ("torus", "dls"): 1765.8967197009376,
    ("torus", "heft"): 1468.0843657169328,
    ("torus", "cpop"): 15946.444545927852,
    ("torus", "etf"): 25233.547795115675,
    ("fattree", "bsa"): 3953.1405192774328,
    ("fattree", "dls"): 4877.120554511691,
    ("fattree", "heft"): 3869.672688984098,
    ("fattree", "cpop"): 62777.41692397765,
    ("fattree", "etf"): 73787.79713678898,
}


#: the series-parallel decomposition mapper (PR 9) pinned on the same
#: golden cells as the other schedulers. On the random suite cell the
#: graph has no serial chains, so spdecomp degenerates to HEFT exactly —
#: the shared float is intentional, not a copy-paste error.
PINNED_SPDECOMP = {
    "regular": 21199.6460230246,
    "random": 20645.843323245692,
    "torus": 2864.1463017080628,
    "fattree": 15202.355863924475,
    "torus_fd": 3091.8242917764665,
    "fattree_skew": 16540.619185208234,
}


#: n=1000 golden cell — the same cell family as ``bench_hotpath.py``'s
#: scaling curve. Pins the exact makespan so the indexed engine's
#: schedules are locked against drift at scale (regenerate only on
#: intentional algorithmic change).
CELL_N1000 = Cell("regular", "gauss", 1000, 1.0, "hypercube", "bsa",
                  n_procs=16, graph_seed=1, system_seed=1)
PINNED_N1000 = 66554.90105672537


#: per-message link factors (``link_het``): every (message, link) pair
#: draws its own factor, so the committed-walk screen reads hop costs
#: that differ per message
CELL_PER_MESSAGE_LINK = Cell("random", "random", 30, 1.0, "hypercube", "x",
                             n_procs=8, link_het=True,
                             graph_seed=17, system_seed=17)

#: BSA ablations of the screened candidate evaluator: no insertion takes
#: the hop-chain (uniform links) or producer-finish bound instead of the
#: committed walk, no VIP-follow drops the VIP processor's keep rule,
#: the journal trigger examines fewer tasks, and untruncated
#: incremental routes in neighbor scope take the producer-finish bound
BSA_ABLATIONS = {
    "no_insertion": BSAOptions(insertion=False),
    "no_vip_follow": BSAOptions(vip_follow=False),
    "st_gt_drt": BSAOptions(migration_trigger="st_gt_drt"),
    "untruncated_incremental_routes": BSAOptions(
        truncate_routes=False, migration_scope="neighbors",
        route_mode="incremental"),
}


def _cell(suite: str) -> Cell:
    return {
        "regular": CELL_REGULAR,
        "random": CELL_RANDOM,
        "torus": CELL_TORUS,
        "fattree": CELL_FATTREE,
        "torus_fd": CELL_TORUS_FD,
        "fattree_skew": CELL_FATTREE_SKEW,
        "per_message_link": CELL_PER_MESSAGE_LINK,
    }[suite]


class TestPinnedMakespans:
    def test_paper_example_exact(self):
        result = run_paper_example()
        assert result["metrics"].schedule_length == 186.0
        assert result["metrics"].total_comm_cost == 120.0

    @pytest.mark.parametrize("suite,algorithm", sorted(PINNED))
    def test_sweep_cell_exact(self, suite, algorithm):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS[algorithm](system)
        assert sched.schedule_length() == PINNED[(suite, algorithm)]

    @pytest.mark.parametrize("suite,route_mode", sorted(PINNED_ROUTE_MODES))
    def test_route_modes_exact(self, suite, route_mode):
        system = build_cell_system(_cell(suite))
        sched = schedule_bsa(
            system,
            BSAOptions(migration_scope="neighbors", route_mode=route_mode),
        )
        assert sched.schedule_length() == PINNED_ROUTE_MODES[(suite, route_mode)]

    @pytest.mark.parametrize("suite,algorithm", sorted(PINNED_LINK_MODEL))
    def test_link_model_cell_exact(self, suite, algorithm):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS[algorithm](system)
        assert sched.schedule_length() == PINNED_LINK_MODEL[(suite, algorithm)]

    @pytest.mark.parametrize("suite,algorithm", sorted(PINNED_BASELINES_LINK_MODEL))
    def test_baseline_link_model_cell_exact(self, suite, algorithm):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS[algorithm](system)
        assert sched.schedule_length() == PINNED_BASELINES_LINK_MODEL[(suite, algorithm)]

    @pytest.mark.parametrize("suite", sorted(PINNED_SPDECOMP))
    def test_spdecomp_cell_exact(self, suite):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS["spdecomp"](system)
        assert sched.schedule_length() == PINNED_SPDECOMP[suite]


class TestEngineModesIdentical:
    """legacy vs incremental — byte-identical serialized output."""

    @pytest.mark.parametrize(
        "suite", ["regular", "random", "torus", "fattree", "torus_fd",
                  "fattree_skew", "per_message_link"]
    )
    @pytest.mark.parametrize(
        "algorithm", ["bsa", "dls", "heft", "cpop", "etf", "spdecomp"]
    )
    def test_serialized_schedules_identical(self, suite, algorithm, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(_cell(suite))
            blobs[mode] = schedule_to_json(_SCHEDULERS[algorithm](system))
        assert blobs["legacy"] == blobs["incremental"]

    @pytest.mark.parametrize("route_mode", ["incremental", "shortest"])
    def test_route_modes_identical(self, route_mode, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(CELL_RANDOM)
            sched = schedule_bsa(
                system,
                BSAOptions(migration_scope="neighbors", route_mode=route_mode),
            )
            blobs[mode] = schedule_to_json(sched)
        assert blobs["legacy"] == blobs["incremental"]

    def test_paper_example_identical(self, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            blobs[mode] = schedule_to_json(run_paper_example()["schedule"])
        assert blobs["legacy"] == blobs["incremental"]

    @pytest.mark.parametrize("suite", ["regular", "fattree_skew",
                                       "per_message_link"])
    @pytest.mark.parametrize("ablation", sorted(BSA_ABLATIONS))
    def test_bsa_ablations_identical(self, ablation, suite, both_modes):
        """Each ablation moves the screened evaluator onto another
        lower-bound case (or changes which candidates it must keep), so
        each is checked byte for byte against the exhaustive oracle on a
        uniform, a bandwidth-skewed and a per-message-link cell."""
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(_cell(suite))
            sched = schedule_bsa(system, BSA_ABLATIONS[ablation])
            blobs[mode] = schedule_to_json(sched)
        assert blobs["legacy"] == blobs["incremental"]

    def test_golden_cell_n1000(self, both_modes):
        """The n=1000 golden cell, pinned to the exact makespan under the
        indexed engine. Legacy is excluded here only for wall-clock
        reasons — the ``MODES`` sweeps above pin its equivalence on
        every differential cell."""
        set_hotpath_mode("incremental")
        system = build_cell_system(CELL_N1000)
        sched = _SCHEDULERS["bsa"](system)
        assert sched.schedule_length() == PINNED_N1000

    @pytest.mark.parametrize("suite", ["regular", "torus", "fattree_skew"])
    @pytest.mark.parametrize("algorithm", ["bsa", "heft", "spdecomp"])
    def test_objective_vectors_identical(self, suite, algorithm, both_modes):
        """All four objectives, not just the makespan, must be
        byte-identical across the engine modes — they are pure float
        reductions over the committed schedule, so identical schedules
        must give identical values down to the last bit."""
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(_cell(suite))
            sched = _SCHEDULERS[algorithm](system)
            values = evaluate_objectives(
                sched, "makespan,energy,reliability,throughput"
            )
            blobs[mode] = json.dumps(values, sort_keys=True)
        assert blobs["legacy"] == blobs["incremental"]

    def test_rejection_heavy_cell_identical(self, both_modes):
        """A communication-heavy cell whose BSA run rejects many
        migrations: exercises the undo-log rollback (incremental) and
        the deep-copy restore (legacy) against each other on
        the same commit sequence."""
        from repro.core.bsa import BSAScheduler

        cell = Cell("regular", "gauss", 60, 0.1, "hypercube", "bsa",
                    n_procs=8, graph_seed=1, system_seed=1)
        blobs = {}
        rejected = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            scheduler = BSAScheduler(build_cell_system(cell), BSAOptions())
            blobs[mode] = schedule_to_json(scheduler.run())
            rejected[mode] = scheduler.stats.n_rejected_migrations
        assert blobs["legacy"] == blobs["incremental"]
        assert len(set(rejected.values())) == 1
        # the cell must keep exercising rollback; reseed it if this trips
        assert rejected["incremental"] > 0

#: golden Pareto cell (PR 9): fat-tree n=100 gauss, every scheduler
#: scored on all four objectives. The front and every objective value
#: are pinned exactly; the serialized artifact must be byte-identical
#: across both engine modes.
CELL_PARETO = Cell("regular", "gauss", 100, 1.0, "fattree", "bsa",
                   n_procs=8, graph_seed=2, system_seed=2)

PINNED_PARETO_FRONT = ["bsa", "dls", "heft"]

PINNED_PARETO_VALUES = {
    "bsa": {
        "energy": 72763.65329156743,
        "makespan": 15625.6879943309,
        "reliability": 0.5669266229746843,
        "throughput": 10129.497862617287,
    },
    "dls": {
        "energy": 73122.10404707766,
        "makespan": 20045.52312037218,
        "reliability": 0.6162476532259843,
        "throughput": 11372.732782069601,
    },
    "heft": {
        "energy": 61863.09299873603,
        "makespan": 13425.483717367097,
        "reliability": 0.6064346300148088,
        "throughput": 10315.061896961502,
    },
    "cpop": {
        "energy": 293257.55288821465,
        "makespan": 79842.74772650919,
        "reliability": 0.22407986018408355,
        "throughput": 79842.74772650919,
    },
    "etf": {
        "energy": 619299.6642026117,
        "makespan": 117796.9418700612,
        "reliability": 0.019959237524555282,
        "throughput": 77823.85776555596,
    },
    "spdecomp": {
        "energy": 169543.15612680075,
        "makespan": 46262.84079518959,
        "reliability": 0.4086511047707097,
        "throughput": 20558.667669277038,
    },
}


class TestGoldenPareto:
    """The Pareto sweep is an artifact-producing endpoint (CLI stdout
    and the ``/pareto`` HTTP body are its exact bytes), so it gets the
    same golden treatment as the makespans: exact values, exact front,
    byte-identical serialization under every engine mode."""

    def _run(self):
        doc, _ = run_pareto(CELL_PARETO, use_cache=False)
        return doc

    def test_front_and_values_exact(self):
        doc = self._run()
        by_algo = {p["algorithm"]: p for p in doc["points"]}
        assert doc["front"] == PINNED_PARETO_FRONT
        for algo, expected in PINNED_PARETO_VALUES.items():
            assert by_algo[algo]["values"] == expected, algo
            assert by_algo[algo]["on_front"] == (algo in PINNED_PARETO_FRONT)

    def test_artifact_identical_across_modes(self, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            blobs[mode] = pareto_to_json(self._run())
        assert blobs["legacy"] == blobs["incremental"]
