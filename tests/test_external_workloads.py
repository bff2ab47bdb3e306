"""External graph files as first-class workload families.

Covers the provider layer (app tokens with content hashes, stale-file
detection, cell construction), the runner integration (serial and
process-pool), and the acceptance property for the bundled corpus:
every file schedules validator-clean and byte-identically across all
three ``REPRO_HOTPATH`` engine modes, under every scheduler.
"""

import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.external import corpus_cells, corpus_paths
from repro.experiments.runner import _SCHEDULERS, build_cell_system, run_cell, run_cells
from repro.graph.interchange import load_workload, save_workload
from repro.schedule.io import schedule_to_json
from repro.schedule.validator import validate_schedule
from repro.util.intervals import hotpath_mode, set_hotpath_mode
from repro.workloads.external import (
    app_token,
    external_cell,
    resolve_external,
    split_token,
)
from repro.workloads.suites import random_graph

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(REPO_ROOT, "examples", "graphs")

MODES = ("legacy", "incremental")


@pytest.fixture
def restore_mode():
    initial = hotpath_mode()
    yield
    set_hotpath_mode(initial)


def _write_sample(tmp_path, n=20, seed=1):
    path = str(tmp_path / "sample.stg")
    save_workload(random_graph(n, 1.0, seed=seed), path)
    return path


class TestTokens:
    def test_token_embeds_content_hash(self, tmp_path):
        path = _write_sample(tmp_path)
        token = app_token(path)
        tpath, digest = split_token(token)
        assert tpath == path
        assert digest == load_workload(path).content_hash[:12]

    def test_resolve_rejects_changed_file(self, tmp_path):
        path = _write_sample(tmp_path, seed=1)
        token = app_token(path)
        save_workload(random_graph(20, 1.0, seed=2), path)
        with pytest.raises(ConfigurationError, match="changed on disk"):
            resolve_external(token)
        # a fresh token for the new content resolves fine
        assert resolve_external(app_token(path)).graph.n_tasks == 20

    def test_resolve_accepts_unpinned_path(self, tmp_path):
        path = _write_sample(tmp_path)
        assert resolve_external(path).graph.n_tasks == 20

    def test_cache_key_changes_with_content(self, tmp_path):
        path = _write_sample(tmp_path, seed=1)
        cell_a = external_cell(path, algorithm="heft", topology="ring")
        save_workload(random_graph(20, 1.0, seed=5), path)
        cell_b = external_cell(path, algorithm="heft", topology="ring")
        assert cell_a.key() != cell_b.key()
        assert cell_a.key().startswith("external/")


class TestCells:
    def test_external_cell_defaults(self, tmp_path):
        path = _write_sample(tmp_path, n=30)
        cell = external_cell(path, algorithm="bsa", topology="hypercube")
        assert cell.suite == "external"
        assert cell.size == 30
        assert cell.n_procs == 16
        assert cell.granularity == 1.0

    def test_trace_pins_n_procs(self):
        path = os.path.join(CORPUS_DIR, "ge_trace.json")
        cell = external_cell(path, algorithm="dls", topology="ring")
        assert cell.n_procs == 8
        with pytest.raises(ConfigurationError, match="cannot apply"):
            external_cell(path, algorithm="dls", topology="ring", n_procs=16)

    def test_build_cell_system_binds_exec_table(self):
        path = os.path.join(CORPUS_DIR, "ge_trace.json")
        workload = load_workload(path)
        cell = external_cell(path, algorithm="dls", topology="ring")
        system = build_cell_system(cell)
        for task in system.graph.tasks():
            assert system.exec_cost_row(task) == workload.exec_costs[task]

    def test_mismatched_hand_built_cell_rejected(self, tmp_path):
        # a hand-made cell with the wrong processor count must fail at
        # bind time, not silently resample
        path = os.path.join(CORPUS_DIR, "ge_trace.json")
        cell = external_cell(path, algorithm="dls", topology="ring")
        bad = type(cell)(**{**cell.__dict__, "n_procs": 4})
        with pytest.raises(ConfigurationError, match="8-processor"):
            build_cell_system(bad)

    def test_run_cell_and_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = _write_sample(tmp_path)
        cell = external_cell(path, algorithm="heft", topology="ring", n_procs=8)
        from repro.experiments.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache" / "results"))
        first = run_cell(cell, cache=cache)
        assert cache.get(cell.key()) is not None
        again = run_cell(cell, cache=cache)
        assert first == again

    def test_run_cells_parallel_workers_resolve_files(self, tmp_path):
        # pool workers rebuild external cells from the token alone: the
        # file path must be enough in a fresh process
        path = _write_sample(tmp_path, n=25)
        cells = [
            external_cell(path, algorithm=a, topology="ring", n_procs=4)
            for a in ("heft", "cpop", "etf", "dls")
        ]
        serial, _ = run_cells(cells, jobs=1, use_cache=False)
        parallel, _ = run_cells(cells, jobs=2, use_cache=False)

        def strip_timing(results):
            return {
                key: {k: v for k, v in r.to_dict().items() if k != "runtime_s"}
                for key, r in results.items()
            }

        assert strip_timing(serial) == strip_timing(parallel)


class TestCorpus:
    def test_corpus_paths_finds_all_three_formats(self):
        names = [os.path.basename(p) for p in corpus_paths(CORPUS_DIR)]
        assert names == ["forkjoin.stg", "ge_trace.json", "series_parallel.dot"]

    def test_corpus_cells_grid(self):
        cells = corpus_cells(CORPUS_DIR)
        # 3 files x 2 topologies x 6 algorithms
        assert len(cells) == 36
        assert {c.algorithm for c in cells} == {
            "bsa", "dls", "heft", "cpop", "etf", "spdecomp"}
        assert all(c.n_procs == 8 for c in cells)

    def test_missing_corpus_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="corpus"):
            corpus_paths(str(tmp_path))

    @pytest.mark.parametrize(
        "filename", ["forkjoin.stg", "ge_trace.json", "series_parallel.dot"]
    )
    @pytest.mark.parametrize("algorithm", ["bsa", "dls", "heft", "cpop", "etf"])
    def test_corpus_schedules_validator_clean(self, filename, algorithm):
        path = os.path.join(CORPUS_DIR, filename)
        cell = external_cell(path, algorithm=algorithm, topology="hypercube",
                             n_procs=None if filename.endswith("trace.json")
                             else 8)
        system = build_cell_system(cell)
        schedule = _SCHEDULERS[algorithm](system)
        validate_schedule(schedule)
        assert len(schedule.slots) == system.graph.n_tasks

    @pytest.mark.parametrize(
        "filename", ["forkjoin.stg", "ge_trace.json", "series_parallel.dot"]
    )
    def test_corpus_byte_identical_across_engine_modes(self, filename, restore_mode):
        """Acceptance: `repro schedule --graph <sample>` produces a
        validator-clean schedule byte-identical across all three
        REPRO_HOTPATH modes (checked via the serialized schedule, which
        records every task time and every message hop)."""
        path = os.path.join(CORPUS_DIR, filename)
        for algorithm in ("bsa", "dls"):
            blobs = {}
            for mode in MODES:
                set_hotpath_mode(mode)
                cell = external_cell(path, algorithm=algorithm, topology="ring")
                system = build_cell_system(cell)
                schedule = _SCHEDULERS[algorithm](system)
                validate_schedule(schedule)
                blobs[mode] = schedule_to_json(schedule)
            assert blobs["legacy"] == blobs["incremental"], (
                f"{filename}/{algorithm}: engine modes diverged"
            )
