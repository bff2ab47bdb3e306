"""The corpus subsystem: overlays, manifests, and the bench harness.

The two load-bearing contracts:

* **cache-key visibility** — every overlay parameter lands in the cell
  app token (and so in the ``ResultCache`` key): changing any parameter
  changes the key, identical overlays hit the cache across ``--jobs 2``
  pool runs;
* **determinism** — the ``repro corpus bench`` aggregate report is
  byte-identical across all three ``REPRO_HOTPATH`` engine modes.
"""

import dataclasses
import json
import os

import pytest

from repro.corpus.bench import aggregate_report, corpus_bench, run_corpus
from repro.corpus.manifest import (
    Manifest,
    ManifestEntry,
    manifest_cells,
    scan_corpus,
)
from repro.corpus.overlays import Overlay, apply_overlay, overlay_grid, parse_overlay
from repro.errors import ConfigurationError, GraphError
from repro.experiments.cache import ResultCache
from repro.graph.interchange import load_workload
from repro.util.intervals import hotpath_mode, set_hotpath_mode
from repro.util.tolerance import TOL
from repro.workloads.external import app_token, external_cell, parse_token, resolve_external

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(REPO_ROOT, "examples", "corpus")
TRACE_PATH = os.path.join(CORPUS_DIR, "fft8.trace.json")
BRIDGED_PATH = os.path.join(CORPUS_DIR, "bridged_chains.stg")

MODES = ("legacy", "incremental")


@pytest.fixture
def restore_mode():
    initial = hotpath_mode()
    yield
    set_hotpath_mode(initial)


class TestOverlayTokens:
    @pytest.mark.parametrize(
        "overlay",
        [
            Overlay(),
            Overlay(bridge="epsilon"),
            Overlay(ccr=0.5),
            Overlay(granularity=10.0),
            Overlay(het_range=(1.0, 50.0), het_seed=7),
            Overlay(bridge="epsilon", ccr=1e6, granularity=0.001,
                    het_range=(2.0, 2.0), het_seed=12),
        ],
    )
    def test_token_round_trip(self, overlay):
        assert parse_overlay(overlay.token()) == overlay

    def test_identity_token_empty(self):
        assert Overlay().token() == ""
        assert Overlay().is_identity

    @pytest.mark.parametrize("text", ["nope", "ccrx", "het1-10s3", "gran"])
    def test_malformed_tokens_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_overlay(text)

    @pytest.mark.parametrize(
        "text",
        [
            "ccr2,ccr3",                      # conflicting values
            "ccr2,ccr2",                      # even agreeing repeats
            "bridge,bridge",
            "gran0.1,gran10",
            "het1:10@0,het1:50@0",
            "bridge,ccr1,bridge",             # duplicate after other parts
        ],
    )
    def test_duplicate_parts_rejected(self, text):
        """Repeated parts must error, not silently last-win: 'ccr2,ccr3'
        would otherwise run (and cache) a ccr=3 experiment under a
        ccr=2-and-3 name."""
        with pytest.raises(ConfigurationError, match="duplicate overlay"):
            parse_overlay(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bridge="glue"),
            dict(ccr=0.0),
            dict(ccr=-1.0),
            dict(granularity=0.0),
            dict(het_range=(0.0, 1.0)),
            dict(het_range=(5.0, 1.0)),
            dict(het_seed=-1),
        ],
    )
    def test_invalid_overlays_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Overlay(**kwargs)

    def test_overlay_grid_product(self):
        grid = overlay_grid(ccrs=[0.1, 1.0], het_ranges=[(1, 10)], het_seed=3)
        assert [o.token() for o in grid] == [
            "ccr0.1,het1.0:10.0@3", "ccr1.0,het1.0:10.0@3",
        ]
        assert overlay_grid() == [Overlay()]

    def test_tokens_distinguish_sub_percent_g_differences(self):
        """Tokens render floats at full repr precision: overlays closer
        than %g's 6 significant digits must still get distinct tokens
        (and so distinct cache keys)."""
        a, b = Overlay(ccr=1.0000001), Overlay(ccr=1.0000002)
        assert a != b
        assert a.token() != b.token()
        assert parse_overlay(a.token()) == a
        assert parse_overlay(b.token()) == b


class TestApplyOverlay:
    def test_identity_returns_same_object(self):
        wl = load_workload(TRACE_PATH)
        assert apply_overlay(wl, Overlay()) is wl
        # bridge-only overlays transform nothing at apply time either
        assert apply_overlay(wl, Overlay(bridge="epsilon")) is wl

    def test_ccr_rescales_exactly(self):
        wl = load_workload(TRACE_PATH)
        out = apply_overlay(wl, Overlay(ccr=0.25))
        g = out.graph
        assert abs(g.total_comm_cost() / g.total_exec_cost() - 0.25) < TOL
        # structure and exec costs untouched
        assert g.tasks() == wl.graph.tasks()
        assert all(g.cost(t) == wl.graph.cost(t) for t in g.tasks())
        assert out.exec_costs == wl.exec_costs

    def test_granularity_multiplies(self):
        wl = load_workload(TRACE_PATH)
        out = apply_overlay(wl, Overlay(granularity=3.0))
        for u, v in wl.graph.edges():
            assert out.graph.comm_cost(u, v) == wl.graph.comm_cost(u, v) * 3.0

    def test_ccr_then_granularity_compose(self):
        wl = load_workload(TRACE_PATH)
        out = apply_overlay(wl, Overlay(ccr=1.0, granularity=2.0))
        g = out.graph
        assert abs(g.total_comm_cost() / g.total_exec_cost() - 2.0) < TOL

    def test_ccr_needs_communication(self):
        wl = load_workload(TRACE_PATH)
        g = wl.graph.copy()
        for u, v in g.edges():
            g.set_edge_cost(u, v, 0.0)
        with pytest.raises(GraphError, match="no communication"):
            apply_overlay(dataclasses.replace(wl, graph=g), Overlay(ccr=1.0))

    def test_het_resample_deterministic_and_normalized(self):
        wl = load_workload(TRACE_PATH)
        a = apply_overlay(wl, Overlay(het_range=(1.0, 10.0), het_seed=4))
        b = apply_overlay(wl, Overlay(het_range=(1.0, 10.0), het_seed=4))
        c = apply_overlay(wl, Overlay(het_range=(1.0, 10.0), het_seed=5))
        assert a.exec_costs == b.exec_costs
        assert a.exec_costs != c.exec_costs
        assert a.exec_costs != wl.exec_costs
        for t, row in a.exec_costs.items():
            nominal = wl.graph.cost(t)
            # fastest processor normalized to lo * nominal, like sample()
            assert min(row) == nominal * 1.0
            assert all(nominal * 1.0 <= x <= nominal * 10.0 for x in row)
            assert len(row) == 8

    def test_het_resample_rejects_scalar_workloads(self):
        wl = load_workload(BRIDGED_PATH, bridge="epsilon")
        with pytest.raises(GraphError, match="het_lo/het_hi"):
            apply_overlay(wl, Overlay(het_range=(1.0, 10.0)))


class TestTokensAndCells:
    def test_app_token_carries_overlay(self):
        token = app_token(TRACE_PATH, overlay=Overlay(ccr=0.5))
        path, digest, overlay = parse_token(token)
        assert path == TRACE_PATH
        assert len(digest) == 12
        assert overlay == Overlay(ccr=0.5)
        # identity overlay leaves the token bare (back-compatible keys)
        assert "!" not in app_token(TRACE_PATH, overlay=Overlay())

    def test_every_overlay_parameter_changes_the_cache_key(self):
        def key(overlay):
            return external_cell(
                TRACE_PATH, algorithm="heft", topology="ring", overlay=overlay
            ).key()

        base = Overlay(ccr=1.0, granularity=2.0, het_range=(1.0, 10.0), het_seed=0)
        variants = [
            Overlay(),
            base,
            dataclasses.replace(base, ccr=1.5),
            dataclasses.replace(base, granularity=4.0),
            dataclasses.replace(base, het_range=(1.0, 20.0)),
            dataclasses.replace(base, het_seed=1),
        ]
        keys = [key(o) for o in variants]
        assert len(set(keys)) == len(keys), keys
        # and identical overlays alias the same key
        assert key(base) == key(dataclasses.replace(base))
        assert key(None) == key(Overlay())

    def test_resolve_external_applies_overlay(self):
        token = app_token(TRACE_PATH, overlay=Overlay(ccr=0.5))
        wl = resolve_external(token)
        g = wl.graph
        assert abs(g.total_comm_cost() / g.total_exec_cost() - 0.5) < TOL
        # the plain token still resolves to the untouched file
        plain = resolve_external(app_token(TRACE_PATH))
        assert plain.graph.total_comm_cost() != g.total_comm_cost()

    def test_resolve_external_bridges_from_token(self):
        token = app_token(BRIDGED_PATH, overlay=Overlay(bridge="epsilon"))
        wl = resolve_external(token)
        from repro.graph.validation import check_connected

        check_connected(wl.graph)  # must not raise

    def test_external_cell_rejects_het_overlay_on_scalar_file(self):
        with pytest.raises(ConfigurationError, match="het_lo/het_hi"):
            external_cell(
                BRIDGED_PATH, algorithm="bsa", topology="ring",
                overlay=Overlay(bridge="epsilon", het_range=(1.0, 10.0)),
            )


class TestManifest:
    def test_scan_bundled_corpus(self):
        manifest = scan_corpus(CORPUS_DIR)
        by_name = {os.path.basename(e.path): e for e in manifest.entries}
        assert set(by_name) == {
            "bridged_chains.stg", "epigenomics_sample.wfcommons.json",
            "fft8.trace.json", "montage_sample.dax",
        }
        stg = by_name["bridged_chains.stg"]
        assert stg.components == 3 and stg.needs_bridge
        assert stg.fmt == "stg"
        trace = by_name["fft8.trace.json"]
        assert trace.n_procs == 8 and trace.components == 1
        dax = by_name["montage_sample.dax"]
        assert dax.fmt == "dax" and dax.n_tasks == 16
        for entry in manifest.entries:
            assert len(entry.content_hash) == 64
            assert entry.ccr > 0

    def test_manifest_json_round_trip(self, tmp_path):
        manifest = scan_corpus(CORPUS_DIR)
        path = str(tmp_path / "manifest.json")
        manifest.save(path)
        assert Manifest.load(path) == manifest
        doc = json.loads(manifest.to_json())
        assert doc["format"] == "repro-corpus-manifest"

    def test_manifest_rejects_foreign_documents(self):
        with pytest.raises(ConfigurationError, match="manifest"):
            Manifest.from_json("{}")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            Manifest.from_json("{")
        with pytest.raises(ConfigurationError, match="version"):
            Manifest.from_dict(
                {"format": "repro-corpus-manifest", "version": 99}
            )

    def test_scan_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            scan_corpus(str(tmp_path))

    def test_manifest_cells_expansion(self):
        manifest = scan_corpus(CORPUS_DIR)
        cells = manifest_cells(
            manifest, overlays=overlay_grid(ccrs=[0.5, 1.0]),
            topologies=("ring",), algorithms=("bsa", "dls"),
        )
        # 4 files x 2 overlays x 1 topology x 2 algorithms
        assert len(cells) == 16
        # disconnected files were auto-bridged
        for cell in cells:
            path, _, overlay = parse_token(cell.app)
            if os.path.basename(path) == "bridged_chains.stg":
                assert overlay.bridge == "epsilon"
            else:
                assert overlay.bridge == "none"
        # the trace file pinned its own processor count
        procs = {
            os.path.basename(parse_token(c.app)[0]): c.n_procs for c in cells
        }
        assert procs["fft8.trace.json"] == 8

    def test_manifest_cells_route_het_overlay_for_scalar_files(self):
        manifest = scan_corpus(CORPUS_DIR)
        cells = manifest_cells(
            manifest,
            overlays=[Overlay(het_range=(1.0, 10.0), het_seed=5)],
            topologies=("ring",), algorithms=("bsa",),
        )
        for cell in cells:
            path, _, overlay = parse_token(cell.app)
            if os.path.basename(path) == "fft8.trace.json":
                # vector file: overlay carries the re-sample
                assert overlay.het_range == (1.0, 10.0)
                assert overlay.het_seed == 5
            else:
                # scalar file: routed through the (cache-visible) cell axes
                assert overlay.het_range is None
                assert (cell.het_lo, cell.het_hi) == (1.0, 10.0)
                assert cell.system_seed == 5


class TestBench:
    def test_cache_hits_across_jobs2_runs(self, tmp_path, monkeypatch):
        """Satellite: identical overlays hit the cache across --jobs 2
        workers — the second pool run computes nothing."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        overlays = overlay_grid(ccrs=[0.5], granularities=[2.0])
        cache = ResultCache(str(tmp_path / "cache" / "results"))
        _, _, first = run_corpus(
            CORPUS_DIR, overlays=overlays, topologies=("ring",),
            algorithms=("heft", "cpop"), jobs=2, use_cache=True,
        )
        assert first.computed == first.unique and first.cache_hits == 0
        _, _, second = run_corpus(
            CORPUS_DIR, overlays=overlays, topologies=("ring",),
            algorithms=("heft", "cpop"), jobs=2, use_cache=True,
        )
        assert second.computed == 0
        assert second.cache_hits == second.unique == first.unique

    def test_report_byte_identical_across_modes_and_jobs(self, restore_mode):
        """Acceptance: the aggregate report is byte-identical across all
        three REPRO_HOTPATH engine modes and independent of --jobs."""
        reports = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            report, sweep = corpus_bench(
                CORPUS_DIR, topologies=("ring",), jobs=1, use_cache=False,
            )
            assert not sweep.failures
            reports[mode] = report
        assert reports["legacy"] == reports["incremental"]
        set_hotpath_mode("incremental")
        parallel, _ = corpus_bench(
            CORPUS_DIR, topologies=("ring",), jobs=2, use_cache=False,
        )
        assert parallel == reports["incremental"]

    def test_report_content(self):
        report, sweep = corpus_bench(
            CORPUS_DIR, topologies=("ring",), jobs=1, use_cache=False,
        )
        assert "scheduler ordering" in report
        assert "per-scenario normalized SL" in report
        for algo in ("bsa", "dls", "heft", "cpop", "etf"):
            assert algo in report
        assert "bridged_chains.stg!bridge" in report
        # the deterministic artifact never contains wall-clock numbers
        assert "cells/s" not in report

    def test_report_labels_show_routed_het_axes(self):
        """A het overlay routed through the cell axes (scalar files)
        must stay visible in the per-scenario labels — two heterogeneity
        scenarios may not render identically."""
        manifest = scan_corpus(CORPUS_DIR)
        scalar_only = Manifest(
            directory=manifest.directory,
            entries=tuple(
                e for e in manifest.entries
                if os.path.basename(e.path) == "epigenomics_sample.wfcommons.json"
            ),
        )
        cells, results, _ = run_corpus(
            scalar_only,
            overlays=[Overlay(het_range=(1.0, 5.0)),
                      Overlay(het_range=(1.0, 10.0))],
            topologies=("ring",), algorithms=("heft",), use_cache=False,
        )
        report = aggregate_report(cells, results, algorithms=("heft",))
        assert "~het1:5@0" in report
        assert "~het1:10@0" in report
        # the default binding (U[1,50], seed 0) stays unsuffixed
        plain_cells, plain_results, _ = run_corpus(
            scalar_only, topologies=("ring",), algorithms=("heft",),
            use_cache=False,
        )
        plain = aggregate_report(plain_cells, plain_results, ("heft",))
        assert "~het" not in plain

    def test_objectives_report_byte_identical_across_modes_and_jobs(
        self, restore_mode
    ):
        """PR 9: the per-criterion mean table rides the same determinism
        contract as the rest of the report — byte-identical across the
        three engine modes and independent of --jobs."""
        reports = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            report, sweep = corpus_bench(
                CORPUS_DIR, topologies=("ring",), algorithms=("bsa", "heft"),
                jobs=1, use_cache=False, objectives="energy,reliability",
            )
            assert not sweep.failures
            reports[mode] = report
        assert reports["legacy"] == reports["incremental"]
        assert "objective means over" in reports["legacy"]
        assert "mean energy" in reports["legacy"]
        assert "mean reliability" in reports["legacy"]
        set_hotpath_mode("incremental")
        parallel, _ = corpus_bench(
            CORPUS_DIR, topologies=("ring",), algorithms=("bsa", "heft"),
            jobs=2, use_cache=False, objectives="energy,reliability",
        )
        assert parallel == reports["incremental"]

    def test_objectives_axis_changes_cache_key(self):
        """The objectives token is cache-key-visible (canonicalized), so
        a scored sweep can never alias a makespan-only sweep."""
        manifest = scan_corpus(CORPUS_DIR)
        plain = manifest_cells(manifest, topologies=("ring",),
                               algorithms=("heft",))
        scored = manifest_cells(manifest, topologies=("ring",),
                                algorithms=("heft",),
                                objectives="reliability,energy")
        respelled = manifest_cells(manifest, topologies=("ring",),
                                   algorithms=("heft",),
                                   objectives="energy,reliability")
        for p, s, r in zip(plain, scored, respelled):
            assert p.key() != s.key()
            assert s.key() == r.key()
            assert s.objectives == "energy,reliability"

    def test_default_report_has_no_objectives_table(self):
        report, _ = corpus_bench(
            CORPUS_DIR, topologies=("ring",), algorithms=("heft",),
            jobs=1, use_cache=False,
        )
        assert "objective means" not in report

    def test_aggregate_report_notes_missing_cells(self):
        cells, results, _ = run_corpus(
            CORPUS_DIR, topologies=("ring",), use_cache=False,
            algorithms=("heft", "etf"),
        )
        # drop one result: its scenario must be reported as dropped
        dropped_key = cells[0].key()
        partial = {k: v for k, v in results.items() if k != dropped_key}
        report = aggregate_report(cells, partial, algorithms=("heft", "etf"))
        assert "dropped 1 scenario(s)" in report


class TestCorpusCli:
    def test_scan_ls_bench(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.cli import main

        assert main(["corpus", "ls", CORPUS_DIR]) == 0
        out = capsys.readouterr().out
        assert "bridged_chains.stg" in out and "wfcommons" in out

        manifest_path = str(tmp_path / "m.json")
        assert main(["corpus", "scan", CORPUS_DIR, "--out", manifest_path]) == 0
        assert Manifest.load(manifest_path).entries
        capsys.readouterr()

        report_path = str(tmp_path / "report.txt")
        assert main([
            "corpus", "bench", CORPUS_DIR, "-t", "ring", "-a", "heft", "dls",
            "--jobs", "2", "--ccr", "0.5", "--out", report_path,
        ]) == 0
        captured = capsys.readouterr()
        assert "scheduler ordering" in captured.out
        with open(report_path) as fh:
            assert "scheduler ordering" in fh.read()
        # telemetry goes to stderr, never into the deterministic artifact
        assert "sweep:" in captured.err

        assert main([
            "corpus", "report", CORPUS_DIR, "-t", "ring", "-a", "heft", "dls",
            "--ccr", "0.5",
        ]) == 0
        captured = capsys.readouterr()
        assert "scheduler ordering" in captured.out
        assert "sweep:" not in captured.err

    def test_bench_objectives_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.cli import main

        assert main([
            "corpus", "bench", CORPUS_DIR, "-t", "ring", "-a", "bsa", "heft",
            "-O", "energy", "reliability",
        ]) == 0
        out = capsys.readouterr().out
        assert "objective means over" in out
        assert "mean energy" in out and "mean reliability" in out

    def test_bench_missing_corpus(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["corpus", "bench", str(tmp_path)]) == 2
        assert "repro corpus:" in capsys.readouterr().err
