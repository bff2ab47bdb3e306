"""DAX/Pegasus and WfCommons workflow-format importers.

Round-trip exactness (including float costs and id types) over a
randomized sweep, the runtime→cost and shared-file→comm mappings on
foreign-style documents, strict error paths, sniffing, and the
acceptance property for the bundled corpus samples: both import,
schedule validator-clean under all five schedulers, and serialize
byte-identically across all three ``REPRO_HOTPATH`` engine modes.
"""

import os
import random

import pytest

from repro.errors import GraphError
from repro.experiments.runner import _SCHEDULERS, build_cell_system
from repro.graph.interchange import (
    FORMATS,
    dumps_workload,
    format_names,
    graphs_equal,
    load_workload,
    loads_workload,
    read_dax,
    read_wfcommons,
    sniff_format,
    write_dax,
    write_wfcommons,
)
from repro.graph.model import TaskGraph
from repro.schedule.io import schedule_to_json
from repro.schedule.validator import validate_schedule
from repro.util.intervals import hotpath_mode, set_hotpath_mode
from repro.workloads.external import external_cell

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(REPO_ROOT, "examples", "corpus")

DAX_SAMPLE = os.path.join(CORPUS_DIR, "montage_sample.dax")
WFC_SAMPLE = os.path.join(CORPUS_DIR, "epigenomics_sample.wfcommons.json")

MODES = ("legacy", "incremental")


@pytest.fixture
def restore_mode():
    initial = hotpath_mode()
    yield
    set_hotpath_mode(initial)


def _random_graph(rng, trial):
    g = TaskGraph(name=f"wf-{trial}")
    n = rng.randint(1, 24)
    ids = [i if rng.random() < 0.5 else f"t-{i}" for i in range(n)]
    for tid in ids:
        g.add_task(tid, rng.uniform(0.001, 400.0))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                comm = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 250.0)
                g.add_edge(ids[i], ids[j], comm)
    return g


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["dax", "wfcommons"])
    def test_randomized_round_trip_exact(self, fmt):
        rng = random.Random(20260726)
        for trial in range(25):
            g = _random_graph(rng, trial)
            back = loads_workload(dumps_workload(g, fmt), fmt, validate=False)
            assert graphs_equal(g, back.graph, check_name=True), (fmt, trial)
            # id *types* survive (ints stay ints, strings stay strings)
            assert [type(t) for t in g.tasks()] == [
                type(t) for t in back.graph.tasks()
            ]
            assert back.fmt == fmt

    @pytest.mark.parametrize("fmt", ["dax", "wfcommons"])
    def test_exact_floats_survive(self, fmt):
        g = TaskGraph("floats")
        g.add_task(0, 0.1 + 0.2)  # not representable at %g precision
        g.add_task(1, 1e-12)
        g.add_edge(0, 1, 2.0 / 3.0)
        back = loads_workload(dumps_workload(g, fmt), fmt, validate=False).graph
        assert back.cost(0) == 0.1 + 0.2
        assert back.cost(1) == 1e-12
        assert back.comm_cost(0, 1) == 2.0 / 3.0

    def test_wfcommons_writer_emits_execution_metadata(self):
        """Written instances must carry the machine metadata external
        WfCommons tools expect — a machines table, per-task machine
        assignments, and a makespan — and still round-trip exactly."""
        import json

        from repro.graph.interchange import WFCOMMONS_REFERENCE_MACHINE

        g = TaskGraph("meta")
        g.add_task("a", 2.5)
        g.add_task("b", 4.0)
        g.add_edge("a", "b", 3.0)
        text = write_wfcommons(g)
        doc = json.loads(text)
        execution = doc["workflow"]["execution"]
        # one synthetic reference node (nominal costs are
        # reference-machine costs), named and with a cpu block
        assert [m["nodeName"] for m in execution["machines"]] == [
            WFCOMMONS_REFERENCE_MACHINE
        ]
        assert execution["machines"][0]["cpu"]["coreCount"] == 1
        # every task is assigned to it and keeps its exact runtime
        by_id = {e["id"]: e for e in execution["tasks"]}
        assert set(by_id) == {"a", "b"}
        assert all(
            e["machines"] == [WFCOMMONS_REFERENCE_MACHINE]
            for e in by_id.values()
        )
        assert by_id["a"]["runtimeInSeconds"] == 2.5
        # serial reference makespan = total execution cost
        assert execution["makespanInSeconds"] == 6.5
        # the metadata does not disturb the lossless round trip
        back = read_wfcommons(text)
        assert graphs_equal(g, back.graph, check_name=True)


class TestDaxReader:
    def test_bundled_sample_imports(self):
        wl = load_workload(DAX_SAMPLE)
        assert wl.fmt == "dax"
        assert wl.graph.name == "montage-sample"
        assert wl.graph.n_tasks == 16
        assert wl.graph.n_edges == 24
        # foreign DAX (no reproid): job ids become string task ids
        assert "ID00000" in wl.graph
        # runtime attribute maps to the execution cost verbatim
        assert wl.graph.cost("ID00000") == 13.59
        # multi-file edges: mBackground reads proj_i AND corrections.tbl
        # from two different parents — each edge sums its own files
        assert wl.graph.comm_cost("ID00000", "ID00009") == 165.0
        assert wl.graph.comm_cost("ID00008", "ID00009") == 1.8

    def test_shared_file_sizes_sum_per_edge(self):
        text = (
            '<adag name="m"><job id="A" runtime="1">'
            '<uses file="f1" link="output" size="10.0"/>'
            '<uses file="f2" link="output" size="4.0"/>'
            '<uses file="f3" link="output" size="100.0"/></job>'
            '<job id="B" runtime="2">'
            '<uses file="f1" link="input" size="10.0"/>'
            '<uses file="f2" link="input" size="4.0"/></job>'
            '<child ref="B"><parent ref="A"/></child></adag>'
        )
        wl = read_dax(text)
        # f3 is produced but not consumed by B: not part of the edge
        assert wl.graph.comm_cost("A", "B") == 14.0

    def test_runtime_and_size_scales(self):
        text = (
            '<adag><job id="A" runtime="2"><uses file="f" link="output" '
            'size="8"/></job><job id="B" runtime="4"><uses file="f" '
            'link="input" size="8"/></job>'
            '<child ref="B"><parent ref="A"/></child></adag>'
        )
        wl = read_dax(text, runtime_scale=10.0, size_scale=0.5)
        assert wl.graph.cost("A") == 20.0
        assert wl.graph.comm_cost("A", "B") == 4.0

    def test_repeated_parent_declarations_deduplicated(self):
        # legal DAX: the same dependency stated twice (within one child
        # block or across blocks) is one edge, like the WfCommons reader
        text = (
            '<adag><job id="A" runtime="2"/><job id="B" runtime="3"/>'
            '<child ref="B"><parent ref="A"/><parent ref="A"/></child>'
            '<child ref="B"><parent ref="A"/></child></adag>'
        )
        wl = read_dax(text, default_comm=1.0)
        assert wl.graph.edges() == [("A", "B")]

    def test_namespaced_and_dax3_spellings(self):
        text = (
            '<adag xmlns="http://pegasus.isi.edu/schema/DAX">'
            '<job id="A" runtime="1"><uses name="f" link="output" size="3"/>'
            '</job><job id="B" runtime="1"><uses name="f" link="input" '
            'size="3"/></job><child ref="B"><parent ref="A"/></child></adag>'
        )
        wl = read_dax(text)
        assert wl.graph.comm_cost("A", "B") == 3.0

    @pytest.mark.parametrize(
        "text, match",
        [
            ("<adag><job runtime='1'/></adag>", "without an id"),
            ("<adag><job id='A'/></adag>", "no runtime"),
            ("<adag><job id='A' runtime='x'/></adag>", "not a number"),
            ("<adag><job id='A' runtime='0'/></adag>", "non-positive"),
            ("<adag><job id='A' runtime='-2'/></adag>", "non-positive"),
            ("<adag><job id='A' runtime='1'/><job id='A' runtime='1'/></adag>",
             "duplicate"),
            ("<adag></adag>", "no jobs"),
            ("<adag><job id='A' runtime='1'/><child ref='A'>"
             "<parent ref='Z'/></child></adag>", "unknown parent"),
            ("<adag><job id='A' runtime='1'/><child ref='Z'>"
             "<parent ref='A'/></child></adag>", "unknown job"),
            ("<notadax/>", "expected <adag>"),
            ("<adag", "not well-formed"),
        ],
    )
    def test_error_paths(self, text, match):
        with pytest.raises(GraphError, match=match):
            read_dax(text)


class TestWfCommonsReader:
    def test_bundled_sample_imports(self):
        wl = load_workload(WFC_SAMPLE)
        assert wl.fmt == "wfcommons"
        assert wl.graph.name == "epigenomics-sample"
        assert wl.graph.n_tasks == 20
        assert wl.graph.cost("fastqSplit_00") == 35.26
        # edge comm = size of the one shared file
        assert wl.graph.comm_cost("fastqSplit_00", "filterContams_00") == 30.2

    def test_flat_and_spec_layouts_read_identically(self):
        flat = (
            '{"name": "w", "workflow": {"tasks": ['
            '{"name": "a", "runtime": 2.0, "parents": [], "files": ['
            '{"name": "f", "link": "output", "size": 7.0}]},'
            '{"name": "b", "runtime": 3.0, "parents": ["a"], "files": ['
            '{"name": "f", "link": "input", "size": 7.0}]}]}}'
        )
        spec = (
            '{"name": "w", "schemaVersion": "1.4", "workflow": {'
            '"specification": {"tasks": ['
            '{"id": "a", "parents": [], "children": ["b"],'
            ' "inputFiles": [], "outputFiles": ["f"]},'
            '{"id": "b", "parents": ["a"], "children": [],'
            ' "inputFiles": ["f"], "outputFiles": []}],'
            '"files": [{"id": "f", "sizeInBytes": 7.0}]},'
            '"execution": {"tasks": ['
            '{"id": "a", "runtimeInSeconds": 2.0},'
            '{"id": "b", "runtimeInSeconds": 3.0}]}}}'
        )
        a = read_wfcommons(flat).graph
        b = read_wfcommons(spec).graph
        assert graphs_equal(a, b, check_name=True)
        assert a.comm_cost("a", "b") == 7.0

    def test_legacy_layout_resolves_parents_by_name(self):
        # real legacy instances carry both a name and a surrogate id,
        # with parents/children referencing the *name*
        text = (
            '{"workflow": {"tasks": ['
            '{"name": "mProject_00", "id": "ID0000001", "runtime": 1.0},'
            '{"name": "mDiff_00", "id": "ID0000002", "runtime": 2.0,'
            ' "parents": ["mProject_00"]}]}}'
        )
        wl = read_wfcommons(text)
        assert wl.graph.tasks() == ["mProject_00", "mDiff_00"]
        assert wl.graph.edges() == [("mProject_00", "mDiff_00")]

    def test_children_only_structure(self):
        # some instances declare children but not parents
        text = (
            '{"workflow": {"tasks": ['
            '{"name": "a", "runtime": 1.0, "children": ["b"]},'
            '{"name": "b", "runtime": 1.0}]}}'
        )
        wl = read_wfcommons(text, default_comm=2.5)
        assert wl.graph.edges() == [("a", "b")]
        assert wl.graph.comm_cost("a", "b") == 2.5

    def test_runtime_scale(self):
        text = (
            '{"workflow": {"tasks": [{"name": "a", "runtime": 0.004}]}}'
        )
        wl = read_wfcommons(text, runtime_scale=1000.0)
        assert wl.graph.cost("a") == 4.0

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{", "not valid JSON"),
            ("{}", "no 'workflow' object"),
            ('{"workflow": {}}', "neither"),
            ('{"workflow": {"tasks": [{"runtime": 1}]}}', "without id/name"),
            ('{"workflow": {"tasks": [{"name": "a"}]}}', "no runtime"),
            ('{"workflow": {"tasks": [{"name": "a", "runtime": 0}]}}',
             "non-positive"),
            ('{"workflow": {"tasks": [{"name": "a", "runtime": "x"}]}}',
             "not a number"),
            ('{"workflow": {"tasks": [{"name": "a", "runtime": 1},'
             '{"name": "a", "runtime": 1}]}}', "duplicate"),
            ('{"workflow": {"tasks": [{"name": "a", "runtime": 1,'
             ' "parents": ["z"]}]}}', "unknown parent"),
            ('{"workflow": {"tasks": [{"name": "a", "runtime": 1,'
             ' "children": ["z"]}]}}', "unknown child"),
        ],
    )
    def test_error_paths(self, text, match):
        with pytest.raises(GraphError, match=match):
            read_wfcommons(text)

    def test_spec_layout_missing_execution_runtime(self):
        text = (
            '{"workflow": {"specification": {"tasks": ['
            '{"id": "a", "parents": []}]}, "execution": {"tasks": []}}}'
        )
        with pytest.raises(GraphError, match="no runtime"):
            read_wfcommons(text)


class TestRegistry:
    def test_formats_registered(self):
        assert format_names() == ("stg", "dot", "trace", "json", "dax", "wfcommons")
        assert FORMATS["dax"].extensions == (".dax",)
        assert FORMATS["wfcommons"].extensions == (".wfcommons.json",)

    def test_sniffing(self):
        with open(DAX_SAMPLE) as fh:
            assert sniff_format(fh.read()) == "dax"
        with open(WFC_SAMPLE) as fh:
            assert sniff_format(fh.read()) == "wfcommons"
        # a wfcommons doc never collides with the trace/json sniffers
        g = TaskGraph("x")
        g.add_task(0, 1.0)
        assert sniff_format(write_wfcommons(g)) == "wfcommons"
        assert sniff_format(write_dax(g)) == "dax"

    def test_load_validates_strictly(self, tmp_path):
        # an acyclic check still applies to workflow formats
        text = (
            '<adag><job id="A" runtime="1"/><job id="B" runtime="1"/>'
            '<child ref="B"><parent ref="A"/></child>'
            '<child ref="A"><parent ref="B"/></child></adag>'
        )
        path = tmp_path / "cyclic.dax"
        path.write_text(text)
        with pytest.raises(Exception):
            load_workload(str(path))


class TestCorpusSamplesSchedule:
    @pytest.mark.parametrize("path", [DAX_SAMPLE, WFC_SAMPLE])
    @pytest.mark.parametrize("algorithm", ["bsa", "dls", "heft", "cpop", "etf"])
    def test_validator_clean_under_all_schedulers(self, path, algorithm):
        cell = external_cell(path, algorithm=algorithm, topology="hypercube",
                             n_procs=8)
        system = build_cell_system(cell)
        schedule = _SCHEDULERS[algorithm](system)
        validate_schedule(schedule)
        assert len(schedule.slots) == system.graph.n_tasks

    @pytest.mark.parametrize("path", [DAX_SAMPLE, WFC_SAMPLE])
    def test_byte_identical_across_engine_modes(self, path, restore_mode):
        for algorithm in ("bsa", "dls"):
            blobs = {}
            for mode in MODES:
                set_hotpath_mode(mode)
                cell = external_cell(path, algorithm=algorithm,
                                     topology="ring", n_procs=8)
                system = build_cell_system(cell)
                schedule = _SCHEDULERS[algorithm](system)
                validate_schedule(schedule)
                blobs[mode] = schedule_to_json(schedule)
            assert blobs["legacy"] == blobs["incremental"], (
                f"{os.path.basename(path)}/{algorithm}: engine modes diverged"
            )
