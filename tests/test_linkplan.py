"""The candidate screen's committed-walk arrival bound.

:func:`repro.schedule.linkplan.arrival_bounds` must equal the planner's
own walk on committed state (no tentative reservations), never exceed a
walk that layers tentative reservations on top, and degenerate to the
queue-free hop chain on idle links.
"""

from __future__ import annotations

import pytest

from repro.core.bsa import schedule_bsa
from repro.core.serialization import serial_injection
from repro.network.routing import shortest_path
from repro.network.system import HeterogeneousSystem
from repro.network.topology import hypercube, link_id
from repro.schedule.linkplan import LinkPlanner, arrival_bounds
from repro.workloads.suites import random_graph


@pytest.fixture
def scheduled():
    """A BSA schedule with per-message link factors, so link timelines
    carry real load and every message pays its own hop costs."""
    system = HeterogeneousSystem.sample(
        random_graph(40, granularity=1.0, seed=3), hypercube(8),
        het_range=(1, 10), link_het_range=(1, 5), seed=3,
    )
    return schedule_bsa(system)


def _edges(sched):
    graph = sched.system.graph
    for task in graph.tasks():
        for pred in graph.predecessors(task):
            yield (pred, task), sched.proc_of(pred), sched.slots[pred].finish


def test_equals_planner_walk_on_committed_state(scheduled):
    topo = scheduled.system.topology
    checked = 0
    for edge, src, finish in _edges(scheduled):
        bounds = arrival_bounds(scheduled, edge, src, finish)
        assert bounds[src] == finish
        for dst in topo.processors:
            if dst == src:
                continue
            planner = LinkPlanner(scheduled, insertion=True)
            _, arrival = planner.walk_path(
                edge, shortest_path(topo, src, dst), finish)
            assert bounds[dst] == arrival, (edge, dst)
            checked += 1
    assert checked > 100


def test_never_exceeds_walk_over_tentative_load(scheduled):
    """Tentative reservations on the same links (another message of the
    same migration) can only delay the planned arrival."""
    topo = scheduled.system.topology
    edges = list(_edges(scheduled))
    delayed = 0
    for (edge, src, finish), (other, _, _) in zip(edges, edges[1:]):
        bounds = arrival_bounds(scheduled, edge, src, finish)
        for dst in topo.processors:
            if dst == src:
                continue
            path = shortest_path(topo, src, dst)
            planner = LinkPlanner(scheduled, insertion=True)
            planner.walk_path(other, path, finish)
            _, arrival = planner.walk_path(edge, path, finish)
            assert bounds[dst] <= arrival, (edge, dst)
            delayed += bounds[dst] < arrival
    assert delayed > 0


def test_idle_links_give_the_hop_chain(small_random_system):
    """The serialized start state reserves no link, so each bound is
    the producer finish plus the hop durations, added hop by hop."""
    _, sched = serial_injection(small_random_system)
    system = sched.system
    for edge, src, finish in _edges(sched):
        bounds = arrival_bounds(sched, edge, src, finish)
        for dst in system.topology.processors:
            path = shortest_path(system.topology, src, dst)
            expected = finish
            for a, b in zip(path, path[1:]):
                expected = expected + system.comm_cost(edge, link_id(a, b))
            assert bounds[dst] == expected
