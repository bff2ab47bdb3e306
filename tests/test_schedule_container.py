"""Tests for the Schedule container (slots, routes, bookkeeping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HeterogeneousSystem, Schedule, random_graph
from repro.errors import SchedulingError
from repro.network.topology import LinkSpec, Topology
from repro.schedule.events import MessageHop, Route
from repro.util.intervals import Timeline


@pytest.fixture
def sched(homogeneous_system):
    return Schedule(homogeneous_system, algorithm="test")


class TestTaskPlacement:
    def test_place_and_query(self, sched):
        slot = sched.place_task("a", 0, start=5.0)
        assert slot.start == 5.0
        assert slot.finish == 15.0  # cost(a) == 10
        assert sched.proc_of("a") == 0
        assert sched.is_scheduled("a")
        assert sched.schedule_length() == 15.0

    def test_double_placement_rejected(self, sched):
        sched.place_task("a", 0, start=0.0)
        with pytest.raises(SchedulingError):
            sched.place_task("a", 1, start=0.0)

    def test_unscheduled_query_rejected(self, sched):
        with pytest.raises(SchedulingError):
            sched.proc_of("a")

    def test_order_sorted_by_start(self, sched):
        sched.place_task("a", 0, start=50.0)
        sched.place_task("b", 0, start=10.0)
        sched.place_task("c", 0, start=80.0)
        assert sched.proc_order[0] == ["b", "a", "c"]

    def test_explicit_position(self, sched):
        sched.place_task("a", 0, start=0.0)
        sched.place_task("b", 0, start=100.0, position=0)
        assert sched.proc_order[0] == ["b", "a"]

    def test_remove_task(self, sched):
        sched.place_task("a", 0, start=0.0)
        slot = sched.remove_task("a")
        assert slot.task == "a"
        assert not sched.is_scheduled("a")
        assert sched.proc_order[0] == []
        with pytest.raises(SchedulingError):
            sched.remove_task("a")

    def test_empty_schedule_length(self, sched):
        assert sched.schedule_length() == 0.0


class TestRoutes:
    def test_set_route_creates_hops(self, sched):
        sched.place_task("a", 0, start=0.0)
        sched.place_task("b", 1, start=100.0)
        route = sched.set_route(("a", "b"), [0, 1], hop_starts=[10.0])
        assert len(route.hops) == 1
        hop = route.hops[0]
        assert hop.link == (0, 1)
        assert hop.start == 10.0
        assert hop.finish == 10.0 + 5.0  # comm cost a->b is 5
        assert sched.link_order[(0, 1)] == [hop]

    def test_multihop_route(self, sched):
        route = sched.set_route(("a", "c"), [0, 1, 2], hop_starts=[0.0, 20.0])
        assert route.procs == [0, 1, 2]
        assert route.check_contiguous()
        assert len(sched.link_order[(0, 1)]) == 1
        assert len(sched.link_order[(1, 2)]) == 1

    def test_set_route_replaces_old(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        sched.set_route(("a", "b"), [0, 2, 1], hop_starts=[0.0, 10.0])
        # the old direct hop on (0,1) is released; new hops on (0,2), (1,2)
        assert len(sched.link_order[(0, 1)]) == 0
        assert len(sched.link_order[(0, 2)]) == 1
        assert len(sched.link_order[(1, 2)]) == 1
        assert sched.routes[("a", "b")].procs == [0, 2, 1]

    def test_route_over_missing_link_rejected(self, sched):
        # ring(3) has links (0,1),(1,2),(0,2): path [0, 0] invalid anyway
        with pytest.raises(SchedulingError):
            sched.set_route(("a", "b"), [0])

    def test_clear_route_releases_links(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        sched.clear_route(("a", "b"))
        assert sched.link_order[(0, 1)] == []
        assert ("a", "b") not in sched.routes

    def test_mark_local(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        sched.mark_local(("a", "b"))
        assert sched.routes[("a", "b")].is_local
        assert sched.link_order[(0, 1)] == []

    def test_arrival_time_local_vs_routed(self, sched):
        sched.place_task("a", 0, start=0.0)   # finishes at 10
        sched.place_task("b", 0, start=10.0)
        sched.mark_local(("a", "b"))
        assert sched.arrival_time(("a", "b")) == 10.0
        sched.remove_task("b")
        sched.place_task("b", 1, start=100.0)
        sched.set_route(("a", "b"), [0, 1], hop_starts=[12.0])
        assert sched.arrival_time(("a", "b")) == 17.0  # 12 + comm 5


class TestCopyRestore:
    def test_copy_is_deep(self, sched):
        sched.place_task("a", 0, start=0.0)
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        dup = sched.copy()
        dup.slots["a"].start = 999.0
        dup.routes[("a", "b")].hops[0].start = 999.0
        assert sched.slots["a"].start == 0.0
        assert sched.routes[("a", "b")].hops[0].start == 0.0

    def test_copy_preserves_link_identity(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[3.0])
        dup = sched.copy()
        # the hop in dup.link_order must be the same object as in dup.routes
        assert dup.link_order[(0, 1)][0] is dup.routes[("a", "b")].hops[0]

    def test_restore_from(self, sched):
        sched.place_task("a", 0, start=0.0)
        snapshot = sched.copy()
        sched.place_task("b", 1, start=5.0)
        sched.restore_from(snapshot)
        assert not sched.is_scheduled("b")
        assert sched.is_scheduled("a")


class TestRouteObject:
    def test_route_procs_empty_when_local(self):
        assert Route(("a", "b"), []).procs == []
        assert Route(("a", "b"), []).is_local

    def test_contiguity_check(self):
        h1 = MessageHop(("a", "b"), 0, 1)
        h2 = MessageHop(("a", "b"), 1, 2)
        h3 = MessageHop(("a", "b"), 3, 2)
        assert Route(("a", "b"), [h1, h2]).check_contiguous()
        assert not Route(("a", "b"), [h1, h3]).check_contiguous()

    def test_hop_link_canonical(self):
        assert MessageHop(("a", "b"), 3, 1).link == (1, 3)


# ---------------------------------------------------------------------------
# cache coherence: every cached view equals a fresh build after any step
# ---------------------------------------------------------------------------

#: 8 tasks on a 4-ring whose (0, 1) link is full duplex, so channels
#: include both shared half-duplex timelines and per-direction ones
_CACHE_SYSTEM = HeterogeneousSystem.sample(
    random_graph(8, granularity=1.0, seed=5),
    Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="ring4-mixed",
             link_specs={(0, 1): LinkSpec(duplex="full")}),
    het_range=(1, 5), seed=5,
)

_STEPS = ("place", "remove", "route", "clear", "local", "txn", "close",
          "retime", "resort_partial", "resort_orders", "snapshot", "restore")

_step = st.tuples(
    st.sampled_from(_STEPS),
    st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
    st.integers(0, 200),
)


def _assert_views_fresh(sched):
    slots = sched.slots
    for p, order in sched.proc_order.items():
        fresh = Timeline.from_items([slots[t] for t in order])
        tl = sched.proc_timeline(p)
        assert (tl.starts, tl.finishes) == (fresh.starts, fresh.finishes), p
        assert sched.proc_positions(p) == {t: i for i, t in enumerate(order)}, p
    for ch, hops in sched.link_order.items():
        fresh = Timeline.from_items(hops)
        tl = sched.link_timeline(ch)
        assert (tl.starts, tl.finishes) == (fresh.starts, fresh.finishes), ch
        assert sched.link_positions(ch) == {
            id(h): i for i, h in enumerate(hops)
        }, ch


def _apply(sched, step, state):
    """Apply one step, skipping those invalid in the current state.

    Retimes, resorts, snapshots and restores run only outside a
    transaction: the engine never rolls back past them (resorts are not
    undo-logged).
    """
    kind, a, b, c, t = step
    system = sched.system
    tasks = system.graph.tasks()
    edges = list(system.graph.edges())
    procs = system.topology.processors
    channels = list(sched.link_order)
    txn = sched.txn
    if kind == "place":
        task = tasks[a % len(tasks)]
        if task in sched.slots:
            return
        proc = procs[b % len(procs)]
        order_len = len(sched.proc_order[proc])
        pos = None if c % 2 else (c // 2) % (order_len + 1)
        sched.place_task(task, proc, start=float(t), position=pos)
    elif kind == "remove":
        if sched.slots:
            sched.remove_task(list(sched.slots)[a % len(sched.slots)])
    elif kind == "route":
        src = procs[b % len(procs)]
        step_dir = 1 if c % 2 else -1
        path = [(src + step_dir * k) % len(procs) for k in range(c % 3 + 2)]
        starts = [float(t + 7 * k) for k in range(len(path) - 1)]
        sched.set_route(edges[a % len(edges)], path,
                        hop_starts=starts if t % 2 else None)
    elif kind == "clear":
        routed = list(sched.routes) or edges
        sched.clear_route(routed[a % len(routed)])
    elif kind == "local":
        sched.mark_local(edges[a % len(edges)])
    elif kind == "txn":
        if txn is None:
            sched.begin_txn()
    elif kind == "close":
        if txn is not None:
            if a % 2:
                sched.commit_txn()
            else:
                txn.rollback()
    elif txn is not None:
        return
    elif kind == "retime":
        # the settle engines' pattern: rewrite an occupant's times in
        # place, then hand its resource to resort_partial
        hops = [h for r in sched.routes.values() for h in r.hops]
        if a % 2 and hops:
            hop = hops[b % len(hops)]
            hop.start, hop.finish = float(t), float(t) + hop.cost
            sched.resort_partial([], [hop._chan])
        elif sched.slots:
            slot = list(sched.slots.values())[b % len(sched.slots)]
            slot.start, slot.finish = float(t), float(t) + slot.cost
            sched.resort_partial([slot.proc], [])
    elif kind == "resort_partial":
        sched.resort_partial(
            [p for k, p in enumerate(procs) if (a >> k) & 1],
            [ch for k, ch in enumerate(channels) if (b >> k) & 1],
        )
    elif kind == "resort_orders":
        sched.resort_orders()
    elif kind == "snapshot":
        state["snapshot"] = sched.copy()
    elif kind == "restore":
        snapshot = state.pop("snapshot", None)
        if snapshot is not None:
            sched.restore_from(snapshot)


@settings(max_examples=150, deadline=None)
@given(
    starts=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200)),
                    min_size=8, max_size=8),
    routes=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 200)),
                    min_size=4, max_size=8),
    steps=st.lists(_step, min_size=5, max_size=40),
)
def test_cached_views_match_fresh_builds(starts, routes, steps):
    """Start from every task placed and a few messages routed, so resorts,
    retimes and restores meet occupied orders, then check every cached
    view after each further step."""
    sched = Schedule(_CACHE_SYSTEM, algorithm="cache-coherence")
    state = {}
    _assert_views_fresh(sched)
    setup = [("place", i, proc, 1, t) for i, (proc, t) in enumerate(starts)]
    setup += [("route", k, c, c, t) for k, (c, t) in enumerate(routes)]
    for step in setup + steps:
        _apply(sched, step, state)
        _assert_views_fresh(sched)
