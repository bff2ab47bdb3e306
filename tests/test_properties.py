"""Property-based tests (hypothesis) for core invariants.

The central property: *every algorithm, on every random (graph, platform)
pair, emits a schedule that passes the strict validator* — processor and
link exclusivity, contiguous routes, store-and-forward timing, precedence.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    HeterogeneousSystem,
    b_levels,
    chain,
    clique,
    critical_path,
    hypercube,
    random_topology,
    ring,
    schedule_bsa,
    schedule_dls,
    serialize,
    star,
    t_levels,
    validate_graph,
)
from repro.core.bsa import BSAOptions
from repro.schedule.validator import schedule_violations
from repro.util.intervals import EPS, Interval, earliest_gap
from repro.workloads.granularity import apply_granularity
from repro.workloads.random_graphs import random_layered_graph

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

graph_params = st.tuples(
    st.integers(min_value=2, max_value=28),   # tasks
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from([0.1, 1.0, 10.0]),        # granularity
)


def make_topology(kind: str, seed: int):
    if kind == "ring":
        return ring(4)
    if kind == "chain":
        return chain(3)
    if kind == "star":
        return star(5)
    if kind == "hypercube":
        return hypercube(4)
    if kind == "clique":
        return clique(4)
    return random_topology(5, 1, 4, seed=seed)


topology_kinds = st.sampled_from(
    ["ring", "chain", "star", "hypercube", "clique", "random"]
)

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# schedule validity: the flagship property
# ---------------------------------------------------------------------------

@slow
@given(params=graph_params, topo_kind=topology_kinds, link_het=st.booleans())
def test_bsa_schedules_always_valid(params, topo_kind, link_het):
    n, seed, gran = params
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    topo = make_topology(topo_kind, seed)
    system = HeterogeneousSystem.sample(
        graph, topo, het_range=(1, 50), seed=seed,
        link_het_range=(1, 50) if link_het else None,
    )
    sched = schedule_bsa(system, BSAOptions(n_sweeps=2))
    assert schedule_violations(sched) == []


@slow
@given(params=graph_params, topo_kind=topology_kinds)
def test_bsa_literal_variant_always_valid(params, topo_kind):
    n, seed, gran = params
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    topo = make_topology(topo_kind, seed)
    system = HeterogeneousSystem.sample(graph, topo, het_range=(1, 50), seed=seed)
    sched = schedule_bsa(
        system,
        BSAOptions(
            migration_scope="neighbors", route_mode="incremental", n_sweeps=1
        ),
    )
    assert schedule_violations(sched) == []


@slow
@given(params=graph_params, topo_kind=topology_kinds)
def test_dls_schedules_always_valid(params, topo_kind):
    n, seed, gran = params
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    topo = make_topology(topo_kind, seed)
    system = HeterogeneousSystem.sample(graph, topo, het_range=(1, 50), seed=seed)
    assert schedule_violations(schedule_dls(system)) == []


@slow
@given(params=graph_params)
def test_bsa_never_worse_than_serialization(params):
    """run() keeps the best sweep-boundary schedule, so the initial
    serialization is always an upper bound on the result."""
    n, seed, gran = params
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    system = HeterogeneousSystem.sample(graph, ring(4), het_range=(1, 10), seed=seed)
    from repro.core.bsa import BSAScheduler

    scheduler = BSAScheduler(system, BSAOptions(n_sweeps=2))
    sched = scheduler.run()
    assert sched.schedule_length() <= scheduler.stats.serial_length + 1e-6
    assert schedule_violations(sched) == []


@slow
@given(params=graph_params)
def test_bsa_respects_exec_lower_bound(params):
    n, seed, gran = params
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    system = HeterogeneousSystem.sample(graph, ring(4), het_range=(1, 10), seed=seed)
    from repro.schedule.metrics import compute_metrics

    m = compute_metrics(schedule_bsa(system, BSAOptions(n_sweeps=2)))
    assert m.schedule_length >= m.cp_exec_lower_bound - 1e-6


# ---------------------------------------------------------------------------
# graph-analysis invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10_000))
def test_generated_graphs_valid_and_serializable(n, seed):
    graph = random_layered_graph(n, seed=seed)
    validate_graph(graph)
    order = serialize(graph)
    assert graph.is_topological(order)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10_000))
def test_cp_level_invariant(n, seed):
    graph = random_layered_graph(n, seed=seed)
    bl, tl = b_levels(graph), t_levels(graph)
    cp = critical_path(graph)
    cp_len = max(bl.values())
    # every task: t + b <= CP length; equality on the chosen CP
    for t in graph.tasks():
        assert tl[t] + bl[t] <= cp_len + 1e-6
    for t in cp:
        assert tl[t] + bl[t] == pytest.approx(cp_len)
    # CP is an actual path
    for a, b in zip(cp, cp[1:]):
        assert graph.has_edge(a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 50), seed=st.integers(0, 10_000),
       gran=st.floats(0.05, 20.0))
def test_granularity_always_exact(n, seed, gran):
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    assert graph.mean_exec_cost() / graph.mean_comm_cost() == pytest.approx(gran)


# ---------------------------------------------------------------------------
# interval invariants
# ---------------------------------------------------------------------------

interval_lists = st.lists(
    st.tuples(st.floats(0, 1000), st.floats(0.1, 50)), max_size=12
).map(
    lambda raw: sorted(
        (Interval(s, s + d) for s, d in raw), key=lambda iv: iv.start
    )
)


def _disjointify(ivs):
    out = []
    t = 0.0
    for iv in ivs:
        start = max(t, iv.start)
        out.append(Interval(start, start + iv.duration))
        t = out[-1].finish
    return out


@settings(max_examples=200, deadline=None)
@given(ivs=interval_lists, ready=st.floats(0, 1500), dur=st.floats(0.1, 100))
# a gap that fits only up to float rounding at the EPS boundary: the fit
# test must be the same float expression the overlap check evaluates
@example(ivs=[Interval(1.0, 2.0)], ready=1e-09, dur=1.0)
def test_earliest_gap_sound(ivs, ready, dur):
    busy = _disjointify(ivs)
    start = earliest_gap(busy, ready, dur)
    assert start >= ready - EPS
    new = Interval(start, start + dur)
    assert all(not new.overlaps(b) for b in busy)


@settings(max_examples=200, deadline=None)
@given(ivs=interval_lists, ready=st.floats(0, 1500), dur=st.floats(0.1, 100))
def test_earliest_gap_is_earliest_at_boundaries(ivs, ready, dur):
    """No feasible start exists earlier than the returned one at any
    candidate boundary (ready or a reservation finish)."""
    busy = _disjointify(ivs)
    start = earliest_gap(busy, ready, dur)
    candidates = [ready] + [b.finish for b in busy]
    for c in candidates:
        if c >= start - EPS or c < ready - EPS:
            continue
        probe = Interval(c, c + dur)
        assert any(probe.overlaps(b) for b in busy), (
            f"feasible earlier start {c} < {start}"
        )


# ---------------------------------------------------------------------------
# topology invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 24), seed=st.integers(0, 1000),
       mind=st.integers(1, 3), maxd=st.integers(4, 8))
def test_random_topologies_connected_and_bounded(m, seed, mind, maxd):
    topo = random_topology(m, mind, maxd, seed=seed)
    assert topo.n_procs == m
    order = topo.bfs_order(0)
    assert sorted(order) == list(range(m))  # connected
    cap = min(maxd, m - 1)
    assert all(topo.degree(p) <= max(cap, 1) for p in topo.processors)
