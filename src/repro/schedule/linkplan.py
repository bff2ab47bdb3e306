"""Tentative link reservations layered over a schedule's committed state.

Both BSA's migration evaluator and the list-scheduler baselines answer
the same what-if question while planning: *if this message went over
these links now, when would each hop start?* Reservations made while
answering must be visible to later hops of the same planning pass (two
messages of one task must not overlap on a link) but must not touch the
schedule. :class:`LinkPlanner` is that overlay, shared by both engines so
the contention substrate stays identical across algorithms.

Two implementations, selected by the process-wide hot-path mode:

* *indexed* (mode ``incremental``) —
  query the schedule's cached :class:`Timeline` with an indexed jump,
  merged on the fly (two-pointer walk) with the planner's small
  per-link tentative-reservation lists; nothing is copied or re-sorted;
* *legacy* — the original code: re-merge ``sorted(committed + planned)``
  object lists and scan from time zero on every reservation.

All modes yield bit-identical plans (see
``tests/test_hotpath_equivalence.py`` and ``benchmarks/bench_hotpath.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

from repro.network.routing import shortest_path_trie
from repro.network.topology import Link, Proc, link_id
from repro.schedule.events import Edge
from repro.schedule.schedule import Schedule
from repro.util.intervals import (
    Interval,
    earliest_gap,
    fast_path_enabled,
)


class LinkPlanner:
    """Plan hop reservations against committed + tentative link load."""

    def __init__(self, sched: Schedule, insertion: bool):
        self.sched = sched
        self.insertion = insertion
        # legacy mode: tentative Interval lists merged per query
        self.planned: Dict[Link, List[Interval]] = {}
        # indexed modes: small start-sorted (starts, finishes) lists per link
        self._extras: Dict[Link, Tuple[List[float], List[float]]] = {}
        # bind the implementation once — reserve is called per hop on the
        # hottest path and the mode cannot change mid-plan
        self.reserve = (
            self._reserve_fast if fast_path_enabled() else self._reserve_legacy
        )

    def _reserve_fast(self, lid: Link, ready: float, duration: float) -> float:
        """Reserve ``duration`` on ``lid`` no earlier than ``ready``;
        returns the chosen start under the configured slot policy."""
        base = self.sched.link_timeline(lid)
        entry = self._extras.get(lid)
        if entry is None:
            entry = self._extras[lid] = ([], [])
        ex_starts, ex_finishes = entry
        if self.insertion:
            start = base.earliest_gap_merged(
                ready, duration, ex_starts, ex_finishes
            )
        else:
            # last reservation in start order of the merged view
            # (tentative after committed at equal starts, matching the
            # legacy stable sort)
            if ex_starts and (
                not base.starts or ex_starts[-1] >= base.starts[-1]
            ):
                last = ex_finishes[-1]
            else:
                last = base.last_finish()
            start = max(ready, last)
        k = bisect_right(ex_starts, start)
        ex_starts.insert(k, start)
        ex_finishes.insert(k, start + duration)
        return start

    def _reserve_legacy(self, lid: Link, ready: float, duration: float) -> float:
        busy = self.sched.link_busy(lid)
        extra = self.planned.get(lid)
        if extra:
            busy = sorted(busy + extra, key=lambda iv: iv.start)
        if self.insertion:
            start = earliest_gap(busy, ready, duration)
        else:
            last = busy[-1].finish if busy else 0.0
            start = max(ready, last)
        self.planned.setdefault(lid, []).append(Interval(start, start + duration))
        self.planned[lid].sort(key=lambda iv: iv.start)
        return start

    def walk_path(
        self, edge: Edge, path: List[Proc], ready: float
    ) -> Tuple[List[float], float]:
        """Reserve every hop of ``path``; returns (hop starts, arrival).

        Hop *durations* are looked up by canonical link id; hop
        *reservations* go to the traversal direction's channel (identical
        on half-duplex links, per-direction on full-duplex ones).
        """
        system = self.sched.system
        # hot path: index the precomputed directed-pair -> channel map
        # directly (it maps half-duplex directions to the canonical lid)
        channel_of = system.topology._channel
        comm_cache = system._comm_cache
        comm_cost = system.comm_cost
        reserve = self.reserve
        starts: List[float] = []
        for a, b in zip(path, path[1:]):
            lid = (a, b) if a < b else (b, a)
            duration = comm_cache.get((edge, lid))
            if duration is None:
                duration = comm_cost(edge, lid)
            start = reserve(channel_of[(a, b)], ready, duration)
            starts.append(start)
            ready = start + duration
        return starts, ready


def arrival_lower_bound(
    pred_info: List[Tuple[Proc, float, float]],
    dst: Proc,
    hop_distance=None,
) -> float:
    """Queue-free lower bound on a task's data-ready time at ``dst``.

    ``pred_info`` holds ``(producer proc, producer finish, nominal comm
    cost)`` per predecessor. With ``hop_distance`` (a ``(src, dst) ->
    hops`` callable, valid only when every hop of a message costs its
    nominal ``c`` — homogeneous link factors — and routes have exactly
    that many hops), each arrival is bounded by the store-and-forward
    chain ``finish + c + c + ...``; the repeated addition mirrors the
    hop-by-hop float chain of a real plan, so the bound is float-exact
    (``arrival >= bound`` bit-for-bit, queueing only delays hops).
    Without ``hop_distance`` the bound degrades to the latest producer
    finish, which is always valid.

    This is the soundness-bearing kernel of DLS's candidate pruning
    (BSA bounds its candidates with :func:`arrival_bounds` or the
    producer finish instead).
    """
    lb = 0.0
    for (p, f, c) in pred_info:
        if hop_distance is not None and p != dst:
            d = hop_distance(p, dst)
            while d > 0:
                f = f + c
                d -= 1
        if f > lb:
            lb = f
    return lb


def arrival_bounds(
    sched: Schedule,
    edge: Edge,
    src: Proc,
    finish: float,
) -> List[float]:
    """Lower bound on ``edge``'s arrival at *every* processor if its
    consumer migrated there, walking committed link timelines only.

    The message leaves processor ``src`` at ``finish`` and follows the
    shortest-path trie (:func:`~repro.network.routing.shortest_path_trie`),
    one earliest-gap query per trie node. Under the insertion slot
    policy ``earliest_gap`` is monotone nondecreasing in both the ready
    time and the reservation set — extra reservations can only break a
    fit or raise the running maximum — and the real plan walks the same
    shortest paths with the same hop costs against committed-plus-
    tentative load, so each entry lower-bounds the planned arrival hop by
    hop, bit-equal to it whenever no tentative reservation shares a
    channel with the message. Only valid for shortest routes under the
    insertion policy: the append policy's "last reservation in start
    order" can move *earlier* once tentative hops are layered on.
    """
    system = sched.system
    parents, chans, lids, dst_node = shortest_path_trie(system.topology, src)
    # hot path: probe the memoized hop costs directly, as walk_path does
    comm_cache = system._comm_cache
    comm_cost = system.comm_cost
    link_timeline = sched.link_timeline
    arr: List[float] = []
    for p, ch, lid in zip(parents, chans, lids):
        ready = finish if p < 0 else arr[p]
        c = comm_cache.get((edge, lid))
        if c is None:
            c = comm_cost(edge, lid)
        arr.append(link_timeline(ch).earliest_gap(ready, c) + c)
    return [finish if n < 0 else arr[n] for n in dst_node]


def slot_start(sched: Schedule, proc: Proc, ready: float, duration: float,
               insertion: bool) -> float:
    """Earliest feasible task start on ``proc`` under the slot policy."""
    if fast_path_enabled():
        tl = sched.proc_timeline(proc)
        if insertion:
            return tl.earliest_gap(ready, duration)
        return max(ready, tl.last_finish())
    busy = sched.proc_busy(proc)
    if insertion:
        return earliest_gap(busy, ready, duration)
    last = busy[-1].finish if busy else 0.0
    return max(ready, last)
