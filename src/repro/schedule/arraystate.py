"""Flat-array engine state for ``REPRO_HOTPATH=array``.

The object-and-dict hot path (mode ``incremental``) tops out
around n≈400 tasks: beyond that, BSA spends its time in per-candidate
``evaluate_migration`` calls and long scalar timeline scans. The array
engine keeps the *algorithms* (and therefore the schedules, bit for bit)
identical and swaps the *state representation* under them:

* :class:`ArrayTimeline` — a :class:`~repro.util.intervals.Timeline`
  whose gap search switches to one vectorized numpy pass (subtract /
  compare / argmax over the tail) once the post-bisect tail is long
  enough to beat the scalar scan. The candidate start before reservation
  ``k`` is ``max(ready, maxf[k-1])`` — exactly the scalar loop's running
  maximum, because the bisect guarantees ``maxf[i-1] <= ready`` — so the
  float comparisons are the same operations in the same order and the
  result is bit-identical.
* :class:`ArrayState` — dense cost/route mirrors of a
  :class:`~repro.network.system.HeterogeneousSystem`, built once per
  system and cached on it: the ``n_tasks x n_procs`` execution-cost
  matrix, per-edge communication-cost rows over the canonical links
  (vectorized ``factor * c / bandwidth`` in the scalar evaluation
  order), and per-source *shortest-path tries* that merge the BFS routes
  to every destination by shared prefix so a committed-state arrival
  bound for all candidate processors costs one gap search per trie node
  instead of one full route walk per destination.

:func:`ArrayState.arrival_bounds` is the soundness-bearing kernel of the
batched candidate evaluator in :mod:`repro.core.bsa`: it walks a
predecessor's message over the *committed* link timelines only (no
planner extras). ``earliest_gap`` under insertion is monotone
nondecreasing in both the ready time and the reservation set — extra
reservations can only break a fit or raise the running maximum, never
admit an earlier start — so the committed walk lower-bounds the planned
arrival hop by hop, and is bit-equal to it whenever the plan's own
tentative reservations don't share a channel with the message (the
common case). See ``_evaluate_candidates_array`` for how the bounds
become pruning masks without changing the selected plan.

This module is the only engine module that imports numpy at the top
level; it is imported only when the ``array`` mode is active (the mode
switch in :mod:`repro.util.intervals` refuses ``array`` without numpy,
and every other mode stays numpy-free).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro.network.routing import shortest_path
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import Link, Proc
from repro.obs import counters as _obs
from repro.schedule.events import Edge
from repro.util.intervals import Timeline
from repro.util.tolerance import EPS

__all__ = ["ArrayTimeline", "ArrayState", "get_array_state"]


class ArrayTimeline(Timeline):
    """A :class:`Timeline` with a vectorized long-tail gap search.

    Short scans (the common case once the bisect has skipped everything
    finished before ``ready``) stay on the scalar loop — numpy's per-op
    overhead only pays off past a few dozen reservations. The numpy
    mirrors of the start / running-max-finish arrays are built lazily on
    the first long query and reused for the timeline's lifetime (the
    schedule rebuilds timelines on mutation, so they are immutable
    here).
    """

    # the numpy mirrors are left unset until the first long query (an
    # unset slot raises AttributeError) — timelines are rebuilt on every
    # mutation, so a per-construction cost would dwarf the savings
    __slots__ = ("_np_starts", "_np_maxf")

    #: tail length at which the vectorized pass beats the scalar scan
    VEC_MIN = 48

    def earliest_gap(self, ready: float, duration: float) -> float:
        if duration < -EPS:
            raise ValueError(f"negative duration {duration}")
        t = ready if ready > 0.0 else 0.0
        if duration <= EPS:
            return t
        starts, finishes, maxf = self.starts, self.finishes, self._maxf
        n = len(starts)
        i = bisect_right(maxf, t)
        # Scalar prefix first: most queries fit within a few reservations
        # of the bisect point and the scalar loop exits at the first fit,
        # whereas a vectorized pass always pays for the whole tail. Only
        # a congested query that survives the prefix (no gap for VEC_MIN
        # reservations) falls through to the one-shot numpy pass.
        stop = i + self.VEC_MIN
        scan_all = stop >= n
        if scan_all:
            stop = n
        while i < stop:
            if t + duration - starts[i] <= EPS:
                return t
            f = finishes[i]
            if f > t:
                t = f
            i += 1
        if scan_all:
            return t
        try:
            nps = self._np_starts
        except AttributeError:
            nps = self._np_starts = np.asarray(starts)
            self._np_maxf = np.asarray(maxf)
        npm = self._np_maxf
        # Candidate start before reservation k (k in [i, n)): the scalar
        # loop's running maximum of t over finishes[..k-1], which equals
        # max(t, maxf[k-1]) because maxf is the running maximum and every
        # reservation before i was already folded into t. Same floats,
        # same `t + duration - starts[k] <= EPS` fit test — the first
        # fitting index is exactly where the scalar loop would return,
        # and with no fit both return max(t, maxf[-1]).
        cand = np.empty(n - i)
        cand[0] = t
        np.maximum(npm[i:n - 1], t, out=cand[1:])
        fits = cand + duration - nps[i:] <= EPS
        j = int(fits.argmax())
        if fits[j]:
            return float(cand[j])
        last = maxf[-1]
        return last if last > t else t

    def earliest_gap_merged(
        self,
        ready: float,
        duration: float,
        extra_starts: List[float],
        extra_finishes: List[float],
    ) -> float:
        # no tentative reservations on this link yet (the common case on
        # the first touch of each link in a plan): the two-pointer walk
        # degenerates to the base walk, which the vectorized search
        # answers identically
        if not extra_starts:
            return self.earliest_gap(ready, duration)
        return Timeline.earliest_gap_merged(
            self, ready, duration, extra_starts, extra_finishes
        )


class ArrayState:
    """Dense cost/route mirrors of one system, for the array engine.

    Built lazily via :func:`get_array_state` and cached on the system
    object; rebuilt automatically when the task set grows (dynamic
    arrivals register new tasks and cost rows before rescheduling).
    Communication-cost rows and path tries are themselves filled
    lazily per edge / per source processor, so corpus-scale systems only
    materialize what the scheduler actually touches.
    """

    def __init__(self, system: HeterogeneousSystem):
        self.system = system
        graph = system.graph
        topology = system.topology
        self._graph = graph
        self._topology = topology
        self.n_procs = topology.n_procs
        self._n_tasks = len(graph._index)
        # dense execution-cost matrix: row order == graph.task_index
        # order (insertion order), values shared bit-for-bit with the
        # system's per-task tuples
        self.exec_matrix = np.asarray(
            [system._exec[t] for t in graph.tasks()], dtype=float
        )
        self._task_index = graph.task_index
        # canonical links in a stable order; per-edge comm rows index
        # into this via the column map
        self._lids: List[Link] = sorted({
            (a, b) if a < b else (b, a) for (a, b) in topology.channels()
        })
        self._col: Dict[Link, int] = {l: k for k, l in enumerate(self._lids)}
        self._bw = np.asarray(
            [topology.bandwidth(*l) for l in self._lids], dtype=float
        )
        if system.link_mode is LinkHeterogeneity.PER_LINK:
            self._factors = np.asarray(
                [system._per_link[l] for l in self._lids], dtype=float
            )
        elif system.link_mode is LinkHeterogeneity.HOMOGENEOUS:
            self._factors = np.ones(len(self._lids))
        else:
            # PER_MESSAGE_LINK factors are hash-materialized per
            # (edge, link) — no row structure to vectorize; comm_row
            # returns None and callers fall back to the memoized scalar
            self._factors = None
        self._comm_rows: Dict[Edge, Optional[List[float]]] = {}
        self._tries: Dict[Proc, tuple] = {}

    # ------------------------------------------------------------------
    def valid_for(self, system: HeterogeneousSystem) -> bool:
        """Still mirrors ``system``? (Graph/topology identity + task
        count; edges need no stamp — comm rows are filled per edge.)"""
        return (
            self._graph is system.graph
            and self._topology is system.topology
            and self._n_tasks == len(system.graph._index)
        )

    def exec_row(self, task) -> np.ndarray:
        """Execution-cost row of ``task`` over all processors (a view)."""
        return self.exec_matrix[self._task_index(task)]

    def comm_row(self, edge: Edge) -> Optional[List[float]]:
        """Hop cost of ``edge`` on every canonical link, as a plain list
        (scalar indexing in the walk loops must not pay numpy overhead).

        The vectorized build performs ``(factor * c) / bandwidth``
        elementwise — the same two IEEE operations, in the same order,
        as :meth:`HeterogeneousSystem.comm_cost` — so every entry is
        bit-equal to the scalar lookup. ``None`` in ``per_message_link``
        mode (callers fall back to the memoized scalar path).
        """
        row = self._comm_rows.get(edge)
        if row is None and edge not in self._comm_rows:
            if self._factors is None:
                row = None
            else:
                c = self._graph.comm_cost(*edge)
                row = ((self._factors * c) / self._bw).tolist()
            self._comm_rows[edge] = row
        return row

    # ------------------------------------------------------------------
    def trie(self, src: Proc) -> tuple:
        """Shortest-path trie rooted at ``src``: the BFS routes to every
        destination, merged by shared (parent, hop) prefix.

        Returns ``(parents, chans, cols, dst_node)`` parallel arrays:
        node ``k`` is one directed hop whose message leaves the finish
        of node ``parents[k]`` (or the producer, for roots ``-1``),
        reserves on channel ``chans[k]`` and costs the edge's comm row
        at column ``cols[k]``; ``dst_node[d]`` is the terminal node of
        the route to ``d`` (``-1`` for ``src`` itself). Identical
        prefixes produce identical float chains, so merging them loses
        nothing — and needs no path-consistency assumption.
        """
        hit = self._tries.get(src)
        if hit is None:
            if _obs.ACTIVE:
                _obs.inc("route.trie_misses")
            hit = self._tries[src] = self._build_trie(src)
        elif _obs.ACTIVE:
            _obs.inc("route.trie_hits")
        return hit

    def _build_trie(self, src: Proc) -> tuple:
        topology = self._topology
        channel_of = topology._channel
        col_of = self._col
        parents: List[int] = []
        chans: List[Link] = []
        cols: List[int] = []
        dst_node = [-1] * self.n_procs
        index: Dict[tuple, int] = {}
        for dst in topology.processors:
            if dst == src:
                continue
            node = -1
            path = shortest_path(topology, src, dst)
            for a, b in zip(path, path[1:]):
                key = (node, a, b)
                nxt = index.get(key)
                if nxt is None:
                    nxt = len(parents)
                    index[key] = nxt
                    parents.append(node)
                    chans.append(channel_of[(a, b)])
                    cols.append(col_of[(a, b) if a < b else (b, a)])
                node = nxt
            dst_node[dst] = node
        return parents, chans, cols, dst_node

    def arrival_bounds(
        self,
        sched,
        edge: Edge,
        src: Proc,
        finish: float,
        insertion: bool,
        tl_memo: Optional[Dict[Link, Timeline]] = None,
    ) -> List[float]:
        """Lower bound on ``edge``'s arrival at *every* processor if its
        consumer migrated there, walking committed link timelines only.

        One earliest-gap query per trie node. Sound because the real
        plan walks the same paths with the same hop costs against
        committed-plus-tentative load and a ready time at least as
        large; exact whenever no tentative reservation shares a channel
        with this message. Only valid under the insertion slot policy —
        the append policy's "last reservation in start order" can move
        *earlier* when tentative hops are layered on, so callers must
        not use these bounds with ``insertion=False``.

        ``tl_memo`` (channel -> timeline) skips the schedule's stamped
        timeline-cache probe on repeat channels; callers batching many
        walks against one committed state share one dict across them.
        """
        if not insertion:  # pragma: no cover - guarded by the evaluator
            raise ValueError("arrival bounds require the insertion policy")
        parents, chans, cols, dst_node = self.trie(src)
        row = self.comm_row(edge)
        comm_cost = self.system.comm_cost
        lids = self._lids
        link_timeline = sched.link_timeline
        memo_get = tl_memo.get if tl_memo is not None else None
        arr: List[float] = []
        for k in range(len(parents)):
            p = parents[k]
            ready = finish if p < 0 else arr[p]
            c = row[cols[k]] if row is not None else comm_cost(edge, lids[cols[k]])
            ch = chans[k]
            if memo_get is not None:
                tl = memo_get(ch)
                if tl is None:
                    tl = tl_memo[ch] = link_timeline(ch)
            else:
                tl = link_timeline(ch)
            arr.append(tl.earliest_gap(ready, c) + c)
        return [finish if n < 0 else arr[n] for n in dst_node]


def get_array_state(system: HeterogeneousSystem) -> ArrayState:
    """The system's cached :class:`ArrayState`, (re)built when stale."""
    state = system.__dict__.get("_array_state")
    if state is None or not state.valid_for(system):
        state = ArrayState(system)
        system.__dict__["_array_state"] = state
    return state
