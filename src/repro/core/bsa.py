"""The BSA main loop (paper §2.3, "BSA ALGORITHM").

1. Pick the first pivot (shortest actual-cost CP) and serialize the whole
   program onto it.
2. Visit every processor once, breadth-first from the first pivot.
3. While a processor is pivot, consider each task on it (in schedule
   order, which the serialization made topological): a task is examined
   when it starts later than its data-ready time or its VIP lives
   elsewhere; it migrates to the neighbor minimizing its finish time, or —
   when no neighbor strictly improves FT — to a neighbor that matches the
   current FT *and* hosts its VIP (so successors may improve later).

Options expose the paper's ambiguities and our ablations:

* ``migration_trigger``: ``"always"`` (default — the ICPP text's literal
  examination condition ``FT > DRT``, which is vacuously true for
  positive-cost tasks, so every task on the pivot is examined) or
  ``"st_gt_drt"`` (the journal formulation: examine only tasks that
  start strictly after their data is ready or whose VIP lives
  elsewhere). The default follows the source (ICPP 1999) paper; the
  journal variant is kept as an ablation. A regression test pins the
  default (``tests/test_bsa.py::TestOptions``).
* ``vip_follow``: disable the equal-FT VIP-following heuristic.
* ``insertion``: earliest-gap insertion vs pure append (ablation).
* ``truncate_routes``: disable route truncation (ablation; routes then
  always extend hop-by-hop, possibly doubling back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, CycleError
from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.routing import shortest_path
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import Proc
from repro.obs import counters as _obs
from repro.core.migration import (
    MigrationPlan,
    commit_migration,
    current_drt_vip,
    evaluate_migration,
)
from repro.core.serialization import PivotSelection, serial_injection
from repro.schedule.linkplan import arrival_lower_bound
from repro.schedule.schedule import Schedule
from repro.util.intervals import array_enabled, fast_path_enabled
from repro.util.rng import RngStream
from repro.util.tolerance import EPS as _EPS

_TRIGGERS = ("st_gt_drt", "always")


@dataclass(frozen=True)
class BSAOptions:
    """Tunable knobs of the BSA scheduler (defaults follow the paper)."""

    #: "always" is the ICPP text's literal (and vacuously true) FT > DRT
    #: examination condition — the paper-faithful default; "st_gt_drt" is
    #: the journal formulation, kept as an ablation (see module docstring)
    migration_trigger: str = "always"
    vip_follow: bool = True
    insertion: bool = True
    truncate_routes: bool = True
    #: "shortest" (default) rebuilds message routes over on-demand BFS
    #: shortest paths on every migration; "incremental" is the ICPP text's
    #: literal hop-by-hop extension (ablation; routes wander and inflate
    #: communication — see EXPERIMENTS.md).
    route_mode: str = "shortest"
    #: "global" (default) lets a task migrate to *any* processor (messages
    #: still pay full multi-hop contention along shortest routes);
    #: "neighbors" is the ICPP text's literal one-hop scope (ablation; on
    #: sparse topologies the migration frontier freezes a few hops from
    #: the first pivot and most processors stay empty — see EXPERIMENTS.md).
    migration_scope: str = "global"
    #: how many breadth-first sweeps over all processors to run. The ICPP
    #: pseudocode describes a single sweep; ``0`` means "sweep until a full
    #: pass makes no migration" (capped at ``n_procs`` sweeps), which the
    #: prose's "this incremental scheduling by migration process is
    #: repeated" supports and which is required to reproduce the paper's
    #: relative results (see DESIGN.md interpretation notes).
    n_sweeps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.migration_trigger not in _TRIGGERS:
            raise ConfigurationError(
                f"migration_trigger must be one of {_TRIGGERS}, "
                f"got {self.migration_trigger!r}"
            )
        if self.n_sweeps < 0:
            raise ConfigurationError(f"n_sweeps must be >= 0, got {self.n_sweeps}")
        from repro.core.migration import ROUTE_MODES

        if self.route_mode not in ROUTE_MODES:
            raise ConfigurationError(
                f"route_mode must be one of {ROUTE_MODES}, got {self.route_mode!r}"
            )
        if self.migration_scope not in ("global", "neighbors"):
            raise ConfigurationError(
                f"migration_scope must be 'global' or 'neighbors', "
                f"got {self.migration_scope!r}"
            )
        if self.migration_scope == "global" and self.route_mode == "incremental":
            raise ConfigurationError(
                "migration_scope='global' requires route_mode='shortest' "
                "(incremental routes are only defined for one-hop moves)"
            )


@dataclass
class BSAStats:
    """Run statistics (exposed for tests, ablations and reports)."""

    pivot_sequence: List[Proc] = field(default_factory=list)
    first_pivot: Proc = -1
    n_examined: int = 0
    n_evaluated: int = 0
    #: candidates skipped by the fast path's exact lower-bound pruning
    #: (always 0 in legacy hot-path mode)
    n_pruned: int = 0
    n_migrations: int = 0
    n_vip_migrations: int = 0
    n_rejected_migrations: int = 0
    n_sweeps_run: int = 0
    serial_length: float = 0.0


class BSAScheduler:
    """Bubble Scheduling and Allocation over one bound system."""

    def __init__(self, system: HeterogeneousSystem, options: Optional[BSAOptions] = None):
        self.system = system
        self.options = options or BSAOptions()
        self.stats = BSAStats()
        self.selection: Optional[PivotSelection] = None

    def run(self) -> Schedule:
        """Produce a complete, settled schedule."""
        validate_graph(self.system.graph)
        rng = RngStream(self.options.seed).fork("bsa", self.system.graph.name)

        self.selection, sched = serial_injection(self.system, rng)
        sched.algorithm = "BSA"
        self.stats.first_pivot = self.selection.pivot
        self.stats.serial_length = sched.schedule_length()

        pivots = self.system.topology.bfs_order(self.selection.pivot)
        self.stats.pivot_sequence = pivots
        max_sweeps = self.options.n_sweeps or self.system.topology.n_procs
        until_stable = self.options.n_sweeps == 0

        # Per-task FT greed does not guarantee a shorter *makespan* (a
        # producer may migrate for its own finish time and strand a
        # consumer behind an expensive message), so keep the best schedule
        # seen at sweep boundaries — including the initial serialization.
        best = sched.copy()
        best_sl = sched.schedule_length()
        for sweep in range(max_sweeps):
            migrations_before = self.stats.n_migrations
            for pivot in pivots:
                self._run_phase(sched, pivot)
            self.stats.n_sweeps_run = sweep + 1
            sl = sched.schedule_length()
            if sl < best_sl - _EPS:
                best = sched.copy()
                best_sl = sl
            if until_stable and self.stats.n_migrations == migrations_before:
                break
        if _obs.ACTIVE:
            # fold the run's BSAStats into the process counter registry
            # once, at the end — zero per-candidate overhead
            s = self.stats
            _obs.inc("bsa.tasks_examined", s.n_examined)
            _obs.inc("bsa.candidates_evaluated", s.n_evaluated)
            _obs.inc("bsa.candidates_pruned", s.n_pruned)
            _obs.inc("bsa.migrations", s.n_migrations)
            _obs.inc("bsa.vip_migrations", s.n_vip_migrations)
            _obs.inc("bsa.rejected_migrations", s.n_rejected_migrations)
            _obs.inc("bsa.sweeps", s.n_sweeps_run)
        return best if best_sl < sched.schedule_length() - _EPS else sched

    # ------------------------------------------------------------------
    def _run_phase(self, sched: Schedule, pivot: Proc) -> None:
        if self.options.migration_scope == "global":
            neighbors = [p for p in self.system.topology.processors if p != pivot]
        else:
            neighbors = self.system.topology.neighbors(pivot)
        if not neighbors:
            return
        # snapshot: schedule order on the pivot at phase start (topological)
        for task in list(sched.proc_order[pivot]):
            if sched.proc_of(task) != pivot:
                continue  # defensive: cannot happen within a phase
            if not self._should_examine(sched, task, pivot):
                continue
            self.stats.n_examined += 1
            self._try_migrate(sched, task, pivot, neighbors)

    def _should_examine(self, sched: Schedule, task: TaskId, pivot: Proc) -> bool:
        if self.options.migration_trigger == "always":
            return True
        drt, vip = current_drt_vip(sched, task)
        slot = sched.slots[task]
        if slot.start > drt + _EPS:
            return True
        return vip is not None and sched.proc_of(vip) != pivot

    def _try_migrate(
        self,
        sched: Schedule,
        task: TaskId,
        pivot: Proc,
        neighbors: List[Proc],
    ) -> None:
        opts = self.options
        current_ft = sched.slots[task].finish
        vip = None
        if array_enabled():
            plans, best, vip = self._evaluate_candidates_array(
                sched, task, pivot, neighbors
            )
        elif fast_path_enabled():
            # the pruned evaluator already derives the VIP for its
            # must-evaluate rule; reuse it rather than re-scanning
            # predecessor arrivals below
            plans, best, vip = self._evaluate_candidates_pruned(
                sched, task, pivot, neighbors
            )
        else:
            plans = []
            for nb in neighbors:
                plans.append(
                    evaluate_migration(
                        sched, task, nb,
                        insertion=opts.insertion, truncate=opts.truncate_routes,
                        route_mode=opts.route_mode,
                    )
                )
                self.stats.n_evaluated += 1
            best = min(plans, key=lambda p: (p.ft, p.dst))
            if opts.vip_follow:
                _, vip = current_drt_vip(sched, task)

        # the array evaluator may mask out *every* candidate (each bound
        # already proves the plan cannot win) and return best=None; the
        # other evaluators always produce at least one plan
        if best is not None and best.ft < current_ft - _EPS:
            self._commit_transactional(sched, best)
            return

        if not opts.vip_follow:
            return
        if vip is None or sched.proc_of(vip) == pivot:
            return
        vip_proc = sched.proc_of(vip)
        for plan in plans:
            if plan.dst == vip_proc and plan.ft <= current_ft + _EPS:
                if self._commit_transactional(sched, plan):
                    self.stats.n_vip_migrations += 1
                return

    def _evaluate_candidates_pruned(
        self,
        sched: Schedule,
        task: TaskId,
        pivot: Proc,
        neighbors: List[Proc],
    ) -> Tuple[List[MigrationPlan], MigrationPlan, Optional[TaskId]]:
        """Evaluate candidate destinations with sound lower-bound pruning.

        Every plan's finish time satisfies ``ft >= DRT_lb +
        exec_cost(task, dst)``: each message arrives no earlier than its
        producer finishes plus (in the homogeneous-link shortest-route
        case) the queue-free store-and-forward chain over its exact hop
        count — hop durations and queueing delays are non-negative, and
        truncated incremental routes reuse hops settled after the
        producer. A candidate is skipped only when its bound exceeds the
        best evaluated finish time by more than ``_EPS``, which keeps the
        selected plan (and hence the schedule) bit-identical to
        exhaustive evaluation.

        Candidates are visited in ascending bound order so a strong
        incumbent is found early; the VIP's processor is always evaluated
        because the VIP-follow step needs its exact plan even when it
        cannot win on finish time.
        """
        opts = self.options
        system = self.system
        graph = system.graph
        slots = sched.slots
        topology = system.topology

        pred_info = [
            (sched.proc_of(k), slots[k].finish, graph.comm_cost(k, task))
            for k in graph.predecessors(task)
        ]
        # With homogeneous link factors AND uniform unit bandwidth every
        # hop of a message costs its nominal c_ij, and in "shortest" mode
        # the planned path has exactly dist(producer, dst) hops — so the
        # no-queueing arrival chain (see linkplan.arrival_lower_bound) is
        # a per-destination lower bound. Heterogeneous links, skewed
        # bandwidths (where a fast link makes hops *cheaper* than c_ij,
        # breaking the bound) or incremental routes fall back to the
        # producer-finish bound. Duplex mode is irrelevant: it only
        # changes queueing, which the bound already ignores.
        distance_bound = (
            opts.route_mode == "shortest"
            and system.link_mode is LinkHeterogeneity.HOMOGENEOUS
            and topology.uniform_bandwidth
        )
        finish_lb = 0.0
        for (_, f, _) in pred_info:
            if f > finish_lb:
                finish_lb = f

        vip: Optional[TaskId] = None
        vip_proc: Optional[Proc] = None
        if opts.vip_follow:
            _, vip = current_drt_vip(sched, task)
            if vip is not None:
                vip_proc = sched.proc_of(vip)

        exec_cost = system.exec_cost
        hop_distance = (
            (lambda p, nb: len(shortest_path(topology, p, nb)) - 1)
            if distance_bound else None
        )
        bounds = []
        for nb in neighbors:
            if distance_bound:
                drt_lb = arrival_lower_bound(pred_info, nb, hop_distance)
            else:
                drt_lb = finish_lb
            bounds.append((drt_lb + exec_cost(task, nb), nb))
        bounds.sort()

        plans: List[MigrationPlan] = []
        best: Optional[MigrationPlan] = None
        for bound, nb in bounds:
            # the EPS (1e-9) margin absorbs the evaluator's DRT_EPS
            # (1e-12) epsilon-max in DRT selection (both live in
            # util/tolerance.py); candidates inside the margin are simply
            # evaluated, so pruning never changes the selected plan
            if best is not None and nb != vip_proc and bound > best.ft + _EPS:
                self.stats.n_pruned += 1
                continue
            plan = evaluate_migration(
                sched, task, nb,
                insertion=opts.insertion, truncate=opts.truncate_routes,
                route_mode=opts.route_mode,
            )
            self.stats.n_evaluated += 1
            plans.append(plan)
            if best is None or (plan.ft, plan.dst) < (best.ft, best.dst):
                best = plan
        return plans, best, vip

    def _evaluate_candidates_array(
        self,
        sched: Schedule,
        task: TaskId,
        pivot: Proc,
        neighbors: List[Proc],
    ) -> Tuple[List[MigrationPlan], Optional[MigrationPlan], Optional[TaskId]]:
        """Batched candidate evaluation on the flat-array state.

        Per predecessor, one committed-state trie walk
        (:meth:`~repro.schedule.arraystate.ArrayState.arrival_bounds`)
        lower-bounds the message's arrival at *every* processor at once;
        a vectorized add of the task's execution-cost row turns those
        into per-candidate finish-time bounds, and boolean masks discard
        every candidate whose bound already proves its plan can neither
        beat the current finish time nor serve the VIP-follow step.
        Survivors are evaluated exactly, cheapest bound first, with the
        same incumbent prune as :meth:`_evaluate_candidates_pruned`.

        Soundness margin: the exact evaluator's DRT is an epsilon-max
        (within ``DRT_EPS`` = 1e-12 *below* the plain max), so a bound
        may overshoot the true plan finish time by at most ``DRT_EPS``;
        every mask and prune here leaves at least ``_EPS`` (1e-9) of
        slack, so a discarded candidate's exact plan provably loses every
        comparison ``_try_migrate`` performs — the selected migration
        (and the schedule) stays bit-identical to exhaustive evaluation.
        Unlike the distance bound in the pruned evaluator, the committed
        walk is valid for heterogeneous links and skewed bandwidths; it
        requires only shortest routes and the insertion slot policy
        (append-mode last-reservation finishes are not monotone under
        the planner's tentative extras), so the other ablations fall
        back to the pruned evaluator.
        """
        opts = self.options
        if opts.route_mode != "shortest" or not opts.insertion:
            return self._evaluate_candidates_pruned(sched, task, pivot, neighbors)

        import numpy as np

        from repro.schedule.arraystate import get_array_state

        system = self.system
        graph = system.graph
        slots = sched.slots
        state = get_array_state(system)

        vip: Optional[TaskId] = None
        vip_proc: Optional[Proc] = None
        if opts.vip_follow:
            _, vip = current_drt_vip(sched, task)
            if vip is not None:
                vip_proc = sched.proc_of(vip)

        current_ft = slots[task].finish
        proc_of = sched.proc_of

        drt_lb: Optional[np.ndarray] = None
        tl_memo: Dict = {}
        for k in graph.predecessors(task):
            kb = np.asarray(state.arrival_bounds(
                sched, (k, task), proc_of(k), slots[k].finish, opts.insertion,
                tl_memo,
            ))
            if drt_lb is None:
                drt_lb = kb
            else:
                np.maximum(drt_lb, kb, out=drt_lb)

        exec_row = state.exec_row(task)
        ft_bounds = exec_row if drt_lb is None else drt_lb + exec_row

        nb_arr = np.fromiter(neighbors, dtype=np.intp, count=len(neighbors))
        b = ft_bounds[nb_arr]
        keep = b < current_ft
        if vip_proc is not None:
            # the VIP-follow step needs the VIP processor's exact plan
            # whenever it could still tie the current finish time
            keep |= (nb_arr == vip_proc) & (b <= current_ft + 2 * _EPS)
        kept = int(np.count_nonzero(keep))
        self.stats.n_pruned += len(neighbors) - kept
        if kept == 0:
            return [], None, vip

        nb_kept = nb_arr[keep]
        b_kept = b[keep]
        # ascending (bound, dst) — the same visit order bounds.sort()
        # gives the pruned evaluator
        order = np.lexsort((nb_kept, b_kept))

        plans: List[MigrationPlan] = []
        best: Optional[MigrationPlan] = None
        for idx in order:
            nb = int(nb_kept[idx])
            if (
                best is not None
                and nb != vip_proc
                and b_kept[idx] > best.ft + _EPS
            ):
                self.stats.n_pruned += 1
                continue
            plan = evaluate_migration(
                sched, task, nb,
                insertion=opts.insertion, truncate=opts.truncate_routes,
                route_mode=opts.route_mode,
            )
            self.stats.n_evaluated += 1
            plans.append(plan)
            if best is None or (plan.ft, plan.dst) < (best.ft, best.dst):
                best = plan
        return plans, best, vip

    def _commit_transactional(self, sched: Schedule, plan: MigrationPlan) -> bool:
        """Commit a migration; revert and reject it if the resulting order
        constraints are contradictory (possible after multi-phase reroutes
        leave stale slot positions — rare, but must never corrupt state).

        Rollback machinery by engine mode: ``incremental`` and ``array``
        record an undo log of the actual mutations (O(#mutations), no
        per-commit capture cost); ``legacy``, the reference oracle,
        deep-copies the schedule.
        """
        if fast_path_enabled():
            txn = sched.begin_txn()
            try:
                commit_migration(
                    sched, plan,
                    insertion=self.options.insertion,
                    truncate=self.options.truncate_routes,
                )
            except CycleError:
                txn.rollback()
                self.stats.n_rejected_migrations += 1
                return False
            sched.commit_txn()
            self.stats.n_migrations += 1
            return True

        snapshot = sched.copy()
        try:
            commit_migration(
                sched, plan,
                insertion=self.options.insertion,
                truncate=self.options.truncate_routes,
            )
        except CycleError:
            sched.restore_from(snapshot)
            self.stats.n_rejected_migrations += 1
            return False
        self.stats.n_migrations += 1
        return True


def schedule_bsa(
    system: HeterogeneousSystem,
    options: Optional[BSAOptions] = None,
) -> Schedule:
    """Convenience wrapper: run BSA and return the schedule.

    The schedule is complete (every task placed, every message routed)
    and identical across the three ``REPRO_HOTPATH`` engine modes.

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_bsa(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('BSA', 12)
    """
    return BSAScheduler(system, options).run()
