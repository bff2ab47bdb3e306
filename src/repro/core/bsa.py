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
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, CycleError
from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.system import HeterogeneousSystem
from repro.network.topology import Proc
from repro.obs import counters as _obs
from repro.core.migration import (
    MigrationPlan,
    commit_migration,
    current_drt_vip,
    evaluate_migration,
)
from repro.core.serialization import PivotSelection, serial_injection
from repro.schedule.linkplan import arrival_bounds
from repro.schedule.schedule import Schedule
from repro.util.intervals import fast_path_enabled
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
    #: candidates skipped by the indexed engine's lower-bound screen
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
        if fast_path_enabled():
            # the screened evaluator already derives the VIP for its
            # must-evaluate rule; reuse it rather than re-scanning
            # predecessor arrivals below
            plans, best, vip = self._evaluate_candidates(sched, task, neighbors)
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

        # the screened evaluator may mask out *every* candidate (each
        # bound already proves the plan cannot win) and return best=None;
        # the exhaustive legacy evaluator always produces every plan
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

    def _evaluate_candidates(
        self,
        sched: Schedule,
        task: TaskId,
        neighbors: List[Proc],
    ) -> Tuple[List[MigrationPlan], Optional[MigrationPlan], Optional[TaskId]]:
        """Evaluate candidate destinations behind a sound lower-bound screen.

        Every plan's finish time satisfies ``ft >= DRT_lb +
        exec_cost(task, dst)``, with ``DRT_lb`` taken from the first case
        that applies:

        * shortest routes with insertion — per predecessor, one walk of
          the message over the *committed* link timelines to every
          processor at once (:func:`~repro.schedule.linkplan.
          arrival_bounds`); valid for heterogeneous links and skewed
          bandwidths;
        * otherwise — the latest producer finish (hop durations and
          queueing delays are non-negative, and truncated incremental
          routes reuse hops settled after the producer).

        A candidate whose bound can neither beat the current finish time
        nor serve the VIP-follow step is masked out; the survivors are
        evaluated exactly in ascending ``(bound, dst)`` order, skipping
        any (other than the VIP's processor, whose exact plan VIP-follow
        needs) whose bound exceeds the best evaluated finish time by
        more than ``_EPS``. The mask may leave no candidate, in which
        case ``best`` is ``None``.

        Soundness margin: the exact evaluator's DRT is an epsilon-max
        (within ``DRT_EPS`` = 1e-12 *below* the plain max), so a bound
        may overshoot the true plan finish time by at most ``DRT_EPS``;
        every mask and prune here leaves at least ``_EPS`` (1e-9) of
        slack, so a skipped candidate's exact plan provably loses every
        comparison ``_try_migrate`` performs — the selected migration
        (and the schedule) stays bit-identical to exhaustive evaluation.
        """
        opts = self.options
        system = self.system
        slots = sched.slots
        proc_of = sched.proc_of
        preds = system.graph.predecessors(task)

        vip: Optional[TaskId] = None
        vip_proc: Optional[Proc] = None
        if opts.vip_follow:
            _, vip = current_drt_vip(sched, task)
            if vip is not None:
                vip_proc = proc_of(vip)

        if opts.route_mode == "shortest" and opts.insertion:
            walks = [
                arrival_bounds(sched, (k, task), proc_of(k), slots[k].finish)
                for k in preds
            ]
            drt_lb = [max(arrivals) for arrivals in zip(*walks)] or None
        else:
            drt_lb = None
        if drt_lb is None:
            finish_lb = max((slots[k].finish for k in preds), default=0.0)

        exec_row = system.exec_cost_row(task)
        current_ft = slots[task].finish
        bounds = []
        for nb in neighbors:
            b = (finish_lb if drt_lb is None else drt_lb[nb]) + exec_row[nb]
            if b < current_ft or (nb == vip_proc and b <= current_ft + 2 * _EPS):
                bounds.append((b, nb))
        self.stats.n_pruned += len(neighbors) - len(bounds)
        bounds.sort()

        plans: List[MigrationPlan] = []
        best: Optional[MigrationPlan] = None
        for bound, nb in bounds:
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

    def _commit_transactional(self, sched: Schedule, plan: MigrationPlan) -> bool:
        """Commit a migration; revert and reject it if the resulting order
        constraints are contradictory (possible after multi-phase reroutes
        leave stale slot positions — rare, but must never corrupt state).

        Rollback machinery by engine mode: ``incremental`` records an
        undo log of the actual mutations (O(#mutations), no
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
    and byte-identical to the one the test-only ``legacy`` oracle
    builds.

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
