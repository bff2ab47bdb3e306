"""Full tail replan — the repair engine's quality/cost oracle.

Where :func:`repro.dynamic.repair.cone_repair` touches only the tasks
an event actually displaced, :func:`replan_tail` throws away the whole
tail (every slot with ``start >= frontier``) and rebuilds it from
scratch with the same deterministic placement primitive.  It is a
strict superset of the cone repair's work, which gives the benchmark
its claim: repair wall-clock <= replan wall-clock by construction,
and the makespan ratio quantifies what the cheaper repair gives up.

It is also the fallback: when a cone repair cannot produce a
validator-clean schedule (e.g. the insertion estimates chase each
other into a contradictory order), the simulator replans the tail
instead — same frontier, same prefix-preservation guarantees.
"""

from __future__ import annotations

from repro.errors import CycleError, RoutingError, SchedulingError
from repro.dynamic.repair import RepairResult, _finalize, place_dynamic
from repro.schedule.settle import tail_settle

__all__ = ["replan_tail"]


def replan_tail(sched, frontier, dead_procs, dead_links) -> RepairResult:
    """Remove and re-place every tail task (plus unscheduled arrivals).

    Tasks are re-placed in ``(old start, graph index)`` order — in a
    settled schedule a predecessor always starts strictly before its
    consumer, so data producers are re-placed first; arrivals (never
    scheduled, so no old start) go last, in graph-insertion order.
    Rolls back to the exact pre-call state on any failure.
    """
    graph = sched.system.graph
    tail = [t for t, s in sched.slots.items() if s.start >= frontier]
    tail.sort(key=lambda t: (sched.slots[t].start, graph.task_index(t)))
    newcomers = [t for t in graph.tasks() if t not in sched.slots]
    order = tail + newcomers

    txn = sched.begin_txn()
    try:
        for t in tail:
            sched.remove_task(t)
        pending = set(order)
        for t in order:
            place_dynamic(sched, t, frontier, dead_procs, dead_links, pending)
            pending.discard(t)
        tail_settle(sched, frontier)
    except (SchedulingError, RoutingError, CycleError) as exc:
        txn.rollback()
        return RepairResult(False, "replan",
                            error=f"{type(exc).__name__}: {exc}")
    return _finalize(sched, txn, "replan", order, [])
