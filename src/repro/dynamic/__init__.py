"""Event-driven rescheduling: arrivals, failures, prefix-preserving repair.

The static schedulers in :mod:`repro.core` produce compile-time
schedules; this package makes them survive run time.  See
:mod:`repro.dynamic.events` for the event model and injection,
:mod:`repro.dynamic.repair` for the committed-prefix repair engine,
:mod:`repro.dynamic.replan` for the full-tail oracle, and
:mod:`repro.dynamic.simulate` for the event loop that drives them.
"""

from repro.dynamic.events import (
    EVENT_TRACE_FORMAT,
    EVENT_TRACE_VERSION,
    Event,
    FailureInjector,
    LinkFailure,
    ProcFailure,
    Scenario,
    TaskArrival,
    events_from_dict,
    events_to_dict,
    parse_scenario,
    read_event_trace,
    sort_events,
    write_event_trace,
)
from repro.dynamic.repair import (
    RepairResult,
    alive_path,
    cone_repair,
    place_dynamic,
)
from repro.dynamic.replan import replan_tail
from repro.dynamic.simulate import (
    EVENT_LOG_FORMAT,
    EVENT_LOG_VERSION,
    EventRecord,
    SimulationResult,
    affected_work,
    prefix_fingerprint,
    simulate,
    simulate_scenario,
)
from repro.schedule.settle import tail_settle

__all__ = [
    "EVENT_TRACE_FORMAT",
    "EVENT_TRACE_VERSION",
    "EVENT_LOG_FORMAT",
    "EVENT_LOG_VERSION",
    "Event",
    "EventRecord",
    "FailureInjector",
    "LinkFailure",
    "ProcFailure",
    "RepairResult",
    "Scenario",
    "SimulationResult",
    "TaskArrival",
    "affected_work",
    "alive_path",
    "cone_repair",
    "events_from_dict",
    "events_to_dict",
    "parse_scenario",
    "place_dynamic",
    "prefix_fingerprint",
    "read_event_trace",
    "replan_tail",
    "simulate",
    "simulate_scenario",
    "sort_events",
    "tail_settle",
    "write_event_trace",
]
