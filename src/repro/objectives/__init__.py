"""Multi-criteria objectives: makespan, energy, reliability, throughput.

See :mod:`repro.objectives.registry` for the registry/token grammar and
Pareto helpers, and the per-objective modules for the models. All
evaluators are pure deterministic reductions over committed schedules —
the engine's byte-identity contract with the ``legacy`` oracle extends
through them.
"""

from repro.objectives.energy import PowerModel, schedule_energy
from repro.objectives.registry import (
    OBJECTIVE_NAMES,
    OBJECTIVE_SENSES,
    dominates,
    evaluate_objectives,
    objectives_token,
    pareto_front,
    parse_objectives,
)
from repro.objectives.reliability import ReliabilityModel, schedule_reliability
from repro.objectives.throughput import bottleneck_busy_times, schedule_throughput

__all__ = [
    "OBJECTIVE_NAMES",
    "OBJECTIVE_SENSES",
    "parse_objectives",
    "objectives_token",
    "evaluate_objectives",
    "dominates",
    "pareto_front",
    "PowerModel",
    "schedule_energy",
    "ReliabilityModel",
    "schedule_reliability",
    "schedule_throughput",
    "bottleneck_busy_times",
]
