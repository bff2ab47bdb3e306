"""Pareto-front sweep: one workload, every scheduler, many objectives.

:func:`run_pareto` fixes a (graph, platform) cell and runs each
requested algorithm on it, scoring every committed schedule against the
requested objective set (:mod:`repro.objectives`). The result is a
deterministic artifact document: points in algorithm order, objective
values in canonical order, and the non-dominated front.

Determinism. Cells flow through :func:`~repro.experiments.runner.
run_cells`, whose results are independent of ``jobs`` and of the engine
mode (byte-identity contract), and front membership is a property of
the point *set* (see :func:`repro.objectives.pareto_front`) — so the
same request yields the same bytes from ``repro pareto``, from the
``/pareto`` service endpoint, under either hot-path mode, at any job
count. ``tests/test_hotpath_equivalence.py`` pins a golden front.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.config import ALGORITHM_NAMES, Cell
from repro.objectives.registry import (
    OBJECTIVE_SENSES,
    objectives_token,
    parse_objectives,
    pareto_front,
)

__all__ = ["PARETO_FORMAT", "PARETO_VERSION", "run_pareto", "pareto_to_json"]

PARETO_FORMAT = "repro-pareto"
PARETO_VERSION = 1


def _check_algorithms(algorithms: Sequence[str]) -> Tuple[str, ...]:
    algos = tuple(algorithms)
    if not algos:
        raise ConfigurationError("pareto sweep needs at least one algorithm")
    seen = set()
    for a in algos:
        if a not in ALGORITHM_NAMES:
            raise ConfigurationError(
                f"unknown algorithm {a!r}; known: {list(ALGORITHM_NAMES)}"
            )
        if a in seen:
            raise ConfigurationError(f"duplicate algorithm {a!r}")
        seen.add(a)
    return algos


def run_pareto(
    base_cell: Cell,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    objectives: Union[str, Sequence[str]] = "makespan,energy,reliability,throughput",
    jobs: int = 1,
    cache=None,
    use_cache: bool = True,
    progress: Optional[Callable[[str], None]] = None,
):
    """Run the Pareto sweep; returns ``(artifact document, SweepReport)``.

    ``base_cell`` fixes everything but the algorithm (its own
    ``algorithm``/``objectives`` fields are overwritten per point).
    Requires at least two objectives — a one-dimensional "front" is just
    an argmin and the sweep would silently degenerate.
    """
    from repro.experiments.runner import run_cells

    names = parse_objectives(objectives)
    if len(names) < 2:
        raise ConfigurationError(
            f"pareto sweep needs at least two objectives, got {list(names)}"
        )
    token = objectives_token(names)
    algos = _check_algorithms(algorithms)
    cells = [
        dataclasses.replace(base_cell, algorithm=a, objectives=token)
        for a in algos
    ]
    results, report = run_cells(
        cells, jobs=jobs, cache=cache, use_cache=use_cache, progress=progress,
    )
    labelled = []
    points = []
    for algo, cell in zip(algos, cells):
        values = results[cell.key()].objectives
        labelled.append((algo, values))
        points.append({
            "algorithm": algo,
            "cell": cell.key(),
            "values": {n: values[n] for n in names},
        })
    front = pareto_front(labelled, names)
    on_front = set(front)
    for p in points:
        p["on_front"] = p["algorithm"] in on_front
    doc = {
        "format": PARETO_FORMAT,
        "version": PARETO_VERSION,
        "objectives": list(names),
        "senses": {n: OBJECTIVE_SENSES[n] for n in names},
        "points": points,
        "front": front,
    }
    return doc, report


def pareto_to_json(doc: Dict) -> str:
    """The canonical byte form of a Pareto artifact (what ``repro
    pareto`` prints and ``POST /pareto`` returns)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
