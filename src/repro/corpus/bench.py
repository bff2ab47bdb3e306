"""Corpus-scale benchmarking: run a manifest through the sweep engine
and render the aggregate scheduler-ordering report.

The report is **deterministic**: it is computed purely from schedule
metrics (never wall-clock timings), cells are iterated in expansion
order, and every float is rendered at fixed precision — so the same
corpus produces byte-identical report text on every run, machine, and
hot-path mode (the engine's byte-identity contract with the ``legacy``
oracle extends through it; pinned by ``tests/test_corpus.py``).

A *scenario* is one (file x overlay x topology) combination; every
scenario is scheduled by every algorithm, and per scenario each
algorithm's schedule length is normalized by the best one. The ranking
table aggregates those normalized lengths — mean 1.00 means "always
the winner" — alongside win counts and the mean ratio against BSA.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.corpus.manifest import (
    CORPUS_N_PROCS,
    CORPUS_TOPOLOGIES,
    Manifest,
    manifest_cells,
    scan_corpus,
)
from repro.corpus.overlays import Overlay
from repro.experiments.config import ALGORITHM_NAMES, Cell
from repro.experiments.runner import CellResult, SweepReport, run_cells
from repro.util.tables import format_table
from repro.workloads.external import parse_token

__all__ = ["run_corpus", "aggregate_report", "corpus_bench"]


def run_corpus(
    corpus: Union[str, Manifest, None] = None,
    overlays: Sequence[Overlay] = (Overlay(),),
    topologies: Sequence[str] = CORPUS_TOPOLOGIES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    n_procs: int = CORPUS_N_PROCS,
    system_seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
    progress=None,
    objectives: str = "",
) -> Tuple[List[Cell], Dict[str, CellResult], SweepReport]:
    """Expand and execute a corpus sweep; returns (cells, results, report).

    ``corpus`` may be a directory path, a pre-built :class:`Manifest`,
    or ``None`` for the bundled ``examples/corpus/``. Failures are
    collected in the sweep report rather than raised, so one broken
    scenario cannot take down a corpus-sized run. ``objectives`` (an
    objectives token) makes every cell score those extra criteria.
    """
    workloads = {}
    if isinstance(corpus, Manifest):
        manifest = corpus
    else:
        manifest = scan_corpus(corpus, workloads=workloads)
    cells = manifest_cells(
        manifest,
        overlays=overlays,
        topologies=topologies,
        algorithms=algorithms,
        n_procs=n_procs,
        system_seed=system_seed,
        workloads=workloads,
        objectives=objectives,
    )
    results, report = run_cells(
        cells,
        jobs=jobs,
        use_cache=use_cache,
        progress=progress,
        raise_on_error=False,
    )
    return cells, results, report


def _scenario_key(cell: Cell) -> tuple:
    """Everything that identifies a scenario except the algorithm."""
    return (
        cell.app, cell.topology, cell.n_procs,
        cell.het_lo, cell.het_hi, cell.system_seed,
        cell.duplex, cell.bandwidth_skew,
    )


#: the manifest_cells defaults for the sampled-heterogeneity axes; a
#: cell that deviates (e.g. a het overlay routed through the axes for a
#: scalar file) gets the deviation spelled out in its scenario label
_DEFAULT_HET_AXES = (1.0, 50.0, 0)


def _scenario_label(cell: Cell) -> str:
    path, _, overlay = parse_token(cell.app)
    token = overlay.token()
    label = os.path.basename(path) + (f"!{token}" if token else "")
    if (cell.het_lo, cell.het_hi, cell.system_seed) != _DEFAULT_HET_AXES:
        label += f"~het{cell.het_lo:g}:{cell.het_hi:g}@{cell.system_seed}"
    return label


def aggregate_report(
    cells: Sequence[Cell],
    results: Dict[str, CellResult],
    algorithms: Optional[Sequence[str]] = None,
) -> str:
    """Render the deterministic aggregate ordering report (see module
    docstring) for an executed corpus sweep."""
    if algorithms is None:
        seen_algos: List[str] = []
        for cell in cells:
            if cell.algorithm not in seen_algos:
                seen_algos.append(cell.algorithm)
        algorithms = seen_algos

    # group cells into scenarios, in first-appearance order
    scenarios: Dict[tuple, Dict[str, Cell]] = {}
    for cell in cells:
        scenarios.setdefault(_scenario_key(cell), {})[cell.algorithm] = cell

    complete: List[Tuple[tuple, Dict[str, float]]] = []
    dropped: List[str] = []
    for key, by_algo in scenarios.items():
        sl: Dict[str, float] = {}
        for algo in algorithms:
            cell = by_algo.get(algo)
            result = results.get(cell.key()) if cell is not None else None
            if result is None:
                break
            sl[algo] = result.schedule_length
        if len(sl) == len(algorithms):
            complete.append((key, sl))
        else:
            cell = next(iter(by_algo.values()))
            dropped.append(f"{_scenario_label(cell)}[{cell.topology}]")

    lines: List[str] = []
    n_files = len({parse_token(k[0])[0] for k in scenarios})
    lines.append(
        f"corpus aggregate — {n_files} file(s), {len(scenarios)} scenario(s) "
        f"(file x overlay x topology), {len(algorithms)} schedulers"
    )
    if dropped:
        lines.append(
            f"dropped {len(dropped)} scenario(s) with failed/missing cells: "
            + ", ".join(sorted(dropped))
        )
    lines.append("")

    if complete:
        # overall ranking
        norm_sum = {a: 0.0 for a in algorithms}
        sl_sum = {a: 0.0 for a in algorithms}
        wins = {a: 0 for a in algorithms}
        vs_bsa_sum = {a: 0.0 for a in algorithms}
        for _, sl in complete:
            best = min(sl.values())
            for a in algorithms:
                norm_sum[a] += sl[a] / best
                sl_sum[a] += sl[a]
                if sl[a] == best:
                    wins[a] += 1
                if "bsa" in sl:
                    vs_bsa_sum[a] += sl[a] / sl["bsa"]
        n = len(complete)
        ranking = sorted(algorithms, key=lambda a: (norm_sum[a], a))
        rows = []
        for rank, a in enumerate(ranking, start=1):
            row: List[object] = [
                rank, a, norm_sum[a] / n, f"{wins[a]}/{n}", sl_sum[a] / n,
            ]
            if "bsa" in algorithms:
                row.append(vs_bsa_sum[a] / n)
            rows.append(row)
        headers = ["rank", "algorithm", "mean norm SL", "wins", "mean SL"]
        if "bsa" in algorithms:
            headers.append("vs bsa")
        lines.append(
            format_table(
                headers, rows,
                title="scheduler ordering (normalized SL; 1.000 = best per scenario)",
                ndigits=3,
            )
        )
        lines.append("")

        # per-scenario normalized table
        rows = []
        for key, sl in complete:
            cell = next(iter(scenarios[key].values()))
            best = min(sl.values())
            winner = min(algorithms, key=lambda a: (sl[a], a))
            rows.append(
                [_scenario_label(cell), cell.topology]
                + [sl[a] / best for a in algorithms]
                + [winner]
            )
        lines.append(
            format_table(
                ["scenario", "topology"] + list(algorithms) + ["winner"],
                rows,
                title="per-scenario normalized SL",
                ndigits=3,
            )
        )

        # per-criterion mean table — only when the sweep scored extra
        # objectives (cells carry an objectives token), so the default
        # report is byte-identical to what it always was
        names: List[str] = []
        for cell in cells:
            if cell.objectives:
                for n in cell.objectives.split(","):
                    if n not in names:
                        names.append(n)
        if names:
            obj_sum = {a: {n: 0.0 for n in names} for a in algorithms}
            n_scored = 0
            for key, _sl in complete:
                by_algo = scenarios[key]
                vals = {
                    a: results[by_algo[a].key()].objectives
                    for a in algorithms
                }
                if any(n not in vals[a] for a in algorithms for n in names):
                    continue  # scenario ran without (some) objectives
                n_scored += 1
                for a in algorithms:
                    for n in names:
                        obj_sum[a][n] += vals[a][n]
            if n_scored:
                lines.append("")
                rows = [
                    [a] + [obj_sum[a][n] / n_scored for n in names]
                    for a in algorithms
                ]
                lines.append(
                    format_table(
                        ["algorithm"] + [f"mean {n}" for n in names],
                        rows,
                        title=(f"objective means over {n_scored} "
                               f"scenario(s)"),
                        ndigits=4,
                    )
                )
    return "\n".join(lines)


def corpus_bench(
    corpus: Union[str, Manifest, None] = None,
    overlays: Sequence[Overlay] = (Overlay(),),
    topologies: Sequence[str] = CORPUS_TOPOLOGIES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    n_procs: int = CORPUS_N_PROCS,
    system_seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
    progress=None,
    objectives: str = "",
) -> Tuple[str, SweepReport]:
    """One-call corpus benchmark: run the sweep, render the aggregate.

    Returns ``(report text, sweep report)`` — the text is the
    deterministic artifact (suitable for files/CI), the sweep report
    carries the non-deterministic execution telemetry (timings, cache
    hits, failures; stderr reporting goes through
    :mod:`repro.obs.ndjson` in the CLI). ``objectives`` adds the
    per-criterion mean table.
    """
    from repro import obs

    with obs.span("corpus.bench", jobs=jobs):
        cells, results, sweep = run_corpus(
            corpus,
            overlays=overlays,
            topologies=topologies,
            algorithms=algorithms,
            n_procs=n_procs,
            system_seed=system_seed,
            jobs=jobs,
            use_cache=use_cache,
            progress=progress,
            objectives=objectives,
        )
        report = aggregate_report(cells, results, algorithms=algorithms)
    return report, sweep
