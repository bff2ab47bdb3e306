"""Per-layer timing for the traced run, from outside the program.

:class:`Tracer` replaces the module attributes through which one layer
calls the next (``repro.core.migration.settle_incremental``,
``repro.core.bsa.commit_migration``, ``ResultCache.get`` ...) with thin
wrappers that record one span per call: layer name, start, end and the
span that caused it. Nothing under ``src/`` is edited; the wrappers are
installed only by the traced run and :meth:`Tracer.uninstall` puts every
original object back. :func:`find_wrappers` checks that none is left,
which the untraced run asserts before it reports.

Spans stay in memory and are written out as a Chrome trace when the run
ends. A layer's inclusive time counts only its outermost spans (a
wrapper nested in the same layer is not counted twice); its self time
is the inclusive time minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: marker attribute carried by every wrapper
MARK = "__perfbench_layer__"

#: layer name -> call sites, each (module, attribute path). A path with
#: ``[key]`` wraps one entry of a dict (the runner's scheduler table).
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bsa.run": (("repro.core.bsa", "BSAScheduler.run"),),
    "serialization": (("repro.core.bsa", "serial_injection"),),
    "migration.commit": (("repro.core.bsa", "commit_migration"),),
    "settle": (("repro.core.migration", "settle_incremental"),
               ("repro.core.migration", "settle_array"),
               ("repro.core.migration", "settle")),
    "txn.rollback": (("repro.schedule.schedule", "ScheduleTxn.rollback"),),
    "validator": (("repro.schedule.validator", "validate_schedule"),
                  ("repro.experiments.runner", "validate_schedule")),
    "bundle.encode": (("repro.schedule.io", "relabel_schedule"),
                      ("repro.schedule.io", "bundle_to_json")),
    "sched.bsa": (("repro.core.bsa", "schedule_bsa"),
                  ("repro.experiments.runner", "_SCHEDULERS[bsa]")),
    "sched.dls": (("repro.experiments.runner", "_SCHEDULERS[dls]"),),
    "sched.heft": (("repro.experiments.runner", "_SCHEDULERS[heft]"),),
    "sched.cpop": (("repro.experiments.runner", "_SCHEDULERS[cpop]"),),
    "sched.etf": (("repro.experiments.runner", "_SCHEDULERS[etf]"),),
    "sched.spdecomp": (("repro.experiments.runner",
                        "_SCHEDULERS[spdecomp]"),),
    "dynamic.simulate": (("repro.dynamic", "simulate_scenario"),),
    "objectives": (("repro.experiments.runner", "evaluate_objectives"),),
    "runner.build_system": (("repro.experiments.runner",
                             "build_cell_system"),),
    "cache.get": (("repro.experiments.cache", "ResultCache.get"),),
    "cache.put": (("repro.experiments.cache", "ResultCache.put"),
                  ("repro.experiments.cache", "ResultCache.put_many")),
    "interchange.load": (("repro.graph.interchange", "loads_workload"),
                         ("repro.graph.interchange", "load_workload")),
    "service.execute": (("repro.service", "execute"),
                        ("repro.service.pipeline", "execute"),
                        ("repro.service.http", "execute")),
}

_MISSING = object()


def _resolve(module: str, path: str):
    """``(container, key, is_dict)`` for one call site."""
    obj = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    last = parts[-1]
    if last.endswith("]"):
        name, key = last[:-1].split("[")
        return getattr(obj, name), key, True
    return obj, last, False


def _get(container, key, is_dict):
    if is_dict:
        return container[key]
    # a class attribute is restored exactly as found (own dict entry or
    # inherited), so look in the owner's own namespace
    if isinstance(container, type):
        return container.__dict__.get(key, _MISSING)
    return getattr(container, key)


def _set(container, key, is_dict, value):
    if is_dict:
        container[key] = value
    elif value is _MISSING:
        delattr(container, key)
    else:
        setattr(container, key, value)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        # (layer, start_s, end_s, parent index or -1, thread name)
        self.records: List[Optional[tuple]] = []
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- install / uninstall --------------------------------------------
    def install(self) -> None:
        for layer, sites in LAYERS.items():
            for module, path in sites:
                container, key, is_dict = _resolve(module, path)
                original = _get(container, key, is_dict)
                func = container[key] if is_dict else getattr(container, key)
                _set(container, key, is_dict, self._wrap(layer, func))
                self._undo.append((container, key, is_dict, original))

    def uninstall(self) -> None:
        while self._undo:
            container, key, is_dict, original = self._undo.pop()
            _set(container, key, is_dict, original)

    def _wrap(self, layer: str, func):
        records = self.records
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            index = len(records)
            records.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[index] = (layer, start, end, parent,
                                  threading.current_thread().name)

        setattr(wrapper, MARK, layer)
        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", layer)
        return wrapper

    # -- aggregation ----------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"s": inclusive, "self_s": self, "calls": n}}``."""
        child_time: Dict[int, float] = defaultdict(float)
        for rec in self.records:
            if rec is not None and rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, rec in enumerate(self.records):
            if rec is None:
                continue
            layer, start, end, parent = rec[:4]
            agg = out[layer]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time.get(i, 0.0)
            if not self._nested_in(parent, layer):
                agg["s"] += end - start
        return dict(out)

    def _nested_in(self, parent: int, layer: str) -> bool:
        while parent >= 0:
            rec = self.records[parent]
            if rec[0] == layer:
                return True
            parent = rec[3]
        return False

    def chrome_trace(self) -> dict:
        """The spans as a Chrome ``chrome://tracing`` document."""
        events = []
        for i, rec in enumerate(self.records):
            if rec is None:
                continue
            layer, start, end, parent, thread = rec
            events.append({
                "name": layer, "ph": "X", "pid": 1, "tid": thread,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": i, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def find_wrappers() -> List[str]:
    """Call sites that currently hold a tracer wrapper (should be none
    outside a traced pass)."""
    found = []
    for layer, sites in LAYERS.items():
        for module, path in sites:
            container, key, is_dict = _resolve(module, path)
            value = container[key] if is_dict else getattr(container, key)
            if getattr(value, MARK, None) is not None:
                found.append(f"{module}:{path}")
    return found
