"""Host-speed normalization of measured times.

The hosts this benchmark runs on are shared, and their speed drifts over
minutes: the same 96-cell grid took 8.99 s and 12.31 s a few seconds
apart, with the process's own CPU time moving the same way. Raw times
then spread by 15-25% between runs of identical code, which hides any
change smaller than that.

So the benchmark times a fixed reference kernel right before and after
each measured interval and scales the CPU-bound part of the interval by
``REF_NOMINAL_S / reference time``: a time is reported as it would read
on a host where the kernel takes ``REF_NOMINAL_S``. The part of an
interval the process spent waiting (timers, sockets) is not scaled.

The kernel walks 150k small Python objects in a fixed random order, so
like the scheduler it is bound by the interpreter and by cache misses (a
small cache-resident loop tracked the drift far worse). It calls nothing
of the program, so a faster or slower program cannot move it. It runs in
a helper process forked at start-up, which keeps its objects out of the
measured process's memory and its CPU use out of the measured intervals.
Raw times are kept in each run's report, with the factors.
"""

from __future__ import annotations

import os
import random
import struct
import time
from typing import List

#: the reference kernel's time on the nominal host
REF_NOMINAL_S = 0.06
REF_OBJECTS = 150_000
REF_STEPS = 60_000


def _kernel_loop(conn_in: int, conn_out: int) -> None:
    """Helper-process body: answer each request byte with one timing."""
    rng = random.Random(1)
    objs = [{"a": i, "b": (i, i + 1), "c": [i]} for i in range(REF_OBJECTS)]
    order = list(range(REF_OBJECTS))
    rng.shuffle(order)
    order = order[:REF_STEPS]

    def kernel() -> float:
        t0 = time.perf_counter()
        acc = 0
        for j in order:
            o = objs[j]
            acc += o["a"] + o["b"][1] + len(o["c"])
        return time.perf_counter() - t0

    kernel()  # warm
    while os.read(conn_in, 1) == b"k":
        os.write(conn_out, struct.pack("d", kernel()))


class HostClock:
    """Brackets measured intervals with reference-kernel runs. Create it
    before any thread starts; :meth:`close` stops the helper."""

    def __init__(self) -> None:
        to_child, child_in = os.pipe()
        child_out, from_child = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # pragma: no cover - helper process
            try:
                os.close(child_in)
                os.close(child_out)
                _kernel_loop(to_child, from_child)
            finally:
                os._exit(0)
        os.close(to_child)
        os.close(from_child)
        self._out, self._in = child_in, child_out
        self.factors: List[float] = []
        self._last = self.reference()

    def reference(self) -> float:
        """Seconds one run of the reference kernel takes now."""
        os.write(self._out, b"k")
        data = b""
        while len(data) < 8:
            chunk = os.read(self._in, 8 - len(data))
            if not chunk:
                raise RuntimeError("reference-kernel helper died")
            data += chunk
        return struct.unpack("d", data)[0]

    def start(self) -> None:
        """Bracket the start of the next interval."""
        self._last = self.reference()

    def factor(self) -> float:
        """Speed factor for the interval since the previous bracket:
        nominal over the mean of its two brackets."""
        now = self.reference()
        factor = REF_NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        self.factors.append(factor)
        return factor

    def close(self) -> None:
        if self.pid:
            os.write(self._out, b"q")
            os.close(self._out)
            os.close(self._in)
            os.waitpid(self.pid, 0)
            self.pid = 0


def normalize(wall_s: float, cpu_s: float, factor: float) -> float:
    """``wall_s`` with its CPU-bound part scaled by ``factor``. A CPU
    time above the wall time (several busy threads) counts as fully
    CPU-bound."""
    cpu = min(cpu_s, wall_s)
    return (wall_s - cpu) + cpu * factor
