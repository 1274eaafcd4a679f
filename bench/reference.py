"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the speed of a core drifts by tens of percent within
minutes, so raw times of identical work spread past any useful bound between
runs.  A pass therefore times this kernel between its
operations and rescales its own times by the kernel's speed: a time in
"normalized" seconds is what the work would take on a host where one kernel
run takes NOMINAL_S seconds.  The kernel uses no stratgrid code, so a change
to the program moves the normalized times and leaves the kernel alone.  It
mixes what the sweeps and queries spend their time on: Fraction arithmetic,
tuple building in a product loop, and small-int dict updates.
"""
from __future__ import annotations

import multiprocessing
import time
from fractions import Fraction
from itertools import product

# Median kernel time on the host the bounds were set on (2 vCPUs, Python
# 3.11): normalized times stay close to raw ones there.
NOMINAL_S = 0.04
# A pass times the kernel again once this much of its own work has gone by.
EVERY_S = 0.2
JOIN_TIMEOUT_S = 5.0

_PAIRS = [(a, b) for a in range(26) for b in range(a, 26) if (a + b) % 3]


def kernel() -> int:
    n = 0
    for i in range(2000):
        a = Fraction(i % 97, 1 + i % 89)
        b = Fraction(1 + i % 13, 1 + i % 7)
        if a + b < a * b:
            n += 1
    for x, y in product(_PAIRS, _PAIRS):
        t = x + y
        if t[0] + t[2] < t[1] + t[3]:
            n += 1
    d: dict[int, int] = {}
    for i in range(70000):
        d[i % 1000] = d.get(i % 1000, 0) + i * i % 7
    return n + len(d)


def _serve(conn) -> None:
    """Helper process: run the kernel each time it is asked, until told to stop."""
    kernel()
    conn.send(0.0)  # ready
    while conn.recv():
        t0 = time.perf_counter()
        kernel()
        conn.send(time.perf_counter() - t0)


class Clock:
    """Times the kernel between a pass's operations.

    An operation that starts after the k-th kernel run is rescaled by the
    mean of the k-th and the next run, so that a change of host speed during
    the pass is followed at about EVERY_S resolution.  With `workers` > 1 a
    kernel run is that many copies at once, one here and the rest in idle
    helper processes, so that it meets the contention a sweep split over that
    many workers meets; its sample is the mean of the copies' times.  The
    wall time of the kernel runs and this process's CPU time for them are
    kept, so the pass can leave them out of its totals; the helpers' CPU time
    is counted only once they are reaped by close().
    """

    def __init__(self, workers: int = 1) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._last = 0.0
        self._helpers = []
        ctx = multiprocessing.get_context("spawn")
        for _ in range(workers - 1):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child,), daemon=True)
            proc.start()
            self._helpers.append((conn, proc))
        kernel()  # warm-up, not timed
        for conn, _ in self._helpers:
            conn.recv()

    def tick(self) -> int:
        """Time one kernel run; returns its index."""
        c0, t0 = time.process_time(), time.perf_counter()
        for conn, _ in self._helpers:
            conn.send(True)
        kernel()
        own = time.perf_counter() - t0
        runs = [own] + [conn.recv() for conn, _ in self._helpers]
        t1 = time.perf_counter()
        self.samples.append(sum(runs) / len(runs))
        self.wall_s += t1 - t0
        self.cpu_s += time.process_time() - c0
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def maybe_tick(self) -> int:
        """Time the kernel if EVERY_S has gone by since the last run; returns
        the index of the latest run."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.tick()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor that turns seconds spent between kernel runs k and k + 1
        into normalized seconds."""
        return 2 * NOMINAL_S / (self.samples[k] + self.samples[k + 1])

    def close(self) -> None:
        for conn, proc in self._helpers:
            conn.send(False)
            proc.join(JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []
