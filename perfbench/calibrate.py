"""How fast the host runs Python right now, from a fixed loop.

The benchmark's host is a few cores of a shared machine whose speed
drifts by up to a factor of two over minutes, for the whole process at
once, so raw wall times of the same work spread far more between runs
than any change worth catching.  The loop below is a small event loop
(a heap of timestamps driving generators that update dicts), the same
kind of interpreter work as the simulator's, but written here and not
imported from ``src/``: no change to the program can make it faster or
slower.  ``run.py`` times it just before and just after every
repetition and scales that repetition's times by
``REFERENCE_S / calibration``, so they read as seconds on a host where
the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import time
from typing import NamedTuple

#: Seconds one ``loop()`` takes on the reference host (2-vCPU Intel
#: Xeon at 2.0 GHz under KVM, Python 3.11.7): the median calibration
#: over 321 repetitions of ``sweep3d-rvma`` in a 420-second run.
REFERENCE_S = 0.0203

#: Loops per calibration.  Their mean, not their fastest, tracks the
#: host's speed over a repetition best: a repetition lasts about a
#: second and so averages over the host's fast fluctuations too.
ROUNDS = 3


class Calibration(NamedTuple):
    wall_s: float
    cpu_s: float


def loop(n_events: int = 20_000, n_procs: int = 16) -> None:
    """Pop *n_events* timestamps off a heap, resuming one generator each."""

    class Proc:
        __slots__ = ("n", "acc")

        def __init__(self) -> None:
            self.n = 0
            self.acc: dict = {}

    def body(p: Proc, k: int):
        while True:
            p.n += 1
            p.acc[p.n % 64] = p.acc.get(p.n % 64, 0) + k
            yield p.n * 0.5 + k

    gens = [body(Proc(), k) for k in range(n_procs)]
    heap = [(0.0, k) for k in range(n_procs)]
    for _ in range(n_events):
        t, k = heapq.heappop(heap)
        heapq.heappush(heap, (t + next(gens[k]), k))


def calibrate(rounds: int = ROUNDS) -> Calibration:
    """The mean wall and CPU seconds of *rounds* loops."""
    walls, cpus = [], []
    for _ in range(rounds):
        w0, c0 = time.perf_counter(), time.process_time()
        loop()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return Calibration(sum(walls) / rounds, sum(cpus) / rounds)


def around(before: Calibration, after: Calibration) -> Calibration:
    """The host's speed over an interval, from calibrations at its ends."""
    return Calibration((before.wall_s + after.wall_s) / 2, (before.cpu_s + after.cpu_s) / 2)
