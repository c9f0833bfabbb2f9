"""Differential test of the keyed shared-CQ demux against a linear scan.

:class:`ScanDispatcher` is the original dispatcher, which matched each
CQ entry against a list of waiter predicates.  It is kept here only as
an oracle, the way :class:`tests.helpers.ReferenceSimulator` serves the
engine: :class:`repro.rdma.CqDispatcher` must produce the same waiter
resolutions, at the same simulated times, from every interleaving of
CQ pushes and waits, and leave the same CQ and leftover entries behind.

Two sabotaged models pin what the oracle catches: a dispatcher that
serves one key last-in first-out, and one that keys by ``wr_id`` alone.
Each has a pinned ``@example`` on which it disagrees with the oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory.mwait import CQ_POLL, WakeupModel
from repro.nic.cq import CompletionQueue, CqEntry, CqKind
from repro.rdma import CqDispatcher
from repro.sim import Simulator
from repro.sim.process import Future, SimProcess


class ScanDispatcher:
    """The pre-keying predicate-scan dispatcher, kept verbatim as an oracle.

    Do not "improve" this class: its value is that it stays the simple,
    obviously-correct implementation the keyed dispatcher must match.
    """

    def __init__(self, sim: Simulator, cq: CompletionQueue, model: WakeupModel = CQ_POLL) -> None:
        self.sim = sim
        self.cq = cq
        self.model = model
        self._waiters: list[tuple[Callable[[CqEntry], bool], Future]] = []
        self._unclaimed: deque[CqEntry] = deque()
        self._pump: Optional[SimProcess] = None
        self.entries_dispatched = 0

    def wait_for(self, pred: Callable[[CqEntry], bool]) -> Future:
        fut = Future(self.sim)
        for i, entry in enumerate(self._unclaimed):
            if pred(entry):
                del self._unclaimed[i]
                self.sim.schedule(self.model.delay_after_store(), fut.resolve, entry)
                return fut
        self._waiters.append((pred, fut))
        self._ensure_pump()
        return fut

    def wait_wr(self, wr_id: int, kind=None) -> Future:
        return self.wait_for(
            lambda e: e.wr_id == wr_id and (kind is None or e.kind == kind)
        )

    def _ensure_pump(self) -> None:
        if self._pump is None or self._pump.finished:
            self._pump = SimProcess(self.sim, self._pump_loop(), "cq-pump")

    def _pump_loop(self):
        while self._waiters:
            entry = yield self.cq.wait()
            self.entries_dispatched += 1
            yield self.model.delay_after_store()
            for i, (pred, fut) in enumerate(self._waiters):
                if pred(entry):
                    del self._waiters[i]
                    fut.resolve(entry)
                    break
            else:
                self._unclaimed.append(entry)


class LifoScanDispatcher(ScanDispatcher):
    """Sabotage: within a key, the newest waiter and newest entry win."""

    def wait_for(self, pred):
        fut = Future(self.sim)
        for i in range(len(self._unclaimed) - 1, -1, -1):
            if pred(self._unclaimed[i]):
                entry = self._unclaimed[i]
                del self._unclaimed[i]
                self.sim.schedule(self.model.delay_after_store(), fut.resolve, entry)
                return fut
        self._waiters.insert(0, (pred, fut))
        self._ensure_pump()
        return fut


class WrIdOnlyScanDispatcher(ScanDispatcher):
    """Sabotage: entries match on ``wr_id`` and ignore the kind."""

    def wait_wr(self, wr_id, kind=None):
        return self.wait_for(lambda e: e.wr_id == wr_id)


KINDS = (CqKind.RECV, CqKind.SEND_DONE, CqKind.WRITE_DONE)

#: One step of a script: ``(op, time_ns, wr_id, kind)``, op is
#: ``"push"`` (the NIC deposits an entry) or ``"wait"`` (software asks
#: for the next entry of that key).
steps = st.tuples(
    st.sampled_from(("push", "wait")),
    st.integers(0, 300),
    st.integers(0, 2),
    st.sampled_from(KINDS),
)
scripts = st.lists(steps, min_size=1, max_size=40)

#: Two waiters on one key and one entry for it: FIFO serves the first
#: waiter.  Then two unclaimed entries on another key: FIFO hands the
#: older one to the next waiter.
LIFO_TRIPS = [
    ("wait", 0, 1, CqKind.RECV),
    ("wait", 0, 1, CqKind.RECV),
    ("push", 10, 1, CqKind.RECV),
    ("push", 20, 2, CqKind.RECV),
    ("push", 20, 2, CqKind.RECV),
    ("wait", 200, 2, CqKind.RECV),
    ("push", 300, 1, CqKind.RECV),
]
#: A RECV waiter, then a SEND_DONE with its wr_id, then its RECV.
WR_ID_ONLY_TRIPS = [
    ("wait", 0, 2, CqKind.RECV),
    ("push", 10, 2, CqKind.SEND_DONE),
    ("push", 20, 2, CqKind.RECV),
]
#: Entries pushed before any waiter overflow a one-slot CQ; the pump
#: stops once its only waiter is served and restarts for the next; the
#: SEND_DONE and WRITE_DONE entries are never claimed.
COVERAGE = [
    ("push", 0, 0, CqKind.RECV),
    ("push", 0, 1, CqKind.SEND_DONE),
    ("wait", 5, 0, CqKind.RECV),
    ("wait", 50, 3, CqKind.RECV),
    ("push", 60, 2, CqKind.WRITE_DONE),
    ("push", 100, 3, CqKind.SEND_DONE),
    ("push", 150, 3, CqKind.RECV),
]


def replay(script, capacity: int, make=CqDispatcher) -> dict:
    """Run *script* on a bare CQ of *capacity* behind ``make(sim, cq)``."""
    sim = Simulator(seed=1)
    cq = CompletionQueue(sim, capacity=capacity)
    disp = make(sim, cq)
    resolved: dict[int, tuple[float, CqEntry]] = {}
    pumps: list[SimProcess] = []
    n_waits = 0

    def note_pump() -> None:
        if disp._pump is not None and (not pumps or pumps[-1] is not disp._pump):
            pumps.append(disp._pump)

    def push(op_id: int, wr_id: int, kind: CqKind) -> None:
        cq.push(CqEntry(kind, op_id=op_id, wr_id=wr_id, time=sim.now))

    def wait(i: int, wr_id: int, kind: CqKind) -> None:
        disp.wait_wr(wr_id, kind).add_callback(
            lambda entry: resolved.__setitem__(i, (sim.now, entry))
        )
        note_pump()

    for op_id, (op, t, wr_id, kind) in enumerate(script):
        if op == "push":
            sim.schedule(float(t), push, op_id, wr_id, kind)
        else:
            sim.schedule(float(t), wait, n_waits, wr_id, kind)
            n_waits += 1
    sim.run()
    kept = disp._unclaimed
    if isinstance(kept, dict):
        kept = [e for entries in kept.values() for e in entries]
    return {
        "resolved": [resolved.get(i) for i in range(n_waits)],
        "entries_dispatched": disp.entries_dispatched,
        "overflows": cq.overflows,
        "unclaimed": sorted(e.op_id for e in kept),
        "left_in_cq": [e.op_id for e in cq.entries],
        "pumps_started": len(pumps),
    }


@settings(deadline=None)
@given(script=scripts, capacity=st.integers(1, 4))
@example(script=LIFO_TRIPS, capacity=4)
@example(script=WR_ID_ONLY_TRIPS, capacity=4)
@example(script=COVERAGE, capacity=1)
def test_keyed_dispatcher_matches_scan_oracle(script, capacity):
    assert replay(script, capacity) == replay(script, capacity, ScanDispatcher)


@pytest.mark.parametrize(
    "sabotaged, script",
    [(LifoScanDispatcher, LIFO_TRIPS), (WrIdOnlyScanDispatcher, WR_ID_ONLY_TRIPS)],
    ids=["lifo-within-key", "keyed-by-wr-id-alone"],
)
def test_pinned_examples_trip_sabotaged_dispatchers(sabotaged, script):
    oracle = replay(script, 4, ScanDispatcher)
    assert replay(script, 4, sabotaged)["resolved"] != oracle["resolved"]


def test_coverage_example_overflows_restarts_the_pump_and_keeps_entries():
    out = replay(COVERAGE, 1)
    assert out["overflows"] == 1
    assert out["pumps_started"] == 2
    kept = {COVERAGE[op_id][3] for op_id in out["unclaimed"] + out["left_in_cq"]}
    assert kept == {CqKind.SEND_DONE, CqKind.WRITE_DONE}
    assert all(r is not None for r in out["resolved"])
