"""Shared-CQ demultiplexing.

An RDMA NIC funnels every completion through shared CQs; software with
several in-flight operations (a halo rank has six neighbours) must pull
entries and dispatch them to whichever logical channel they belong to.
This pump-and-match layer is precisely the bookkeeping RVMA's
per-buffer completion pointers eliminate (paper §IV) — modelling it
explicitly keeps the comparison honest.
"""

from __future__ import annotations

from typing import Optional

from ..memory.mwait import CQ_POLL, WakeupModel
from ..nic.cq import CompletionQueue, CqEntry, CqKind
from ..sim.engine import Simulator
from ..sim.process import Future, SimProcess


class CqDispatcher:
    """Routes CQ entries to waiters keyed by ``(wr_id, kind)``.

    Each delivered entry costs one CQ-poll overhead (demultiplexing a
    shared queue), charged in simulated time before the entry is
    matched.  Within one key, waiters resolve in registration order and
    entries nobody waits for yet are kept, then claimed in arrival
    order.  The pump drains the CQ only while someone is waiting, so an
    unwatched CQ backs up (and overflows) as the hardware one would.
    """

    def __init__(self, sim: Simulator, cq: CompletionQueue, model: WakeupModel = CQ_POLL) -> None:
        self.sim = sim
        self.cq = cq
        self.model = model
        # FIFO lists, not deques: most keys only ever hold one or two
        # items, and a list is a tenth of a deque's size.  Neither dict
        # holds an empty list: a key is deleted with its last item, so
        # ``bool(self._waiters)`` means "someone waits".
        self._waiters: dict[tuple[int, CqKind], list[Future]] = {}
        self._unclaimed: dict[tuple[int, CqKind], list[CqEntry]] = {}
        self._pump: Optional[SimProcess] = None
        self.entries_dispatched = 0

    def wait_wr(self, wr_id: int, kind: CqKind) -> Future:
        """Future resolving with the next entry for *wr_id* of *kind*."""
        fut = Future(self.sim)
        key = (wr_id, kind)
        early = self._unclaimed.get(key)
        if early is not None:
            # The entry arrived before anyone asked for it.
            entry = early.pop(0)
            if not early:
                del self._unclaimed[key]
            self.sim.schedule(self.model.delay_after_store(), fut.resolve, entry)
            return fut
        self._waiters.setdefault(key, []).append(fut)
        self._ensure_pump()
        return fut

    def _ensure_pump(self) -> None:
        if self._pump is None or self._pump.finished:
            self._pump = SimProcess(self.sim, self._pump_loop(), "cq-pump")

    def _pump_loop(self):
        waiters, unclaimed = self._waiters, self._unclaimed
        while waiters:
            entry = yield self.cq.wait()
            self.entries_dispatched += 1
            yield self.model.delay_after_store()  # shared-queue demux cost
            key = (entry.wr_id, entry.kind)
            waiting = waiters.get(key)
            if waiting is not None:
                fut = waiting.pop(0)
                if not waiting:
                    del waiters[key]
                fut.resolve(entry)
            else:
                unclaimed.setdefault(key, []).append(entry)
