"""Property tests: the retransmission protocol is loss-transparent.

For *any* adversarial drop schedule that stays below the retry budget
(each message's first k transmission attempts eaten, k chosen per
message), the bytes placed at the target are identical to a fault-free
run of the same seed — retransmission is invisible above the transport.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.nic.headers import SeqHeader
from repro.nic.rvma import RvmaNicConfig
from repro.reliability import ReliabilityConfig
from repro.sim import spawn

MAILBOX = 0x7A
MSG_BYTES = 512


def _run(drops_per_seq, seed, faulty):
    """One producer/consumer exchange; returns the placed buffer bytes.

    ``drops_per_seq[i]`` eats the first that-many transmission attempts
    of sequence number ``i + 1`` (the envelope's ``attempt`` counter
    makes the schedule deterministic and exact).
    """
    n_puts = len(drops_per_seq)
    total = n_puts * MSG_BYTES
    cfg = ReliabilityConfig(retransmit_timeout=4_000.0, max_retries=8)
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow", seed=seed,
        nic_config=RvmaNicConfig(reliability=cfg),
    )
    if faulty:

        def eat_scheduled_attempts(d):
            h = d.message.header
            return (
                isinstance(h, SeqHeader)
                and 1 <= h.seq <= n_puts
                and h.attempt < drops_per_seq[h.seq - 1]
            )

        cl.fabric.fault_filter = eat_scheduled_attempts

    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    placed = {}

    def consumer():
        win = yield from api1.init_window(MAILBOX, epoch_threshold=total)
        record = yield from api1.post_buffer(win, size=total)
        info = yield from api1.wait_completion(win)
        assert info.length == total
        placed["data"] = record.buffer.read()

    def producer():
        ops = []
        for i in range(n_puts):
            # Offset-steered placement: bytes land at i*MSG_BYTES no
            # matter the arrival order, so the comparison is exact.
            payload = bytes((seed + i * 37 + j) % 256 for j in range(MSG_BYTES))
            op = yield from api0.put(
                1, MAILBOX, data=payload, offset=i * MSG_BYTES
            )
            ops.append(op)
        for op in ops:
            yield op.local_done

    cp = spawn(cl.sim, consumer(), "consumer")
    pp = spawn(cl.sim, producer(), "producer")
    cl.sim.run()
    assert cp.finished and pp.finished, "run deadlocked under drop schedule"
    stats = cl.sim.stats
    assert stats.counter("transport.gave_up").value == 0
    assert stats.counter("nic.rvma.puts_lost").value == 0
    if faulty:
        assert (
            stats.counter("transport.retransmits").value
            >= sum(drops_per_seq)
        )
    return placed["data"]


@given(
    drops_per_seq=st.lists(
        st.integers(min_value=0, max_value=6), min_size=1, max_size=6
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_any_drop_schedule_below_budget_places_identically(drops_per_seq, seed):
    faulty = _run(drops_per_seq, seed, faulty=True)
    clean = _run(drops_per_seq, seed, faulty=False)
    assert faulty == clean
