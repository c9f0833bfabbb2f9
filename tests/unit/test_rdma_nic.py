"""Unit tests for the RDMA baseline NIC and completion queue."""

import pytest

from repro.memory.buffer import HostBuffer
from repro.nic.cq import CompletionQueue, CqEntry, CqKind
from repro.nic.rdma import MAX_IMM_PAYLOAD, RdmaError
from repro.sim import Simulator

from tests.helpers import run_gen, run_gens


# --- completion queue ----------------------------------------------------------


def test_cq_push_poll_fifo():
    sim = Simulator()
    cq = CompletionQueue(sim)
    for i in range(3):
        cq.push(CqEntry(CqKind.RECV, op_id=i))
    entries = cq.poll(2)
    assert [e.op_id for e in entries] == [0, 1]
    assert len(cq) == 1


def test_cq_wait_resolves_on_push():
    sim = Simulator()
    cq = CompletionQueue(sim)

    def waiter():
        entry = yield cq.wait()
        return entry.op_id

    sim.schedule(10.0, cq.push, CqEntry(CqKind.RECV, op_id=42))
    assert run_gen(sim, waiter()) == 42


def test_cq_wait_drains_backlog_first():
    sim = Simulator()
    cq = CompletionQueue(sim)
    cq.push(CqEntry(CqKind.RECV, op_id=1))

    def waiter():
        entry = yield cq.wait()
        return entry.op_id

    assert run_gen(sim, waiter()) == 1


def test_cq_overflow_drops_and_counts():
    sim = Simulator()
    cq = CompletionQueue(sim, capacity=2)
    for i in range(5):
        cq.push(CqEntry(CqKind.RECV, op_id=i))
    assert len(cq) == 2
    assert cq.overflows == 3
    assert cq.total_entries == 5


# --- memory regions -----------------------------------------------------------


def test_reg_and_dereg_mr(rdma_pair):
    cl = rdma_pair
    node = cl.node(0)

    def proc():
        buf = HostBuffer.allocate(node.memory, 128)
        mr = yield node.nic.hw_reg_mr(buf)
        ok = yield node.nic.hw_dereg_mr(mr.rkey)
        gone = yield node.nic.hw_dereg_mr(mr.rkey)
        return mr, ok, gone

    mr, ok, gone = run_gen(cl.sim, proc())
    assert mr.length == 128 and mr.rkey > 0
    assert ok is True and gone is False


def test_mr_table_capacity(rdma_pair):
    cl = rdma_pair
    node = cl.node(0)
    node.nic.cfg.max_memory_regions = 1

    def proc():
        b1 = HostBuffer.allocate(node.memory, 16)
        b2 = HostBuffer.allocate(node.memory, 16)
        mr1 = yield node.nic.hw_reg_mr(b1)
        mr2 = yield node.nic.hw_reg_mr(b2)
        return mr1, mr2

    mr1, mr2 = run_gen(cl.sim, proc())
    assert not isinstance(mr1, Exception)
    assert isinstance(mr2, RdmaError)


# --- writes -----------------------------------------------------------------


def test_write_places_data_and_acks(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)

    def receiver():
        buf = HostBuffer.allocate(target.memory, 256)
        mr = yield target.nic.hw_reg_mr(buf)
        return buf, mr

    def sender(get_mr):
        yield 2000.0
        buf, mr = get_mr()
        op = cl.node(0).nic.hw_write(1, mr.addr + 8, mr.rkey, 100, b"W" * 100)
        entry = yield op.done
        return entry, buf

    state = {}

    def recv_wrapper():
        state["result"] = yield from receiver()

    (_, (entry, buf)) = run_gens(
        cl.sim, recv_wrapper(), sender(lambda: state["result"])
    )
    assert entry.kind is CqKind.WRITE_DONE and entry.ok
    assert buf.read(8, 100) == b"W" * 100
    # RDMA gives the *target* no completion signal for plain writes.
    assert len(target.nic.cq) == 0


def test_write_bad_rkey_fails(rdma_pair):
    cl = rdma_pair

    def sender():
        op = cl.node(0).nic.hw_write(1, 0x5000, 999, 10, b"x" * 10)
        entry = yield op.done
        return entry

    entry = run_gen(cl.sim, sender())
    assert entry.kind is CqKind.ERROR and not entry.ok
    assert cl.sim.stats.counter("nic.rdma.writes_rejected").value == 1


def test_write_beyond_region_fails(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)
    state = {}

    def receiver():
        buf = HostBuffer.allocate(target.memory, 64)
        state["mr"] = yield target.nic.hw_reg_mr(buf)

    def sender():
        yield 2000.0
        mr = state["mr"]
        op = cl.node(0).nic.hw_write(1, mr.addr + 32, mr.rkey, 64, b"x" * 64)
        entry = yield op.done
        return entry

    _, entry = run_gens(cl.sim, receiver(), sender())
    assert not entry.ok


def test_write_with_immediate_notifies_target(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)
    state = {}

    def receiver():
        buf = HostBuffer.allocate(target.memory, 64)
        state["mr"] = yield target.nic.hw_reg_mr(buf)
        entry = yield target.nic.cq.wait()
        return entry

    def sender():
        yield 2000.0
        mr = state["mr"]
        op = cl.node(0).nic.hw_write(1, mr.addr, mr.rkey, 32, b"i" * 32, imm=0x77)
        yield op.done

    entry, _ = run_gens(cl.sim, receiver(), sender())
    assert entry.kind is CqKind.WRITE_IMM and entry.imm == 0x77


def test_write_with_immediate_size_limit(rdma_pair):
    cl = rdma_pair
    with pytest.raises(RdmaError):
        cl.node(0).nic.hw_write(1, 0x1000, 1, MAX_IMM_PAYLOAD + 1, imm=1)


def test_unsignaled_write_skips_cq(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)
    state = {}

    def receiver():
        buf = HostBuffer.allocate(target.memory, 64)
        state["mr"] = yield target.nic.hw_reg_mr(buf)

    def sender():
        yield 2000.0
        mr = state["mr"]
        op = cl.node(0).nic.hw_write(1, mr.addr, mr.rkey, 8, b"u" * 8, signaled=False)
        entry = yield op.done
        return entry

    _, entry = run_gens(cl.sim, receiver(), sender())
    assert entry.ok
    assert len(cl.node(0).nic.cq) == 0  # no initiator CQE


# --- send/recv ------------------------------------------------------------------


def test_send_consumes_posted_recv(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)

    def receiver():
        buf = HostBuffer.allocate(target.memory, 64)
        yield target.nic.hw_post_recv(buf, wr_id=5)
        entry = yield target.nic.cq.wait()
        return entry, buf

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_send(1, 16, b"s" * 16)
        yield op.done

    (entry, buf), _ = run_gens(cl.sim, receiver(), sender())
    assert entry.kind is CqKind.RECV and entry.wr_id == 5 and entry.size == 16
    assert buf.read(0, 16) == b"s" * 16
    assert len(target.nic.recv_queue) == 0


def test_send_rnr_retries_until_recv_posted(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)

    def receiver():
        yield 10000.0  # post late: first send attempt must RNR
        buf = HostBuffer.allocate(target.memory, 64)
        yield target.nic.hw_post_recv(buf)
        entry = yield target.nic.cq.wait()
        return entry

    def sender():
        op = cl.node(0).nic.hw_send(1, 8, b"r" * 8)
        entry = yield op.done
        return entry

    recv_entry, send_entry = run_gens(cl.sim, receiver(), sender())
    assert recv_entry.kind is CqKind.RECV
    assert send_entry.ok
    assert cl.sim.stats.counter("nic.rdma.rnr_drops").value >= 1
    assert cl.sim.stats.counter("nic.rdma.rnr_retries").value >= 1


def test_send_tag_matching_claims_correct_recv(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)
    state = {}

    def receiver():
        buf_a = HostBuffer.allocate(target.memory, 64)
        buf_b = HostBuffer.allocate(target.memory, 64)
        yield target.nic.hw_post_recv(buf_a, wr_id=1, tag=100)
        yield target.nic.hw_post_recv(buf_b, wr_id=2, tag=200)
        e1 = yield target.nic.cq.wait()
        e2 = yield target.nic.cq.wait()
        state["bufs"] = (buf_a, buf_b)
        return e1, e2

    def sender():
        yield 2000.0
        # Send to tag 200 FIRST: it must land in buf_b, not buf_a.
        op = cl.node(0).nic.hw_send(1, 4, b"BBBB", tag=200)
        yield op.done
        op = cl.node(0).nic.hw_send(1, 4, b"AAAA", tag=100)
        yield op.done

    (e1, _e2), _ = run_gens(cl.sim, receiver(), sender())
    buf_a, buf_b = state["bufs"]
    assert buf_b.read(0, 4) == b"BBBB"
    assert buf_a.read(0, 4) == b"AAAA"
    assert e1.wr_id == 2  # first completion was the tag-200 recv


def test_recv_too_small_fails_send(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)

    def receiver():
        buf = HostBuffer.allocate(target.memory, 8)
        yield target.nic.hw_post_recv(buf)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_send(1, 64, b"t" * 64)
        entry = yield op.done
        return entry

    _, entry = run_gens(cl.sim, receiver(), sender())
    assert not entry.ok
    assert cl.sim.stats.counter("nic.rdma.recv_too_small").value == 1


# --- reads ----------------------------------------------------------------------


def test_read_fetches_remote_data(rdma_pair):
    cl = rdma_pair
    target = cl.node(1)
    state = {}

    def receiver():
        buf = HostBuffer.allocate(target.memory, 128)
        buf.write(0, bytes(range(128)))
        state["mr"] = yield target.nic.hw_reg_mr(buf)

    def sender():
        yield 2000.0
        mr = state["mr"]
        dest = HostBuffer.allocate(cl.node(0).memory, 64)
        op = cl.node(0).nic.hw_read(1, mr.addr + 16, mr.rkey, 64, dest)
        entry = yield op.done
        return entry, dest.contents()

    _, (entry, data) = run_gens(cl.sim, receiver(), sender())
    assert entry.kind is CqKind.READ_DONE and entry.ok
    assert data == bytes(range(16, 80))


def test_read_bad_region_errors(rdma_pair):
    cl = rdma_pair

    def sender():
        dest = HostBuffer.allocate(cl.node(0).memory, 16)
        op = cl.node(0).nic.hw_read(1, 0x9000, 123, 16, dest)
        entry = yield op.done
        return entry

    entry = run_gen(cl.sim, sender())
    assert entry.kind is CqKind.ERROR


def test_read_into_too_small_buffer_rejected(rdma_pair):
    cl = rdma_pair
    dest = HostBuffer.allocate(cl.node(0).memory, 8)
    with pytest.raises(RdmaError):
        cl.node(0).nic.hw_read(1, 0x1000, 1, 64, dest)


def test_send_rnr_exhaustion_fails_op(rdma_pair):
    cl = rdma_pair
    cl.node(0).nic.cfg.rnr_retries = 2
    cl.node(0).nic.cfg.rnr_timeout = 500.0

    def sender():
        op = cl.node(0).nic.hw_send(1, 8, b"x" * 8)  # no recv ever posted
        entry = yield op.done
        return entry

    entry = run_gen(cl.sim, sender())
    assert entry.kind is CqKind.ERROR and not entry.ok
    assert cl.sim.stats.counter("nic.rdma.rnr_retries").value == 2
    assert cl.sim.stats.counter("nic.rdma.rnr_drops").value == 3  # initial + 2 retries
