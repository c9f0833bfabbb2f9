"""Unit tests for the Verbs/UCX software layers, handshake and dispatch."""

import pytest

from repro.memory.buffer import HostBuffer
from repro.nic.cq import CqKind
from repro.network.routing import RoutingMode
from repro.rdma import (
    CompletionMode,
    CqDispatcher,
    UcpEndpoint,
    UnsafeCompletionError,
    VerbsEndpoint,
    check_mode_safety,
    client_request_region,
    pack_region,
    server_serve_region,
    spec_compliant_mode,
    unpack_region,
)
from repro.memory.buffer import MemoryRegion

from tests.helpers import run_gen, run_gens


# --- completion-mode safety ---------------------------------------------------


def test_last_byte_poll_refused_on_adaptive():
    with pytest.raises(UnsafeCompletionError):
        check_mode_safety(CompletionMode.LAST_BYTE_POLL, RoutingMode.ADAPTIVE)
    # explicit opt-in for demonstrating the bug
    check_mode_safety(CompletionMode.LAST_BYTE_POLL, RoutingMode.ADAPTIVE, allow_unsafe=True)
    check_mode_safety(CompletionMode.LAST_BYTE_POLL, RoutingMode.STATIC)
    check_mode_safety(CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE)


def test_spec_compliant_mode_is_send_recv():
    assert spec_compliant_mode(RoutingMode.ADAPTIVE) is CompletionMode.SEND_RECV


# --- region descriptor wire format ------------------------------------------------


def test_region_pack_unpack_roundtrip():
    mr = MemoryRegion(addr=0xDEADBEEF00, length=4096, rkey=0x1234, node_id=3)
    data = pack_region(mr)
    assert len(data) == 24
    back = unpack_region(data, node_id=3)
    assert (back.addr, back.length, back.rkey) == (mr.addr, mr.length, mr.rkey)


# --- handshake -----------------------------------------------------------------


def test_handshake_transfers_real_region(rdma_pair):
    cl = rdma_pair
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))

    def server():
        buffer, region = yield from server_serve_region(v1, client=0)
        return buffer, region

    def client():
        hs = yield from client_request_region(v0, server=1, size=4096)
        return hs

    (buffer, region), hs = run_gens(cl.sim, server(), client())
    # The client learned the server's *raw* physical address — the
    # exposure RVMA's mailboxes remove.
    assert hs.region.addr == buffer.addr == region.addr
    assert hs.region.rkey == region.rkey
    assert hs.region.length == 4096
    assert hs.elapsed > 0


def test_handshake_then_write_lands_in_served_buffer(rdma_pair):
    cl = rdma_pair
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))

    def server():
        buffer, _region = yield from server_serve_region(v1, client=0)
        yield 30000.0
        return buffer.read(0, 11)

    def client():
        hs = yield from client_request_region(v0, server=1, size=64)
        op = yield from v0.rdma_write(1, hs.region, 11, b"hello world")
        yield op.done

    data, _ = run_gens(cl.sim, server(), client())
    assert data == b"hello world"


# --- verbs endpoint ----------------------------------------------------------------


def test_verbs_write_bounds_check(rdma_pair):
    cl = rdma_pair
    v0 = VerbsEndpoint(cl.node(0))
    region = MemoryRegion(addr=0x1000, length=64, rkey=1, node_id=1)

    def proc():
        yield from v0.rdma_write(1, region, 128)

    with pytest.raises(ValueError):
        run_gen(cl.sim, proc())


def test_verbs_reg_mr_cost_scales_with_size(rdma_pair):
    cl = rdma_pair
    v1 = VerbsEndpoint(cl.node(1))
    times = []

    def proc(size):
        t0 = cl.sim.now
        buf = HostBuffer.allocate(cl.node(1).memory, size)
        yield from v1.reg_mr(buf)
        times.append(cl.sim.now - t0)

    run_gen(cl.sim, proc(1024))
    run_gen(cl.sim, proc(1024 * 1024))
    assert times[1] > times[0]


def test_verbs_requires_rdma_nic(rvma_pair):
    with pytest.raises(TypeError):
        VerbsEndpoint(rvma_pair.node(0))


def test_write_with_completion_sequence(rdma_pair):
    cl = rdma_pair
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))
    state = {}

    def server():
        buffer, _ = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(1).memory, 64)
        yield from v1.post_recv(ctl, wr_id=3, tag=3)
        entry = yield from v1.wait_write_completion(
            buffer, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, ctl, wr_id=3
        )
        state["done_at"] = cl.sim.now
        return entry, buffer

    def client():
        hs = yield from client_request_region(v0, server=1, size=256)
        yield from v0.write_with_completion(
            1, hs.region, 200, b"c" * 200, mode=RoutingMode.ADAPTIVE,
            completion=CompletionMode.SEND_RECV, wr_id=3,
        )

    (entry, buffer), _ = run_gens(cl.sim, server(), client())
    assert entry.kind is CqKind.RECV
    assert buffer.read(0, 200) == b"c" * 200


def test_wait_write_completion_needs_ctl_buffer(rdma_pair):
    cl = rdma_pair
    v1 = VerbsEndpoint(cl.node(1))
    buf = HostBuffer.allocate(cl.node(1).memory, 64)

    def proc():
        yield from v1.wait_write_completion(
            buf, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, None
        )

    with pytest.raises(ValueError):
        run_gen(cl.sim, proc())


# --- dispatcher ---------------------------------------------------------------------


def test_dispatcher_routes_by_predicate(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def waiter(wr):
        entry = yield disp.wait_wr(wr, CqKind.RECV)
        return entry.wr_id

    def pusher():
        yield 10.0
        nic.cq.push(CqEntry(CqKind.RECV, op_id=1, wr_id=9))
        yield 10.0
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=7))

    r7, r9, _ = run_gens(cl.sim, waiter(7), waiter(9), pusher())
    assert (r7, r9) == (7, 9)


def test_dispatcher_keeps_unclaimed_entries(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def early_pusher_then_waiter():
        # The entry arrives while someone waits for a different wr_id...
        nic.cq.push(CqEntry(CqKind.RECV, op_id=1, wr_id=5))
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=6))
        e6 = yield disp.wait_wr(6, CqKind.RECV)
        # ...and the other entry is still claimable afterwards.
        e5 = yield disp.wait_wr(5, CqKind.RECV)
        return e5.wr_id, e6.wr_id

    assert run_gen(cl.sim, early_pusher_then_waiter()) == (5, 6)


def test_dispatcher_same_key_waiters_first_come_first_served(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def waiter():
        entry = yield disp.wait_wr(3, CqKind.RECV)
        return entry.op_id

    def pusher():
        yield 10.0
        nic.cq.push(CqEntry(CqKind.RECV, op_id=1, wr_id=3))
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=3))

    first, second, _ = run_gens(cl.sim, waiter(), waiter(), pusher())
    assert (first, second) == (1, 2)


def test_dispatcher_recv_waiter_ignores_send_done_with_same_wr_id(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def proc():
        nic.cq.push(CqEntry(CqKind.SEND_DONE, op_id=1, wr_id=4))
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=4))
        recv = yield disp.wait_wr(4, CqKind.RECV)
        # The SEND_DONE was kept, not consumed by the RECV waiter.
        send_done = yield disp.wait_wr(4, CqKind.SEND_DONE)
        return recv.op_id, send_done.op_id

    assert run_gen(cl.sim, proc()) == (2, 1)


def test_dispatcher_early_entry_resolves_one_demux_charge_after_wait(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def proc():
        nic.cq.push(CqEntry(CqKind.RECV, op_id=1, wr_id=5))
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=6))
        yield disp.wait_wr(6, CqKind.RECV)  # leaves wr 5 unclaimed
        asked = cl.sim.now
        yield disp.wait_wr(5, CqKind.RECV)
        return cl.sim.now - asked

    assert run_gen(cl.sim, proc()) == disp.model.delay_after_store()


# --- UCX ----------------------------------------------------------------------------


def test_ucp_put_and_flush(rdma_pair):
    cl = rdma_pair
    u0, v1 = UcpEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))
    state = {}

    def server():
        buf = HostBuffer.allocate(cl.node(1).memory, 128)
        state["mr"] = yield cl.node(1).nic.hw_reg_mr(buf)
        yield 50000.0
        return buf

    def client():
        yield 2000.0
        mr = state["mr"]
        yield from u0.put_nbi(1, mr, 64, b"U" * 64)
        yield from u0.put_nbi(1, mr, 32, b"V" * 32, offset=64)
        n = yield from u0.flush()
        return n

    buf, n = run_gens(cl.sim, server(), client())
    assert n == 2
    assert buf.read(0, 64) == b"U" * 64
    assert buf.read(64, 32) == b"V" * 32


def test_ucp_flush_empty_is_cheap(rdma_pair):
    cl = rdma_pair
    u0 = UcpEndpoint(cl.node(0))

    def proc():
        n = yield from u0.flush()
        return n, cl.sim.now

    n, t = run_gen(cl.sim, proc())
    assert n == 0
    assert t == pytest.approx(u0.costs.flush)


def test_ucp_tag_send_recv(rdma_pair):
    cl = rdma_pair
    u0, u1 = UcpEndpoint(cl.node(0)), UcpEndpoint(cl.node(1))

    def receiver():
        buf = HostBuffer.allocate(cl.node(1).memory, 64)
        yield from u1.tag_recv_arm(buf, tag=44)
        entry = yield from u1.tag_recv_wait(tag=44)
        return entry, buf.read(0, 5)

    def sender():
        yield 2000.0
        op = yield from u0.tag_send(1, 5, b"tagme", tag=44)
        yield op.done

    (entry, data), _ = run_gens(cl.sim, receiver(), sender())
    assert entry.kind is CqKind.RECV and entry.wr_id == 44
    assert data == b"tagme"


def test_ucp_put_beyond_region_rejected(rdma_pair):
    cl = rdma_pair
    u0 = UcpEndpoint(cl.node(0))
    mr = MemoryRegion(addr=0x1000, length=32, rkey=1, node_id=1)

    def proc():
        yield from u0.put_nbi(1, mr, 64)

    with pytest.raises(ValueError):
        run_gen(cl.sim, proc())
