"""Integration: receiver-managed (sockets) mode under faults.

The §IV-B middleware appends into MANAGED windows, so stream integrity
depends on the transport's in-order dispatch: a dropped chunk must not
let later chunks append first. Two scenarios: sustained message loss,
and a full server crash-restart mid-stream with checkpoint/rejoin
recovery underneath — both must deliver the exact byte stream.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.faults import FaultInjector
from repro.network import NetworkConfig, RoutingMode
from repro.nic.rvma import RvmaNicConfig
from repro.recovery import InvariantAuditor, RecoveryConfig, RecoveryManager
from repro.reliability import ReliabilityConfig
from repro.sim import spawn
from repro.sockets import RvmaListener, connect


def _cluster():
    rel = ReliabilityConfig(
        retransmit_timeout=8_000.0, max_backoff=50_000.0, max_retries=10
    )
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.STATIC),
        nic_config=RvmaNicConfig(reliability=rel),
    )


def _drive(cl, *gens):
    procs = [spawn(cl.sim, g, f"p{i}") for i, g in enumerate(gens)]
    cl.sim.run()
    stuck = [p.name for p in procs if not p.finished]
    assert not stuck, f"deadlocked: {stuck}"
    return [p.result for p in procs]


def _stream_payload(n: int) -> bytes:
    return bytes((i * 131 + 7) % 256 for i in range(n))


def test_stream_exact_under_sustained_drops():
    """15% uniform loss on a chunked stream: retransmission plus ordered
    MANAGED dispatch must reassemble the exact byte sequence — a chunk
    arriving out of order would append at the wrong stream offset."""
    cl = _cluster()
    payload = _stream_payload(2_048)  # 64 chunks of 32 B
    inj = FaultInjector(cl)
    inj.drop_messages(probability=0.15)
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        # Depth sized to the client's burst (the sockets layer's TCP-like
        # contract: senders must not outrun the advertised capacity).
        listener = yield from RvmaListener(
            srv_api, port=17, chunk_size=32, depth=len(payload) // 32
        ).listen()
        conn = yield from listener.accept()
        data = yield from conn.recv(len(payload))
        return data

    def client():
        yield 1_000.0
        conn = yield from connect(cli_api, 0, port=17, chunk_size=32)
        # Ragged sends so chunk boundaries never line up with messages.
        step = 77
        for off in range(0, len(payload), step):
            yield from conn.send(payload[off:off + step])

    data, _ = _drive(cl, server(), client())
    assert data == payload
    assert cl.sim.stats.counter("transport.retransmits").value > 0
    assert cl.sim.stats.counter("transport.gave_up").value == 0


def test_stream_survives_server_crash_restart():
    """The server NIC crashes mid-stream (LUT, transport, flow state all
    destroyed), restarts from its checkpoint, rejoins, and the client's
    journaled chunks replay — the application-level stream comes out
    byte-identical with zero auditor violations."""
    cl = _cluster()
    aud = InvariantAuditor().attach(cl)
    mgr = RecoveryManager(
        cl, RecoveryConfig(checkpoint_interval_ns=5_000.0, horizon_ns=400_000.0)
    ).start()
    inj = FaultInjector(cl)
    mgr.arm(inj)
    inj.crash_restart(0, 40_000.0, 80_000.0)

    payload = _stream_payload(4_096)  # 64 chunks of 64 B
    srv_api, cli_api = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def server():
        listener = yield from RvmaListener(srv_api, port=19, chunk_size=64).listen()
        conn = yield from listener.accept()
        data = yield from conn.recv(len(payload))
        return data

    def client():
        yield 1_000.0
        conn = yield from connect(cli_api, 0, port=19, chunk_size=64)
        # Pace the stream so the crash window lands mid-transfer, with
        # chunks sent both before the crash and during the outage.
        for off in range(0, len(payload), 256):
            yield from conn.send(payload[off:off + 256])
            yield 4_000.0

    data, _ = _drive(cl, server(), client())
    assert data == payload
    nic0 = cl.node(0).nic
    assert nic0.incarnation == 1 and not nic0.failed
    rep = mgr.report
    assert rep.complete
    assert len(rep.rejoins) == 1 and rep.rejoins[0].node == 0
    assert rep.rejoins[0].mailboxes_restored >= 1
    assert rep.replay_holes == []
    report = aud.report()
    assert report["ok"], report["violations"]
    assert cl.sim.stats.counter("transport.gave_up").value == 0
