"""The benchmark's workloads, each split into a set-up and a run phase.

A workload builds everything a run needs in :meth:`setup` (cluster,
motif or KV servers and clients) without executing a simulated event,
and returns a prepared run.  ``prepared.run()`` is the timed phase: it
starts at the first simulated event and ends when the motif or the KV
master process finishes.  After it, ``prepared.outputs()`` gives the
checked simulated outputs and ``prepared.counters(profile)`` the
per-layer counters.

Workloads are built only from public ``repro`` entry points:
``Cluster.build``, ``Sweep3D(...).run()`` with ``RvmaProtocol`` /
``RdmaProtocol``, and ``KvServer`` / ``KvClient`` / ``LoadGenerator``
wired exactly as ``repro.experiments.kv_churn.run_kv_service`` wires
them (the tests check that both give the same outputs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro import (
    ChaosSchedule,
    Cluster,
    FaultInjector,
    KvClient,
    KvServer,
    KvServerConfig,
    LoadGenerator,
    MetricsRegistry,
    NetworkConfig,
    RdmaProtocol,
    RoutingMode,
    RunReport,
    RvmaApi,
    RvmaProtocol,
    ShardMap,
    Sweep3D,
    WorkloadConfig,
    spawn,
)
from repro.experiments.chaos import CHAOS_RELIABILITY
from repro.network.config import LINK_RATES
from repro.nic.rvma import RvmaNicConfig
from repro.scenarios.runner import scrub_report
from repro.services.loadgen import LoadStats

#: The Fig. 7 headline network: 2 Tbps links, adaptive routing.
FIG7_NET = NetworkConfig(link_bw=LINK_RATES["2Tbps"], routing=RoutingMode.ADAPTIVE)


def _nic_total(counters: dict, suffix: str) -> int:
    return sum(v for k, v in counters.items() if k.startswith("nic.") and k.endswith(suffix))


def layer_counters(cluster, profile, cq_entries: int = 0) -> dict:
    """The per-layer counters of one traced run.

    Read from the metrics registry, public attributes and *profile* (a
    ``layers.LayerProfile``); a layer the workload never touches reads 0.
    *cq_entries* is the sum of ``CqDispatcher.entries_dispatched``.
    """
    registry = MetricsRegistry.collect(cluster.sim)
    counters, summaries = registry.counters, registry.summaries
    pred_calls = profile.calls("rdma/dispatch.py", "<lambda>")
    attempts = summaries.get("transport.tx_attempts")
    reply_batch = summaries.get("service.kv.reply_batch")
    return {
        "sim.events": cluster.sim.events_executed,
        "sim.step_calls": profile.calls("sim/engine.py", "step")
        + profile.calls("sim/engine.py", "peek_time"),
        "network.messages": cluster.fabric.messages_sent,
        "network.packets_forwarded": counters.get("fabric.packets_forwarded", 0),
        "nic.tx_messages": _nic_total(counters, ".tx_messages"),
        "nic.tx_control": _nic_total(counters, ".tx_control"),
        "nic.epochs_completed": _nic_total(counters, ".epochs_completed"),
        "nic.buffers_posted": _nic_total(counters, ".buffers_posted"),
        "memory.find.calls": profile.calls("memory/memory.py", "find"),
        "memory.write.calls": profile.calls("memory/memory.py", "write"),
        "core.post_buffer.calls": profile.calls("core/api.py", "post_buffer"),
        "rdma.cq_entries": cq_entries,
        "rdma.demux_pred_calls": pred_calls,
        "rdma.pred_calls_per_entry": pred_calls / cq_entries if cq_entries else 0.0,
        "reliability.tx": counters.get("transport.tx", 0),
        "reliability.retransmits": counters.get("transport.retransmits", 0),
        "reliability.tx_attempts_mean": attempts.mean if attempts is not None else 0.0,
        "services.requests": counters.get("service.kv.requests", 0),
        "services.reply_batch_mean": reply_batch.mean if reply_batch is not None else 0.0,
        "services.client_retries": counters.get("service.kv.client.retries", 0),
    }


# ------------------------------------------------------------------ Sweep3D


@dataclass
class Sweep3DWorkload:
    """Sweep3D at the Fig. 7 headline configuration (flow fidelity)."""

    name: str
    nic_type: str
    n_nodes: int
    topology: str = "dragonfly"
    net_config: NetworkConfig = field(default_factory=lambda: FIG7_NET.with_())
    #: ``run_fig7``'s motif parameters.
    kb: int = 8
    msg_bytes: int = 2048
    compute_ns: float = 900.0

    def setup(self, seed: int) -> "Sweep3DRun":
        cluster = Cluster.build(
            n_nodes=self.n_nodes,
            topology=self.topology,
            nic_type=self.nic_type,
            fidelity="flow",
            net_config=self.net_config,
            seed=seed,
        )
        protocol = RvmaProtocol() if self.nic_type == "rvma" else RdmaProtocol()
        motif = Sweep3D(
            cluster, protocol, kb=self.kb, msg_bytes=self.msg_bytes, compute_ns=self.compute_ns
        )
        return Sweep3DRun(self, cluster, protocol, motif)


class Sweep3DRun:
    def __init__(self, workload: Sweep3DWorkload, cluster, protocol, motif) -> None:
        self.workload = workload
        self.cluster = cluster
        self.protocol = protocol
        self.motif = motif
        self.result = None

    def planned_ops(self) -> int:
        """Messages one sweep sends: every rank with a downstream
        neighbour forwards one message per axis, k-block and octant."""
        px, py = self.motif.px, self.motif.py
        return 8 * self.motif.kb * ((px - 1) * py + px * (py - 1))

    def run(self) -> None:
        self.result = self.motif.run()

    def outputs(self) -> dict:
        r = self.result
        return {"elapsed_ns": r.elapsed, "messages": r.messages, "bytes_moved": r.bytes_moved}

    def failed_ops(self) -> int:
        planned = self.planned_ops()
        return 0 if self.result.messages == planned else planned

    def counters(self, profile) -> dict:
        entries = 0
        if isinstance(self.protocol, RdmaProtocol):
            entries = sum(
                self.protocol.verbs(node).dispatcher.entries_dispatched
                for node in self.cluster.nodes
            )
        return layer_counters(self.cluster, profile, entries)


# ------------------------------------------------------------------ KV service


@dataclass
class KvWorkload:
    """A closed-loop KV service on a lossy packet fabric.

    Wired as ``run_kv_service(..., chaos=True)`` wires it: RVMA NICs
    with the chaos reliability transport, link flaps plus random drop,
    servers on nodes ``0..n_server_nodes-1`` and clients after them.
    """

    name: str
    n_ops: int
    n_server_nodes: int = 2
    shards_per_node: int = 2
    n_client_nodes: int = 6
    clients_per_node: int = 2
    topology: str = "torus3d"
    net_config: Optional[NetworkConfig] = None
    n_keys: int = 1024
    zipf_s: float = 0.9
    value_bytes: int = 256
    batch: int = 4
    drop_prob: float = 0.01
    #: ``run_kv_service``'s chaos defaults, except the horizon: 120 us
    #: puts the link flaps in about the first third of a 3,000-request
    #: run (about 390 us simulated), as the default 600 us does for
    #: 15,000 requests (about 1.6 ms).
    horizon_ns: float = 120_000.0
    n_chaos_events: int = 3
    max_window_ns: float = 40_000.0
    deadline_ns: float = 50_000_000.0

    def setup(self, seed: int) -> "KvRun":
        cluster = Cluster.build(
            n_nodes=self.n_server_nodes + self.n_client_nodes,
            topology=self.topology,
            nic_type="rvma",
            fidelity="packet",
            net_config=self.net_config,
            seed=seed,
            nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
        )
        ChaosSchedule.generate(
            cluster, horizon_ns=self.horizon_ns, n_events=self.n_chaos_events,
            max_window_ns=self.max_window_ns, drop_prob=self.drop_prob,
            kinds=("link_flap",),
        ).apply(FaultInjector(cluster))
        server_config = KvServerConfig()
        shard_map = ShardMap(list(range(self.n_server_nodes)), self.shards_per_node)
        servers = [
            KvServer(cluster.nodes[n], shard_map, server_config).start()
            for n in range(self.n_server_nodes)
        ]
        clients = [
            KvClient(
                RvmaApi(cluster.nodes[self.n_server_nodes + n]), shard_map, index=i,
                max_put_bytes=server_config.chunk_bytes,
            )
            for n in range(self.n_client_nodes)
            for i in range(self.clients_per_node)
        ]
        gen = LoadGenerator(cluster.sim, clients, WorkloadConfig(
            n_ops=self.n_ops, n_keys=self.n_keys, value_bytes=self.value_bytes,
            zipf_s=self.zipf_s, batch=self.batch,
        ))

        def master():
            for client in clients:
                yield from client.open()
            stats = yield from gen.run()
            for server in servers:
                server.stop()
            return stats

        proc = spawn(cluster.sim, master(), "kv-master")
        return KvRun(self, cluster, gen, proc)


class KvRun:
    def __init__(self, workload: KvWorkload, cluster, gen: LoadGenerator, proc) -> None:
        self.workload = workload
        self.cluster = cluster
        self.gen = gen
        self.proc = proc

    def planned_ops(self) -> int:
        return self.workload.n_ops

    def run(self) -> None:
        self.cluster.sim.run(until=self.workload.deadline_ns)

    def _invariants_ok(self, counters: dict) -> bool:
        stats: LoadStats = self.gen.stats
        return bool(
            self.proc.finished
            and stats.ops_completed == stats.ops_issued
            and counters.get("transport.gave_up", 0) == 0
            and counters.get("nic.rvma.puts_lost", 0) == 0
        )

    def outputs(self) -> dict:
        registry = MetricsRegistry.collect(self.cluster.sim)
        counters = registry.counters
        latency = registry.histograms["service.kv.request_latency_ns"]
        report = scrub_report(RunReport.collect(self.cluster).to_dict())
        digest = hashlib.blake2s(
            json.dumps(report, sort_keys=True, separators=(",", ":")).encode(), digest_size=8
        ).hexdigest()
        return {
            "completed": self.proc.finished,
            "invariants_ok": self._invariants_ok(counters),
            "elapsed_ns": self.cluster.sim.now,
            "p50_ns": latency.percentile(0.50),
            "p99_ns": latency.percentile(0.99),
            "requests": counters.get("service.kv.requests", 0),
            "replies": counters.get("service.kv.replies", 0),
            "report_digest": digest,
        }

    def failed_ops(self) -> int:
        """Requests that did not complete OK (NOT_FOUND on a GET or
        DELETE is a correct answer, as ``LoadStats`` counts it)."""
        stats: LoadStats = self.gen.stats
        if not self._invariants_ok(MetricsRegistry.collect(self.cluster.sim).counters):
            return self.workload.n_ops
        ok = stats.ops_completed - stats.ops_failed - stats.ops_overload - stats.ops_deadline
        return self.workload.n_ops - ok

    def counters(self, profile) -> dict:
        return layer_counters(self.cluster, profile)


# ------------------------------------------------------------------ registry

#: The benchmark's workloads; README.md says why each was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Sweep3DWorkload(name="sweep3d-rvma", nic_type="rvma", n_nodes=64),
        Sweep3DWorkload(name="sweep3d-rdma", nic_type="rdma", n_nodes=32),
        KvWorkload(name="kv-lossy", n_ops=3_000),
    )
}
