"""One KV cell: build, run and read the sharded KV service on RVMA.

Every KV harness — the churn sweep, the noisy-neighbor and flash-crowd
contrast cells, trace record/replay and the scenario fuzzer's
linearizability oracle — runs the same cell:

1. an RVMA cluster on the chaos reliability transport (the service's
   backpressure story *is* the transport's ``flow_room`` hold path),
   with an optional fault schedule, span tracing and invariant auditor;
2. :class:`KvServer` shard sweeps on nodes ``0..servers-1`` — with
   multi-tenant QoS and the NIC placement quota on the request-stream
   mailboxes whenever a :class:`TenantDirectory` is given;
3. one :class:`KvClient` per ``(node, index, tenant)`` entry;
4. a master process that opens the clients, drives the harness's
   workload, optionally waits out a drain grace period and stops the
   servers;
5. a bounded run that turns an engine exception or a stall past the
   deadline into :attr:`KvCell.error`;
6. the metrics registry read-out.

A harness supplies only its workload (load generator, trace replayer,
recorder or scripted clients), any warm phase, and its contrast or
oracle logic.
"""

from __future__ import annotations

import math
from typing import Generator, Optional, Sequence, Union

from ..cluster.builder import Cluster
from ..core.api import RvmaApi
from ..faults.chaos import ChaosSchedule
from ..faults.injectors import FaultInjector
from ..network.config import NetworkConfig
from ..network.routing import RoutingMode
from ..nic.rvma import RvmaNicConfig
from ..observability import MetricsRegistry, RunReport
from ..recovery.auditor import InvariantAuditor
from ..services import (
    ClientRobustnessConfig,
    KvClient,
    KvServer,
    KvServerConfig,
    QosConfig,
    ShardMap,
    TenantDirectory,
    install_placement_quota,
)
from ..services.kv import REPLY_MAILBOX_BASE, REQUEST_MAILBOX_BASE
from ..sim.process import AllOf, spawn
from .chaos import CHAOS_RELIABILITY

#: Grace between the last resolved op and stopping the servers:
#: retransmits for ops that resolved at their deadline may still be in
#: flight, and must land as stale duplicates rather than read as put
#: loss once the shard streams close.
DRAIN_GRACE_NS = 100_000.0


def finite_capacity(**kw) -> KvServerConfig:
    """Server config with modelled host CPU per request.

    Without a per-request cost execution is instantaneous, no dispatch
    queue forms, and neither QoS nor the NIC serve path has anything to
    protect or win.
    """
    return KvServerConfig(service_ns_per_request=800.0, service_ns_per_byte=0.2, **kw)


class KvCell:
    """A built KV cell; :meth:`run` it once, then read its registry."""

    def __init__(
        self,
        cluster: Cluster,
        shard_map: ShardMap,
        servers: list,
        clients: list,
        auditor: Optional[InvariantAuditor],
        deadline_ns: float,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.shard_map = shard_map
        self.servers = servers
        self.clients = clients
        self.auditor = auditor
        self.deadline_ns = deadline_ns
        self.completed = False
        #: The engine exception that ended the run, if any.
        self.exception: Optional[Exception] = None
        #: True if the run hit the deadline with the workload unfinished.
        self.stalled = False
        #: ``"<ExceptionType>: <message>"``, or the "did not finish" stall
        #: message; None if the run finished cleanly.
        self.error: Optional[str] = None
        self.registry: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------ running

    def run(
        self,
        body: Optional[Generator] = None,
        drivers: Sequence[tuple] = (),
        drain: bool = False,
    ) -> "KvCell":
        """Drive the workload to completion or the deadline.

        *body* runs inline in the master process after it opens every
        client.  Each ``(clients, body)`` entry of *drivers* instead
        runs as its own process that opens only its own clients; the
        master waits for all of them.  With *drain* the master waits
        :data:`DRAIN_GRACE_NS` before stopping the servers.
        """

        def drive(clients: list, work: Generator):
            for client in clients:
                yield from client.open()
            yield from work

        def master():
            if drivers:
                procs = [spawn(self.sim, drive(c, w), "kv-driver") for c, w in drivers]
                yield AllOf([p.done_future for p in procs])
            else:
                yield from drive(self.clients, body)
            if drain:
                yield DRAIN_GRACE_NS
            for server in self.servers:
                server.stop()

        proc = spawn(self.sim, master(), "kv-master")
        try:
            # Bounded: a stalled workload (a put held forever against
            # flow_room) would otherwise keep the poll loops generating
            # events and spin the drive loop indefinitely.
            self.sim.run(until=self.deadline_ns)
        except Exception as exc:  # engine-level failure, not a modelled outcome
            self.exception = exc
            self.error = f"{type(exc).__name__}: {exc}"
        self.completed = proc.finished
        if self.exception is None and not proc.finished:
            self.stalled = True
            self.error = (
                f"cell did not finish by deadline_ns={self.deadline_ns:,.0f} "
                "(clients still waiting: stalled or deadlocked)"
            )
        self.registry = MetricsRegistry.collect(self.sim)
        return self

    # ----------------------------------------------------------------- read-out

    def counter(self, name: str) -> int:
        """Aggregated counter *name* (0 if never registered)."""
        return self.registry.counters.get(name, 0)

    def latency(self, q: float, tenant: Optional[int] = None) -> float:
        """Request-latency *q*-quantile, overall or for one tenant (NaN if unseen)."""
        name = (
            "service.kv.request_latency_ns"
            if tenant is None
            else f"service.kv.tenant.request_latency_ns.t{tenant}"
        )
        hist = self.registry.histograms.get(name)
        return hist.percentile(q) if hist is not None else math.nan

    def report(self, meta: dict) -> RunReport:
        """The cell's observability snapshot, stamped with the harness *meta*."""
        return RunReport.collect(self.cluster, meta=meta)


def build_kv_cell(
    seed: int,
    clients: Sequence[tuple],
    deadline_ns: float,
    servers: int = 1,
    shards_per_node: int = 2,
    server_config: Optional[KvServerConfig] = None,
    tenants: Optional[TenantDirectory] = None,
    robustness: Optional[ClientRobustnessConfig] = None,
    topology: str = "dragonfly",
    fidelity: str = "flow",
    routing: RoutingMode = RoutingMode.ADAPTIVE,
    reliable: bool = True,
    n_nodes: Optional[int] = None,
    chaos: Union[ChaosSchedule, dict, None] = None,
    spans: bool = False,
    audit: bool = False,
) -> KvCell:
    """Build a KV cell: servers on nodes ``0..servers-1``, one client per
    ``(node, index, tenant)`` entry of *clients*.

    *chaos* is a pinned :class:`ChaosSchedule`, or the keyword arguments
    of a link-flap schedule drawn from the cluster's RNG.  A *tenants*
    directory arms QoS on every server, installs the NIC placement quota
    on the request-stream mailboxes and maps each client node to its
    tenant.  *n_nodes* defaults to the smallest cluster holding every
    server and client node.
    """
    if n_nodes is None:
        n_nodes = max([servers] + [node + 1 for node, _index, _tenant in clients])
    cluster = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type="rvma", fidelity=fidelity,
        seed=seed,
        nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY if reliable else None),
        net_config=NetworkConfig(routing=routing),
    )
    if isinstance(chaos, dict):
        chaos = ChaosSchedule.generate(cluster, kinds=("link_flap",), **chaos)
    if chaos is not None:
        chaos.apply(FaultInjector(cluster))
    if spans:
        cluster.sim.spans.enable()
    auditor = InvariantAuditor().attach(cluster) if audit else None

    server_config = server_config or KvServerConfig()
    shard_map = ShardMap(list(range(servers)), shards_per_node)
    if tenants is not None:
        for node, _index, tenant in clients:
            tenants.assign_node(node, tenant)
    kv_servers = [
        KvServer(
            cluster.nodes[n], shard_map, server_config,
            qos=QosConfig() if tenants is not None else None, tenants=tenants,
        ).start()
        for n in range(servers)
    ]
    if tenants is not None:
        for n in range(servers):
            install_placement_quota(
                cluster.nodes[n], tenants,
                mailbox_lo=REQUEST_MAILBOX_BASE, mailbox_hi=REPLY_MAILBOX_BASE,
            )
    kv_clients = [
        KvClient(
            RvmaApi(cluster.nodes[node]), shard_map, index=index,
            max_put_bytes=server_config.chunk_bytes,
            tenant_id=tenant, robustness=robustness,
        )
        for node, index, tenant in clients
    ]
    return KvCell(cluster, shard_map, kv_servers, kv_clients, auditor, deadline_ns)
