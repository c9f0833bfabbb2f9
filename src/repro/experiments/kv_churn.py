"""KV service under churn: serving traffic on RVMA, faults optional.

The chaos harness proves the *motifs* survive fault schedules; this
driver does the same for the sharded KV service (:mod:`repro.services`)
— a serving workload with open/closed-loop clients, Zipf key skew and
continuous many-to-few pressure on receiver-managed request streams.
Each cell runs one seed's workload, optionally under a
:class:`~repro.faults.chaos.ChaosSchedule` of link flaps, and reports:

* completion (every client got every reply; the run terminates);
* correctness (zero transport give-ups, zero silent put loss);
* the ``service.kv.request_latency_ns`` p50/p99 and the reliability
  counters that explain them (retransmits, paced deliveries).

Also the home of the ``services`` CLI subcommand
(``rvma-experiments services --help``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from ..observability import RunReport
from ..services import KvServerConfig, LoadGenerator, WorkloadConfig
from .kv_cell import build_kv_cell
from .report import ExperimentResult, seeds_of

#: Chaos shape for churn cells: fabric-level flaps only — the service
#: must ride them out through the transport, not through recovery.
DEFAULT_HORIZON_NS = 600_000.0
DEFAULT_EVENTS = 3
DEFAULT_MAX_WINDOW_NS = 40_000.0


@dataclass
class KvOutcome:
    """One seed's KV workload run."""

    seed: int
    completed: bool
    error: Optional[str]
    elapsed_ns: float
    ops_issued: int
    ops_completed: int
    p50_ns: float
    p99_ns: float
    requests: int
    replies: int
    flushes: int
    reply_batch_mean: float
    retransmits: int
    rx_paced: int
    gave_up: int
    puts_lost: int
    #: simulator events executed — the bench harness's events/sec basis.
    events_executed: int = 0
    run_report: Optional[object] = None

    @property
    def invariants_ok(self) -> bool:
        return bool(
            self.completed
            and self.error is None
            and self.ops_completed == self.ops_issued
            and self.gave_up == 0
            and self.puts_lost == 0
        )


def run_kv_service(
    seed: int = 1,
    n_server_nodes: int = 3,
    shards_per_node: int = 2,
    n_client_nodes: int = 4,
    clients_per_node: int = 2,
    topology: str = "dragonfly",
    workload: Optional[WorkloadConfig] = None,
    server_config: Optional[KvServerConfig] = None,
    chaos: bool = False,
    horizon_ns: float = DEFAULT_HORIZON_NS,
    n_events: int = DEFAULT_EVENTS,
    max_window_ns: float = DEFAULT_MAX_WINDOW_NS,
    drop_prob: float = 0.0,
    deadline_ns: float = 50_000_000.0,
    observe: bool = False,
    trace: bool = False,
    fidelity: str = "flow",
) -> KvOutcome:
    """Run one seeded KV workload cell; returns its :class:`KvOutcome`.

    Server nodes are ``0..n_server_nodes-1``; clients spread across the
    next ``n_client_nodes`` nodes.  The cluster always runs with the
    reliability transport — the service's backpressure story *is* the
    transport's ``flow_room`` hold path, chaos or not.
    """
    workload = workload or WorkloadConfig()
    cell = build_kv_cell(
        seed,
        clients=[
            (n_server_nodes + n, i, 0)
            for n in range(n_client_nodes)
            for i in range(clients_per_node)
        ],
        deadline_ns=deadline_ns,
        servers=n_server_nodes,
        shards_per_node=shards_per_node,
        server_config=server_config,
        topology=topology,
        fidelity=fidelity,
        chaos=dict(
            horizon_ns=horizon_ns, n_events=n_events,
            max_window_ns=max_window_ns, drop_prob=drop_prob,
        ) if chaos else None,
        spans=observe and trace,
    )
    gen = LoadGenerator(cell.sim, cell.clients, workload)
    cell.run(gen.run())

    reply_batch = cell.registry.summaries.get("service.kv.reply_batch")
    return KvOutcome(
        seed=seed,
        completed=cell.completed,
        error=cell.error,
        elapsed_ns=cell.sim.now,
        ops_issued=gen.stats.ops_issued,
        ops_completed=gen.stats.ops_completed,
        p50_ns=cell.latency(0.50),
        p99_ns=cell.latency(0.99),
        requests=cell.counter("service.kv.requests"),
        replies=cell.counter("service.kv.replies"),
        flushes=cell.counter("service.kv.flushes"),
        reply_batch_mean=reply_batch.mean if reply_batch is not None else 0.0,
        retransmits=cell.counter("transport.retransmits"),
        rx_paced=cell.counter("transport.rx_paced"),
        gave_up=cell.counter("transport.gave_up"),
        puts_lost=cell.counter("nic.rvma.puts_lost"),
        events_executed=cell.sim.events_executed,
        run_report=(
            cell.report({
                "harness": "kv-churn",
                "seed": seed,
                "n_nodes": cell.cluster.n_nodes,
                "shards": cell.shard_map.n_shards,
                "clients": len(cell.clients),
                "mode": workload.mode,
                "zipf_s": workload.zipf_s,
                "chaos": chaos,
                "completed": cell.completed,
            })
            if observe
            else None
        ),
    )


def run_kv_churn(
    seeds: tuple = (1, 2, 3),
    chaos: bool = True,
    drop_prob: float = 0.02,
    observe: bool = False,
    trace: bool = False,
    **kw,
) -> ExperimentResult:
    """The churn sweep: the KV service across seeds, faults on.

    ``drop_prob`` adds light random loss on top of the flap windows so
    the retransmit column shows the ARQ earning its keep.
    """
    rows = []
    all_ok = True
    reports = []
    p99s = []
    for seed in seeds:
        out = run_kv_service(
            seed=seed, chaos=chaos, drop_prob=drop_prob if chaos else 0.0,
            observe=observe, trace=trace, **kw,
        )
        all_ok = all_ok and out.invariants_ok
        p99s.append(out.p99_ns)
        if out.run_report is not None:
            reports.append(out.run_report)
        rows.append([
            seed,
            out.ops_completed,
            f"{out.p50_ns:,.0f}",
            f"{out.p99_ns:,.0f}",
            f"{out.reply_batch_mean:.2f}",
            out.retransmits,
            out.rx_paced,
            "yes" if out.invariants_ok else "NO",
        ])
    return ExperimentResult(
        name="kv-churn",
        title="Sharded KV service under churn (Zipf load, link flaps, ARQ transport)",
        headers=["seed", "ops", "p50 ns", "p99 ns", "batch", "retransmits", "paced", "ok"],
        rows=rows,
        summary={
            "all_invariants_ok": all_ok,
            "worst_p99_ns": max(p99s) if p99s else float("nan"),
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "receiver-managed buckets give a serving workload "
            "sender-oblivious backpressure: clients never coordinate buffers, "
            "yet incast-style request floods survive loss and flaps exactly "
            "(extends §IV-B to an RPC service)"
        },
        run_report=(
            RunReport.merge(reports, meta={"harness": "kv-churn", "seeds": list(seeds)})
            if reports
            else None
        ),
    )


# ------------------------------------------------------------------- services CLI


def services_main(argv: Optional[list[str]] = None) -> int:
    """``rvma-experiments services``: run one KV workload cell directly."""
    parser = argparse.ArgumentParser(
        prog="rvma-experiments services",
        description="Drive the sharded RVMA key-value service",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default 1); with --churn, pins the sweep to "
        "this single seed so CI can shard seeds the same way the "
        "chaos/chaos-crash sweeps do",
    )
    parser.add_argument(
        "--churn", action="store_true",
        help="run the kv-churn sweep (chaos on) instead of a single cell; "
        "seeds come from --seeds, or --seed when given, else the "
        "default 3-seed matrix",
    )
    parser.add_argument(
        "--seeds", type=str, default="",
        help="comma-separated seed list for --churn (overrides --seed)",
    )
    parser.add_argument("--servers", type=int, default=3, help="server node count")
    parser.add_argument("--shards-per-node", type=int, default=2)
    parser.add_argument("--client-nodes", type=int, default=4)
    parser.add_argument("--clients-per-node", type=int, default=2)
    parser.add_argument("--ops", type=int, default=400)
    parser.add_argument("--keys", type=int, default=128)
    parser.add_argument("--value-bytes", type=int, default=64)
    parser.add_argument("--zipf", type=float, default=0.9, help="key-popularity skew (0 = uniform)")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--batch", type=int, default=4, help="closed-loop pipeline depth")
    parser.add_argument(
        "--interarrival-ns", type=float, default=4000.0,
        help="open-loop mean interarrival",
    )
    parser.add_argument("--chaos", action="store_true", help="apply a link-flap schedule")
    parser.add_argument(
        "--metrics-out", type=str, default="",
        help="write the observability RunReport (JSON) here; markdown to <path>.md",
    )
    parser.add_argument("--trace", action="store_true", help="enable span tracing")
    args = parser.parse_args(argv)

    if args.churn:
        result = run_kv_churn(seeds=seeds_of(args), observe=bool(args.metrics_out), trace=args.trace)
        print(result.to_text())
        for key, value in result.summary.items():
            print(f"  {key}: {value}")
        if args.metrics_out and result.run_report is not None:
            result.run_report.save(args.metrics_out)
            print(f"observability report: {args.metrics_out}")
        return 0 if result.summary.get("all_invariants_ok") else 1

    workload = WorkloadConfig(
        n_ops=args.ops, n_keys=args.keys, value_bytes=args.value_bytes,
        zipf_s=args.zipf, mode=args.mode, batch=args.batch,
        mean_interarrival_ns=args.interarrival_ns,
    )
    out = run_kv_service(
        seed=args.seed if args.seed is not None else 1, n_server_nodes=args.servers,
        shards_per_node=args.shards_per_node, n_client_nodes=args.client_nodes,
        clients_per_node=args.clients_per_node, workload=workload,
        chaos=args.chaos, observe=bool(args.metrics_out), trace=args.trace,
    )
    print(
        f"kv-service seed={out.seed}: {out.ops_completed}/{out.ops_issued} ops, "
        f"p50 {out.p50_ns:,.0f} ns, p99 {out.p99_ns:,.0f} ns, "
        f"reply batch {out.reply_batch_mean:.2f}, retransmits {out.retransmits}, "
        f"paced {out.rx_paced}"
    )
    print(f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}"
          + (f" ({out.error})" if out.error else ""))
    if args.metrics_out and out.run_report is not None:
        out.run_report.save(args.metrics_out)
        with open(args.metrics_out + ".md", "w", encoding="utf-8") as fh:
            fh.write(out.run_report.to_markdown())
            fh.write("\n")
        print(f"observability report: {args.metrics_out}")
    return 0 if out.invariants_ok else 1
