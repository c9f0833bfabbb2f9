"""Noisy-neighbor isolation: multi-tenant QoS under an incast storm.

The adversarial cell for :mod:`repro.services.qos`: one aggressor
tenant open-loop floods the shard streams while a victim tenant runs a
steady Zipf workload.  Each seed runs the victim **solo** first (same
cluster, same seed, aggressor silent) to establish its baseline p99,
then the combined run, and reports the *isolation factor* — victim p99
combined over victim p99 solo.

With QoS armed (admission token buckets, RC_OVERLOAD shedding, DRR
weighted-fair sweeps, NIC placement quotas) the victim must stay within
a bounded factor of its solo latency while the aggressor is shed and
throttled; with QoS off the same cell must *show the violation* — that
contrast is the experiment's point, and the ``qos-noisy`` CI job
asserts both sides of it.

Liveness holds either way: clients run with deadlines + retries, so
every issued op resolves as ok / error / RC_OVERLOAD / deadline-
exceeded — :class:`~repro.services.LoadStats.all_resolved` is part of
the invariant.

Also the home of the ``qos`` CLI subcommand
(``rvma-experiments qos --help``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from ..scenarios.runner import engine_mode
from ..services import (
    ClientRobustnessConfig,
    LoadGenerator,
    LoadStats,
    TenantDirectory,
    TenantSpec,
    WorkloadConfig,
)
from .kv_cell import build_kv_cell, finite_capacity
from .report import ExperimentResult, seeds_of

#: Tenant ids for the two roles (0 stays the untenanted default).
VICTIM = 1
AGGRESSOR = 2

#: QoS-on isolation bound the CI job asserts: victim p99 combined must
#: stay within this factor of its solo baseline.
ISOLATION_BOUND = 2.0


@dataclass
class NoisyOutcome:
    """One seed's noisy-neighbor cell (solo baseline + combined run)."""

    seed: int
    qos: bool
    completed: bool
    error: Optional[str]
    victim_solo_p99_ns: float
    victim_p99_ns: float
    victim_stats: LoadStats
    aggressor_stats: LoadStats
    overload_replies: int
    quota_rejects: int
    retries: int
    victim_deadline_misses: int
    puts_lost: int
    puts_lost_quota: int
    events_executed: int = 0

    @property
    def isolation_factor(self) -> float:
        if self.victim_solo_p99_ns <= 0:
            return float("inf")
        return self.victim_p99_ns / self.victim_solo_p99_ns

    @property
    def resolved(self) -> bool:
        """Every issued op (both tenants) reached a terminal resolution."""
        return self.victim_stats.all_resolved() and self.aggressor_stats.all_resolved()

    @property
    def invariants_ok(self) -> bool:
        """Liveness + integrity, independent of the isolation verdict.

        ``puts_lost`` may exceed zero only by the quota-shed count —
        anything beyond that is silent loss, QoS or not.
        """
        return bool(
            self.completed
            and self.error is None
            and self.resolved
            and self.puts_lost <= self.puts_lost_quota
        )

    @property
    def isolated(self) -> bool:
        """The QoS promise: bounded victim p99, no victim deadline misses."""
        return (
            self.isolation_factor <= ISOLATION_BOUND
            and self.victim_deadline_misses == 0
        )


def default_tenants() -> TenantDirectory:
    """The cell's tenant policy: favoured victim, throttled aggressor.

    The victim is unmetered (admission rate 0) and carries 4x the DRR
    weight; the aggressor gets a modest admission budget plus a NIC
    placement quota, so overload is shed at *both* enforcement points.
    """
    return TenantDirectory(
        tenants=(
            TenantSpec(VICTIM, "victim", weight=4.0),
            TenantSpec(
                AGGRESSOR,
                "aggressor",
                weight=1.0,
                admit_rate_bytes_per_us=96.0,
                admit_burst_bytes=4096.0,
                nic_quota_bytes_per_us=192.0,
                nic_quota_burst_bytes=8192.0,
            ),
        ),
        default=TenantSpec(0, "default", weight=1.0),
    )


def run_noisy_neighbor(
    seed: int = 1,
    qos: bool = True,
    n_server_nodes: int = 2,
    shards_per_node: int = 2,
    victim_nodes: int = 2,
    aggressor_nodes: int = 2,
    clients_per_node: int = 2,
    victim_ops: int = 160,
    aggressor_ops: int = 800,
    victim_interarrival_ns: float = 6000.0,
    aggressor_batch: int = 8,
    aggressor_value_bytes: int = 1024,
    deadline_ns: float = 2_000_000.0,
    aggressor_deadline_ns: float = 400_000.0,
    tenants: Optional[TenantDirectory] = None,
    sim_deadline_ns: float = 120_000_000.0,
) -> NoisyOutcome:
    """Run one seed's cell: victim solo, then victim + aggressor.

    Both runs use identical cluster/seed/tenant wiring — the only
    difference is whether the aggressor generator is driven — so the
    isolation factor measures the aggressor's interference and nothing
    else.  The aggressor is a closed-loop incast: every client keeps
    ``aggressor_batch`` large puts in flight back-to-back, the worst
    sustained pressure the pool can offer; its deadline is short so
    shed ops resolve fast and the storm stays dense.
    """
    tenants = tenants or default_tenants()
    first_aggressor = n_server_nodes + victim_nodes
    clients = [
        (node, i, VICTIM if node < first_aggressor else AGGRESSOR)
        for node in range(n_server_nodes, first_aggressor + aggressor_nodes)
        for i in range(clients_per_node)
    ]
    n_victims = victim_nodes * clients_per_node

    def run(aggressor_ops: int):
        cell = build_kv_cell(
            seed, clients, sim_deadline_ns,
            servers=n_server_nodes, shards_per_node=shards_per_node,
            server_config=finite_capacity(),
            tenants=tenants if qos else None,
            robustness=ClientRobustnessConfig(),
        )
        victims, aggressors = cell.clients[:n_victims], cell.clients[n_victims:]
        victim_gen = LoadGenerator(
            cell.sim, victims,
            WorkloadConfig(
                n_ops=victim_ops, n_keys=96, value_bytes=64, zipf_s=0.9,
                mode="open", mean_interarrival_ns=victim_interarrival_ns,
                deadline_ns=deadline_ns, rng_stream="kv-victim",
            ),
        )
        aggressor_gen = LoadGenerator(
            cell.sim, aggressors,
            WorkloadConfig(
                n_ops=aggressor_ops, n_keys=32, value_bytes=aggressor_value_bytes,
                zipf_s=0.0, get_frac=0.1, put_frac=0.9, mode="closed",
                batch=aggressor_batch,
                deadline_ns=aggressor_deadline_ns, rng_stream="kv-aggressor",
            ),
        )
        drivers = [(victims, victim_gen.run())]
        if aggressor_ops > 0:
            drivers.append((aggressors, aggressor_gen.run()))
        cell.run(drivers=drivers, drain=True)
        return cell, victim_gen.stats, aggressor_gen.stats

    solo, _victim, _aggressor = run(0)
    cell, victim_stats, aggressor_stats = run(aggressor_ops)
    return NoisyOutcome(
        seed=seed,
        qos=qos,
        completed=cell.completed,
        error=cell.error,
        victim_solo_p99_ns=solo.latency(0.99, tenant=VICTIM),
        victim_p99_ns=cell.latency(0.99, tenant=VICTIM),
        victim_stats=victim_stats,
        aggressor_stats=aggressor_stats,
        overload_replies=cell.counter("service.kv.overload_replies"),
        quota_rejects=cell.counter("nic.rvma.quota_rejects"),
        retries=cell.counter("service.kv.client.retries"),
        victim_deadline_misses=cell.counter(f"service.kv.tenant.deadline_misses.t{VICTIM}"),
        puts_lost=cell.counter("nic.rvma.puts_lost"),
        puts_lost_quota=cell.counter("nic.rvma.puts_lost_quota"),
        events_executed=cell.sim.events_executed,
    )


def run_noisy_sweep(seeds: tuple = (1, 2, 3), **kw) -> ExperimentResult:
    """The contrast sweep: every seed runs QoS on *and* off.

    Passes when each seed's QoS-on cell is isolated (bounded victim
    p99, zero victim deadline misses) and its QoS-off cell demonstrates
    the violation QoS exists to prevent.
    """
    rows = []
    all_ok = True
    contrast_ok = True
    for seed in seeds:
        on = run_noisy_neighbor(seed=seed, qos=True, **kw)
        off = run_noisy_neighbor(seed=seed, qos=False, **kw)
        all_ok = all_ok and on.invariants_ok and off.invariants_ok and on.isolated
        contrast_ok = contrast_ok and not off.isolated
        for out in (on, off):
            rows.append([
                seed,
                "on" if out.qos else "off",
                f"{out.victim_solo_p99_ns:,.0f}",
                f"{out.victim_p99_ns:,.0f}",
                f"{out.isolation_factor:.2f}",
                out.overload_replies,
                out.quota_rejects,
                out.victim_deadline_misses,
                "yes" if out.invariants_ok else "NO",
                "yes" if out.isolated else "no",
            ])
    return ExperimentResult(
        name="qos-noisy",
        title="Noisy-neighbor isolation: victim p99 vs solo baseline, QoS on/off",
        headers=[
            "seed", "qos", "solo p99 ns", "p99 ns", "factor",
            "shed", "quota", "misses", "ok", "isolated",
        ],
        rows=rows,
        summary={
            "all_invariants_ok": all_ok,
            "qos_off_shows_violation": contrast_ok,
            "isolation_bound": ISOLATION_BOUND,
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "mailbox-level quotas plus weighted-fair sweeps "
            "extend RVMA's receiver-managed backpressure to tenant isolation: "
            "an incast-storming neighbour is shed at admission and the NIC "
            "while the victim's tail stays within a small factor of solo"
        },
    )


# ------------------------------------------------------------------- qos CLI


def qos_main(argv: Optional[list[str]] = None) -> int:
    """``rvma-experiments qos``: run the noisy-neighbor cell or sweep."""
    parser = argparse.ArgumentParser(
        prog="rvma-experiments qos",
        description="Noisy-neighbor isolation cell for the multi-tenant KV service",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="pin to one seed (default: the 3-seed matrix for --sweep, 1 otherwise)",
    )
    parser.add_argument(
        "--seeds", type=str, default="",
        help="comma-separated seed list for --sweep (overrides --seed)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the QoS on/off contrast sweep and assert both sides",
    )
    parser.add_argument(
        "--no-qos", action="store_true",
        help="single cell only: run with QoS disabled (shows the violation)",
    )
    parser.add_argument(
        "--engine", choices=("fast", "plain"), default="fast",
        help="event-engine mode (CI matrixes over both)",
    )
    args = parser.parse_args(argv)

    with engine_mode(args.engine):
        if args.sweep:
            result = run_noisy_sweep(seeds=seeds_of(args))
            print(result.to_text())
            for key, value in result.summary.items():
                print(f"  {key}: {value}")
            ok = result.summary["all_invariants_ok"] and result.summary["qos_off_shows_violation"]
            return 0 if ok else 1

        out = run_noisy_neighbor(
            seed=args.seed if args.seed is not None else 1, qos=not args.no_qos
        )
        print(
            f"qos-noisy seed={out.seed} qos={'on' if out.qos else 'off'}: "
            f"victim p99 {out.victim_p99_ns:,.0f} ns vs solo "
            f"{out.victim_solo_p99_ns:,.0f} ns (factor {out.isolation_factor:.2f}), "
            f"shed {out.overload_replies}, quota rejects {out.quota_rejects}, "
            f"victim misses {out.victim_deadline_misses}"
        )
        print(
            f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}; "
            f"isolated: {'yes' if out.isolated else 'no'}"
            + (f" ({out.error})" if out.error else "")
        )
        return 0 if out.invariants_ok and (out.isolated or not out.qos) else 1
