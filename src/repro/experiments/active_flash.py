"""Hot-key flash crowd: active mailboxes vs host-dispatch serving.

The adversarial cell for :mod:`repro.nic.active`: a GET-heavy Zipf
flash crowd hammers a handful of hot keys on a sharded KV service with
finite host serving capacity.  Each seed runs the identical workload
twice — active handlers **off** (every GET sweeps through the host
dispatch loop) and **on** (the NIC's KV serve handler answers hot-key
GETs from its read-only view, tombstoning the frame so the host never
sees it) — and reports the contrast:

* tail latency: active-on p99 must beat active-off p99 (hot GETs skip
  the host service queue entirely);
* dispatch saving: ``service.kv.requests`` must drop by at least the
  NIC's ``nic.rvma.active.served`` count — every served GET is one
  fewer host dispatch, byte-for-byte the same reply.

A ``kv-incast`` variant runs the same contrast under a closed-loop
batch GET storm (many clients, all-hot key set), and a chaos cell
re-runs the active-on flash crowd under link flaps with the
:class:`~repro.recovery.auditor.InvariantAuditor` armed — handler
effects must stay byte-identical through retransmits and replay.

Also the home of the ``active`` CLI subcommand
(``rvma-experiments active --help``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from ..scenarios.runner import engine_mode
from ..services import ClientRobustnessConfig, LoadGenerator, LoadStats, WorkloadConfig
from ..services.wire import OP_PUT
from .kv_cell import build_kv_cell, finite_capacity
from .report import ExperimentResult, seeds_of

#: Hot-key count; ranks 0..N-1 of the Zipf popularity order, which is
#: exactly where a skewed flash crowd concentrates.
DEFAULT_HOT_KEYS = 4

#: Whole-cell sim deadline (stall guard).
FLASH_DEADLINE_NS = 200_000_000.0


def hot_key_set(n_hot: int = DEFAULT_HOT_KEYS) -> tuple:
    """The workload's hottest *n_hot* keys (LoadGenerator's rank naming)."""
    return tuple(b"k%06d" % rank for rank in range(n_hot))


@dataclass
class CellStats:
    """One run's observables (one side of the on/off contrast)."""

    completed: bool
    error: Optional[str]
    p99_ns: float
    requests: int  # host dispatches (service.kv.requests)
    served: int  # NIC-served GETs (nic.rvma.active.served)
    handler_served: int  # client-visible handler replies
    puts_lost: int
    load: LoadStats
    events_executed: int = 0


@dataclass
class FlashOutcome:
    """One seed's flash-crowd contrast cell (active off vs on)."""

    seed: int
    variant: str  # "flash" | "incast"
    off: CellStats
    on: CellStats

    @property
    def dispatch_saving(self) -> int:
        """Host dispatches avoided by the NIC serve path."""
        return self.off.requests - self.on.requests

    @property
    def speedup(self) -> float:
        if self.on.p99_ns <= 0:
            return float("inf")
        return self.off.p99_ns / self.on.p99_ns

    @property
    def invariants_ok(self) -> bool:
        """Liveness + integrity on both sides of the contrast."""
        return bool(
            self.off.completed and self.on.completed
            and self.off.error is None and self.on.error is None
            and self.off.load.all_resolved() and self.on.load.all_resolved()
            and self.off.puts_lost == 0 and self.on.puts_lost == 0
            and self.off.served == 0  # active off must not serve
        )

    @property
    def contrast_ok(self) -> bool:
        """The acceptance contrast: faster tail, fewer host dispatches.

        Every NIC-served GET must account for at least one host dispatch
        the off cell paid for (``dispatch_saving >= served > 0``).
        """
        return bool(
            self.on.p99_ns < self.off.p99_ns
            and self.on.served > 0
            and self.dispatch_saving >= self.on.served
            and self.on.handler_served >= self.on.served
        )


def _run_cell(
    seed: int,
    active: bool,
    workload: WorkloadConfig,
    n_hot: int,
    n_server_nodes: int = 2,
    shards_per_node: int = 2,
    n_client_nodes: int = 3,
    clients_per_node: int = 2,
    chaos: bool = False,
) -> tuple:
    """One run: warm the hot keys, then drive the flash-crowd load.

    Returns ``(CellStats, KvCell)``; under *chaos* the cell's auditor
    shadows every placement and completion.
    """
    hot = hot_key_set(n_hot)
    cell = build_kv_cell(
        seed,
        clients=[
            (n_server_nodes + n, i, 0)
            for n in range(n_client_nodes)
            for i in range(clients_per_node)
        ],
        deadline_ns=FLASH_DEADLINE_NS,
        servers=n_server_nodes,
        shards_per_node=shards_per_node,
        server_config=finite_capacity(hot_keys=hot if active else ()),
        robustness=ClientRobustnessConfig() if chaos else None,
        chaos=dict(
            horizon_ns=FLASH_DEADLINE_NS * 0.6, n_events=4,
            max_window_ns=2_000_000.0, drop_prob=0.02,
        ) if chaos else None,
        audit=chaos,
    )
    gen = LoadGenerator(cell.sim, cell.clients, workload)

    def flash():
        # Warm phase: one PUT per hot key.  The executing host syncs
        # each value into the NIC view (when active), so the crowd's
        # GETs find a servable entry — identical bytes either way.
        warm = [
            (OP_PUT, key, b"hot%03d" % i * 16)
            for i, key in enumerate(hot)
        ]
        gen.stats.ops_issued += len(warm)
        replies = yield from cell.clients[0].execute_batch(
            warm, deadline_ns=workload.deadline_ns
        )
        for (op, _k, _v), reply in zip(warm, replies):
            gen.stats.note(op, reply.status)
        yield from gen.run()

    cell.run(flash(), drain=True)
    stats = CellStats(
        completed=cell.completed,
        error=cell.error,
        p99_ns=cell.latency(0.99),
        requests=cell.counter("service.kv.requests"),
        served=cell.counter("nic.rvma.active.served"),
        handler_served=cell.counter("service.kv.client.handler_served"),
        puts_lost=cell.counter("nic.rvma.puts_lost"),
        load=gen.stats,
        events_executed=cell.sim.events_executed,
    )
    return stats, cell


def _flash_workload(n_hot: int, n_ops: int, deadline_ns: Optional[float]) -> WorkloadConfig:
    """GET-heavy open-loop Zipf crowd concentrated on the hot ranks."""
    return WorkloadConfig(
        n_ops=n_ops, n_keys=max(6 * n_hot, 16), value_bytes=96, zipf_s=1.2,
        get_frac=0.94, put_frac=0.06, mode="open",
        mean_interarrival_ns=900.0, deadline_ns=deadline_ns,
        rng_stream="kv-flash",
    )


def _incast_workload(n_hot: int, n_ops: int, deadline_ns: Optional[float]) -> WorkloadConfig:
    """Closed-loop batch GET storm; the key set is nothing but hot keys."""
    return WorkloadConfig(
        n_ops=n_ops, n_keys=n_hot, value_bytes=96, zipf_s=0.0,
        get_frac=0.97, put_frac=0.03, mode="closed", batch=8,
        deadline_ns=deadline_ns, rng_stream="kv-incast",
    )


def run_flash_crowd(
    seed: int = 1,
    n_hot: int = DEFAULT_HOT_KEYS,
    n_ops: int = 260,
    variant: str = "flash",
    n_server_nodes: int = 2,
    shards_per_node: int = 2,
    n_client_nodes: int = 3,
    clients_per_node: int = 2,
) -> FlashOutcome:
    """Run one seed's contrast cell: active off, then on, same workload.

    Both runs share cluster/seed/workload wiring; the only difference
    is ``KvServerConfig.hot_keys`` — so the contrast measures the NIC
    serve path and nothing else.
    """
    if variant == "incast":
        workload = _incast_workload(n_hot, n_ops, deadline_ns=None)
    else:
        workload = _flash_workload(n_hot, n_ops, deadline_ns=None)
    kw = dict(
        workload=workload, n_hot=n_hot, n_server_nodes=n_server_nodes,
        shards_per_node=shards_per_node, n_client_nodes=n_client_nodes,
        clients_per_node=clients_per_node,
    )
    off, _cell = _run_cell(seed, active=False, **kw)
    on, _cell = _run_cell(seed, active=True, **kw)
    return FlashOutcome(seed=seed, variant=variant, off=off, on=on)


@dataclass
class ChaosOutcome:
    """One seed's active-on flash crowd under link flaps, auditor armed."""

    seed: int
    cell: CellStats
    audit_ok: bool
    audit_violations: int

    @property
    def invariants_ok(self) -> bool:
        return bool(
            self.cell.completed
            and self.cell.error is None
            and self.cell.load.all_resolved()
            and self.audit_ok
            and self.cell.served > 0
        )


def run_flash_chaos(
    seed: int = 1,
    n_hot: int = DEFAULT_HOT_KEYS,
    n_ops: int = 200,
) -> ChaosOutcome:
    """Active-on flash crowd under link flaps with the auditor shadowing
    every placement/completion — handler rewrites and injected replies
    must keep epoch bytes identical through retransmits."""
    stats, cell = _run_cell(
        seed, active=True,
        workload=_flash_workload(n_hot, n_ops, deadline_ns=8_000_000.0),
        n_hot=n_hot, chaos=True,
    )
    return ChaosOutcome(
        seed=seed, cell=stats, audit_ok=cell.auditor.ok,
        audit_violations=len(cell.auditor.violations),
    )


def run_flash_sweep(seeds: tuple = (1, 2, 3), **kw) -> ExperimentResult:
    """The contrast sweep: flash + incast variants, then a chaos cell.

    Passes when every seed's both variants show the acceptance contrast
    (active-on p99 < active-off p99, ``dispatch_saving >= served > 0``)
    and the chaos cell survives with a clean audit.
    """
    rows = []
    all_ok = True
    contrast_ok = True
    chaos_ok = True
    for seed in seeds:
        for variant in ("flash", "incast"):
            out = run_flash_crowd(seed=seed, variant=variant, **kw)
            all_ok = all_ok and out.invariants_ok
            contrast_ok = contrast_ok and out.contrast_ok
            rows.append([
                seed,
                variant,
                f"{out.off.p99_ns:,.0f}",
                f"{out.on.p99_ns:,.0f}",
                f"{out.speedup:.2f}",
                out.on.served,
                out.dispatch_saving,
                out.on.handler_served,
                "yes" if out.invariants_ok else "NO",
                "yes" if out.contrast_ok else "no",
            ])
        chaos = run_flash_chaos(seed=seed)
        chaos_ok = chaos_ok and chaos.invariants_ok
        rows.append([
            seed, "chaos",
            "-", f"{chaos.cell.p99_ns:,.0f}", "-",
            chaos.cell.served, "-", chaos.cell.handler_served,
            "yes" if chaos.invariants_ok else "NO",
            "audit" if chaos.audit_ok else f"{chaos.audit_violations} violations",
        ])
    return ExperimentResult(
        name="active-flash",
        title="Hot-key flash crowd: NIC-served GETs vs host dispatch, active on/off",
        headers=[
            "seed", "variant", "off p99 ns", "on p99 ns", "speedup",
            "served", "saved", "client", "ok", "contrast",
        ],
        rows=rows,
        summary={
            "all_invariants_ok": all_ok,
            "contrast_ok": contrast_ok,
            "chaos_ok": chaos_ok,
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "attaching compute to the mailbox threshold "
            "crossing extends RVMA's receiver-managed completion into "
            "compute-on-arrival: hot-key GETs resolve at the NIC with the "
            "host sweep loop never dispatched, byte-identical to the "
            "host-served reply"
        },
    )


# ---------------------------------------------------------------- active CLI


def active_main(argv: Optional[list] = None) -> int:
    """``rvma-experiments active``: run the flash-crowd cell or sweep."""
    parser = argparse.ArgumentParser(
        prog="rvma-experiments active",
        description="Hot-key flash-crowd cell for NIC-side active mailboxes",
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
        help="run the on/off contrast sweep (flash + incast + chaos) and assert it",
    )
    parser.add_argument(
        "--variant", choices=("flash", "incast"), default="flash",
        help="single-cell workload shape (ignored with --sweep)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="single cell only: active-on under link flaps with the auditor armed",
    )
    parser.add_argument(
        "--engine", choices=("fast", "plain"), default="fast",
        help="event-engine mode (CI matrixes over both)",
    )
    args = parser.parse_args(argv)

    with engine_mode(args.engine):
        if args.sweep:
            result = run_flash_sweep(seeds=seeds_of(args))
            print(result.to_text())
            for key, value in result.summary.items():
                print(f"  {key}: {value}")
            ok = (
                result.summary["all_invariants_ok"]
                and result.summary["contrast_ok"]
                and result.summary["chaos_ok"]
            )
            return 0 if ok else 1

        seed = args.seed if args.seed is not None else 1
        if args.chaos:
            chaos = run_flash_chaos(seed=seed)
            print(
                f"active-chaos seed={chaos.seed}: served {chaos.cell.served}, "
                f"client handler replies {chaos.cell.handler_served}, "
                f"p99 {chaos.cell.p99_ns:,.0f} ns, "
                f"audit {'ok' if chaos.audit_ok else f'{chaos.audit_violations} VIOLATIONS'}"
            )
            return 0 if chaos.invariants_ok else 1
        out = run_flash_crowd(seed=seed, variant=args.variant)
        print(
            f"active-flash seed={out.seed} variant={out.variant}: "
            f"p99 {out.off.p99_ns:,.0f} ns off vs {out.on.p99_ns:,.0f} ns on "
            f"(speedup {out.speedup:.2f}), served {out.on.served}, "
            f"host dispatches saved {out.dispatch_saving}"
        )
        print(
            f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}; "
            f"contrast: {'yes' if out.contrast_ok else 'NO'}"
        )
        return 0 if out.invariants_ok and out.contrast_ok else 1
