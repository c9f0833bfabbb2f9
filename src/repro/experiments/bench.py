"""Continuous benchmark harness: the pinned suite behind ``BENCH_*.json``.

The ROADMAP's north star is "as fast as the hardware allows"; this
module is how we *prove* the simulator stays that way.  It executes a
pinned suite of benchmarks — raw engine churn, cancellation storms, and
the paper's motifs (incast, halo3d, allreduce) plus a crash-restart
chaos cell — with fixed seeds and scales, and emits one
``BENCH_<timestamp>.json`` trajectory point per invocation:

* ``events_per_sec`` — simulator events executed per wall second (the
  headline engine-throughput number);
* ``wall_s`` / ``sim_ns`` — wall time and simulated time per benchmark;
* ``peak_rss_kb`` — process peak RSS after the benchmark (monotone
  across the suite: it is the high-water mark, not a per-bench delta);
* selected canonical metrics swept from the PR-3 observability
  registry (``fabric.*``, ``nic.rvma.*``, ``transport.*``) so a perf
  number can be correlated with what the run actually did.

A committed ``benchmarks/baseline.json`` anchors the regression gate:
:func:`compare` fails any benchmark whose event count, simulated time,
outcome digest or invariant/contrast verdicts differ from the baseline
at all (semantic drift), or whose events/sec drops more than
``tolerance`` below baseline.  Cross-machine runs are normalised by a
small pure-Python calibration loop (heap churn + function calls), so a
slower CI host does not read as an engine regression.

Usage::

    python -m repro.experiments.bench --suite default
    python -m repro.experiments.bench --suite smoke --out bench-out
    python -m repro.experiments.bench --suite default --update-baseline

The suite is deliberately cheap enough to run on every PR (the
``bench-smoke`` CI job runs the ``smoke`` suite and uploads the JSON
artifact).
"""

from __future__ import annotations

import argparse
import heapq
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

#: Default regression tolerance: fail on >20% events/sec drop.
DEFAULT_TOLERANCE = 0.20

#: Pinned seed for every benchmark cell (determinism is part of the
#: contract: same seed => same event count, so events/sec is comparable).
BENCH_SEED = 0xBE7C4

_REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baseline.json"


# --------------------------------------------------------------------------- data


@dataclass
class BenchRecord:
    """One benchmark's measurement."""

    name: str
    wall_s: float
    events: Optional[int]
    sim_ns: float
    peak_rss_kb: int
    metrics: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def events_per_sec(self) -> Optional[float]:
        if self.events is None or self.wall_s <= 0:
            return None
        return self.events / self.wall_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "events": self.events,
            "events_per_sec": (
                round(self.events_per_sec, 1) if self.events_per_sec else None
            ),
            "sim_ns": self.sim_ns,
            "peak_rss_kb": self.peak_rss_kb,
            "metrics": self.metrics,
            "extras": self.extras,
        }


def _peak_rss_kb() -> int:
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KB on Linux, bytes on macOS.
        return int(rss // 1024) if sys.platform == "darwin" else int(rss)
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


def calibrate(reps: int = 60) -> float:
    """Machine-speed proxy: heap churn + function calls per second.

    Pure Python, engine-free, deterministic work — the ratio of two
    hosts' calibration numbers approximates the ratio of their
    single-core Python throughput, which is what events/sec scales with.
    The loop is timed 5 times and the fastest rate kept: one timing
    swings with host noise, and the slowest repeats carry that noise.
    """

    def bump(x: int) -> int:
        return x + 1

    best = 0.0
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(5):
        t0 = time.perf_counter()
        ops = 0
        for _ in range(reps):
            h: list = []
            for i in range(400):
                push(h, ((i * 7) % 31, i, bump))
            while h:
                _, i, fn = pop(h)
                ops = fn(ops)
        dt = time.perf_counter() - t0
        if dt > 0:
            best = max(best, ops / dt)
    return best


def _registry_metrics(sim, prefixes: tuple[str, ...]) -> dict:
    """Selected canonical counters swept from the observability registry."""
    from repro.observability import MetricsRegistry

    reg = MetricsRegistry.collect(sim)
    out = {}
    for name, value in reg.counters.items():
        if name.startswith(prefixes):
            out[name] = value
    return dict(sorted(out.items()))


# ----------------------------------------------------------------------- benches


def bench_engine_churn(n_events: int) -> BenchRecord:
    """Raw DES throughput: a self-rescheduling chain of *n_events*.

    Uses the engine's fastest fire-and-forget scheduling API available
    (``post`` when present, plain ``schedule`` otherwise), mirroring
    what the converted hot call sites (process wakeups, fabric flights)
    use in real runs.
    """
    from repro.sim import Simulator

    sim = Simulator(seed=BENCH_SEED)
    post = getattr(sim, "post", None) or (
        lambda delay, fn, *args: sim.schedule(delay, fn, *args)
    )
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n_events:
            post(1.0, tick)

    post(1.0, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert count[0] == n_events
    return BenchRecord(
        name="engine-churn",
        wall_s=wall,
        events=sim.events_executed,
        sim_ns=sim.now,
        peak_rss_kb=_peak_rss_kb(),
    )


def bench_engine_cancel(n_timers: int) -> BenchRecord:
    """Cancellation-heavy load: armed timers, 75% cancelled before firing.

    This is the chaos-run shape (retransmit timers cancelled by ACKs);
    it exercises lazy-cancel garbage handling and heap compaction.  The
    record's extras carry the peak heap length so unbounded garbage
    growth is visible in the trajectory.
    """
    from repro.sim import Simulator

    sim = Simulator(seed=BENCH_SEED)
    fired = [0]
    peak_heap = [0]
    wave = max(64, n_timers // 64)

    def noop() -> None:
        fired[0] += 1

    def driver(remaining: int) -> None:
        batch = min(wave, remaining)
        timers = [sim.schedule(1000.0, noop) for _ in range(batch)]
        for ev in timers[: (3 * batch) // 4]:
            sim.cancel(ev)
        heap_len = len(sim._heap)
        if heap_len > peak_heap[0]:
            peak_heap[0] = heap_len
        if remaining - batch > 0:
            sim.schedule(10.0, driver, remaining - batch)

    sim.schedule(0.0, driver, n_timers)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return BenchRecord(
        name="engine-cancel",
        wall_s=wall,
        events=sim.events_executed,
        sim_ns=sim.now,
        peak_rss_kb=_peak_rss_kb(),
        extras={"timers": n_timers, "fired": fired[0], "peak_heap_len": peak_heap[0]},
    )


def bench_incast(
    n_nodes: int, msgs_per_client: int, msg_bytes: int, fidelity: str = "packet"
) -> BenchRecord:
    """The §I many-to-one motif (RVMA shared bucket).

    Pinned at packet fidelity: fragmenting every message into MTU
    packets and switching each hop individually is the event-storm
    regime where scheduler throughput dominates, which is what this
    suite is meant to track.
    """
    from repro.cluster import Cluster
    from repro.motifs import Incast, RvmaProtocol

    cl = Cluster.build(
        n_nodes=n_nodes, topology="dragonfly", nic_type="rvma",
        fidelity=fidelity, seed=BENCH_SEED,
    )
    motif = Incast(
        cl, RvmaProtocol(), msgs_per_client=msgs_per_client, msg_bytes=msg_bytes
    )
    t0 = time.perf_counter()
    result = motif.run()
    wall = time.perf_counter() - t0
    return BenchRecord(
        name="incast",
        wall_s=wall,
        events=cl.sim.events_executed,
        sim_ns=cl.sim.now,
        peak_rss_kb=_peak_rss_kb(),
        metrics=_registry_metrics(cl.sim, ("fabric.", "nic.rvma.")),
        extras={
            "n_nodes": n_nodes,
            "messages": result.messages,
            "bytes_moved": result.bytes_moved,
            "motif_elapsed_ns": result.elapsed,
        },
    )


def bench_halo3d(
    n_nodes: int,
    iterations: int,
    msg_bytes: int,
    fidelity: str = "flow",
    name: str = "halo3d",
    topology: str = "dragonfly",
) -> BenchRecord:
    """Ghost exchange on a 3-D grid (the paper's Halo3D motif).

    The ``halo3d`` cell runs at flow fidelity (the 8,192-node regime);
    the ``halo3d-pkt`` cell reruns it at packet fidelity on a 3-D torus
    — long multi-hop nearest-neighbor routes, the switching-heavy shape
    that pins the vectorized packet fabric's throughput.
    """
    from repro.cluster import Cluster
    from repro.motifs import Halo3D, RvmaProtocol

    cl = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type="rvma",
        fidelity=fidelity, seed=BENCH_SEED,
    )
    motif = Halo3D(cl, RvmaProtocol(), iterations=iterations, msg_bytes=msg_bytes)
    t0 = time.perf_counter()
    result = motif.run()
    wall = time.perf_counter() - t0
    return BenchRecord(
        name=name,
        wall_s=wall,
        events=cl.sim.events_executed,
        sim_ns=cl.sim.now,
        peak_rss_kb=_peak_rss_kb(),
        metrics=_registry_metrics(cl.sim, ("fabric.", "nic.rvma.")),
        extras={
            "n_nodes": n_nodes,
            "messages": result.messages,
            "bytes_moved": result.bytes_moved,
            "motif_elapsed_ns": result.elapsed,
        },
    )


def bench_allreduce(n_nodes: int, iterations: int, vector_len: int) -> BenchRecord:
    """Tree allreduce over the whole cluster."""
    from repro.cluster import Cluster
    from repro.motifs import AllreduceMotif, RvmaProtocol

    cl = Cluster.build(
        n_nodes=n_nodes, topology="dragonfly", nic_type="rvma",
        fidelity="flow", seed=BENCH_SEED,
    )
    motif = AllreduceMotif(
        cl, RvmaProtocol(), iterations=iterations, vector_len=vector_len
    )
    t0 = time.perf_counter()
    result = motif.run()
    wall = time.perf_counter() - t0
    return BenchRecord(
        name="allreduce",
        wall_s=wall,
        events=cl.sim.events_executed,
        sim_ns=cl.sim.now,
        peak_rss_kb=_peak_rss_kb(),
        metrics=_registry_metrics(cl.sim, ("fabric.", "nic.rvma.")),
        extras={
            "n_nodes": n_nodes,
            "messages": result.messages,
            "motif_elapsed_ns": result.elapsed,
        },
    )


def bench_kv_incast(
    n_client_nodes: int,
    clients_per_node: int,
    n_ops: int,
    batch: int,
    fidelity: str = "flow",
    name: str = "kv-incast",
    value_bytes: int = 64,
    topology: str = "dragonfly",
) -> BenchRecord:
    """The KV serving incast: many clients, one server node, Zipf keys.

    The serving-workload analog of the §I incast motif — continuous
    request pressure on few receiver-managed shard streams.  The record
    carries the client-observed ``service.kv.request_latency_ns``
    p50/p99 lifted from the observability RunReport, so latency
    regressions on the service path show in the trajectory alongside
    events/sec.  The ``kv-incast-pkt`` cell reruns the workload at
    packet fidelity, covering the vectorized packet fabric under a
    request/reply serving shape.
    """
    from repro.experiments.kv_churn import run_kv_service
    from repro.services import WorkloadConfig

    t0 = time.perf_counter()
    outcome = run_kv_service(
        seed=BENCH_SEED,
        n_server_nodes=1,
        shards_per_node=2,
        n_client_nodes=n_client_nodes,
        clients_per_node=clients_per_node,
        workload=WorkloadConfig(n_ops=n_ops, zipf_s=0.9, batch=batch, value_bytes=value_bytes),
        chaos=False,
        observe=True,
        fidelity=fidelity,
        topology=topology,
    )
    wall = time.perf_counter() - t0
    metrics = {}
    report = outcome.run_report
    if report is not None:
        service = report.metrics.get("service", {})
        for metric_name, value in service.items():
            if isinstance(value, int):
                metrics[metric_name] = value
        hist = service.get("service.kv.request_latency_ns")
        if isinstance(hist, dict):
            metrics["service.kv.request_latency_ns.p50"] = hist.get("p50")
            metrics["service.kv.request_latency_ns.p99"] = hist.get("p99")
    return BenchRecord(
        name=name,
        wall_s=wall,
        events=outcome.events_executed,
        sim_ns=outcome.elapsed_ns,
        peak_rss_kb=_peak_rss_kb(),
        metrics=metrics,
        extras={
            "clients": n_client_nodes * clients_per_node,
            "ops": outcome.ops_completed,
            "p50_ns": outcome.p50_ns,
            "p99_ns": outcome.p99_ns,
            "reply_batch_mean": outcome.reply_batch_mean,
            "invariants_ok": outcome.invariants_ok,
        },
    )


def bench_kv_noisy(victim_ops: int, aggressor_ops: int, aggressor_batch: int) -> BenchRecord:
    """The multi-tenant QoS sweep path: DRR + admission under incast.

    Runs one noisy-neighbor cell (solo baseline + combined run, QoS on)
    so the regression gate covers the weighted-fair scheduler, the
    admission controller and the robust-client retry path.  Events/sec
    counts the combined run's events over the whole cell's wall time —
    pinned seed, so both are deterministic and comparable.
    """
    from repro.experiments.qos_noisy import run_noisy_neighbor

    t0 = time.perf_counter()
    outcome = run_noisy_neighbor(
        seed=1, qos=True, victim_ops=victim_ops,
        aggressor_ops=aggressor_ops, aggressor_batch=aggressor_batch,
    )
    wall = time.perf_counter() - t0
    return BenchRecord(
        name="kv-noisy",
        wall_s=wall,
        events=outcome.events_executed,
        sim_ns=outcome.victim_p99_ns,
        peak_rss_kb=_peak_rss_kb(),
        metrics={
            "service.kv.overload_replies": outcome.overload_replies,
            "nic.rvma.quota_rejects": outcome.quota_rejects,
            "service.kv.client.retries": outcome.retries,
        },
        extras={
            "victim_p99_ns": outcome.victim_p99_ns,
            "isolation_factor": round(outcome.isolation_factor, 3),
            "isolated": outcome.isolated,
            "invariants_ok": outcome.invariants_ok,
        },
    )


def bench_active_flash(n_ops: int, variant: str = "flash", name: str = "active-flash") -> BenchRecord:
    """The hot-key flash-crowd contrast cell: NIC serve path vs host.

    Runs one seed's active off/on pair so the regression gate covers
    the completion-unit handler path (scan, view lookup, reply
    injection, OP_SERVED tombstoning) and the client's handler-reply
    accounting.  Events/sec counts the active-on run's events over the
    whole cell's wall time — pinned seed, both runs deterministic.
    """
    from repro.experiments.active_flash import run_flash_crowd

    t0 = time.perf_counter()
    outcome = run_flash_crowd(seed=1, n_ops=n_ops, variant=variant)
    wall = time.perf_counter() - t0
    return BenchRecord(
        name=name,
        wall_s=wall,
        events=outcome.on.events_executed,
        sim_ns=outcome.on.p99_ns,
        peak_rss_kb=_peak_rss_kb(),
        metrics={
            "nic.rvma.active.served": outcome.on.served,
            "service.kv.client.handler_served": outcome.on.handler_served,
            "service.kv.requests": outcome.on.requests,
        },
        extras={
            "variant": outcome.variant,
            "off_p99_ns": outcome.off.p99_ns,
            "on_p99_ns": outcome.on.p99_ns,
            "speedup": round(outcome.speedup, 3),
            "dispatch_saving": outcome.dispatch_saving,
            "invariants_ok": outcome.invariants_ok,
            "contrast_ok": outcome.contrast_ok,
        },
    )


def bench_kv_trace(exemplar: str, name: str = "kv-trace") -> BenchRecord:
    """Trace replay of a committed exemplar: the record/replay path.

    Replays one exemplar trace end to end (recorder-format decode,
    per-client open-loop dispatch, batched pipelining, outcome
    collection, per-key safety oracle) so the regression gate covers the
    trace machinery.  The offered load is pinned by the trace file, so
    the event count is exactly reproducible and events/sec comparable.
    """
    from repro.experiments.trace_replay import replay_trace
    from repro.workloads import load_exemplar

    trace = load_exemplar(exemplar)
    t0 = time.perf_counter()
    cell = replay_trace(trace, seed=BENCH_SEED)
    wall = time.perf_counter() - t0
    return BenchRecord(
        name=name,
        wall_s=wall,
        events=cell.events_executed,
        sim_ns=cell.p99_ns,
        peak_rss_kb=_peak_rss_kb(),
        metrics={
            "service.kv.requests": cell.requests,
            "workload.trace.rows_replayed": trace.n_ops,
        },
        extras={
            "exemplar": exemplar,
            "trace_id": trace.trace_id,
            "outcome_digest": cell.outcome_digest,
            "p99_ns": cell.p99_ns,
            "invariants_ok": cell.invariants_ok,
        },
    )


def bench_chaos_crash(seed: int) -> BenchRecord:
    """One crash-restart chaos cell: motif + faults + recovery + audit.

    No events/sec is reported (the runner owns its simulator); the
    record tracks wall time, simulated time and the reliability
    counters so chaos-path slowdowns still show in the trajectory.
    """
    from repro.experiments.chaos import run_motif_under_chaos

    t0 = time.perf_counter()
    outcome = run_motif_under_chaos(
        "allreduce", seed=seed, n_crashes=1, compare_clean=False, observe=True
    )
    wall = time.perf_counter() - t0
    metrics = {}
    if outcome.run_report is not None:
        for group in ("transport", "recovery"):
            for name, value in outcome.run_report.metrics.get(group, {}).items():
                if isinstance(value, int):
                    metrics[name] = value
    return BenchRecord(
        name="chaos-crash",
        wall_s=wall,
        events=None,
        sim_ns=outcome.elapsed_ns,
        peak_rss_kb=_peak_rss_kb(),
        metrics=metrics,
        extras={
            "seed": seed,
            "completed": outcome.completed,
            "invariants_ok": outcome.invariants_ok,
            "retransmits": outcome.retransmits,
            "crash_restarts": outcome.crash_restarts,
        },
    )


# ------------------------------------------------------------------------ suites

SUITES: dict[str, list[tuple[str, Callable[[], BenchRecord]]]] = {
    "default": [
        ("engine-churn", lambda: bench_engine_churn(300_000)),
        ("engine-cancel", lambda: bench_engine_cancel(120_000)),
        ("incast", lambda: bench_incast(33, 8, 64 * 1024)),
        ("halo3d", lambda: bench_halo3d(64, 4, 16 * 1024)),
        ("halo3d-pkt", lambda: bench_halo3d(
            64, 4, 32 * 1024, fidelity="packet", name="halo3d-pkt", topology="torus3d")),
        ("allreduce", lambda: bench_allreduce(32, 6, 8)),
        ("kv-incast", lambda: bench_kv_incast(8, 2, 640, 4)),
        ("kv-incast-pkt", lambda: bench_kv_incast(
            8, 2, 320, 4, fidelity="packet", name="kv-incast-pkt",
            value_bytes=1024, topology="torus3d")),
        ("kv-noisy", lambda: bench_kv_noisy(160, 800, 8)),
        ("active-flash", lambda: bench_active_flash(260)),
        ("kv-incast-active", lambda: bench_active_flash(
            200, variant="incast", name="kv-incast-active")),
        ("kv-trace", lambda: bench_kv_trace("flash-crowd")),
        ("chaos-crash", lambda: bench_chaos_crash(1)),
    ],
    "smoke": [
        ("engine-churn", lambda: bench_engine_churn(30_000)),
        ("engine-cancel", lambda: bench_engine_cancel(12_000)),
        ("incast", lambda: bench_incast(17, 4, 16 * 1024)),
        ("halo3d", lambda: bench_halo3d(27, 2, 4 * 1024)),
        ("halo3d-pkt", lambda: bench_halo3d(
            64, 2, 16 * 1024, fidelity="packet", name="halo3d-pkt", topology="torus3d")),
        ("allreduce", lambda: bench_allreduce(8, 3, 8)),
        ("kv-incast", lambda: bench_kv_incast(4, 2, 160, 4)),
        ("kv-incast-pkt", lambda: bench_kv_incast(
            4, 2, 240, 4, fidelity="packet", name="kv-incast-pkt",
            value_bytes=1024, topology="torus3d")),
        ("kv-noisy", lambda: bench_kv_noisy(80, 320, 4)),
        ("active-flash", lambda: bench_active_flash(120)),
        ("kv-incast-active", lambda: bench_active_flash(
            100, variant="incast", name="kv-incast-active")),
        ("kv-trace", lambda: bench_kv_trace("steady-mix")),
        ("chaos-crash", lambda: bench_chaos_crash(1)),
    ],
}


def run_suite(suite: str = "default", names: Optional[list[str]] = None) -> list[BenchRecord]:
    """Execute the pinned suite; returns one record per benchmark."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    records = []
    for name, runner in SUITES[suite]:
        if names and name not in names:
            continue
        print(f"[bench] {name} ...", flush=True)
        rec = runner()
        eps = rec.events_per_sec
        print(
            f"[bench] {name}: {rec.wall_s:.3f}s wall"
            + (f", {eps:,.0f} events/s" if eps else "")
            + f", sim {rec.sim_ns:,.0f}ns",
            flush=True,
        )
        records.append(rec)
    return records


# ------------------------------------------------------------------- comparison


#: Record fields that pin a cell's behaviour, not its speed: any
#: mismatch against the baseline is semantic drift.
SEMANTIC_FIELDS = ("events", "sim_ns")
SEMANTIC_EXTRAS = ("outcome_digest", "invariants_ok", "contrast_ok")


def _semantic_drift(rec: BenchRecord, base: dict) -> list[str]:
    """Fields where *rec* differs from its baseline entry *base*."""
    drift = [
        f"{key} {base.get(key)!r} -> {getattr(rec, key)!r}"
        for key in SEMANTIC_FIELDS
        if getattr(rec, key) != base.get(key)
    ]
    base_extras = base.get("extras", {})
    drift += [
        f"{key} {base_extras.get(key)!r} -> {rec.extras.get(key)!r}"
        for key in SEMANTIC_EXTRAS
        if rec.extras.get(key) != base_extras.get(key)
    ]
    return drift


def compare(
    records: list[BenchRecord],
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    calib: Optional[float] = None,
    suite: str = "default",
) -> tuple[list[str], list[str]]:
    """Gate records against a baseline document.

    Returns ``(regressions, notes)``.  Two gates apply per benchmark:

    * **semantic** — ``events``, ``sim_ns`` and the ``outcome_digest`` /
      ``invariants_ok`` / ``contrast_ok`` extras must equal the
      baseline's exactly, whatever the timing: a mismatch means the
      simulation changed, which no speedup excuses;
    * **timing** — the calibration-normalised events/sec must not fall
      more than *tolerance* below the baseline's for the same suite
      (scales differ between suites, so a smoke run is never gated
      against default-scale numbers); ``tolerance=1.0`` turns it off.

    Benchmarks without events/sec (chaos-crash) get only the semantic
    gate; benchmarks absent from the baseline are reported as notes.
    """
    regressions: list[str] = []
    notes: list[str] = []
    base_list = baseline.get("suites", {}).get(suite) or baseline.get("results", [])
    base_records = {r["name"]: r for r in base_list}
    base_calib = baseline.get("meta", {}).get("calib_ops_per_sec") or 0.0
    scale = 1.0
    if calib and base_calib:
        scale = calib / base_calib
        if abs(scale - 1.0) > 0.05:
            notes.append(
                f"calibration scale {scale:.2f}x vs baseline host "
                f"({baseline.get('meta', {}).get('host', '?')})"
            )
    for rec in records:
        base = base_records.get(rec.name)
        if base is None:
            notes.append(f"{rec.name}: no baseline entry (new benchmark)")
            continue
        drift = _semantic_drift(rec, base)
        if drift:
            regressions.append(f"{rec.name}: semantic drift vs baseline: " + "; ".join(drift))
        eps, base_eps = rec.events_per_sec, base.get("events_per_sec")
        if eps is None or not base_eps:
            notes.append(f"{rec.name}: wall {rec.wall_s:.3f}s (no events/sec gate)")
            continue
        floor = base_eps * scale * (1.0 - tolerance)
        ratio = eps / (base_eps * scale)
        line = (
            f"{rec.name}: {eps:,.0f} events/s vs baseline {base_eps:,.0f} "
            f"(normalised ratio {ratio:.2f}x, floor {floor:,.0f})"
        )
        if eps < floor:
            regressions.append(line)
        else:
            notes.append(line)
    return regressions, notes


def build_document(
    records: list[BenchRecord], suite: str, calib: float
) -> dict:
    return {
        "meta": {
            "suite": suite,
            "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "host": platform.node(),
            "seed": BENCH_SEED,
            "calib_ops_per_sec": round(calib, 1),
        },
        "results": [r.to_dict() for r in records],
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.bench",
        description="Run the pinned benchmark suite and gate against baseline.json",
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="default",
        help="which pinned suite to run (smoke = CI scale)",
    )
    parser.add_argument(
        "--only", type=str, default="",
        help="comma-separated benchmark subset (default: whole suite)",
    )
    parser.add_argument(
        "--out", type=str, default=".",
        help="directory for the BENCH_<timestamp>.json artifact",
    )
    parser.add_argument(
        "--baseline", type=str, default=str(DEFAULT_BASELINE),
        help="baseline JSON to gate against (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional events/sec regression before failing",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write this run's numbers to the baseline path instead of gating",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="emit the BENCH JSON but never fail on regressions",
    )
    args = parser.parse_args(argv)

    calib = calibrate()
    names = [n.strip() for n in args.only.split(",") if n.strip()] or None
    records = run_suite(args.suite, names)
    doc = build_document(records, args.suite, calib)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_path = out_dir / f"BENCH_{stamp}.json"
    out_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"[bench] wrote {out_path}")

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        # Merge this suite's numbers into the (possibly existing)
        # per-suite baseline so smoke and default anchors coexist.
        existing = {}
        if baseline_path.exists():
            existing = json.loads(baseline_path.read_text(encoding="utf-8"))
        suites = existing.get("suites", {})
        if "results" in existing and "suites" not in existing:
            suites[existing.get("meta", {}).get("suite", "default")] = existing["results"]
        suites[args.suite] = doc["results"]
        merged = {"meta": doc["meta"], "suites": suites}
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
        print(f"[bench] baseline updated: {baseline_path} (suite {args.suite})")
        return 0

    if not baseline_path.exists():
        print(f"[bench] no baseline at {baseline_path}; skipping gate")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    regressions, notes = compare(records, baseline, args.tolerance, calib, args.suite)
    for note in notes:
        print(f"[bench] ok: {note}")
    for reg in regressions:
        print(f"[bench] REGRESSION: {reg}")
    if regressions and not args.no_gate:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
