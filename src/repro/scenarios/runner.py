"""Scenario runner: bit-identical replay plus failure fingerprints.

One scenario document in, one :class:`ScenarioOutcome` out.  The runner
owns the oracle adapters:

* **motif scenarios** route through the chaos harness
  (:func:`repro.experiments.chaos.run_motif_under_chaos`) with the
  scenario's pinned :class:`~repro.faults.chaos.ChaosSchedule`, routing
  mode and workload shape — completion, exactness, auditor and
  replay-hole invariants all apply;
* **kv scenarios** replay the pinned per-client op scripts against the
  sharded service and check per-key linearizability exactly (keys are
  partitioned per client, so each script's local model is the single
  valid linearization);
* **differential scenarios** drive the pinned channel matrix through
  every compared protocol backend and demand byte-identical delivery.

Failures collapse to a :class:`FailureFingerprint` — a sorted tuple of
*coarse* component strings (exception type, invariant name, auditor
violation kind, differential divergence digest).  Coarseness is load
bearing: the auto-shrinker must be able to shrink a scenario without
the fingerprint drifting, so fingerprints never include payload bytes,
node ids or timestamps.

Replay determinism: the runner pins the engine mode per scenario and
scrubs wall-clock fields from the attached RunReport, so replaying the
same document twice produces **byte-identical** report JSON.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..cluster.builder import Cluster
from ..faults.chaos import ChaosEvent, ChaosSchedule
from ..network.routing import RoutingMode
from ..nic.active import AtomicWordHandler
from ..observability import RunReport
from ..services import KvServerConfig
from ..services.wire import STATUS_NOT_FOUND, STATUS_OK
from ..sim.process import spawn
from .schema import Scenario

#: Engine-run ceilings: a stalled scenario must terminate, not spin.
MOTIF_DEADLINE_NS = 50_000_000.0
KV_DEADLINE_NS = 80_000_000.0
DIFF_DEADLINE_NS = 50_000_000.0

_ROUTING = {"static": RoutingMode.STATIC, "adaptive": RoutingMode.ADAPTIVE}


@dataclass(frozen=True)
class FailureFingerprint:
    """Coarse, shrink-stable identity of a scenario failure."""

    components: tuple = ()

    def __bool__(self) -> bool:
        return bool(self.components)

    @property
    def digest(self) -> str:
        return hashlib.blake2s(
            "|".join(self.components).encode("utf-8"), digest_size=6
        ).hexdigest()

    def describe(self) -> str:
        if not self.components:
            return "pass"
        return f"{self.digest}: " + " + ".join(self.components)

    @classmethod
    def collect(cls, components) -> "FailureFingerprint":
        return cls(components=tuple(sorted(set(components))))


@dataclass
class ScenarioOutcome:
    """One scenario execution: verdict, fingerprint, evidence."""

    scenario: Scenario
    failed: bool
    fingerprint: FailureFingerprint
    details: dict = field(default_factory=dict)
    run_report: Optional[RunReport] = None

    def report_dict(self) -> Optional[dict]:
        """Deterministic (wall-clock-scrubbed) report dictionary."""
        if self.run_report is None:
            return None
        return scrub_report(self.run_report.to_dict())

    def report_json(self) -> Optional[str]:
        import json

        doc = self.report_dict()
        if doc is None:
            return None
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def describe(self) -> str:
        verdict = "FAILED" if self.failed else "ok"
        return f"{self.scenario.describe()} -> {verdict} [{self.fingerprint.describe()}]"


@contextmanager
def engine_mode(mode: str) -> Iterator[None]:
    """Pin the simulator engine mode (fast/plain) for one scenario or CLI run."""
    import repro.sim.engine as engine

    saved = engine.DEFAULT_FAST
    engine.DEFAULT_FAST = mode == "fast"
    try:
        yield
    finally:
        engine.DEFAULT_FAST = saved


def scrub_report(doc: dict) -> dict:
    """Zero every wall-clock field so replayed reports are byte-identical.

    Simulated time is deterministic; host wall time is not.  Spans carry
    both, and the hottest-by-wall-time ranking is ordered by wall time,
    so it is dropped entirely rather than re-sorted.
    """

    def walk(obj):
        if isinstance(obj, dict):
            out = {}
            for key, value in obj.items():
                if key == "hottest_by_wall_time":
                    out[key] = []
                elif key in ("wall_s", "wall_time", "wall_start", "wall_end"):
                    out[key] = 0.0
                else:
                    out[key] = walk(value)
            return out
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(doc)


def _chaos_schedule(scenario: Scenario) -> ChaosSchedule:
    """The scenario's pinned fault plan as an applicable schedule."""
    return ChaosSchedule(
        events=[
            ChaosEvent(kind=ev.kind, start=ev.start, end=ev.end, params=tuple(ev.params))
            for ev in scenario.fault_events
        ],
        drop_prob=scenario.drop_prob,
    )


def _scenario_report(
    cluster: Cluster, scenario: Scenario, fp: FailureFingerprint, **meta
) -> RunReport:
    """Stamp the scenario counters on *cluster* and snapshot its report."""
    stats = cluster.sim.stats
    stats.counter("scenario.runs").add()
    stats.counter("scenario.faults_scheduled").add(len(scenario.fault_events))
    stats.counter("scenario.workload_ops").add(scenario.workload_size())
    if fp:
        stats.counter("scenario.failures").add()
    return RunReport.collect(cluster, meta={
        "harness": "scenario-fuzz",
        "scenario_id": scenario.scenario_id,
        "scenario_seed": scenario.seed,
        **meta,
        "fingerprint": fp.describe(),
    })


def _audit_kinds(audit_report: Optional[dict]) -> list:
    """Violation kinds out of the auditor's describe() strings."""
    kinds = []
    for line in (audit_report or {}).get("violations", ()):
        if line.startswith("["):
            kinds.append(f"audit:{line[1:line.index(']')]}")
        else:  # pragma: no cover - defensive against format drift
            kinds.append("audit:unknown")
    return kinds


# ------------------------------------------------------------------ motif oracle


def _run_motif(scenario: Scenario, trace: bool) -> ScenarioOutcome:
    from ..experiments.chaos import run_motif_under_chaos

    schedule = _chaos_schedule(scenario)
    try:
        out = run_motif_under_chaos(
            scenario.workload_kind,
            seed=scenario.cluster_seed,
            n_nodes=scenario.n_nodes,
            topology=scenario.topology,
            reliability=scenario.reliability,
            drop_prob=scenario.drop_prob,
            compare_clean=scenario.compare_clean,
            n_crashes=scenario.crash_count,
            audit=scenario.audit,
            observe=True,
            trace=trace,
            schedule=schedule,
            routing=_ROUTING[scenario.routing],
            motif_params=dict(scenario.workload),
            scenario_meta={
                "id": scenario.scenario_id,
                "workload": scenario.workload_kind,
                "workload_ops": scenario.workload_size(),
            },
        )
    except Exception as exc:
        return ScenarioOutcome(
            scenario=scenario,
            failed=True,
            fingerprint=FailureFingerprint.collect([f"exception:{type(exc).__name__}"]),
            details={"error": str(exc)},
        )

    components = []
    if out.error is not None:
        components.append("exception:RuntimeError")
    if not out.completed and out.error is None:
        components.append("invariant:incomplete")
    if out.gave_up:
        components.append("invariant:gave_up")
    if out.identical_to_clean is False:
        components.append("invariant:not_identical")
    if out.replay_holes:
        components.append("invariant:replay_holes")
    if out.put_window_evictions or out.put_giveups:
        components.append("invariant:giveups")
    components.extend(_audit_kinds(out.audit_report))
    fp = FailureFingerprint.collect(components)
    report = out.run_report
    if report is not None:
        # The chaos harness collects its report before the verdict is
        # known; fold the failure counter in post hoc so campaign
        # rollups carry scenario.failures.
        if fp:
            group = report.metrics.setdefault("scenario", {})
            group["scenario.failures"] = group.get("scenario.failures", 0) + 1
        report.meta.update(
            scenario_id=scenario.scenario_id,
            scenario_seed=scenario.seed,
            fingerprint=fp.describe(),
        )
    return ScenarioOutcome(
        scenario=scenario,
        failed=bool(fp),
        fingerprint=fp,
        details={
            "error": out.error,
            "retransmits": out.retransmits,
            "gave_up": out.gave_up,
            "identical_to_clean": out.identical_to_clean,
            "audit_violations": out.audit_violations,
            "crash_restarts": out.crash_restarts,
        },
        run_report=report,
    )


# --------------------------------------------------------------------- kv oracle

#: Per-op deadline budget for tenant-mix (qos) scenarios — generous
#: against the fault horizon so a deadline miss means a genuinely lost
#: request (quota reject), not a slow one.
KV_OP_DEADLINE_NS = 8_000_000.0

#: Possible-state sentinel for "key not stored".
_ABSENT = None


def _apply_kv_step(op: str, status: int, value, new_value, possible: set) -> Optional[str]:
    """Advance one key's possible-state set through one scripted op.

    Exact linearizability generalised to lossy outcomes: receiver-
    managed streams keep each client's ops in program order, so the only
    ambiguity is whether a request *executed at all*.  ``RC_OVERLOAD``
    is a definitive not-executed (the server refused before touching the
    store); ``STATUS_DEADLINE_EXCEEDED`` is ambiguous (the frame may be
    quota-rejected at the NIC or may have executed unanswered), so the
    set forks.  A successful GET observes the store and collapses the
    set back to a singleton.  Returns a failure string or None.
    """
    from ..services.wire import STATUS_DEADLINE_EXCEEDED, STATUS_OVERLOAD

    if status == STATUS_OVERLOAD:
        return None  # refused before execution: state unchanged
    if op == "put":
        if status == STATUS_OK:
            possible.clear()
            possible.add(new_value)
        elif status == STATUS_DEADLINE_EXCEEDED:
            possible.add(new_value)
        else:
            return f"put -> {status}"
    elif op == "delete":
        if status == STATUS_OK:
            if not any(v is not _ABSENT for v in possible):
                return "delete -> OK on a surely-absent key"
            possible.clear()
            possible.add(_ABSENT)
        elif status == STATUS_NOT_FOUND:
            if _ABSENT not in possible:
                return "delete -> NOT_FOUND on a surely-present key"
            possible.clear()
            possible.add(_ABSENT)
        elif status == STATUS_DEADLINE_EXCEEDED:
            possible.add(_ABSENT)
        else:
            return f"delete -> {status}"
    else:  # get: read-only, so an unanswered one never forks the set
        if status == STATUS_OK:
            if value not in possible:
                return f"get observed a value outside the possible set (len {len(value or b'')})"
            possible.clear()
            possible.add(value)
        elif status == STATUS_NOT_FOUND:
            if _ABSENT not in possible:
                return "ghost get -> NOT_FOUND on a surely-present key"
            possible.clear()
            possible.add(_ABSENT)
        elif status != STATUS_DEADLINE_EXCEEDED:
            return f"get -> {status}"
    return None


def _kv_tenancy(scenario: Scenario):
    """(TenantDirectory, client_tenants) for a qos scenario, else (None, ...)."""
    from ..services import TenantDirectory, TenantSpec

    workload = scenario.workload
    if not workload.get("qos"):
        return None, [0] * len(workload["scripts"])
    specs = tuple(
        TenantSpec(
            tenant_id=int(tid),
            weight=float(weight),
            admit_rate_bytes_per_us=float(admit),
            nic_quota_bytes_per_us=float(quota),
        )
        for tid, weight, admit, quota in workload["tenant_specs"]
    )
    return TenantDirectory(specs), [int(t) for t in workload["client_tenants"]]


def _run_kv(scenario: Scenario, trace: bool) -> ScenarioOutcome:
    from ..experiments.kv_cell import build_kv_cell
    from ..services import ClientRobustnessConfig

    scripts = scenario.workload["scripts"]
    shards_per_node = int(scenario.workload.get("shards_per_node", 2))
    value_scale = int(scenario.workload.get("value_scale", 24))
    # Active-handler dimension (schema v3): derive the hot-key set
    # deterministically from the document — the first
    # ceil(fraction * keyspace) indices of every client's namespace.
    hot_keys: tuple = ()
    if scenario.workload.get("active"):
        n_keys = 1 + max(
            (int(key_i) for script in scripts for _op, key_i, _f in script), default=0
        )
        fraction = float(scenario.workload.get("hot_key_fraction", 0.5))
        n_hot = max(1, int(n_keys * fraction))
        hot_keys = tuple(
            b"c%d-k%d" % (rank, k)
            for rank in range(len(scripts))
            for k in range(n_hot)
        )
    attach_word = bool(scenario.workload.get("handler_word"))
    directory, client_tenants = _kv_tenancy(scenario)
    cell = build_kv_cell(
        scenario.cluster_seed,
        clients=[(1 + rank, rank, tenant) for rank, tenant in enumerate(client_tenants)],
        deadline_ns=KV_DEADLINE_NS,
        shards_per_node=shards_per_node,
        server_config=KvServerConfig(hot_keys=hot_keys),
        tenants=directory,
        # max_retries=0: each frame is sent exactly once, so a request
        # either executed once or not at all — the precise ambiguity the
        # possible-state oracle models.  Retries would add duplicate-
        # execution ambiguity without widening coverage.
        robustness=(
            ClientRobustnessConfig(max_retries=0, default_deadline_ns=KV_OP_DEADLINE_NS)
            if directory is not None
            else None
        ),
        topology=scenario.topology,
        routing=_ROUTING[scenario.routing],
        reliable=scenario.reliability,
        n_nodes=scenario.n_nodes,
        chaos=_chaos_schedule(scenario),
        spans=trace,
    )
    scenario_span = cell.sim.spans.begin("scenario", "kv", id=scenario.scenario_id)
    failures: list = []
    handler_failures: list = []

    def client_proc(rank: int, client, script):
        if attach_word:
            # Handler-mix dimension: an atomic word on the reply mailbox
            # counts reply epochs NIC-side; losing the binding (or the
            # word) under faults is a fingerprinted failure.
            yield from client.api.attach_handler(
                client.reply_win, AtomicWordHandler(op="add")
            )
        # Keys partitioned per client: each key's possible-state set is
        # the exact linearization envelope for this client's namespace.
        model: dict = {}
        for step, (op, key_i, fill) in enumerate(script):
            key = b"c%d-k%d" % (rank, key_i)
            possible = model.setdefault(key, {_ABSENT})
            new_value = None
            if op == "put":
                new_value = bytes([fill]) * (1 + fill % max(1, value_scale))
                status = yield from client.put(key, new_value)
                value = None
            elif op == "delete":
                status = yield from client.delete(key)
                value = None
            else:
                status, value = yield from client.get(key)
            problem = _apply_kv_step(op, status, value, new_value, possible)
            if problem is not None:
                failures.append(f"rank{rank} step{step}: {problem}")
        if attach_word:
            word = yield from client.api.active_word(client.reply_win)
            if word is None:
                handler_failures.append(f"rank{rank}: reply-mailbox word handler lost")

    cell.run(drivers=[
        ([client], client_proc(rank, client, script))
        for rank, (client, script) in enumerate(zip(cell.clients, scripts))
    ])

    components = []
    if cell.exception is not None:
        components.append(f"exception:{type(cell.exception).__name__}")
    elif cell.stalled:
        components.append("stall")
    if failures:
        components.append("kv:linearizability")
    if handler_failures:
        components.append("active:word_lost")
    if cell.counter("transport.gave_up"):
        components.append("invariant:gave_up")
    lost = cell.counter("nic.rvma.puts_lost")
    # Quota rejects are reject-into-counter by design (terminal at the
    # sender NIC, client deadline is the recovery path) — only losses
    # beyond them indicate the transport actually dropped data.
    if lost - cell.counter("nic.rvma.puts_lost_quota") > 0 and scenario.reliability:
        components.append("invariant:puts_lost")
    fp = FailureFingerprint.collect(components)
    cell.sim.spans.end(scenario_span, completed=not fp)
    return ScenarioOutcome(
        scenario=scenario,
        failed=bool(fp),
        fingerprint=fp,
        details={"kv_failures": failures[:10], "clients": len(scripts)},
        run_report=_scenario_report(cell.cluster, scenario, fp, workload="kv"),
    )


# ------------------------------------------------------------- differential oracle


def _diff_payload(seed: int, src: int, dst: int, i: int, max_msg: int) -> bytes:
    size = 64 + ((src * 13 + dst * 7 + i * 29 + seed) % max(1, max_msg - 64))
    base = src * 31 + dst * 17 + i * 3 + seed
    return bytes((base + j) % 256 for j in range(size))


def run_channels(
    backend: str,
    channels: dict,
    max_msg: int,
    n_nodes: int,
    topology: str,
    seed: int,
    deadline_ns: float,
) -> tuple:
    """Push per-channel payload streams through one wire backend.

    *channels* maps ``(src, dst)`` to that channel's payloads in send
    order; every channel gets a receiver on *dst* and a sender on *src*.
    Returns ``(delivered, counts, stalled, cluster)``: ``delivered[(src,
    dst, i)]`` is the i-th payload as received, ``counts[(src, dst)]``
    the receiver's message count, and *cluster* lets the caller collect
    an observability report.  Backends agree when delivered bytes and
    counts are identical.
    """
    from ..motifs import RdmaProtocol, RvmaProtocol, UcxProtocol

    protocols = {"rvma": RvmaProtocol, "verbs": RdmaProtocol, "ucx": UcxProtocol}
    proto = protocols[backend](mode=RoutingMode.STATIC)
    cluster = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type=proto.nic_type,
        fidelity="flow", seed=seed,
    )
    delivered: dict = {}
    counts: dict = {}

    def receiver(src, dst, tag, payloads):
        ep = yield from proto.recv_setup(cluster.nodes[dst], src, tag, max_msg, slots=len(payloads))
        for i, payload in enumerate(payloads):
            delivered[(src, dst, i)] = (yield from ep.recv_data(len(payload)))
        counts[(src, dst)] = ep.received

    def sender(src, dst, tag, payloads):
        ep = yield from proto.send_setup(cluster.nodes[src], dst, tag, max_msg)
        for payload in payloads:
            yield from ep.send(len(payload), payload)

    procs = []
    for k, (src, dst) in enumerate(sorted(channels)):
        payloads = channels[(src, dst)]
        procs.append(spawn(cluster.sim, receiver(src, dst, 100 + k, payloads), f"r{src}-{dst}"))
        procs.append(spawn(cluster.sim, sender(src, dst, 100 + k, payloads), f"s{src}-{dst}"))
    cluster.sim.run(until=deadline_ns)
    stalled = not all(p.finished for p in procs)
    return delivered, counts, stalled, cluster


def _run_differential(scenario: Scenario, trace: bool) -> ScenarioOutcome:
    max_msg = int(scenario.workload.get("max_msg", 512))
    seed = scenario.cluster_seed
    channels = {
        (int(s), int(d)): [_diff_payload(seed, int(s), int(d), i, max_msg) for i in range(int(n))]
        for s, d, n in scenario.workload["channels"]
    }
    results = {}
    primary_cluster = None
    components = []
    try:
        for backend in scenario.compare:
            delivered, counts, stalled, cluster = run_channels(
                backend, channels, max_msg, scenario.n_nodes, scenario.topology,
                seed, DIFF_DEADLINE_NS,
            )
            results[backend] = (delivered, counts)
            if stalled:
                components.append("stall")
            if backend == scenario.compare[0]:
                primary_cluster = cluster
    except Exception as exc:
        return ScenarioOutcome(
            scenario=scenario,
            failed=True,
            fingerprint=FailureFingerprint.collect([f"exception:{type(exc).__name__}"]),
            details={"error": str(exc)},
        )

    base_name = scenario.compare[0]
    base_delivered, base_counts = results[base_name]
    divergences = []
    for name in scenario.compare[1:]:
        got_delivered, got_counts = results[name]
        if got_delivered != base_delivered:
            divergences.append(("bytes", name))
        if got_counts != base_counts:
            divergences.append(("counts", name))
    if divergences:
        # Digest over the *shape* of the divergence (which backend,
        # bytes vs counts) — stable while the shrinker trims channels.
        digest = hashlib.blake2s(
            "|".join(f"{k}:{n}" for k, n in sorted(divergences)).encode("utf-8"),
            digest_size=4,
        ).hexdigest()
        components.append(f"diff:{digest}")
    fp = FailureFingerprint.collect(components)

    report = None
    if primary_cluster is not None:
        report = _scenario_report(
            primary_cluster, scenario, fp,
            workload="differential", backends=list(scenario.compare),
        )
    return ScenarioOutcome(
        scenario=scenario,
        failed=bool(fp),
        fingerprint=fp,
        details={
            "backends": list(scenario.compare),
            "divergences": [f"{k}:{n}" for k, n in sorted(divergences)],
        },
        run_report=report,
    )


# ------------------------------------------------------------------ trace oracle


def _run_trace(scenario: Scenario, trace: bool) -> ScenarioOutcome:
    """Replay a committed exemplar trace (schema v4 workload kind).

    The offered load is pinned by the trace file, so the oracles here
    are pure outcome checks: per-key replay safety (linearizability over
    the recorded op streams), op-stream liveness, transport/NIC
    integrity counters, and the invariant auditor.
    """
    from ..experiments.trace_replay import replay_trace
    from ..workloads import load_exemplar

    workload = scenario.workload
    try:
        exemplar = load_exemplar(workload["trace_ref"])
        cell = replay_trace(
            exemplar,
            seed=scenario.cluster_seed,
            qos=bool(workload.get("qos", False)),
            active=bool(workload.get("active", False)),
            audit=scenario.audit,
            observe=trace,
            topology=scenario.topology,
        )
    except Exception as exc:
        return ScenarioOutcome(
            scenario=scenario,
            failed=True,
            fingerprint=FailureFingerprint.collect([f"exception:{type(exc).__name__}"]),
            details={"error": str(exc)},
        )

    components = []
    if cell.error is not None:
        if "did not finish" in cell.error:
            components.append("stall")
        else:
            components.append(f"exception:{cell.error.split(':', 1)[0]}")
    if not cell.stats.all_resolved():
        components.append("stall")
    if cell.safety_failures:
        components.append("kv:linearizability")
    if cell.gave_up:
        components.append("invariant:gave_up")
    if cell.puts_lost - cell.puts_lost_quota:
        components.append("invariant:puts_lost")
    if not cell.audit_ok:
        components.append("audit:violations")
    fp = FailureFingerprint.collect(components)

    report = None
    if cell.cluster is not None:
        report = _scenario_report(
            cell.cluster, scenario, fp, workload="trace",
            trace_ref=workload["trace_ref"], trace_id=exemplar.trace_id,
        )
    return ScenarioOutcome(
        scenario=scenario,
        failed=bool(fp),
        fingerprint=fp,
        details={
            "error": cell.error,
            "trace_ref": workload["trace_ref"],
            "outcome_digest": cell.outcome_digest,
            "safety_failures": cell.safety_failures[:5],
            "gave_up": cell.gave_up,
            "audit_violations": cell.audit_violations,
        },
        run_report=report,
    )


# -------------------------------------------------------------------- entry point


def run_scenario(scenario: Scenario, trace: bool = False) -> ScenarioOutcome:
    """Execute *scenario* under its pinned engine mode and oracles."""
    scenario.validate()
    with engine_mode(scenario.engine):
        if scenario.workload_kind == "kv":
            return _run_kv(scenario, trace)
        if scenario.workload_kind == "differential":
            return _run_differential(scenario, trace)
        if scenario.workload_kind == "trace":
            return _run_trace(scenario, trace)
        return _run_motif(scenario, trace)
