"""Unit tests for the observability layer: registration-side canonical
names, the span tracer, MetricsRegistry collection, and RunReport
merge/render.
"""

import json

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.nic.rvma import RvmaNicConfig
from repro.observability import (
    CATALOG,
    MetricsRegistry,
    RunReport,
    SpanTracer,
    lookup,
    uncatalogued,
)
from repro.reliability import ReliabilityConfig
from repro.sim import Simulator

from tests.helpers import run_gens


# --- registration-side names -------------------------------------------


def test_collect_keeps_uncatalogued_names_verbatim():
    # No read-side translation: a name the CATALOG does not declare is
    # reported exactly as registered (no host.* fallback) and flagged.
    sim = Simulator()
    sim.stats.counter("mystery7.widgets").add(3)
    sim.stats.counter("fabric.bytes_sent").add(1)
    reg = MetricsRegistry.collect(sim)
    assert reg.counters == {"mystery7.widgets": 3, "fabric.bytes_sent": 1}
    assert reg.undocumented() == ["mystery7.widgets"]
    assert uncatalogued(sim.stats) == ["mystery7.widgets"]


def test_reliability_counters_register_once_under_canonical_names():
    # The transport registers transport.* itself, once: no per-NIC
    # "<nic>.rel_tx" and no flat "reliability.*" copy beside it.
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow",
        nic_config=RvmaNicConfig(reliability=ReliabilityConfig()),
    )
    api0 = RvmaApi(cl.node(0))

    def tx():
        op = yield from api0.put(1, 0xAB, size=64)
        yield op.local_done

    run_gens(cl.sim, tx())
    counters = cl.sim.stats.counters()
    assert counters["transport.tx"] >= 1
    assert counters["transport.delivered"] >= 1
    assert uncatalogued(cl.sim.stats) == []
    assert MetricsRegistry.collect(cl).counters["transport.tx"] == counters["transport.tx"]


def test_lookup_honors_patterns():
    assert lookup("faults.drops_random") is not None
    assert lookup("faults.drops_link_flap") is not None  # via faults.drops_*
    assert lookup("no.such.metric") is None
    for name, spec in CATALOG.items():
        assert spec.unit and spec.description, name


# --- SpanTracer ----------------------------------------------------------


def _tracer(t=[0.0]):
    return SpanTracer(clock=lambda: t[0], wall_clock=lambda: 0.0), t


def test_spans_off_by_default():
    spans, _ = _tracer()
    assert not spans.active
    assert spans.begin("nic", "x") is None
    spans.end(None)  # must be a no-op, not a crash
    assert len(spans) == 0


def test_span_category_filtering():
    spans, t = _tracer([0.0])
    spans.enable("transport")
    assert spans.wants("transport") and not spans.wants("nic")
    assert spans.begin("nic", "x") is None
    sp = spans.begin("transport", "send", seq=1)
    t[0] = 10.0
    spans.end(sp, outcome="acked")
    assert len(spans) == 1
    assert sp.sim_time == 10.0
    assert sp.fields == {"seq": 1, "outcome": "acked"}
    assert spans.categories() == ["transport"]


def test_span_enable_all_and_context_parenting():
    spans, t = _tracer([0.0])
    spans.enable()
    with spans.span("run", "outer") as outer:
        t[0] = 5.0
        with spans.span("api", "inner") as inner:
            t[0] = 7.0
    assert inner.parent_id == outer.id
    assert outer.sim_time == 7.0 and inner.sim_time == 2.0
    assert spans.spans("api") == [inner]


def test_span_double_end_is_idempotent():
    spans, t = _tracer([0.0])
    spans.enable()
    sp = spans.begin("nic", "fill")
    t[0] = 3.0
    spans.end(sp)
    t[0] = 9.0
    spans.end(sp)  # already closed: must not move the end time
    assert sp.end == 3.0


def test_span_top_n_and_summary():
    spans, t = _tracer([0.0])
    spans.enable()
    durations = [5.0, 1.0, 9.0]
    for i, d in enumerate(durations):
        t[0] = 0.0
        sp = spans.begin("cat", f"s{i}")
        t[0] = d
        spans.end(sp)
    open_sp = spans.begin("cat", "open")  # never closed
    top = spans.top_by_sim_time(2)
    assert [s.name for s in top] == ["s2", "s0"]
    roll = spans.summary()["cat"]
    assert roll["count"] == 4 and roll["open"] == 1
    assert roll["sim_ns"] == sum(durations)
    assert open_sp.open


def test_span_mirrors_into_flat_tracer():
    from repro.sim.trace import Tracer

    flat = Tracer(enabled=True)
    spans = SpanTracer(clock=lambda: 0.0, tracer=flat, wall_clock=lambda: 0.0)
    spans.enable()
    spans.end(spans.begin("transport", "send"))
    cats = [e.category for e in flat.entries]
    assert cats == ["span.transport", "span.transport"]


def test_span_chrome_trace_shapes():
    spans, t = _tracer([0.0])
    spans.enable()
    sp = spans.begin("cat", "closed")
    t[0] = 2.0
    spans.end(sp)
    spans.begin("cat", "open")
    events = spans.to_chrome_trace()
    assert [e["ph"] for e in events] == ["X", "i"]
    assert events[0]["dur"] == 2.0 / 1000.0


# --- MetricsRegistry.collect --------------------------------------------


def test_collect_federates_and_dedups():
    sim = Simulator()
    # every RVMA NIC bumps the one canonical counter
    sim.stats.counter("nic.rvma.bytes_placed").add(100)
    sim.stats.counter("nic.rvma.bytes_placed").add(50)
    sim.stats.counter("transport.tx").add(7)
    sim.stats.summary("fabric.msg_latency_ns").add(10.0)
    sim.stats.summary("fabric.msg_latency_ns").add(30.0)

    class FakeFabric:
        def observable_metrics(self):
            return {"fabric.messages_sent": 3}

    sim.register_component(FakeFabric())
    reg = MetricsRegistry.collect(sim)
    assert reg.counters["nic.rvma.bytes_placed"] == 150
    assert reg.counters["transport.tx"] == 7  # registered once, read once
    assert reg.counters["fabric.messages_sent"] == 3
    assert reg.summaries["fabric.msg_latency_ns"].n == 2
    assert reg.groups() == ["fabric", "nic", "transport"]
    assert "nic.rvma.bytes_placed" in reg.flat("nic")
    assert "fabric.messages_sent" not in reg.flat("nic")
    assert reg.snapshot()["transport"]["transport.tx"] == 7
    assert reg.undocumented() == []


def test_collect_merges_histograms_across_components():
    # Both NICs feed the one nic.rvma.epoch_bytes histogram; collect()
    # snapshots it, so later samples do not leak into the registry.
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    assert nic0._epoch_hist is nic1._epoch_hist
    nic0._epoch_hist.add(5.0)
    nic1._epoch_hist.add(float(1 << 14) + 5.0)
    reg = MetricsRegistry.collect(cl)
    h = reg.histograms["nic.rvma.epoch_bytes"]
    assert h.count == 2 and h.bins[0] == 1 and h.bins[1] == 1
    nic0._epoch_hist.add(5.0)
    assert h.count == 2


def test_collect_accepts_cluster_like_target():
    sim = Simulator()
    sim.stats.counter("nic.rvma.tx_messages").add(2)

    class ClusterLike:
        pass

    target = ClusterLike()
    target.sim = sim
    reg = MetricsRegistry.collect(target)
    assert reg.counters["nic.rvma.tx_messages"] == 2


# --- RunReport -----------------------------------------------------------


def _report_from(sim, meta=None):
    return RunReport.collect(sim, meta=meta)


def test_run_report_round_trip(tmp_path):
    sim = Simulator()
    sim.stats.counter("nic.rvma.bytes_placed").add(64)
    sim.spans.enable()
    sp = sim.spans.begin("run", "unit")
    sim.schedule(10.0, sim.spans.end, sp)
    sim.run()
    rep = _report_from(sim, meta={"seed": 1})
    path = tmp_path / "report.json"
    rep.save(str(path))
    data = json.loads(path.read_text())
    assert data["meta"]["seed"] == 1
    assert data["metrics"]["nic"]["nic.rvma.bytes_placed"] == 64
    assert "run" in data["spans"]["categories"]
    assert data["spans"]["hottest_by_sim_time"][0]["name"] == "unit"
    md = rep.to_markdown()
    assert "nic.rvma.bytes_placed" in md and "| run |" in md.replace("`run`", "| run |")


def test_run_report_merge_combines_counters_and_summaries():
    reports = []
    for placed, lat in ((100, 10.0), (50, 30.0)):
        sim = Simulator()
        sim.stats.counter("nic.rvma.bytes_placed").add(placed)
        sim.stats.summary("fabric.msg_latency_ns").add(lat)
        reports.append(_report_from(sim))
    merged = RunReport.merge(reports, meta={"harness": "test"})
    nic = merged.metrics["nic"]["nic.rvma.bytes_placed"]
    assert nic == 150
    lat = merged.metrics["fabric"]["fabric.msg_latency_ns"]
    assert lat["n"] == 2 and lat["mean"] == 20.0
    assert lat["min"] == 10.0 and lat["max"] == 30.0
    assert merged.meta["merged_runs"] == 2
    assert merged.undocumented() == []


def test_run_report_merge_single_passthrough():
    sim = Simulator()
    sim.stats.counter("nic.rvma.bytes_placed").add(5)
    merged = RunReport.merge([_report_from(sim)])
    assert merged.metrics["nic"]["nic.rvma.bytes_placed"] == 5
