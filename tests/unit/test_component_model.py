"""Unit tests for the component/port model (the SST element surface)."""

import pytest

from repro.cluster import Cluster
from repro.sim import Component, Link, Simulator


class _Probe(Component):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []
        self.rx = self.add_port("rx", self.inbox.append)


def test_component_registration_and_ports():
    sim = Simulator()
    c = _Probe(sim, "probe0")
    assert c in sim.components
    assert c.port("rx") is c.rx
    assert c.rx.full_name == "probe0.rx"
    with pytest.raises(ValueError):
        c.add_port("rx")  # duplicate name


def test_component_stats_are_namespaced():
    # A plain component owns no counters.  A NIC's stat() registers under
    # its kind's canonical group: one counter shared by every NIC of the
    # kind, never a per-instance "<name>.<suffix>" key.
    assert not hasattr(_Probe(Simulator(), "a"), "stat")
    for kind in ("rvma", "rdma"):
        cl = Cluster.build(n_nodes=2, topology="star", nic_type=kind, fidelity="flow")
        a, b = cl.node(0).nic, cl.node(1).nic
        a.stat("bytes_placed").add(2)
        b.stat("bytes_placed").add(5)
        assert a.stat("bytes_placed") is b.stat("bytes_placed")
        assert cl.sim.stats.counters() == {f"nic.{kind}.bytes_placed": 7}


def test_component_trace_respects_enablement():
    sim = Simulator(trace=True)
    c = _Probe(sim, "traced")
    c.trace("something happened", detail=1)
    assert len(sim.tracer.filter("traced")) == 1
    sim2 = Simulator()  # tracing off by default
    c2 = _Probe(sim2, "silent")
    c2.trace("dropped")
    assert len(sim2.tracer) == 0


def test_port_without_handler_raises_on_delivery():
    sim = Simulator()
    a = _Probe(sim, "a")
    b = Component(sim, "bare")
    p = b.add_port("in")  # no handler installed
    Link(sim, a.rx, p, latency=1.0)
    a.rx.send("x")
    with pytest.raises(ValueError):
        sim.run()


def test_unknown_port_lookup_raises():
    sim = Simulator()
    c = _Probe(sim, "c")
    with pytest.raises(KeyError):
        c.port("nope")
