"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cluster import Cluster
from repro.network.config import NetworkConfig
from repro.network.routing import RoutingMode
from repro.sim import Simulator

#: Property tests draw the same examples on every run (seeded from each
#: test's own definition), so a tier-1 failure reproduces exactly.
#: Per-test ``@settings(max_examples=...)`` still sets how many.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


@pytest.fixture(params=["fast", "plain"])
def engine_mode(request, monkeypatch) -> str:
    """Run the test under both engine modes.

    ``fast`` is the default pooled/bucketed scheduler; ``plain`` is the
    straight-heap mode.  The fixture flips the module-level default so
    every Simulator the test builds (including via Cluster.build)
    inherits the mode — semantics must be identical in both.
    """
    import repro.sim.engine as engine

    monkeypatch.setattr(engine, "DEFAULT_FAST", request.param == "fast")
    return request.param


@pytest.fixture
def rvma_pair() -> Cluster:
    """Two RVMA nodes on one switch, packet fidelity, adaptive routing."""
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.ADAPTIVE),
    )


@pytest.fixture
def rdma_pair() -> Cluster:
    """Two RDMA nodes on one switch, packet fidelity, adaptive routing."""
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rdma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.ADAPTIVE),
    )


@pytest.fixture
def rvma_cluster8() -> Cluster:
    """Eight RVMA nodes on a dragonfly, flow fidelity."""
    return Cluster.build(n_nodes=8, topology="dragonfly", nic_type="rvma", fidelity="flow")
