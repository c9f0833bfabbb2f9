"""Integration: the random-pairs (uniform traffic) motif."""

import pytest

from repro.cluster import Cluster
from repro.motifs import RandomPairs, RdmaProtocol, RvmaProtocol
from repro.motifs.randompairs import assign_targets


def _run(nic, n=16, **kw):
    cl = Cluster.build(n_nodes=n, topology="dragonfly", nic_type=nic, fidelity="flow")
    proto = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
    return RandomPairs(cl, proto, **kw).run(), cl


def test_target_assignment_deterministic_and_never_self():
    a = assign_targets(20, 8, seed=7)
    b = assign_targets(20, 8, seed=7)
    c = assign_targets(20, 8, seed=8)
    assert a == b and a != c
    for rank, targets in a.items():
        assert len(targets) == 8
        assert all(0 <= t < 20 and t != rank for t in targets)


@pytest.mark.parametrize("nic", ["rvma", "rdma"])
def test_all_messages_delivered(nic):
    res, cl = _run(nic, msgs_per_rank=5)
    assert res.messages == 16 * 5
    assert cl.sim.stats.counters().get("nic.rvma.puts_lost", 0) == 0


def test_rvma_needs_no_pair_state():
    rvma, _ = _run("rvma", msgs_per_rank=5)
    rdma, _ = _run("rdma", msgs_per_rank=5)
    assert rvma.extras["pair_channels"] == 0
    assert rvma.extras["registered_regions"] == 0
    assert rdma.extras["pair_channels"] > 16  # many live pairs
    assert rdma.extras["registered_regions"] == rdma.extras["pair_channels"]
    # Per-pair handshakes dominate RDMA setup.
    assert rdma.setup_elapsed > 5 * rvma.setup_elapsed
    # And the anonymous-put data phase wins too.
    assert rdma.elapsed > 1.5 * rvma.elapsed


def test_rdma_rank_cap_enforced():
    cl = Cluster.build(n_nodes=256, topology="dragonfly", nic_type="rdma", fidelity="flow")
    with pytest.raises(ValueError):
        RandomPairs(cl, RdmaProtocol())
