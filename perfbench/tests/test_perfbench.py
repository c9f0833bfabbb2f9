"""Tests of the benchmark itself: its checks can fail, its traced run is
deterministic, and it times the program that Fig. 7 and KV users run.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from repro import NetworkConfig, RoutingMode, Sweep3D
from repro.experiments.kv_churn import run_kv_service
from repro.experiments.motif_sweep import run_motif_sweep
from repro.services import WorkloadConfig
from run import load_reference, measure, report
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REFERENCE = load_reference()
DEFAULT_SEED = REFERENCE["default_seed"]


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_repetition(workload, seed=DEFAULT_SEED, trace=False):
    return measure(workload, seed, seconds=0, trace=trace, reference=REFERENCE)


@pytest.mark.parametrize("name", ["sweep3d-rvma", "kv-lossy"])
def test_perturbed_input_fails_every_operation(name):
    """+1 ns of switch-to-switch latency moves the simulated outputs
    off the pin, so the run is reported failed with failed_frac 1."""
    workload = WORKLOADS[name]
    net = workload.net_config or NetworkConfig()
    perturbed = replace(workload, net_config=net.with_(hop_latency=net.hop_latency + 1.0))
    m = one_repetition(perturbed)
    assert not m.correct
    assert m.failed_frac == 1.0
    result = report(m, trace=False, reference=REFERENCE)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {e["name"] for e in contract()["end_to_end"]}


#: Small variants (unpinned names) keep the traced runs short; together
#: they cover the packet fabric, reliability, services, the bounded
#: engine path and the RDMA demux.
SMALL = [
    replace(WORKLOADS["kv-lossy"], name="kv-lossy-small", n_ops=1000),
    replace(WORKLOADS["sweep3d-rdma"], name="sweep3d-rdma-small", n_nodes=16),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_runs_repeat_exactly(workload):
    """Two traced runs agree on every call count, counter and output,
    and a traced run's outputs equal the untraced run's."""
    first = one_repetition(workload, trace=True)
    second = one_repetition(workload, trace=True)
    # measure() checks the traced repetition against the untraced one.
    assert first.correct and second.correct
    assert first.outputs == second.outputs

    def exact(m):
        return {
            k: v for k, v in m.per_layer().items()
            if not k.endswith(".self_s") and k != "trace_overhead"
        }

    assert exact(first) == exact(second)
    assert first.per_layer()["failed_frac"] == 0.0
    assert first.per_layer()["trace_overhead"] > 0
    result = report(first, trace=True, reference=REFERENCE)
    assert set(result["metrics"]) == {e["name"] for e in contract()["per_layer"]}


def test_sweep3d_matches_the_fig7_user_path():
    """A one-cell run_motif_sweep grid gives the elapsed time the
    benchmark pins, for both protocols at the sizes it runs them."""
    pins = REFERENCE["workloads"]
    seed = str(DEFAULT_SEED)
    for name, protocol in (("sweep3d-rvma", "rvma_ns"), ("sweep3d-rdma", "rdma_ns")):
        w = WORKLOADS[name]
        [cell] = run_motif_sweep(
            Sweep3D, w.n_nodes, topologies=(w.topology,), rates=("2Tbps",),
            routings=(RoutingMode.ADAPTIVE,), seed=DEFAULT_SEED,
            kb=w.kb, msg_bytes=w.msg_bytes, compute_ns=w.compute_ns,
        )
        assert getattr(cell, protocol) == pins[name][seed]["elapsed_ns"]
        if name == "sweep3d-rdma":
            assert cell.rvma_ns == REFERENCE["rvma_elapsed_ns"][name][seed]


def test_kv_matches_run_kv_service():
    """The benchmark's KV cell is run_kv_service's cell, split into set-up
    and run phases."""
    w = WORKLOADS["kv-lossy"]
    out = run_kv_service(
        seed=DEFAULT_SEED, n_server_nodes=w.n_server_nodes, shards_per_node=w.shards_per_node,
        n_client_nodes=w.n_client_nodes, clients_per_node=w.clients_per_node,
        topology=w.topology, fidelity="packet", chaos=True, drop_prob=w.drop_prob,
        horizon_ns=w.horizon_ns, n_events=w.n_chaos_events, max_window_ns=w.max_window_ns,
        workload=WorkloadConfig(
            n_ops=w.n_ops, n_keys=w.n_keys, value_bytes=w.value_bytes,
            zipf_s=w.zipf_s, batch=w.batch,
        ),
    )
    pin = REFERENCE["workloads"]["kv-lossy"][str(DEFAULT_SEED)]
    assert out.invariants_ok
    assert (out.elapsed_ns, out.p50_ns, out.p99_ns, out.requests, out.replies) == (
        pin["elapsed_ns"], pin["p50_ns"], pin["p99_ns"], pin["requests"], pin["replies"]
    )


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the runner exits
    non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = contract()["command"] + ["--workload", "kv-lossy", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
