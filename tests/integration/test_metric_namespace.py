"""Integration: every statistic a run registers is a catalog name.

Components register canonical names at the point where they count, and
``MetricsRegistry.collect`` reads them verbatim, so a registered name
the CATALOG does not declare would reach reports undocumented.  This
gate checks the registration side directly, on the smoke ``kv-incast``
bench cell and on the ``allreduce`` crash-chaos run, and a sabotaged
NIC that registers under a non-canonical name must trip it.
"""

from __future__ import annotations

import pytest

from repro.experiments import kv_churn
from repro.experiments.bench import SUITES
from repro.experiments.chaos import run_motif_under_chaos
from repro.nic.rvma import RvmaNic
from repro.observability import uncatalogued


def _smoke_kv_incast_stats(monkeypatch):
    cells = []
    build = kv_churn.build_kv_cell

    def capture(*args, **kwargs):
        cells.append(build(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(kv_churn, "build_kv_cell", capture)
    record = dict(SUITES["smoke"])["kv-incast"]()
    assert record.extras["invariants_ok"]
    (cell,) = cells
    return cell.sim.stats


def _allreduce_crash_stats(monkeypatch):
    sims = []
    out = run_motif_under_chaos(
        "allreduce", seed=1, n_crashes=1, observe=True, compare_clean=False,
        configure=lambda injector: sims.append(injector.sim),
    )
    assert out.invariants_ok
    (sim,) = sims
    return sim.stats


RUNS = {"kv-incast": _smoke_kv_incast_stats, "allreduce-crash": _allreduce_crash_stats}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_registered_name_is_a_catalog_name(run, monkeypatch):
    stats = RUNS[run](monkeypatch)
    # The gate has something to check: counters of several subsystems,
    # plus at least one summary or histogram.
    assert {n.split(".", 1)[0] for n, _ in stats.counter_items()} >= {"nic", "transport"}
    assert stats.summary_items() or stats.histogram_items()
    assert uncatalogued(stats) == []


@pytest.mark.parametrize("run", sorted(RUNS))
def test_gate_trips_on_a_non_canonical_registration(run, monkeypatch):
    # Sabotage: RVMA NICs register under their old per-instance-style
    # prefix instead of the canonical nic.rvma group.
    monkeypatch.setattr(RvmaNic, "metric_group", "rvma0")
    stats = RUNS[run](monkeypatch)
    bad = uncatalogued(stats)
    assert bad and all(name.startswith("rvma0.") for name in bad)
    assert "rvma0.bytes_placed" in bad
