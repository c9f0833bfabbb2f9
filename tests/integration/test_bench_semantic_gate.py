"""Integration: the bench's semantic gate holds the KV cells to the baseline.

``compare()`` reports any mismatch in ``events``, ``sim_ns``,
``outcome_digest``, ``invariants_ok`` or ``contrast_ok`` against
``benchmarks/baseline.json`` whatever the timing.  Here the timing gate
is off (``tolerance=1.0``), so the check is exact and host-independent: the six smoke KV
cells must reproduce their baseline entries, and a 1 ns shift in one
recorded ``sim_ns`` must be reported.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.bench import DEFAULT_BASELINE, BenchRecord, compare, run_suite

KV_CELLS = [
    "kv-incast",
    "kv-incast-pkt",
    "kv-noisy",
    "active-flash",
    "kv-incast-active",
    "kv-trace",
]


def _baseline() -> dict:
    return json.loads(DEFAULT_BASELINE.read_text(encoding="utf-8"))


def _baseline_record(baseline: dict, name: str) -> BenchRecord:
    entry = next(r for r in baseline["suites"]["smoke"] if r["name"] == name)
    return BenchRecord(
        name=entry["name"],
        wall_s=entry["wall_s"],
        events=entry["events"],
        sim_ns=entry["sim_ns"],
        peak_rss_kb=entry["peak_rss_kb"],
        metrics=entry["metrics"],
        extras=entry["extras"],
    )


def test_smoke_kv_cells_reproduce_the_baseline_exactly():
    records = run_suite("smoke", KV_CELLS)
    assert [r.name for r in records] == KV_CELLS
    regressions, _notes = compare(records, _baseline(), suite="smoke", tolerance=1.0)
    assert regressions == []


@pytest.mark.parametrize(
    "name, drift",
    [
        ("kv-trace", {"sim_ns": 1.0}),
        ("kv-incast", {"events": 1}),
        ("kv-trace", {"extras": "outcome_digest"}),
        ("kv-noisy", {"extras": "invariants_ok"}),
        ("active-flash", {"extras": "contrast_ok"}),
    ],
    ids=["sim_ns", "events", "outcome_digest", "invariants_ok", "contrast_ok"],
)
def test_semantic_gate_reports_drift(name, drift):
    baseline = _baseline()
    record = _baseline_record(baseline, name)
    assert compare([record], baseline, suite="smoke", tolerance=1.0)[0] == []

    if "extras" in drift:
        key = drift["extras"]
        value = record.extras[key]
        flipped = value[::-1] if isinstance(value, str) else not value
        moved = replace(record, extras={**record.extras, key: flipped})
        field = key
    else:
        ((field, delta),) = drift.items()
        moved = replace(record, **{field: getattr(record, field) + delta})
    regressions, _notes = compare([moved], baseline, suite="smoke", tolerance=1.0)
    assert len(regressions) == 1
    assert regressions[0].startswith(f"{name}: semantic drift")
    assert field in regressions[0]


def test_semantic_drift_fails_even_when_faster():
    baseline = _baseline()
    record = _baseline_record(baseline, "kv-trace")
    faster = replace(record, wall_s=record.wall_s / 10, sim_ns=record.sim_ns + 1.0)
    regressions, _notes = compare([faster], baseline, suite="smoke")
    assert any("semantic drift" in r for r in regressions)
