"""Unit: scenario documents, the generator, fingerprints, shrink aids.

Everything here is pure document manipulation — no simulation runs.
The runner/shrinker/corpus end-to-end paths live in
``tests/integration/test_scenario_runner.py`` and
``tests/integration/test_scenario_corpus.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    MOTIF_KINDS,
    SCHEMA_VERSION,
    WORKLOAD_KINDS,
    FailureFingerprint,
    FaultEvent,
    Scenario,
    ScenarioError,
    generate,
    generate_many,
    regenerate,
    scrub_report,
)
from repro.scenarios.shrink import _candidates


def _motif_scenario(**kw) -> Scenario:
    base = dict(
        seed=1,
        workload_kind="allreduce",
        workload={"iterations": 3, "vector_len": 4},
        topology="star",
        n_nodes=4,
        fault_events=(
            FaultEvent(kind="partition", start=1_000.0, end=5_000.0, params=(1,)),
        ),
        drop_prob=0.05,
    )
    base.update(kw)
    return Scenario(**base)


# -------------------------------------------------------------------- documents


def test_document_round_trip_preserves_identity():
    s = _motif_scenario()
    back = Scenario.from_json(s.to_json())
    assert back == s
    assert back.scenario_id == s.scenario_id
    assert back.fault_events == s.fault_events


def test_canonical_json_is_key_sorted_and_stable():
    s = _motif_scenario()
    doc = json.loads(s.to_json())
    assert list(doc) == sorted(doc)
    assert s.to_json() == _motif_scenario().to_json()
    # Any semantic change moves the identity.
    assert s.with_changes(drop_prob=0.0).scenario_id != s.scenario_id


def test_save_load_round_trip(tmp_path):
    s = _motif_scenario()
    path = s.save(str(tmp_path / "s.json"))
    assert Scenario.load(path) == s


def test_loader_rejects_other_schema_versions():
    doc = _motif_scenario().to_dict()
    doc["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ScenarioError, match="schema"):
        Scenario.from_dict(doc)


@pytest.mark.parametrize(
    "mutation, match",
    [
        (dict(workload_kind="bitcoin"), "workload kind"),
        (dict(topology="mesh"), "topology"),
        (dict(routing="quantum"), "routing"),
        (dict(engine="warp"), "engine"),
        (dict(backend="tcp"), "backend"),
        (dict(n_nodes=1), "at least 2"),
        (dict(drop_prob=1.5), "drop_prob"),
        (
            dict(fault_events=(FaultEvent("partition", 5_000.0, 1_000.0, (0,)),)),
            "end <= start",
        ),
        (
            dict(fault_events=(FaultEvent("gremlin", 0.0, 1_000.0, (0,)),)),
            "fault kind",
        ),
    ],
)
def test_validation_rejects_malformed_fields(mutation, match):
    with pytest.raises(ScenarioError, match=match):
        _motif_scenario(**mutation).validate()


def test_validation_rejects_malformed_kv_and_differential():
    kv = dict(
        seed=1, workload_kind="kv", topology="star", n_nodes=2,
        workload={"scripts": [[["put", 0, 10]], [["get", 1, 0]]]},
    )
    with pytest.raises(ScenarioError, match="node per client"):
        Scenario(**kv).validate()  # 2 clients + server > 2 nodes
    with pytest.raises(ScenarioError, match="kv op"):
        Scenario(**{**kv, "n_nodes": 4, "workload": {"scripts": [[["frob", 0, 1]]]}}).validate()

    diff = dict(
        seed=1, workload_kind="differential", topology="star", n_nodes=4,
        workload={"channels": [[1, 0, 2]]}, compare=("rvma", "verbs"),
    )
    Scenario(**diff).validate()  # well-formed baseline
    with pytest.raises(ScenarioError, match=">= 2 backends"):
        Scenario(**{**diff, "compare": ("rvma",)}).validate()
    with pytest.raises(ScenarioError, match="src == dst"):
        Scenario(**{**diff, "workload": {"channels": [[2, 2, 1]]}}).validate()
    with pytest.raises(ScenarioError, match="outside"):
        Scenario(**{**diff, "workload": {"channels": [[9, 0, 1]]}}).validate()
    with pytest.raises(ScenarioError, match="repeat a"):
        Scenario(**{**diff, "workload": {"channels": [[1, 0, 2], [1, 0, 3]]}}).validate()


def _kv_v2_scenario(**overrides):
    workload = {
        "scripts": [[["put", 0, 10]], [["get", 1, 0]]],
        "qos": True,
        "tenant_specs": [[1, 4.0, 128.0, 0.0], [2, 1.0, 64.0, 256.0]],
        "client_tenants": [1, 2],
    }
    workload.update(overrides.pop("workload", {}))
    fields = dict(
        seed=1, workload_kind="kv", topology="star", n_nodes=4,
        workload=workload, reliability=True,
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_v1_documents_round_trip_with_their_own_schema():
    # A v1 corpus entry must keep its schema (and thus its scenario_id)
    # when reloaded by a v2-speaking runner.
    doc = _motif_scenario().to_dict()
    doc["schema"] = 1
    v1 = Scenario.from_dict(doc)
    assert v1.schema == 1
    assert v1.to_dict()["schema"] == 1
    assert Scenario.from_json(v1.to_json()) == v1


def test_kv_tenant_mix_validates_and_round_trips():
    s = _kv_v2_scenario()
    s.validate()
    assert Scenario.from_json(s.to_json()) == s


@pytest.mark.parametrize(
    "workload, match",
    [
        ({"qos": 1}, "must be a boolean"),
        ({"tenant_specs": [[1, 4.0, 128.0]]}, "malformed tenant spec"),
        ({"tenant_specs": [[1 << 16, 1.0, 0.0, 0.0]]}, "wire field"),
        ({"tenant_specs": [[1, 0.0, 0.0, 0.0]]}, "positive weight"),
        ({"tenant_specs": [[1, 1.0, -1.0, 0.0]]}, "rates must be"),
        ({"client_tenants": [1]}, "every kv script"),
        ({"client_tenants": [1, 9]}, "no tenant spec"),
        ({"tenant_specs": [], "client_tenants": None}, "need tenant_specs"),
    ],
)
def test_kv_tenant_mix_rejects_malformed_keys(workload, match):
    with pytest.raises(ScenarioError, match=match):
        _kv_v2_scenario(workload=workload).validate()


def test_kv_tenant_mix_requires_schema_v2():
    with pytest.raises(ScenarioError, match="schema >= 2"):
        _kv_v2_scenario(schema=1).validate()


def test_fault_event_row_round_trip_and_malformed_rows():
    ev = FaultEvent(kind="link_flap", start=10.0, end=20.0, params=(1, 2))
    assert FaultEvent.from_list(ev.to_list()) == ev
    with pytest.raises(ScenarioError):
        FaultEvent.from_list(["link_flap", 10.0, 20.0])  # missing params


# -------------------------------------------------------------------- generator


def test_generator_is_deterministic_per_seed():
    for seed in (1, 7, 23, 100):
        assert generate(seed).to_json() == generate(seed).to_json()
        assert regenerate(generate(seed)) == generate(seed)


def test_generator_output_always_validates_and_spans_kinds():
    scenarios = generate_many(1, 40)
    kinds = {s.workload_kind for s in scenarios}
    for s in scenarios:
        s.validate()  # never emits a malformed document
        assert s.workload_kind in WORKLOAD_KINDS
    # The weighted mix actually exercises multiple oracle paths.
    assert len(kinds) >= 3
    assert len({s.scenario_id for s in scenarios}) == len(scenarios)


def test_known_bad_scenarios_are_shaped_to_fail():
    for seed in (3, 7, 11):
        s = generate(seed, known_bad=True)
        assert s.workload_kind in MOTIF_KINDS
        assert s.reliability is False
        assert s.drop_prob >= 0.35


# ------------------------------------------------------------------ shrink aids


def test_size_strictly_decreases_under_every_candidate():
    for seed in (1, 5, 9, 13, 17, 21):
        s = generate(seed)
        for candidate, label in _candidates(s):
            assert candidate.size() < s.size(), f"seed {seed}: {label} did not shrink"


def test_workload_size_reflects_document_weight():
    s = _motif_scenario()
    assert s.workload_size() == 12  # 3 iterations x 4-wide vector
    smaller = s.with_changes(workload={"iterations": 1, "vector_len": 4})
    assert smaller.workload_size() < s.workload_size()
    assert s.with_changes(fault_events=()).size() < s.size()
    assert s.with_changes(drop_prob=0.0).size() < s.size()


# ------------------------------------------------------------------ fingerprints


def test_fingerprint_collect_sorts_and_dedupes():
    a = FailureFingerprint.collect(["invariant:gave_up", "exception:RuntimeError"])
    b = FailureFingerprint.collect(
        ["exception:RuntimeError", "invariant:gave_up", "invariant:gave_up"]
    )
    assert a == b and a.digest == b.digest
    assert bool(a) and not bool(FailureFingerprint())
    assert FailureFingerprint().describe() == "pass"
    assert a.digest in a.describe()


def test_scrub_report_zeroes_every_wall_clock_field():
    doc = {
        "meta": {"wall_s": 1.23},
        "spans": {
            "hottest_by_wall_time": [{"name": "x"}],
            "rows": [{"wall_time": 9.9, "sim_time": 5.0}],
        },
        "nested": [{"wall_start": 1.0, "wall_end": 2.0, "keep": "me"}],
    }
    out = scrub_report(doc)
    assert out["meta"]["wall_s"] == 0.0
    assert out["spans"]["hottest_by_wall_time"] == []
    assert out["spans"]["rows"][0] == {"wall_time": 0.0, "sim_time": 5.0}
    assert out["nested"][0] == {"wall_start": 0.0, "wall_end": 0.0, "keep": "me"}
