"""Integration: the checked-in scenario corpus is a live regression gate.

Every entry under ``corpus/`` replays with exactly its recorded
expectation — pinned passes must pass, pinned failures must fail with
the identical fingerprint.  Divergence means a behaviour change the
fuzzer once caught has resurfaced (or a pinned pass broke).
"""

from __future__ import annotations

import hashlib

from repro.scenarios import (
    CORPUS_DIR,
    FailureFingerprint,
    generate,
    list_entries,
    load_entry,
    replay_corpus,
    run_scenario,
    save_entry,
)
from repro.scenarios.cli import fuzz_main

#: blake2s-8 of each entry's wall-scrubbed ``report_json()``.  Fingerprints
#: survive a refactor that shifts a counter or a span; these do not.
REPORT_DIGESTS = {
    "43274f914b28": "1e391d700ea3d638",
    "609c56c70405": "6ac12723f8eea7b0",
    "e43ee3cc90b5": "6a57929178f1fa20",
    "c4e2c7d7149c": "27cd742d593c0a16",
    "e2bc01bc3612": "aa14c5b7eb3777f3",
}


def test_checked_in_corpus_replays_exactly():
    entries = list_entries()
    assert entries, f"corpus at {CORPUS_DIR} should not be empty"
    verdicts = replay_corpus()
    diverged = [v.describe() for v in verdicts if not v.ok]
    assert not diverged, "corpus divergence:\n" + "\n".join(diverged)
    # The corpus pins both shapes: at least one failure reproduction and
    # at least one known-good scenario held at "pass".
    assert any(e.expected for e in entries)
    assert any(not e.expected for e in entries)


def test_corpus_reports_are_byte_identical_to_the_pins():
    entries = list_entries()
    assert sorted(e.scenario.scenario_id for e in entries) == sorted(REPORT_DIGESTS)
    for entry in entries:
        report = run_scenario(entry.scenario).report_json() or ""
        digest = hashlib.blake2s(report.encode("utf-8"), digest_size=8).hexdigest()
        assert digest == REPORT_DIGESTS[entry.scenario.scenario_id], entry.scenario.scenario_id


def test_corpus_entries_are_plain_replayable_scenarios():
    # The x_* expectation keys are advisory: every entry is loadable by
    # the plain schema loader, so `fuzz replay <entry>` works directly.
    from repro.scenarios import Scenario

    for entry in list_entries():
        assert Scenario.load(str(entry.path)) == entry.scenario


def test_save_and_load_entry_round_trip(tmp_path):
    scenario = generate(5)
    fp = FailureFingerprint.collect(["invariant:gave_up"])
    path = save_entry(scenario, fp, note="unit round-trip", corpus_dir=tmp_path)
    assert path.name == f"{scenario.scenario_id}.json"
    entry = load_entry(path)
    assert entry.scenario == scenario
    assert entry.expected == fp
    assert entry.note == "unit round-trip"


def test_fuzz_cli_corpus_replay_passes():
    assert fuzz_main(["corpus"]) == 0
