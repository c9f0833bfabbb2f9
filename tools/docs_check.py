#!/usr/bin/env python3
"""Documentation drift gate (``make docs-check``).

Eight checks, all fatal on failure:

1. **API coverage** — every public symbol exported from
   ``repro.__init__`` (its ``__all__``) and every public method of
   :class:`repro.core.api.RvmaApi` must appear by name in
   ``docs/API.md``.
2. **Metric catalog coverage** — every canonical metric declared in
   :data:`repro.observability.metrics.CATALOG` must be documented by
   name in ``docs/OBSERVABILITY.md`` (and vice versa: names in the doc's
   catalog table that the code no longer declares are flagged).
3. **Fabric metric rows** — the ``fabric.*`` rows of the
   ``docs/OBSERVABILITY.md`` catalog table must carry the same
   kind/unit the CATALOG declares (the fabric rows are the ones the
   vectorized fast path must reproduce bit-for-bit, so their documented
   shape is load-bearing for the conformance suite).
4. **Active metric rows** — same contract for the ``nic.rvma.active.*``
   rows: the active-mailbox conformance suites pin handler behaviour
   against these counters, so kind/unit drift is fatal.
5. **Workload metric rows** — same contract for the
   ``workload.trace.*`` rows: the trace-replay oracles treat these
   counters as the offered-load ground truth (rows replayed == trace
   rows, drops == 0), so kind/unit drift is fatal.
6. **Bench cell coverage** — every cell registered in
   :data:`repro.experiments.bench.SUITES` must appear in the
   ``docs/PERFORMANCE.md`` cell table, and every cell the table names
   must still exist in the registry.
7. **Live report coverage** — one small chaos run with observability on
   must produce a report whose metric groups include
   nic/transport/recovery/fabric, with >= 3 span categories; every
   name the run registered in its stats registry, and every reported
   metric, must be declared in the CATALOG (hence documented, by
   check 2).
8. **Stale API methods** — every method ``docs/API.md`` lists under a
   class heading must still exist on that class (checked by name, so
   the result does not depend on the Python version's signatures).

Run from the repo root:

    PYTHONPATH=src python tools/docs_check.py
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
API_MD = ROOT / "docs" / "API.md"
OBS_MD = ROOT / "docs" / "OBSERVABILITY.md"
PERF_MD = ROOT / "docs" / "PERFORMANCE.md"


def check_api_coverage() -> list[str]:
    import repro
    from repro.core.api import RvmaApi

    text = API_MD.read_text(encoding="utf-8")
    problems = []
    for symbol in sorted(repro.__all__):
        if symbol == "__version__":
            continue
        if not re.search(rf"`{re.escape(symbol)}[`(.]", text):
            problems.append(f"docs/API.md: missing public symbol `{symbol}`")
    for name in sorted(vars(RvmaApi)):
        if name.startswith("_") or not callable(getattr(RvmaApi, name)):
            continue
        if not re.search(rf"`{re.escape(name)}[`(]", text):
            problems.append(f"docs/API.md: missing RvmaApi method `{name}`")
    return problems


def check_metric_catalog() -> list[str]:
    from repro.observability.metrics import CATALOG

    text = OBS_MD.read_text(encoding="utf-8") if OBS_MD.exists() else ""
    problems = []
    if not text:
        return ["docs/OBSERVABILITY.md: file missing"]
    documented = set(re.findall(r"`([a-z_*.]+\.[a-z_*.]+)`", text))
    for name in sorted(CATALOG):
        if name not in documented:
            problems.append(f"docs/OBSERVABILITY.md: missing metric `{name}`")
    # Stale names: dotted metric-looking entries in the doc's catalog
    # tables that the code no longer declares.
    catalog_section = text.split("## Span categories")[0]
    for name in sorted(set(re.findall(r"\| `([a-z_*.]+\.[a-z_*.]+)` \|", catalog_section))):
        if name not in CATALOG:
            problems.append(
                f"docs/OBSERVABILITY.md: stale metric `{name}` (not in CATALOG)"
            )
    return problems


def check_fabric_metric_rows() -> list[str]:
    from repro.observability.metrics import CATALOG

    text = OBS_MD.read_text(encoding="utf-8") if OBS_MD.exists() else ""
    problems = []
    rows = {
        name: (kind, unit)
        for name, kind, unit in re.findall(
            r"\| `(fabric\.[a-z_.]+)` \| (\w+) \| (\w+) \|", text
        )
    }
    for name, spec in sorted(CATALOG.items()):
        if not name.startswith("fabric."):
            continue
        row = rows.get(name)
        if row is None:
            problems.append(
                f"docs/OBSERVABILITY.md: no catalog-table row for `{name}`"
            )
        elif row != (spec.kind, spec.unit):
            problems.append(
                f"docs/OBSERVABILITY.md: `{name}` documented as "
                f"{row[0]}/{row[1]}, CATALOG declares {spec.kind}/{spec.unit}"
            )
    return problems


def check_active_metric_rows() -> list[str]:
    """The ``nic.rvma.active.*`` rows mirror check 3: the active-mailbox
    conformance suites pin handler behaviour against these counters, so
    their documented kind/unit must match the CATALOG exactly."""
    from repro.observability.metrics import CATALOG

    text = OBS_MD.read_text(encoding="utf-8") if OBS_MD.exists() else ""
    problems = []
    rows = {
        name: (kind, unit)
        for name, kind, unit in re.findall(
            r"\| `(nic\.rvma\.active\.[a-z_.]+)` \| (\w+) \| (\w+) \|", text
        )
    }
    for name, spec in sorted(CATALOG.items()):
        if not name.startswith("nic.rvma.active."):
            continue
        row = rows.get(name)
        if row is None:
            problems.append(
                f"docs/OBSERVABILITY.md: no catalog-table row for `{name}`"
            )
        elif row != (spec.kind, spec.unit):
            problems.append(
                f"docs/OBSERVABILITY.md: `{name}` documented as "
                f"{row[0]}/{row[1]}, CATALOG declares {spec.kind}/{spec.unit}"
            )
    return problems


def check_workload_metric_rows() -> list[str]:
    """The ``workload.trace.*`` rows mirror checks 3 and 4: the
    trace-replay oracles read these counters as the offered-load ground
    truth, so their documented kind/unit must match the CATALOG."""
    from repro.observability.metrics import CATALOG

    text = OBS_MD.read_text(encoding="utf-8") if OBS_MD.exists() else ""
    problems = []
    rows = {
        name: (kind, unit)
        for name, kind, unit in re.findall(
            r"\| `(workload\.trace\.[a-z_.]+)` \| (\w+) \| (\w+) \|", text
        )
    }
    for name, spec in sorted(CATALOG.items()):
        if not name.startswith("workload.trace."):
            continue
        row = rows.get(name)
        if row is None:
            problems.append(
                f"docs/OBSERVABILITY.md: no catalog-table row for `{name}`"
            )
        elif row != (spec.kind, spec.unit):
            problems.append(
                f"docs/OBSERVABILITY.md: `{name}` documented as "
                f"{row[0]}/{row[1]}, CATALOG declares {spec.kind}/{spec.unit}"
            )
    return problems


def check_bench_cells() -> list[str]:
    from repro.experiments.bench import SUITES

    text = PERF_MD.read_text(encoding="utf-8") if PERF_MD.exists() else ""
    problems = []
    if not text:
        return ["docs/PERFORMANCE.md: file missing"]
    registry = {name for cells in SUITES.values() for name, _ in cells}
    documented = set(re.findall(r"^\| `([a-z0-9-]+)` \|", text, flags=re.M))
    for name in sorted(registry - documented):
        problems.append(
            f"docs/PERFORMANCE.md: bench cell `{name}` missing from the cell table"
        )
    for name in sorted(documented - registry):
        problems.append(
            f"docs/PERFORMANCE.md: stale bench cell `{name}` (not in SUITES)"
        )
    return problems


def check_live_report() -> list[str]:
    from repro.experiments.chaos import run_motif_under_chaos
    from repro.observability import uncatalogued

    sims = []
    out = run_motif_under_chaos(
        "allreduce", seed=1, n_crashes=1, observe=True, trace=True,
        compare_clean=False, configure=lambda injector: sims.append(injector.sim),
    )
    rep = out.run_report
    problems = [
        f"live run: registered metric `{name}` not declared in CATALOG"
        for name in uncatalogued(sims[0].stats)
    ]
    groups = set(rep.groups())
    for required in ("nic", "transport", "recovery", "fabric"):
        if required not in groups:
            problems.append(f"live report: metric group '{required}' missing ({sorted(groups)})")
    if len(rep.span_categories) < 3:
        problems.append(
            f"live report: only {len(rep.span_categories)} span categories "
            f"({rep.span_categories}); need >= 3"
        )
    for name in rep.undocumented():
        problems.append(f"live report: metric `{name}` not declared in CATALOG")
    return problems


def check_api_methods(text: str | None = None) -> list[str]:
    """Methods ``docs/API.md`` lists under a class the class no longer has.

    API.md is generated: ``## `module` `` headings, ``#### `Class` ``
    headings (functions carry their signature, classes do not), then one
    ``- `method(...)` `` line per method.
    """
    if text is None:
        text = API_MD.read_text(encoding="utf-8")
    problems = []
    module = cls = None
    for line in text.splitlines():
        if m := re.match(r"## `([\w.]+)`$", line):
            module, cls = importlib.import_module(m.group(1)), None
        elif m := re.match(r"#### `(\w+)`$", line):
            cls = getattr(module, m.group(1), None)
            if cls is None:
                problems.append(
                    f"docs/API.md: stale class `{module.__name__}.{m.group(1)}`"
                )
        elif line.startswith("#"):
            cls = None
        elif cls is not None and (m := re.match(r"- `(\w+)\(", line)):
            if not hasattr(cls, m.group(1)):
                problems.append(
                    f"docs/API.md: stale method `{cls.__qualname__}.{m.group(1)}`"
                )
    return problems


def main() -> int:
    problems = []
    problems += check_api_coverage()
    problems += check_metric_catalog()
    problems += check_fabric_metric_rows()
    problems += check_active_metric_rows()
    problems += check_workload_metric_rows()
    problems += check_bench_cells()
    problems += check_live_report()
    problems += check_api_methods()
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        "docs-check: API.md, OBSERVABILITY.md and PERFORMANCE.md cover every "
        "public symbol, metric and bench cell"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
