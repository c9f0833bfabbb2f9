"""The API-docs generator must run clean and cover the public surface."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_gen_api_docs_runs_and_covers_packages(tmp_path):
    out = ROOT / "docs" / "API.md"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    for anchor in (
        "## `repro.sim.engine`",
        "## `repro.nic.rvma`",
        "## `repro.core.api`",
        "## `repro.mpi.rma`",
        "#### `RvmaNic`",
        "#### `Simulator`",
    ):
        assert anchor in text, f"missing {anchor}"
    # The generated reference is substantial, not a stub.
    assert text.count("####") > 100


def test_render_figures_tool_fast_subset(tmp_path, monkeypatch):
    """The figure renderer produces valid SVG files (fast figures only)."""
    import xml.etree.ElementTree as ET

    from repro.experiments import run_fig4
    from repro.experiments.svgcharts import svg_for_result

    svg = svg_for_result(run_fig4(sizes=[2, 1024], iterations=3))
    ET.fromstring(svg)
    out = tmp_path / "fig4.svg"
    out.write_text(svg)
    assert out.stat().st_size > 1000


def _docs_check():
    import importlib.util

    spec = importlib.util.spec_from_file_location("docs_check", ROOT / "tools" / "docs_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_check_flags_methods_a_class_no_longer_has():
    docs_check = _docs_check()
    text = (ROOT / "docs" / "API.md").read_text()
    assert docs_check.check_api_methods(text) == []
    heading = "#### `CqDispatcher`\n"
    assert heading in text
    stale = text.replace(
        heading, heading + "\n- `wait_for(pred) -> 'Future'` — Removed API.\n", 1
    )
    assert docs_check.check_api_methods(stale) == [
        "docs/API.md: stale method `CqDispatcher.wait_for`"
    ]
