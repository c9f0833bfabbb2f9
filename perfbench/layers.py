"""Per-layer host time from a stdlib profiler hook, installed from outside.

``cProfile`` credits each function's self time (``tottime``) and call
count to the layer whose ``src/repro/<layer>/`` directory holds its
source file.  A profiler hook, not hand-written wrappers, because the
hot entry points (``post_buffer``, ``wait_completion``, the motif rank
bodies) are generators: a wrapper would time only the creation of the
generator, while the profiler sees every resume.

Builtins, the stdlib, the benchmark's own code and the ``repro``
packages whose run-phase share is negligible (``cluster``,
``observability`` and the like) go to ``other``.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict

#: The layers reported, in report order.  ``faults`` carries the chaos
#: drop filter of the lossy KV workload.
LAYERS = (
    "sim", "network", "nic", "memory", "core", "rdma",
    "reliability", "services", "motifs", "faults", "other",
)


class LayerProfile:
    """Profile one run phase and fold the result into layers."""

    def __init__(self, src_dir: str) -> None:
        self._root = os.path.join(os.path.realpath(src_dir), "repro") + os.sep
        self._profiler = cProfile.Profile()
        self._by_func: dict[tuple[str, str], int] = defaultdict(int)
        self.calls_by_layer = dict.fromkeys(LAYERS, 0)
        self.self_s_by_layer = dict.fromkeys(LAYERS, 0.0)

    def __enter__(self) -> "LayerProfile":
        self._profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.disable()
        self._fold()

    def _fold(self) -> None:
        places: dict[str, tuple[str, str]] = {}
        for entry in self._profiler.getstats():
            code = entry.code
            if isinstance(code, str):  # a builtin
                if "_lsprof.Profiler" in code:
                    continue
                layer, rel = "other", ""
            else:
                place = places.get(code.co_filename)
                if place is None:
                    place = places[code.co_filename] = self._place(code.co_filename)
                layer, rel = place
                self._by_func[(rel, code.co_name)] += entry.callcount
            self.calls_by_layer[layer] += entry.callcount
            self.self_s_by_layer[layer] += entry.inlinetime

    def _place(self, filename: str) -> tuple[str, str]:
        """(layer, path relative to ``src/repro``) of a source file."""
        path = os.path.realpath(filename)
        if not path.startswith(self._root):
            return "other", ""
        rel = path[len(self._root):].replace(os.sep, "/")
        package = rel.split("/", 1)[0] if "/" in rel else ""
        return (package if package in LAYERS else "other"), rel

    def calls(self, rel_file: str, func: str) -> int:
        """Calls to *func* defined in ``src/repro/<rel_file>``."""
        return self._by_func.get((rel_file, func), 0)

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s_by_layer[layer]
            out[f"{layer}.calls"] = self.calls_by_layer[layer]
        return out
