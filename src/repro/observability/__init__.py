"""Unified observability: hierarchical metrics, span tracing, run reports.

Three pieces, one instrumentation surface:

- :class:`MetricsRegistry` snapshots the :mod:`repro.sim.stats`
  primitives, which components register under canonical hierarchical
  names (``nic.rvma.bytes_placed``, ``transport.retransmits``,
  ``recovery.replayed_msgs``), every one documented in
  :data:`~repro.observability.metrics.CATALOG`.
- :class:`SpanTracer` records sim-time/wall-time intervals with parent
  links and per-category enable flags, layered over the flat
  :class:`~repro.sim.trace.Tracer`.  Every :class:`~repro.sim.engine.Simulator`
  owns one at ``sim.spans``.
- :class:`RunReport` snapshots both into a JSON + markdown artifact,
  with top-N hottest-span profiling hooks.
"""

from repro.observability.metrics import CATALOG, MetricSpec, MetricsRegistry, lookup, uncatalogued
from repro.observability.report import RunReport
from repro.observability.spans import Span, SpanTracer

__all__ = [
    "CATALOG",
    "MetricSpec",
    "MetricsRegistry",
    "RunReport",
    "Span",
    "SpanTracer",
    "lookup",
    "uncatalogued",
]
