"""repro.tracing — deterministic span trees with a quarantined timing plane.

Two coordinated planes over the session-event stream:

* the **deterministic plane** (:class:`SpanBuilder`,
  :func:`span_tree_from_events`) derives a survey → trace → hop →
  heuristic span tree purely from the event sequence, with per-span probe
  / cache-hit / suppression attribution — live == replay == offline
  (:func:`span_tree_from_journal`), the same parity contract as
  :meth:`repro.metrics.MetricsRegistry.snapshot`;
* the **timing plane** annotates the same spans with monotonic-clock
  stamps when a live builder is given a clock, and exports Chrome
  trace-event JSON (:func:`chrome_trace`) plus a critical-path /
  heuristic-attribution report (:mod:`repro.tracing.critical`).

Layering: this package sits beside :mod:`repro.metrics` — it consumes the
event stream and must never import ``repro.netsim.engine`` (sealed by
``tests/test_layering.py``).
"""

from .critical import (
    critical_path,
    growth_outcomes,
    heuristic_attribution,
    per_trace_table,
    render_critical_path,
    render_heuristics_table,
    render_report,
    render_summary,
    span_cost,
)
from .export import (
    chrome_trace,
    write_chrome_trace,
)
from .offline import span_tree_from_journal
from .spans import Span, SpanBuilder, span_tree_from_events

__all__ = [
    "Span",
    "SpanBuilder",
    "chrome_trace",
    "critical_path",
    "growth_outcomes",
    "heuristic_attribution",
    "per_trace_table",
    "render_critical_path",
    "render_heuristics_table",
    "render_report",
    "render_summary",
    "span_cost",
    "span_tree_from_events",
    "span_tree_from_journal",
    "write_chrome_trace",
]
