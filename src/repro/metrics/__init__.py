"""repro.metrics — the first-class metrics layer over the session-event bus.

One :class:`MetricsRegistry` per collection run, fed by:

* :class:`MetricsSink` — a fold over the session log: every typed session
  event becomes counters, gauges and fixed-bucket histograms
  (deterministic, replay-safe);
* :class:`ProbeEconomyAuditor` — checks each completed subnet against the
  paper's ``7|S| + 7`` probe bound and records
  :class:`~repro.events.OverheadViolation` events live;
* backend capture — engine fast-path and transport counters land in the
  quarantined ``registry.backend`` scope via
  :func:`repro.transport.base.collect_backend_metrics`.

Exposed three ways: ``--metrics-out`` JSON snapshots on ``tracenet
trace``/``survey``, :func:`render_prometheus` text exposition, and
``tracenet stats <journal>`` offline analytics
(:func:`stats_from_journal`).  See ``docs/OBSERVABILITY.md``.

Layering: this package must never import ``repro.netsim.engine``
(enforced by ``tests/test_layering.py``); engine counters reach it only
through the transport seam's ``backend_metrics()`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..events import EventBus
from .analytics import (
    JournalStats,
    journal_kind,
    registry_from_events,
    stats_from_events,
    stats_from_journal,
)
from .auditor import DEFAULT_SLACK, ProbeEconomyAuditor
from .prometheus import render_prometheus
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .sink import MetricsSink, collect_bus_metrics


@dataclass
class Instrumentation:
    """One instrumented bus: the registry plus the attached sinks."""

    registry: MetricsRegistry
    bus: EventBus
    sink: MetricsSink
    auditor: Optional[ProbeEconomyAuditor] = None

    def detach(self) -> None:
        """Detach everything this instrumentation attached."""
        self.bus.detach(self.sink)
        if self.auditor is not None:
            self.bus.unsubscribe(self.auditor)


def instrument(bus: EventBus, registry: Optional[MetricsRegistry] = None,
               audit: bool = True,
               slack: float = DEFAULT_SLACK) -> Instrumentation:
    """Attach the metrics layer to a session-event bus.

    Attaches a :class:`MetricsSink` as a fold over the bus's session log
    and, unless ``audit=False``, subscribes a :class:`ProbeEconomyAuditor`;
    returns the live :class:`Instrumentation` whose registry accumulates
    for as long as they stay attached.
    """
    registry = registry if registry is not None else MetricsRegistry()
    sink = MetricsSink(registry)
    bus.attach(sink)
    auditor = None
    if audit:
        auditor = ProbeEconomyAuditor(bus, slack=slack)
        bus.subscribe(auditor)
    return Instrumentation(registry=registry, bus=bus, sink=sink,
                           auditor=auditor)


__all__ = [
    "Counter",
    "DEFAULT_SLACK",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JournalStats",
    "MetricsRegistry",
    "MetricsSink",
    "ProbeEconomyAuditor",
    "collect_bus_metrics",
    "instrument",
    "journal_kind",
    "registry_from_events",
    "render_prometheus",
    "stats_from_events",
    "stats_from_journal",
]
