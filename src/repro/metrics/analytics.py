"""Offline journal analytics: rebuild a live run's metrics from its journal.

A probe journal (``--record``) is a complete transcript of one collection
session.  Replaying it through the *real* collector — the same
:class:`~repro.core.tracenet.TraceNET`, the same prober, the same event
stream, just a :class:`~repro.transport.ReplayTransport` instead of a
network — reproduces the exact session-event sequence of the original run,
and therefore the exact metrics registry.  That is what ``tracenet stats``
does: every archived journal becomes a queryable measurement artifact,
years after the run, with no simulator (or network) involved.

The run — shape, network, vantage, protocol, collector options, radar
config — is rebuilt from the journal header by
:class:`~repro.runspec.RunSpec`, the same builder the CLI's live and
``--replay`` runs use, so every journal the CLI records (traces over any
protocol, surveys with stop sets or batching, radar runs under churn and
loss) analyses offline from its path alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Sequence, Union

from ..events import EventBus, SessionEvent
from ..runspec import RunSpec
from ..transport import ReplayTransport
from .auditor import DEFAULT_SLACK, ProbeEconomyAuditor
from .registry import MetricsRegistry
from .sink import MetricsSink, collect_bus_metrics


def registry_from_events(events: Iterable[SessionEvent],
                         audit: bool = False,
                         slack: float = DEFAULT_SLACK) -> MetricsRegistry:
    """Metrics from an already-captured event stream (e.g. ``--events``).

    ``audit=True`` re-runs the probe-economy auditor over the stream; only
    enable it for streams recorded *without* an auditor attached, or
    violations are counted twice.
    """
    registry = MetricsRegistry()
    bus = EventBus()
    bus.subscribe(MetricsSink(registry))
    if audit:
        bus.subscribe(ProbeEconomyAuditor(bus, slack=slack))
    for event in events:
        bus.emit(event)
    return registry


@dataclass
class JournalStats:
    """What ``tracenet stats`` computed for one journal."""

    registry: MetricsRegistry
    mode: str                      # "trace", "survey", "radar" or "events"
    vantage: str
    metadata: Dict
    destination: Optional[int] = None
    targets: List[int] = field(default_factory=list)
    exchanges_served: int = 0
    exchanges_remaining: int = 0

    def describe(self) -> str:
        if self.mode == "events":
            return (f"replayed {self.exchanges_served} session events "
                    f"through the metrics pipeline")
        what = ("1 trace" if self.mode == "trace"
                else f"{len(self.targets)} {self.mode} targets")
        return (f"replayed {what} from vantage {self.vantage!r}: "
                f"{self.exchanges_served} journaled exchanges served, "
                f"{self.exchanges_remaining} unused")


def stats_from_journal(source: Union[str, IO],
                       vantage: Optional[str] = None,
                       destination: Optional[int] = None,
                       targets: Optional[Sequence[int]] = None,
                       slack: float = DEFAULT_SLACK,
                       extra_sinks: Sequence = ()) -> JournalStats:
    """Replay a recorded probe journal offline and rebuild its registry.

    The journal header describes the run (:meth:`RunSpec.from_header`);
    ``vantage`` and ``destination`` fill in what it does not record, and
    contradicting it raises :class:`~repro.runspec.RunSpecError`.
    ``targets`` replaces the target list the header's network and seed
    would regenerate (for a journal of a partial survey).
    """
    transport = ReplayTransport(source)
    metadata = transport.metadata
    shape = ("trace" if destination is not None
             else "survey" if targets is not None else None)
    spec = RunSpec.from_header(metadata, shape, vantage=vantage,
                               destination=destination)
    run = spec.build(transport=transport, targets=targets)
    registry = MetricsRegistry()
    run.execute(sinks=extra_sinks, registry=registry, slack=slack)
    collect_bus_metrics(registry.backend, run.tool.events)
    return JournalStats(
        registry=registry,
        mode=spec.shape,
        vantage=run.spec.vantage,
        metadata=dict(metadata),
        destination=run.spec.destination,
        targets=run.targets,
        exchanges_served=transport.cursor,
        exchanges_remaining=transport.remaining,
    )


def stats_from_events(source: Union[str, IO],
                      audit: bool = False,
                      slack: float = DEFAULT_SLACK,
                      extra_sinks: Sequence = ()) -> JournalStats:
    """Rebuild a registry from a session-event journal (``--events``).

    The cheaper sibling of :func:`stats_from_journal`: an event journal
    already *is* the session-event sequence, so no collector re-run is
    needed — the events are fed straight through a fresh
    :class:`MetricsSink`, and the registry equals the live run's.
    :func:`~repro.events.event_from_dict` drops record keys that name no
    event field, so annotated records count like plain ones.  Keep
    ``audit=False`` for journals recorded with an auditor attached (the
    live auditor's violations are already in the stream).  Every event
    is also fed to each of ``extra_sinks`` (e.g. a ``SpanBuilder``).
    """
    from ..events import replay_events

    events = replay_events(source)
    for sink in extra_sinks:
        for event in events:
            sink(event)
    registry = registry_from_events(events, audit=audit, slack=slack)
    return JournalStats(
        registry=registry,
        mode="events",
        vantage="",
        metadata={},
        exchanges_served=len(events),
    )


def journal_kind(source: str) -> str:
    """``"events"`` for a session-event journal, ``"probes"`` otherwise.

    Event journals carry an ``"event"`` key on every record; probe
    journals start with a header record.  An empty file counts as a probe
    journal (ReplayTransport gives the clearer error).
    """
    import json as _json

    with open(source, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                record = _json.loads(line)
            except ValueError:
                return "probes"
            return ("events" if isinstance(record, dict)
                    and "event" in record else "probes")
    return "probes"
