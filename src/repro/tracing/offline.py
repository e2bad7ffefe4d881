"""Offline span trees: any journal in, the deterministic tree out.

``tracenet spans <journal>`` accepts both journal shapes the project
records and derives the identical tree a live builder produced:

* a **probe journal** (``--record``): the run is replayed through the real
  collector over a :class:`~repro.transport.ReplayTransport` — the same
  machinery as ``tracenet stats`` — with a :class:`SpanBuilder` attached,
  so the rebuilt event stream (and hence the tree) matches the live one
  bit for bit;
* a **session-event journal** (``--events``): the stream is fed straight
  through a builder.  :func:`~repro.events.event_from_dict` drops keys
  that name no event field, so records carrying extra annotations read
  like plain ones.
"""

from __future__ import annotations

from typing import Optional

from ..events import replay_events
from .spans import Span, SpanBuilder


def span_tree_from_journal(path: str,
                           vantage: Optional[str] = None,
                           destination: Optional[int] = None) -> Span:
    """The deterministic span tree of any recorded journal."""
    # Lazy import: repro.metrics.analytics drives the collectors; keep the
    # tracing package importable without pulling that stack in.
    from ..metrics import journal_kind, stats_from_journal

    builder = SpanBuilder()
    if journal_kind(path) == "events":
        for event in replay_events(path):
            builder(event)
    else:
        stats_from_journal(path, vantage=vantage, destination=destination,
                           extra_sinks=(builder,))
    return builder.finish()
