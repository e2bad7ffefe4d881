"""Offline span trees: any journal in, the deterministic tree out.

``tracenet spans <journal>`` accepts all three journal shapes the project
records and derives the identical tree a live builder produced:

* a **probe journal** (``--record``): the run is replayed through the real
  collector over a :class:`~repro.transport.ReplayTransport` — the same
  machinery as ``tracenet stats`` — with a :class:`SpanBuilder` attached,
  so the rebuilt event stream (and hence the tree) matches the live one
  bit for bit;
* a **session-event journal** (``--events``): the stream is fed straight
  through a builder;
* a **service job journal** (the coordinator's committed ``events.jsonl``,
  lease-annotated): demuxed through a
  :class:`~repro.tracing.service.ServiceSpanAssembler` into the job →
  lease → trace tree the coordinator assembled live at commit time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..events import event_from_dict
from .service import is_service_payload, service_span_tree
from .spans import Span, SpanBuilder


def _load_event_payloads(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def span_tree_from_journal(path: str,
                           vantage: Optional[str] = None,
                           destination: Optional[int] = None) -> Span:
    """The deterministic span tree of any recorded journal."""
    # Lazy import: repro.metrics.analytics drives the collectors; keep the
    # tracing package importable without pulling that stack in.
    from ..metrics import journal_kind, stats_from_journal

    if journal_kind(path) == "events":
        payloads = _load_event_payloads(path)
        if any(is_service_payload(payload) for payload in payloads):
            return service_span_tree(payloads)
        builder = SpanBuilder()
        for payload in payloads:
            builder(event_from_dict(payload))
        return builder.finish()
    builder = SpanBuilder()
    stats_from_journal(path, vantage=vantage, destination=destination,
                       extra_sinks=(builder,))
    return builder.finish()
