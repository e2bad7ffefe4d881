"""Span stitching across the service seam: job → lease → trace.

The coordinator annotates every *committed* journal record with the
number of the lease that produced it (``event_from_dict`` drops the extra
key on metrics replay, so the annotation is parity-free).  This module
demuxes that annotated stream into one :class:`SpanBuilder` per lease — a
**lease span** — under a single job root:

* the coordinator feeds its assembler at commit time (live);
* ``tracenet spans <events.jsonl>`` feeds an identical assembler from the
  journal file (offline);

and because the committed journal *is* the commit-order event sequence,
both derive bit-identical deterministic trees — including across a killed
worker, where the crashed lease's span holds exactly its checkpointed
(committed) prefix and the re-lease holds the rest.

The timing plane stays quarantined: :meth:`ServiceSpanAssembler.stamp`
lets the coordinator attach lease-clock start/end marks (and the worker's
own timed span tree rides in the job payload), none of which appear in
the deterministic serialization.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..events import SessionEvent, event_from_dict
from .spans import Span, SpanBuilder

#: Journal-record annotation added by the coordinator's commit path: the
#: number of the lease (1 for the first, +1 per re-lease) that produced it.
LEASE_KEY = "lease"

#: Journals written before the ``lease`` key annotated each record with a
#: shard index (always 0) and the lease number under ``attempt`` — which
#: overwrote :class:`~repro.events.ProbeRetried`'s own ``attempt``.
_OLD_SERVICE_KEY = "shard"
_OLD_LEASE_KEY = "attempt"


def is_service_payload(payload: Dict) -> bool:
    """True for a journal record annotated with its lease (either format)."""
    return "event" in payload and (LEASE_KEY in payload
                                   or _OLD_SERVICE_KEY in payload)


class ServiceSpanAssembler:
    """Builds the job span tree from lease-annotated committed events.

    Lease spans appear in first-commit order (deterministic: commit order
    equals journal order), keyed by lease number.  ``clock`` enables
    coordinator-side lease timing on live assembly; :meth:`stamp` records
    explicit lease lifecycle times (grant/completion) that override the
    activity-based stamps.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock
        self.root = Span(kind="job", name="job")
        if clock is not None:
            self.root.start = clock()
        self._builders: Dict[int, SpanBuilder] = {}
        self._stamps: Dict[int, Dict[str, float]] = {}

    def _builder(self, lease: int) -> SpanBuilder:
        builder = self._builders.get(lease)
        if builder is None:
            builder = SpanBuilder(
                clock=self.clock, root_kind="lease",
                root_name=f"lease-{lease}", meta={"lease": lease})
            self.root.children.append(builder.root)
            stamp = self._stamps.get(lease)
            if stamp and "start" in stamp:
                builder.root.start = stamp["start"]
            self._builders[lease] = builder
        return builder

    def feed(self, payload: Dict) -> None:
        """One annotated journal record (live commit or offline line).

        ``attempt`` is read as the lease number only in the older format,
        where no ``lease`` key exists.
        """
        lease = (payload[LEASE_KEY] if LEASE_KEY in payload
                 else payload.get(_OLD_LEASE_KEY, 1))
        self.feed_event(event_from_dict(payload), lease)

    def feed_event(self, event: SessionEvent, lease: int) -> None:
        """Typed-event form used by the coordinator's live pipeline."""
        self._builder(lease)(event)

    def stamp(self, lease: int, start: Optional[float] = None,
              end: Optional[float] = None) -> None:
        """Record lease lifecycle times (timing plane only)."""
        stamp = self._stamps.setdefault(lease, {})
        if start is not None:
            stamp["start"] = start
        if end is not None:
            stamp["end"] = end
        builder = self._builders.get(lease)
        if builder is not None:
            if start is not None:
                builder.root.start = start
            if end is not None:
                builder.root.end = end

    def finish(self) -> Span:
        """Seal every lease builder and return the job root."""
        for lease in sorted(self._builders):
            builder = self._builders[lease]
            builder.finish()
            stamp = self._stamps.get(lease)
            if stamp:
                if "start" in stamp:
                    builder.root.start = stamp["start"]
                if "end" in stamp:
                    builder.root.end = stamp["end"]
        if self.clock is not None:
            self.root.end = self.clock()
        return self.root


def service_span_tree(payloads, clock=None) -> Span:
    """Assemble a job tree from annotated journal records (offline)."""
    assembler = ServiceSpanAssembler(clock=clock)
    for payload in payloads:
        assembler.feed(payload)
    return assembler.finish()
