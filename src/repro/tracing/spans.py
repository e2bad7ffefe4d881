"""The deterministic span plane: a tree of work derived from the event stream.

A **span** is one node of the tree that describes where a collection run
spent its probes: the session (or survey) at the root, one span per trace,
one per hop round inside a trace, phase spans (positioning, exploration)
under the hop that triggered the growth, and one leaf span per heuristic
judgement.  The tree is a *pure function of the session-event stream* —
the same contract as :meth:`repro.metrics.MetricsRegistry.snapshot` — so a
live run, a :class:`~repro.transport.ReplayTransport` replay of its
journal, and ``tracenet spans <journal>`` offline all derive the identical
tree, with identical per-span probe / cache-hit / suppression counts.

The **timing plane** is quarantined exactly like ``registry.timings``:
when a :class:`SpanBuilder` is given a monotonic ``clock``, spans are
stamped, but the stamps never appear in the deterministic serialization
(:meth:`Span.to_dict` without ``timing=True``).  Wall clocks break record
→ replay parity; structure and probe attribution never do.  The clock is
read only at span-boundary records (:data:`~repro.events.BOUNDARY_TYPES`:
trace start and end, hop, heuristic judgement, subnet positioned and
grown), so a span's ``start`` is the last boundary stamp at or before its
first record and its ``end`` the last boundary stamp at or before its
last record.  A heuristic leaf spans from the boundary before its first
probe to its own judgement.

Attribution rules (all derived from guaranteed event orderings):

* a :class:`~repro.events.TraceStarted` opens a trace span; every event up
  to its :class:`~repro.events.TraceFinished` belongs to it;
* trace-collection-phase probe events open (or join) the **hop span** for
  their TTL — batched pipelines probe several TTLs ahead, so hop spans are
  keyed by TTL, not by arrival order;
* a :class:`~repro.events.HopObserved` marks its hop span as the *current*
  hop: subsequent positioning/exploration events (the growth that hop
  triggered) attach under it, one phase span each;
* exploration-phase probes accumulate in a pending bucket and land on the
  **next** :class:`~repro.events.HeuristicFired` leaf — valid because the
  collector always probes a candidate before recording the judgement;
  whatever is pending when the growth ends stays on the exploration span.

:class:`~repro.events.OverheadViolation` is deliberately ignored: the
auditor re-emits it *during* :class:`~repro.events.SubnetGrown` dispatch,
so its position in the stream depends on sink subscription order — the one
event whose ordering is not deterministic across observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..events import (
    CacheHit,
    CheckpointWritten,
    DegradedResult,
    HeuristicFired,
    HopObserved,
    ProbeBatchSent,
    ProbeSent,
    ProbeSuppressed,
    SessionEvent,
    SubnetGrown,
    SubnetPositioned,
    SubnetShrunk,
    SurveyProgressed,
    TopologyMutated,
    TraceFinished,
    TraceStarted,
    as_record,
)
from ..netsim.addressing import format_ip

#: Algorithm-phase strings as the probe events carry them (mirrors the
#: PHASE_* constants in repro.core without importing the collectors).
PHASE_TRACE = "trace-collection"
PHASE_POSITIONING = "subnet-positioning"
PHASE_EXPLORATION = "subnet-exploration"


@dataclass(slots=True)
class Span:
    """One node of the span tree.

    ``counters`` holds this span's *own* counts (events attributed
    directly here, not to a descendant); :meth:`total` rolls a counter up
    over the subtree.  ``start``/``end`` are the quarantined timing plane:
    monotonic first/last-activity stamps, present only on clocked live
    builds and excluded from the deterministic :meth:`to_dict`.
    """

    kind: str
    name: str
    meta: Dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    start: Optional[float] = None
    end: Optional[float] = None

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def total(self, key: str) -> int:
        """A counter summed over this span and every descendant."""
        value = self.counters.get(key, 0)
        for child in self.children:
            value += child.total(key)
        return value

    @property
    def duration(self) -> Optional[float]:
        """Timed extent (None on the deterministic plane)."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def child(self, kind: str, name: str,
              meta: Optional[Dict] = None) -> "Span":
        """Append a new child span; it keeps ``meta`` itself, uncopied."""
        span = Span(kind, name, {} if meta is None else meta)
        self.children.append(span)
        return span

    def walk(self):
        """Depth-first iteration over the subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, timing: bool = False) -> Dict:
        """JSON-able tree.  Without ``timing`` the payload is a pure
        function of the event stream (the parity contract); with it, the
        monotonic stamps ride along for flamegraph export."""
        payload: Dict = {
            "kind": self.kind,
            "name": self.name,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "children": [child.to_dict(timing=timing)
                         for child in self.children],
        }
        if timing and self.start is not None:
            payload["start"] = self.start
            payload["end"] = self.end
        return payload


class SpanBuilder:
    """Streaming span-tree construction: a fold over the session log.

    Attach an instance to a session-event bus (:meth:`EventBus.attach`)
    and it folds the bus's records once per trace; subscribe it instead,
    or feed it replayed events offline, and it turns each event into its
    record and runs the same fold.  The resulting :attr:`root` tree is
    identical either way.  ``clock`` (e.g. ``time.perf_counter``) enables
    the timing plane; leave it ``None`` for a deterministic-only build.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock
        self.root = Span(kind="session", name="session")
        #: The latest boundary stamp: what a span touched now is stamped.
        self._now: Optional[float] = None
        if clock is not None:
            self._now = self.root.start = clock()
        self._bus = None
        self._trace: Optional[Span] = None
        self._hops: Dict[int, Span] = {}
        self._hop: Optional[Span] = None
        self._growth: Dict[str, Span] = {}
        self._pending: Dict[str, int] = {}
        self._pending_start: Optional[float] = None
        # What finish() charged to the exploration span for the pending
        # probes: (span, each counter's value before), revoked on the
        # next record.
        self._charged: Optional[tuple] = None
        self._handlers = {
            TraceStarted: self._on_trace_started,
            TraceFinished: self._on_trace_finished,
            ProbeSuppressed: self._on_suppressed,
            ProbeBatchSent: self._on_batch,
            HopObserved: self._on_hop,
            SubnetPositioned: self._on_positioned,
            HeuristicFired: self._on_heuristic,
            SubnetShrunk: self._on_shrunk,
            SubnetGrown: self._on_grown,
            CheckpointWritten: self._on_checkpoint,
            SurveyProgressed: self._on_progress,
            TopologyMutated: self._on_mutation,
            DegradedResult: self._on_degraded,
        }
        # Dispatch-mask interests for a subscribed builder: producers skip
        # constructing event types it ignores (OverheadViolation stays out
        # by design).
        self.interests = (ProbeSent, CacheHit, *self._handlers)

    # -- the fold protocol -----------------------------------------------

    def bind(self, bus) -> None:
        """The bus this fold is attached to (None once detached)."""
        self._bus = bus

    def __call__(self, event: SessionEvent) -> None:
        """Fold one event object as the record a clocked bus would log."""
        self.fold((as_record(event, self.clock),))

    def fold(self, records) -> None:
        """Apply a slice of session-log records, in order."""
        if self._charged is not None:
            self._revoke_charge()
        count = self._count_probe
        handlers = self._handlers
        for record in records:
            cls = record[0]
            if cls is ProbeSent:
                fields = record[1]
                count("probes", fields[4], fields[1])
            elif cls is CacheHit:
                fields = record[1]
                count("cache_hits", fields[2], fields[1])
            else:
                if len(record) > 2:
                    self._now = record[2]
                handler = handlers.get(cls)
                if handler is not None:
                    handler(*record[1])

    def finish(self) -> Span:
        """The tree so far: folds what the bus has recorded, charges
        exploration probes no judgement has claimed yet to the exploration
        span, and stamps the root.

        Finishing changes nothing that follows: the builder keeps folding,
        and the charge is revoked at the next record, so a tree finished
        mid-stream ends up as if it had never been finished.
        """
        if self._bus is not None:
            self._bus.drain()
        if self._charged is not None:
            self._revoke_charge()
        if self._pending:
            span = self._growth[PHASE_EXPLORATION]
            counters = span.counters
            self._charged = (span, {key: counters.get(key)
                                    for key in self._pending})
            for key, value in self._pending.items():
                span.count(key, value)
        if self.clock is not None:
            self.root.end = self.clock()
        return self.root

    # -- internals -------------------------------------------------------

    def _revoke_charge(self) -> None:
        span, before = self._charged
        self._charged = None
        for key, value in before.items():
            if value is None:
                del span.counters[key]
            else:
                span.counters[key] = value

    def _touch(self, span: Span) -> None:
        if self.clock is None:
            return
        now = self._now
        if span.start is None:
            span.start = now
        span.end = now

    def _attach_point(self) -> Span:
        return self._trace if self._trace is not None else self.root

    def _hop_span(self, ttl: int) -> Span:
        span = self._hops.get(ttl)
        if span is None:
            span = self._attach_point().child("hop", f"ttl-{ttl}",
                                              meta={"ttl": ttl})
            self._hops[ttl] = span
        self._touch(span)
        return span

    def _phase_span(self, phase: str) -> Span:
        """The growth-phase child of the current hop (lazily created)."""
        span = self._growth.get(phase)
        if span is None:
            parent = self._hop if self._hop is not None \
                else self._attach_point()
            span = parent.child("phase", phase)
            self._growth[phase] = span
        self._touch(span)
        return span

    def _count_probe(self, key: str, phase: Optional[str],
                     ttl: Optional[int]) -> None:
        # The per-probe hot path: every ProbeSent/CacheHit/ProbeSuppressed
        # lands here, so the common cases (an existing hop or phase span)
        # are inlined — dict probe, stamp, count — instead of going
        # through _hop_span/_phase_span/_touch/count call chains.
        clocked = self.clock is not None
        if phase == PHASE_EXPLORATION:
            # Exploration probes belong to the *next* heuristic judgement:
            # the collector probes a candidate, then records the verdict.
            pending = self._pending
            pending[key] = pending.get(key, 0) + 1
            span = self._growth.get(PHASE_EXPLORATION)
            if span is None:
                self._phase_span(PHASE_EXPLORATION)
            elif clocked:
                span.end = self._now
            if clocked and self._pending_start is None:
                self._pending_start = self._now
            return
        if phase == PHASE_TRACE and ttl is not None:
            span = self._hops.get(ttl)
            if span is None:
                span = self._hop_span(ttl)
            elif clocked:
                span.end = self._now
        elif phase == PHASE_POSITIONING:
            span = self._growth.get(phase)
            if span is None:
                span = self._phase_span(phase)
            elif clocked:
                span.end = self._now
        else:
            span = self._trace if self._trace is not None else self.root
            self._touch(span)
        counters = span.counters
        counters[key] = counters.get(key, 0) + 1

    # -- handlers, one argument per event field ----------------------------

    def _on_trace_started(self, destination) -> None:
        # Exploration probes no judgement claimed stay with the growth
        # that sent them, even when its trace never finished.
        self._drain_pending()
        self._close_trace()
        self._trace = self.root.child(
            "trace", format_ip(destination),
            meta={"destination": destination})
        self._touch(self._trace)

    def _on_trace_finished(self, destination, reached, hops, probes_sent,
                           cache_hits=0) -> None:
        self._drain_pending()
        trace = self._trace
        if trace is None:
            return
        trace.meta.update(reached=reached, hops=hops,
                          probes_sent=probes_sent, cache_hits=cache_hits)
        self._close_trace()

    def _close_trace(self) -> None:
        if self._trace is not None:
            self._touch(self._trace)
        self._trace = None
        self._hops.clear()
        self._hop = None
        self._growth.clear()

    def _on_mutation(self, epoch, sequence, kind, target,
                     detail=None) -> None:
        """A churn marker at the attach point — mid-trace mutations become
        children of the trace they interrupted, which is exactly what a
        critical-path reading of a degraded trace needs to see."""
        span = self._attach_point().child(
            "mutation", f"{kind}@{epoch}",
            meta={"kind": kind, "epoch": epoch, "sequence": sequence,
                  "target": target})
        span.count("mutations")
        self._touch(span)

    def _on_degraded(self, destination, reason, confidence) -> None:
        trace = self._trace
        if trace is None:
            return
        trace.meta.update(degraded=True, confidence=confidence,
                          degraded_reason=reason)
        trace.count("degraded")

    def _on_suppressed(self, destination, ttl, phase, reason,
                       address=None) -> None:
        self._count_probe("suppressed", phase, ttl)

    def _on_batch(self, size, phase) -> None:
        # Batches span several TTLs/candidates: attribute to the phase
        # span (exploration/positioning) or the trace itself (ladder).
        if phase in (PHASE_POSITIONING, PHASE_EXPLORATION):
            span = self._phase_span(phase)
        else:
            span = self._attach_point()
            self._touch(span)
        span.count("batches")
        span.count("batched_probes", size)

    def _on_hop(self, destination, ttl, kind, address) -> None:
        if self._pending:
            self._drain_pending()
        span = self._hops.get(ttl)
        if span is None:
            span = self._hop_span(ttl)
        elif self.clock is not None:
            span.end = self._now
        span.meta["kind"] = kind
        span.meta["address"] = address
        self._hop = span
        self._growth.clear()

    def _on_positioned(self, trace_address, positioned, pivot,
                       pivot_distance, on_trace_path) -> None:
        span = self._phase_span(PHASE_POSITIONING)
        span.count("positioned" if positioned else "unpositioned")
        span.meta.update(pivot=pivot, pivot_distance=pivot_distance,
                         on_trace_path=on_trace_path)

    def _on_heuristic(self, candidate, rule, verdict, detail) -> None:
        parent = self._growth.get(PHASE_EXPLORATION)
        if parent is None:
            parent = self._phase_span(PHASE_EXPLORATION)
        elif self.clock is not None:
            parent.end = self._now
        # The pending exploration counts become the leaf's own counters.
        counters = self._pending
        counters["fires"] = 1
        self._pending = {}
        leaf = Span("heuristic", rule,
                    {"candidate": candidate, "verdict": verdict}, counters)
        parent.children.append(leaf)
        if self.clock is not None:
            leaf.start = (self._pending_start
                          if self._pending_start is not None else self._now)
            leaf.end = self._now
            self._pending_start = None

    def _on_shrunk(self, pivot, rule, prefix_length) -> None:
        span = self._phase_span(PHASE_EXPLORATION)
        span.count("shrinks")
        span.count(f"shrink:{rule}")

    def _on_grown(self, pivot, prefix, size, stop_reason, probes_used,
                  phase_probes=None, candidates_tested=0) -> None:
        self._drain_pending()
        span = self._phase_span(PHASE_EXPLORATION)
        span.count("subnets")
        span.meta.update(prefix=prefix, size=size, stop_reason=stop_reason,
                         probes_used=probes_used,
                         candidates_tested=candidates_tested)

    def _on_checkpoint(self, path, completed_targets, traces) -> None:
        self.root.count("checkpoints")
        self._touch(self.root)

    def _on_progress(self, total_targets, completed, skipped, reached,
                     probes_sent) -> None:
        self.root.count("progress")
        self.root.meta["targets_done"] = completed + skipped
        self.root.meta["total_targets"] = total_targets
        self._touch(self.root)

    def _drain_pending(self) -> None:
        """Leftover exploration probes (no judgement followed) stay on the
        exploration span itself."""
        if not self._pending:
            self._pending_start = None
            return
        span = self._phase_span(PHASE_EXPLORATION)
        for key, value in sorted(self._pending.items()):
            span.count(key, value)
        self._pending.clear()
        self._pending_start = None


def span_tree_from_events(events, clock=None) -> Span:
    """The pure-function form: an event sequence in, the span tree out."""
    builder = SpanBuilder(clock=clock)
    for event in events:
        builder(event)
    return builder.finish()
