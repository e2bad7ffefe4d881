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
when a :class:`SpanBuilder` is given a monotonic ``clock``, every span is
stamped with first/last-activity times, but those stamps never appear in
the deterministic serialization (:meth:`Span.to_dict` without
``timing=True``).  Wall clocks break record → replay parity; structure and
probe attribution never do.

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
    """Streaming span-tree construction: usable directly as an event sink.

    Subscribe an instance to a session-event bus (live) or feed it a
    replayed event sequence (offline) — the resulting :attr:`root` tree is
    identical either way.  ``clock`` (e.g. ``time.perf_counter``) enables
    the timing plane; leave it ``None`` for a deterministic-only build.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock
        self.root = Span(kind="session", name="session")
        if clock is not None:
            self.root.start = clock()
        self._trace: Optional[Span] = None
        self._hops: Dict[int, Span] = {}
        self._hop: Optional[Span] = None
        self._growth: Dict[str, Span] = {}
        self._pending: Dict[str, int] = {}
        self._pending_start: Optional[float] = None
        self._handlers = {
            TraceStarted: self._on_trace_started,
            TraceFinished: self._on_trace_finished,
            ProbeSent: self._on_probe,
            CacheHit: self._on_cache_hit,
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
        # Dispatch-mask interests: producers skip constructing event types
        # the builder ignores (OverheadViolation stays out by design).
        self.interests = tuple(self._handlers)

    # -- sink protocol ---------------------------------------------------

    def __call__(self, event: SessionEvent) -> None:
        cls = type(event)
        # The two dominant event types skip the handler trampoline.
        if cls is ProbeSent:
            self._count_probe("probes", event.phase, event.ttl)
            return
        if cls is CacheHit:
            self._count_probe("cache_hits", event.phase, event.ttl)
            return
        handler = self._handlers.get(cls)
        if handler is not None:
            handler(event)

    def finish(self) -> Span:
        """Seal the tree (drains pending attribution, stamps the root)."""
        self._drain_pending()
        if self._trace is not None:
            self._close_trace()
        if self.clock is not None:
            self.root.end = self.clock()
        return self.root

    # -- internals -------------------------------------------------------

    def _touch(self, span: Span) -> None:
        if self.clock is None:
            return
        now = self.clock()
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

    def _probe_target(self, phase: Optional[str], ttl: Optional[int]) -> Span:
        if phase == PHASE_TRACE and ttl is not None:
            return self._hop_span(ttl)
        if phase in (PHASE_POSITIONING, PHASE_EXPLORATION):
            return self._phase_span(phase)
        span = self._attach_point()
        self._touch(span)
        return span

    def _count_probe(self, key: str, phase: Optional[str],
                     ttl: Optional[int]) -> None:
        # The per-probe-event hot path: every ProbeSent/CacheHit/
        # ProbeSuppressed lands here, so the common cases (an existing hop
        # or phase span) are inlined — dict probe, stamp, count — instead
        # of going through _probe_target/_touch/count call chains.
        clock = self.clock
        if phase == PHASE_EXPLORATION:
            # Exploration probes belong to the *next* heuristic judgement:
            # the collector probes a candidate, then records the verdict.
            pending = self._pending
            pending[key] = pending.get(key, 0) + 1
            span = self._growth.get(PHASE_EXPLORATION)
            if span is None:
                span = self._phase_span(PHASE_EXPLORATION)
            if clock is not None:
                now = clock()
                if self._pending_start is None:
                    self._pending_start = now
                if span.start is None:
                    span.start = now
                span.end = now
            return
        if phase == PHASE_TRACE and ttl is not None:
            span = self._hops.get(ttl)
            if span is None:
                span = self._hop_span(ttl)
            elif clock is not None:
                span.end = clock()
        elif phase == PHASE_POSITIONING:
            span = self._growth.get(phase)
            if span is None:
                span = self._phase_span(phase)
            elif clock is not None:
                span.end = clock()
        else:
            span = self._trace if self._trace is not None else self.root
            if clock is not None:
                now = clock()
                if span.start is None:
                    span.start = now
                span.end = now
        counters = span.counters
        counters[key] = counters.get(key, 0) + 1

    # -- handlers --------------------------------------------------------

    def _on_trace_started(self, event: TraceStarted) -> None:
        if self._trace is not None:
            self._close_trace()
        self._trace = self.root.child(
            "trace", format_ip(event.destination),
            meta={"destination": event.destination})
        self._touch(self._trace)
        self._hops = {}
        self._hop = None
        self._growth = {}

    def _on_trace_finished(self, event: TraceFinished) -> None:
        self._drain_pending()
        trace = self._trace
        if trace is None:
            return
        trace.meta.update(reached=event.reached, hops=event.hops,
                          probes_sent=event.probes_sent,
                          cache_hits=event.cache_hits)
        self._close_trace()

    def _close_trace(self) -> None:
        if self._trace is not None:
            self._touch(self._trace)
        self._trace = None
        self._hops = {}
        self._hop = None
        self._growth = {}

    def _on_mutation(self, event: TopologyMutated) -> None:
        """A churn marker at the attach point — mid-trace mutations become
        children of the trace they interrupted, which is exactly what a
        critical-path reading of a degraded trace needs to see."""
        span = self._attach_point().child(
            "mutation", f"{event.kind}@{event.epoch}",
            meta={"kind": event.kind, "epoch": event.epoch,
                  "sequence": event.sequence, "target": event.target})
        span.count("mutations")
        self._touch(span)

    def _on_degraded(self, event: DegradedResult) -> None:
        trace = self._trace
        if trace is None:
            return
        trace.meta.update(degraded=True, confidence=event.confidence,
                          degraded_reason=event.reason)
        trace.count("degraded")

    def _on_probe(self, event: ProbeSent) -> None:
        self._count_probe("probes", event.phase, event.ttl)

    def _on_cache_hit(self, event: CacheHit) -> None:
        self._count_probe("cache_hits", event.phase, event.ttl)

    def _on_suppressed(self, event: ProbeSuppressed) -> None:
        self._count_probe("suppressed", event.phase, event.ttl)

    def _on_batch(self, event: ProbeBatchSent) -> None:
        # Batches span several TTLs/candidates: attribute to the phase
        # span (exploration/positioning) or the trace itself (ladder).
        if event.phase in (PHASE_POSITIONING, PHASE_EXPLORATION):
            span = self._phase_span(event.phase)
        else:
            span = self._attach_point()
            self._touch(span)
        span.count("batches")
        span.count("batched_probes", event.size)

    def _on_hop(self, event: HopObserved) -> None:
        self._drain_pending()
        span = self._hop_span(event.ttl)
        span.meta["kind"] = event.kind
        span.meta["address"] = event.address
        self._hop = span
        self._growth = {}

    def _on_positioned(self, event: SubnetPositioned) -> None:
        span = self._phase_span(PHASE_POSITIONING)
        span.count("positioned" if event.positioned else "unpositioned")
        span.meta.update(pivot=event.pivot,
                         pivot_distance=event.pivot_distance,
                         on_trace_path=event.on_trace_path)

    def _on_heuristic(self, event: HeuristicFired) -> None:
        parent = self._phase_span(PHASE_EXPLORATION)
        leaf = Span("heuristic", event.rule,
                    {"candidate": event.candidate, "verdict": event.verdict},
                    {"fires": 1, **self._pending})
        parent.children.append(leaf)
        self._pending = {}
        if self.clock is not None:
            leaf.start = (self._pending_start
                          if self._pending_start is not None
                          else self.clock())
            leaf.end = self.clock()
            self._pending_start = None

    def _on_shrunk(self, event: SubnetShrunk) -> None:
        span = self._phase_span(PHASE_EXPLORATION)
        span.count("shrinks")
        span.count(f"shrink:{event.rule}")

    def _on_grown(self, event: SubnetGrown) -> None:
        self._drain_pending()
        span = self._phase_span(PHASE_EXPLORATION)
        span.count("subnets")
        span.meta.update(prefix=event.prefix, size=event.size,
                         stop_reason=event.stop_reason,
                         probes_used=event.probes_used,
                         candidates_tested=event.candidates_tested)

    def _on_checkpoint(self, event: CheckpointWritten) -> None:
        self.root.count("checkpoints")
        self._touch(self.root)

    def _on_progress(self, event: SurveyProgressed) -> None:
        self.root.count("progress")
        self.root.meta["targets_done"] = event.completed + event.skipped
        self.root.meta["total_targets"] = event.total_targets
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
        self._pending = {}
        self._pending_start = None


def span_tree_from_events(events, clock=None) -> Span:
    """The pure-function form: an event sequence in, the span tree out."""
    builder = SpanBuilder(clock=clock)
    for event in events:
        builder(event)
    return builder.finish()
