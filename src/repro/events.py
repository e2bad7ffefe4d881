"""Typed session-event stream: every collector decision, observable.

Donnet et al.'s Doubletree deployment and Latapy et al.'s "Radar for the
Internet" both argue that a topology collector is only trustworthy when its
probe stream and per-decision telemetry are fully recorded.  This module is
that operational layer: the collectors record small typed events
(:class:`ProbeSent`, :class:`HopObserved`, :class:`HeuristicFired`, ...)
on an :class:`EventBus`.  Two kinds of consumer read them:

* **folds** (the metrics registry's sink, the span builder) are attached
  with :meth:`EventBus.attach` and read the session log: compact
  ``(cls, fields)`` records, handed over once per trace;
* **sinks** (a JSONL writer for durable logs, the probe-economy auditor, a
  progress renderer) are subscribed with :meth:`EventBus.subscribe` and
  get one frozen dataclass event object per event they want.

Nothing in the algorithms depends on any consumer being attached, and with
none attached nothing is recorded at all (the producers guard with
``if bus:``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, IO, List, Optional, Tuple, Type, Union

# -- the event taxonomy -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """Base class for everything the collectors emit."""


@dataclass(frozen=True, slots=True, init=False)
class ProbeSent(SessionEvent):
    """One probe actually put on the wire (cache hits emit :class:`CacheHit`).

    The count of these events reconciles exactly with
    ``Engine.stats.probes_sent`` on a simulator run: every wire probe emits
    one, and only answers served from the prober's response cache do not —
    those emit :class:`CacheHit` instead, so event-derived totals add up to
    the prober's ``sent + cache_hits``.
    """

    dst: int
    ttl: int
    protocol: str
    flow_id: int
    phase: Optional[str]
    answered: bool
    response_kind: Optional[str]
    response_source: Optional[int]

    def __init__(self, dst, ttl, protocol, flow_id, phase, answered,
                 response_kind, response_source):
        _set_ps_dst(self, dst)
        _set_ps_ttl(self, ttl)
        _set_ps_protocol(self, protocol)
        _set_ps_flow_id(self, flow_id)
        _set_ps_phase(self, phase)
        _set_ps_answered(self, answered)
        _set_ps_response_kind(self, response_kind)
        _set_ps_response_source(self, response_source)


@dataclass(frozen=True, slots=True, init=False)
class CacheHit(SessionEvent):
    """A probe answered from the prober's response cache — nothing hit the
    wire.  Without this event, event-derived probe totals undercount the
    prober's view (``ProbeStats.cache_hits``) and offline analytics cannot
    reconcile with live engine counters."""

    dst: int
    ttl: int
    phase: Optional[str]

    def __init__(self, dst, ttl, phase):
        _set_ch_dst(self, dst)
        _set_ch_ttl(self, ttl)
        _set_ch_phase(self, phase)


@dataclass(frozen=True, slots=True)
class ProbeSuppressed(SessionEvent):
    """A probe the collector decided not to send at all.

    Stop-set suppression (Doubletree): the hop was served from a remembered
    path toward the same destination prefix, so nothing hit the wire —
    unlike :class:`CacheHit`, which replays an answer this session already
    paid for.  ``reason`` names the
    suppression source (currently only ``"stop-set"``); ``address`` is the
    remembered interface when one exists.
    """

    destination: int
    ttl: int
    phase: Optional[str]
    reason: str
    address: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ProbeBatchSent(SessionEvent):
    """One transport batch dispatched via ``send_many`` (wire probes only).

    The per-probe :class:`ProbeSent` events still fire — this event carries
    the batching shape (how many probes shared one transport round-trip)
    for the ``probe_batches_total`` / ``probe_batch_size`` metrics.
    """

    size: int
    phase: Optional[str]


@dataclass(frozen=True, slots=True, init=False)
class HopObserved(SessionEvent):
    """Trace-collection mode classified the answer at one TTL."""

    destination: int
    ttl: int
    kind: str
    address: Optional[int]

    def __init__(self, destination, ttl, kind, address):
        _set_ho_destination(self, destination)
        _set_ho_ttl(self, ttl)
        _set_ho_kind(self, kind)
        _set_ho_address(self, address)


@dataclass(frozen=True, slots=True)
class SubnetPositioned(SessionEvent):
    """Algorithm 2 finished for one trace address (successfully or not)."""

    trace_address: int
    positioned: bool
    pivot: Optional[int]
    pivot_distance: Optional[int]
    on_trace_path: Optional[bool]


@dataclass(frozen=True, slots=True, init=False)
class HeuristicFired(SessionEvent):
    """One H2–H8 judgement on one candidate address."""

    candidate: int
    rule: str
    verdict: str
    detail: str

    def __init__(self, candidate, rule, verdict, detail):
        _set_hf_candidate(self, candidate)
        _set_hf_rule(self, rule)
        _set_hf_verdict(self, verdict)
        _set_hf_detail(self, detail)


@dataclass(frozen=True, slots=True)
class SubnetShrunk(SessionEvent):
    """H1 stop-and-shrink (or the half-utilization rule) cut the growth."""

    pivot: int
    rule: str
    prefix_length: int


@dataclass(frozen=True, slots=True)
class SubnetGrown(SessionEvent):
    """Algorithm 1 finished: one observed subnet, ready for the archive.

    ``phase_probes`` attributes the wire probes spent growing this subnet
    to the algorithm phase that issued them (trace-collection, positioning,
    exploration) — the per-subnet probe accounting the Section 3.6 economy
    auditor checks against the ``7|S| + 7`` bound.  ``candidates_tested``
    counts every address the exploration actually probed, members or not:
    a mostly-silent block legitimately costs more than ``7|size| + 7``
    while staying under the worst case over the candidates touched, so the
    auditor bounds against ``max(size, candidates_tested)``.  Both fields
    are absent (``None``/``0``) on event streams recorded before they
    existed.
    """

    pivot: int
    prefix: str
    size: int
    stop_reason: str
    probes_used: int
    phase_probes: Optional[Dict[str, int]] = None
    candidates_tested: int = 0


@dataclass(frozen=True, slots=True)
class TraceStarted(SessionEvent):
    """A tracenet session toward one destination began."""

    destination: int


@dataclass(frozen=True, slots=True)
class TraceFinished(SessionEvent):
    """A tracenet session ended (reached, looped, or gave up).

    ``cache_hits`` counts the probes this trace answered from the prober's
    response cache instead of the wire (0 on pre-field event streams).
    """

    destination: int
    reached: bool
    hops: int
    probes_sent: int
    cache_hits: int = 0


@dataclass(frozen=True, slots=True)
class OverheadViolation(SessionEvent):
    """The probe-economy auditor caught a subnet exceeding the Section 3.6
    bound: growing it cost more than ``slack * (7|S| + 7)`` wire probes.

    Emitted onto the same bus as every other event, so a recorded event
    stream carries its own economy audit and ``overhead_violations_total``
    reproduces offline.
    """

    pivot: int
    prefix: str
    size: int
    probes_used: int
    upper_bound: int
    slack: float
    phase_probes: Optional[Dict[str, int]] = None


@dataclass(frozen=True, slots=True)
class CheckpointWritten(SessionEvent):
    """The survey runner persisted its archive."""

    path: str
    completed_targets: int
    traces: int


@dataclass(frozen=True, slots=True)
class SurveyProgressed(SessionEvent):
    """Per-target survey progress (drives progress bars and hooks)."""

    total_targets: int
    completed: int
    skipped: int
    reached: int
    probes_sent: int


@dataclass(frozen=True, slots=True)
class TopologyMutated(SessionEvent):
    """The network changed under the collector (netsim.dynamics).

    Emitted by the churn seam at the probe-count epoch where the mutation
    fires, *before* the probe that crossed the epoch boundary is answered.
    The payload derives purely from the mutation schedule — never from the
    apply outcome — so a journal replay (which has no engine to mutate)
    emits the byte-identical stream.
    """

    epoch: int
    sequence: int
    kind: str
    target: str
    detail: Optional[Dict] = None


@dataclass(frozen=True, slots=True)
class TraceInconsistent(SessionEvent):
    """A hop contradicted what this trace already believed.

    Raised by the hop pipeline when a mutation epoch advanced mid-trace and
    the re-probe of a buffered/stop-set-served TTL answered differently
    from the pre-mutation observation — the signal that this trace mixes
    epochs and its result must be marked degraded.
    """

    destination: int
    ttl: int
    expected: Optional[int]
    observed: Optional[int]
    reason: str


@dataclass(frozen=True, slots=True)
class SubnetRetracted(SessionEvent):
    """A previously archived subnet vanished from a radar re-survey."""

    prefix: str
    reason: str


@dataclass(frozen=True, slots=True)
class DegradedResult(SessionEvent):
    """A trace completed but cannot be fully trusted (mixed epochs,
    contradicted hops, or retry exhaustion under loss); ``confidence``
    is the fraction of its observations that survived re-validation."""

    destination: int
    reason: str
    confidence: float


@dataclass(frozen=True, slots=True)
class ProbeRetried(SessionEvent):
    """One retry attempt after an unanswered probe (attempt >= 1)."""

    dst: int
    ttl: int
    attempt: int
    phase: Optional[str]


# The hot event types -- one per wire probe, cache hit, hop or heuristic
# judgement -- set their slots through the slot descriptors.  The frozen
# dataclass ``__init__`` would pay an ``object.__setattr__`` call by name
# per field, which the frozen guard does not need: assignment after
# construction still raises ``FrozenInstanceError``.  Each ``__init__``
# takes the dataclass's own signature, in field order.


def _slot_setters(cls: Type[SessionEvent]) -> Tuple[Callable, ...]:
    """Each field's slot setter, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


(_set_ps_dst, _set_ps_ttl, _set_ps_protocol, _set_ps_flow_id, _set_ps_phase,
 _set_ps_answered, _set_ps_response_kind,
 _set_ps_response_source) = _slot_setters(ProbeSent)
_set_ch_dst, _set_ch_ttl, _set_ch_phase = _slot_setters(CacheHit)
(_set_ho_destination, _set_ho_ttl, _set_ho_kind,
 _set_ho_address) = _slot_setters(HopObserved)
(_set_hf_candidate, _set_hf_rule, _set_hf_verdict,
 _set_hf_detail) = _slot_setters(HeuristicFired)

#: Every concrete event type, by class name — the wire vocabulary.
EVENT_TYPES: Dict[str, Type[SessionEvent]] = {
    cls.__name__: cls
    for cls in (
        ProbeSent, CacheHit, ProbeSuppressed, ProbeBatchSent, HopObserved,
        SubnetPositioned, HeuristicFired, SubnetShrunk, SubnetGrown,
        TraceStarted, TraceFinished, CheckpointWritten, SurveyProgressed,
        OverheadViolation, TopologyMutated, TraceInconsistent,
        SubnetRetracted, DegradedResult, ProbeRetried,
    )
}


def event_to_dict(event: SessionEvent) -> Dict:
    """JSON-ready representation: ``{"event": <class>, ...fields}``."""
    payload = {"event": type(event).__name__}
    payload.update(asdict(event))
    return payload


def event_from_dict(payload: Dict) -> SessionEvent:
    """Inverse of :func:`event_to_dict` (unknown kinds fail loudly)."""
    kind = payload.get("event")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown session event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in names})


# -- records ------------------------------------------------------------------

#: A session-log record: ``(cls, fields)``, the event type and its field
#: values in declaration order; a clocked bus appends a monotonic stamp to
#: the records of :data:`BOUNDARY_TYPES`, ``(cls, fields, stamp)``.
Record = Tuple

#: The records that open or close a span of the span tree (trace, hop,
#: heuristic judgement, subnet): the only ones a clocked bus stamps.
BOUNDARY_TYPES = frozenset({
    TraceStarted, TraceFinished, HopObserved, HeuristicFired,
    SubnetPositioned, SubnetGrown,
})

_field_getters: Dict[type, Callable] = {}


def _field_getter(cls: type) -> Callable:
    """``event -> tuple of its field values``, memoized per type."""
    names = [f.name for f in fields(cls)]
    getter = attrgetter(*names)
    if len(names) == 1:
        name = names[0]

        def getter(event):
            return (getattr(event, name),)
    _field_getters[cls] = getter
    return getter


def field_values(event: SessionEvent) -> Tuple:
    """An event object's field values, in declaration order."""
    cls = event.__class__
    return (_field_getters.get(cls) or _field_getter(cls))(event)


def as_record(event: SessionEvent,
              clock: Optional[Callable[[], float]] = None) -> Record:
    """The log record of an event object; ``clock`` stamps a boundary
    record as a clocked bus would have stamped it."""
    cls = event.__class__
    if clock is not None and cls in BOUNDARY_TYPES:
        return (cls, field_values(event), clock())
    return (cls, field_values(event))


# -- the bus ------------------------------------------------------------------

Sink = Callable[[SessionEvent], None]


class EventBus:
    """One session's event plane: a log for folds, delivery for sinks.

    Producers record each event once, guarded by the bus's truthiness
    (False while nothing is subscribed or attached)::

        if bus:
            bus.record(ProbeSent, dst, ttl, protocol, ...)

    :meth:`record` takes the event type and its field values in
    declaration order, and does three things:

    * with a fold attached (:meth:`attach`), it appends the compact record
      ``(cls, fields)`` to the session log.  The bus hands every attached
      fold the new records at each :class:`TraceFinished` and whenever
      :meth:`drain` is called, then drops them, so the log holds about one
      trace.  A fold with a ``clock`` makes the bus stamp the records of
      :data:`BOUNDARY_TYPES`, and only those;
    * it builds the event object only when a subscribed sink wants that
      type's payload, and delivers it;
    * it tallies the type on the counting sinks.

    Two optional sink attributes refine delivery to subscribed sinks:

    * ``interests`` — a collection of event classes the sink needs *full
      payloads* for (absent or None means every event).  The bus
      precomputes a per-event-type dispatch tuple from them, so a
      :class:`ProgressSink` never sees a :class:`ProbeSent`;
    * ``tally(cls, count)`` — a method counting sinks expose to receive
      type-only tallies for events outside their ``interests``.

    :meth:`emit` records an already-built event object (an offline
    replay, the auditor's verdicts); :meth:`wants` and :meth:`tally`
    remain for callers that count types themselves, and tallies reach
    counting sinks only.

    A fold is an object with ``fold(records)``, called with each slice of
    the log in order, and ``bind(bus)``, called by :meth:`attach` so the
    fold can :meth:`drain` the bus before it is read.

    **Failure isolation.**  A raising sink or fold must not abort
    collection: a broken progress renderer (or a full disk under a JSONL
    sink) is an observability failure, not a measurement failure.  The bus
    therefore catches their exceptions, counts the dropped delivery in
    :attr:`sink_errors` (surfaced as ``event_sink_errors_total`` in the
    quarantined backend metrics scope), and keeps dispatching.  Only
    exceptions are isolated: a ``BaseException`` such as
    ``KeyboardInterrupt`` still stops the run.
    """

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._folds: List = []
        self._log: List[Record] = []
        self._clock: Optional[Callable[[], float]] = None
        # type -> (payload sinks, counting sinks tallying this type,
        #          0 unlogged / 1 logged / 2 logged with a clock stamp).
        self._dispatch: Dict[Type[SessionEvent],
                             Tuple[Tuple[Sink, ...], Tuple[Sink, ...],
                                   int]] = {}
        # The types whose records are only logged (no sink): whether
        # each is stamped.
        self._log_only: Dict[Type[SessionEvent], bool] = {}
        # Whether anything is subscribed or attached.
        self._active = False
        #: Dropped deliveries by sink name (isolated failures only).
        self.sink_errors: Dict[str, int] = {}
        #: The most recent isolated failure, as ``(sink, "Type: message")``.
        self.last_sink_error: Optional[Tuple[str, str]] = None

    def __bool__(self) -> bool:
        return self._active

    def subscribe(self, sink: Sink) -> Sink:
        """Attach a sink; returns it so callers can unsubscribe later."""
        self._sinks.append(sink)
        self._reset_dispatch()
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        """Detach a sink (no-op when it is not attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        else:
            self._reset_dispatch()

    @contextmanager
    def subscribed(self, sink: Sink):
        """Scoped subscription: attach for the ``with`` body only."""
        self.subscribe(sink)
        try:
            yield sink
        finally:
            self.unsubscribe(sink)

    def attach(self, fold):
        """Feed ``fold`` the session log from now on; returns it.

        All clocked folds on one bus share one clock.
        """
        clock = getattr(fold, "clock", None)
        if clock is not None:
            if self._clock is not None and self._clock is not clock:
                raise ValueError("the folds of one bus must share a clock")
            self._clock = clock
        self._folds.append(fold)
        self._reset_dispatch()
        fold.bind(self)
        return fold

    def detach(self, fold) -> None:
        """Hand ``fold`` the records it has not seen, then stop feeding it."""
        if fold not in self._folds:
            return
        self.drain()
        self._folds.remove(fold)
        if not any(getattr(f, "clock", None) is not None
                   for f in self._folds):
            self._clock = None
        self._reset_dispatch()
        fold.bind(None)

    def drain(self) -> None:
        """Hand every attached fold the records logged since the last
        drain, in order, and drop them."""
        log = self._log
        if not log:
            return
        self._log = []
        for fold in self._folds:
            try:
                fold.fold(log)
            except Exception as exc:
                self._sink_failed(fold, exc)

    def _reset_dispatch(self) -> None:
        self._active = bool(self._sinks or self._folds)
        self._dispatch.clear()
        self._log_only.clear()

    def _build_dispatch(self, cls: Type[SessionEvent]):
        payload: List[Sink] = []
        tallies: List[Sink] = []
        for sink in self._sinks:
            interests = getattr(sink, "interests", None)
            if interests is None or any(
                    issubclass(cls, wanted) for wanted in interests):
                payload.append(sink)
            elif hasattr(sink, "tally"):
                tallies.append(sink)
        log = 0
        if self._folds:
            log = 2 if self._clock is not None and cls in BOUNDARY_TYPES \
                else 1
        entry = (tuple(payload), tuple(tallies), log)
        self._dispatch[cls] = entry
        if log and not payload and not tallies and cls is not TraceFinished:
            self._log_only[cls] = log == 2
        return entry

    def wants(self, cls: Type[SessionEvent]) -> bool:
        """Whether any subscribed sink needs full ``cls`` payloads."""
        entry = self._dispatch.get(cls)
        if entry is None:
            entry = self._build_dispatch(cls)
        return bool(entry[0])

    def tally(self, cls: Type[SessionEvent], count: int = 1) -> None:
        """Deliver a type-only count to the counting sinks (no payload,
        no record)."""
        entry = self._dispatch.get(cls)
        if entry is None:
            entry = self._build_dispatch(cls)
        for sink in entry[1]:
            try:
                sink.tally(cls, count)
            except Exception as exc:
                self._sink_failed(sink, exc)

    def record(self, cls: Type[SessionEvent], *fields) -> None:
        """Record one ``cls`` event from its field values, in order."""
        stamped = self._log_only.get(cls)
        if stamped is not None:
            self._log.append((cls, fields, self._clock()) if stamped
                             else (cls, fields))
            return
        self._dispatch_one(cls, fields, None)

    def emit(self, event: SessionEvent) -> None:
        """Record an already-built event object."""
        self._dispatch_one(event.__class__, None, event)

    def _dispatch_one(self, cls: Type[SessionEvent], fields: Optional[Tuple],
                      event: Optional[SessionEvent]) -> None:
        """Log, deliver and tally one event, given as its field values or
        as the object (the other is built only when needed)."""
        entry = self._dispatch.get(cls)
        if entry is None:
            entry = self._build_dispatch(cls)
        payload, tallies, log = entry
        if log:
            if fields is None:
                fields = field_values(event)
            self._log.append((cls, fields) if log == 1
                             else (cls, fields, self._clock()))
        if payload:
            if event is None:
                event = cls(*fields)
            for sink in payload:
                try:
                    sink(event)
                except Exception as exc:
                    self._sink_failed(sink, exc)
        for sink in tallies:
            try:
                sink.tally(cls, 1)
            except Exception as exc:
                self._sink_failed(sink, exc)
        if log and cls is TraceFinished:
            self.drain()

    def _sink_failed(self, sink, exc: Exception) -> None:
        """Isolate (and count) a sink or fold failure."""
        name = getattr(sink, "__name__", None) or type(sink).__name__
        self.sink_errors[name] = self.sink_errors.get(name, 0) + 1
        self.last_sink_error = (name, f"{type(exc).__name__}: {exc}")

    @property
    def total_sink_errors(self) -> int:
        return sum(self.sink_errors.values())


# -- sinks --------------------------------------------------------------------


class CounterSink:
    """In-memory metrics: events tallied by type (and heuristic rule).

    Declares payload interest only in :class:`HeuristicFired` (the one type
    whose *fields* it reads); every other event reaches it through the
    bus's type-only :meth:`tally` path, so a run instrumented with nothing
    but counter sinks never constructs the hot-path events at all.
    """

    interests = (HeuristicFired,)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.rules: Dict[str, int] = {}

    def __call__(self, event: SessionEvent) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        if isinstance(event, HeuristicFired):
            self.rules[event.rule] = self.rules.get(event.rule, 0) + 1

    def tally(self, cls: Type[SessionEvent], count: int = 1) -> None:
        name = cls.__name__
        self.counts[name] = self.counts.get(name, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        """Flat copy for reports: ``{"event:<type>": n, "rule:<H>": n}``."""
        flat = {f"event:{k}": v for k, v in sorted(self.counts.items())}
        flat.update({f"rule:{k}": v for k, v in sorted(self.rules.items())})
        return flat


class CollectingSink:
    """Keeps every event (optionally filtered by type) — made for tests."""

    def __init__(self, *types: Type[SessionEvent]) -> None:
        self.types: Optional[Tuple[Type[SessionEvent], ...]] = types or None
        # Mirror the filter as dispatch-mask interests: the bus then never
        # routes other event types here in the first place.
        self.interests = self.types
        self.events: List[SessionEvent] = []

    def __call__(self, event: SessionEvent) -> None:
        if self.types is None or isinstance(event, self.types):
            self.events.append(event)


class JsonlEventSink:
    """Appends one JSON object per event to a file (or open stream)."""

    def __init__(self, destination: Union[str, IO]) -> None:
        if isinstance(destination, str):
            self._fp: IO = open(destination, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fp = destination
            self._owns = False
        self.written = 0

    def __call__(self, event: SessionEvent) -> None:
        self._fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._fp.write("\n")
        self.written += 1

    def close(self) -> None:
        self._fp.flush()
        if self._owns:
            self._fp.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProgressSink:
    """Renders :class:`SurveyProgressed` events as a one-line progress bar."""

    interests = (SurveyProgressed,)

    def __init__(self, stream: Optional[IO] = None, width: int = 30) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.width = max(1, width)
        self._rendered = False

    def __call__(self, event: SessionEvent) -> None:
        if not isinstance(event, SurveyProgressed):
            return
        done = event.completed + event.skipped
        total = max(1, event.total_targets)
        filled = int(self.width * min(1.0, done / total))
        bar = "#" * filled + "-" * (self.width - filled)
        self.stream.write(
            f"\r[{bar}] {done}/{event.total_targets} targets "
            f"({event.reached} reached, {event.probes_sent} probes)")
        self.stream.flush()
        self._rendered = True

    def close(self) -> None:
        if self._rendered:
            self.stream.write("\n")
            self.stream.flush()
            self._rendered = False


def replay_events(source: Union[str, IO]) -> List[SessionEvent]:
    """Load a JSONL event log back into typed events (for analysis)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fp:
            return [event_from_dict(json.loads(line))
                    for line in fp if line.strip()]
    return [event_from_dict(json.loads(line)) for line in source if line.strip()]
