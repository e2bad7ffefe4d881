"""The traced run's per-layer ledger, recorded from outside the program.

:func:`patched` wraps the public entry points of each layer's module for
the duration of a ``with`` block and restores them afterwards; nothing
under ``src/`` changes.  Every wrapper is a span on one stack: a layer's
*self* time is its span time minus the time of the child spans it
contains.  A call into the layer already on top of the stack (for
example ``Engine.send_many`` calling ``self.send``, or a fault wrapper
calling the simulator transport) is folded into the open span, so each
layer is counted once per entry.  Spans are folded into per-layer totals
as they close, so the traced run's memory stays bounded however many
probes it sends.

Event sinks are wrapped in :class:`SinkProxy` objects on subscription.
A proxy forwards ``interests``, ``tally`` and ``propagate_errors``, so
the bus builds the same dispatch masks it builds for the bare sinks.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Layer of a subscribed sink, by the module that defines its class.
SINK_LAYERS = (("repro.metrics", "metrics"), ("repro.tracing", "tracing"))


class Ledger:
    """Per-layer self time, span counts and work counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of tagged spans (``mapping.archive``...).
        self.tagged_s: Dict[str, float] = defaultdict(float)
        #: Per-sink delivered/tallied counts by event type, for the
        #: dispatch-mask reconciliation against a CounterSink.
        self.proxies: List["SinkProxy"] = []
        # Open spans: [layer, seconds covered by child spans].
        self._stack: List[list] = []

    def span(self, layer: str, fn: Callable, *args, tag: Optional[str] = None,
             **kwargs):
        """Call ``fn`` inside a ``layer`` span (folded if already open)."""
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        clock = time.perf_counter
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if tag is not None:
                self.tagged_s[tag] += elapsed
            if stack:
                stack[-1][1] += elapsed

    def timed(self, tag: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` and add its inclusive time to ``tag``, no span."""
        clock = time.perf_counter
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.tagged_s[tag] += clock() - start

    def outermost(self, layer: str) -> bool:
        """Whether a call into ``layer`` now would open a new span."""
        return not self._stack or self._stack[-1][0] != layer


class SinkProxy:
    """A timed stand-in for an event sink with the same dispatch masks."""

    def __init__(self, sink, layer: str, ledger: Ledger):
        self.sink = sink
        self.layer = layer
        self.ledger = ledger
        self.delivered: Dict[type, int] = defaultdict(int)
        self.tallied: Dict[type, int] = defaultdict(int)
        self.__name__ = getattr(sink, "__name__", None) or type(sink).__name__
        interests = getattr(sink, "interests", None)
        if interests is not None:
            self.interests = interests
        if getattr(sink, "propagate_errors", False):
            self.propagate_errors = True
        if hasattr(sink, "tally"):
            self.tally = self._tally

    def __call__(self, event) -> None:
        self.delivered[type(event)] += 1
        self.ledger.span(self.layer, self.sink, event)

    def _tally(self, cls, count: int = 1) -> None:
        self.tallied[cls] += count
        self.ledger.span(self.layer, self.sink.tally, cls, count)


def sink_layer(sink) -> str:
    module = type(sink).__module__
    for prefix, layer in SINK_LAYERS:
        if module.startswith(prefix):
            return layer
    return "events"


def _wrap(ledger: Ledger, layer: Optional[str], fn: Callable,
          tag: Optional[str] = None, count: Optional[Callable] = None):
    """A function calling ``fn`` inside a ledger span.

    With no ``layer`` the call only adds its inclusive time to ``tag``.

    ``count(ledger, args, result)`` runs after an outermost call, for
    work counters measured at the boundary.
    """
    span = ledger.span

    def wrapper(*args, **kwargs):
        if layer is None:
            return ledger.timed(tag, fn, *args, **kwargs)
        if count is None:
            return span(layer, fn, *args, tag=tag, **kwargs)
        outermost = ledger.outermost(layer)
        result = span(layer, fn, *args, tag=tag, **kwargs)
        if outermost:
            count(ledger, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _count_request(ledger, args, result) -> None:
    ledger.counts["probing.requests"] += 1


def _count_requests(ledger, args, result) -> None:
    ledger.counts["probing.requests"] += len(args[1])


def _count_wire(ledger, args, result) -> None:
    ledger.counts["transport.wire_probes"] += 1


def _count_wire_batch(ledger, args, result) -> None:
    ledger.counts["transport.wire_probes"] += len(args[1])


def _count_mutations(ledger, args, result) -> None:
    ledger.counts["dynamics.mutations_applied"] += len(result)


def _count_degraded(ledger, args, result) -> None:
    ledger.counts["core.degraded_traces"] += int(bool(result.degraded))


@contextmanager
def patched(ledger: Ledger):
    """Wrap every layer's entry points for the ``with`` body."""
    from repro import radar, runner
    from repro.core.tracenet import TraceNET
    from repro.events import EventBus
    from repro.netsim.dynamics import NetworkDynamics
    from repro.netsim.engine import Engine
    from repro.netsim.routing import RoutingTable
    from repro.probing.prober import Prober
    from repro.transport import (FaultInjectingTransport, MutatingTransport,
                                 RecordingTransport, ReplayTransport,
                                 SimulatorTransport)

    # (owner, attribute, layer, tag, counter)
    targets = [
        (runner.SurveyRunner, "run", "runner", None, None),
        (radar.RadarRunner, "run", "runner", None, None),
        (radar.RadarRunner, "_run_round", None, "radar.round", None),
        (TraceNET, "trace", "core", None, _count_degraded),
        (Prober, "probe", "probing", None, _count_request),
        (Prober, "probe_many", "probing", None, _count_requests),
        (Engine, "send", "engine", None, None),
        (Engine, "send_many", "engine", None, None),
        (RoutingTable, "next_hops", "routing", None, None),
        (RoutingTable, "distance", "routing", None, None),
        (RoutingTable, "egress_interface_toward", "routing", None, None),
        (NetworkDynamics, "advance", "dynamics", None, _count_mutations),
        (radar, "diff_archives", "mapping", "mapping.diff", None),
        (radar, "CollectionArchive", "mapping", "mapping.archive", None),
        (runner, "CollectionArchive", "mapping", "mapping.archive", None),
    ]
    for transport in (SimulatorTransport, FaultInjectingTransport,
                      MutatingTransport, ReplayTransport,
                      RecordingTransport):
        targets.append((transport, "send", "transport", None, _count_wire))
        targets.append((transport, "send_many", "transport", None,
                        _count_wire_batch))

    saved = []
    for owner, name, layer, tag, count in targets:
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        setattr(owner, name, _wrap(ledger, layer, original, tag, count))

    subscribe = EventBus.subscribe
    unsubscribe = EventBus.unsubscribe
    by_sink: Dict[int, SinkProxy] = {}

    def proxied_subscribe(bus, sink):
        proxy = SinkProxy(sink, sink_layer(sink), ledger)
        ledger.proxies.append(proxy)
        by_sink[id(sink)] = proxy
        subscribe(bus, proxy)
        return sink

    def proxied_unsubscribe(bus, sink):
        unsubscribe(bus, by_sink.get(id(sink), sink))

    EventBus.subscribe = proxied_subscribe
    EventBus.unsubscribe = proxied_unsubscribe
    try:
        yield ledger
    finally:
        EventBus.subscribe = subscribe
        EventBus.unsubscribe = unsubscribe
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
