"""The session log: producers record compact records, and the metrics
registry and span tree fold them once per trace.

Three ways to consume one run must agree: folds attached to the live bus,
the same consumers subscribed as per-event sinks, and the offline
analytics over the run's journals.  The attached folds must also
re-derive the pinned ``metrics`` and ``spans`` digests byte for byte.
"""

import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digest_flows import DIGESTS_PATH, FLOWS
from repro.cli import main
from repro.core import TraceNET
from repro.events import (
    BOUNDARY_TYPES,
    EVENT_TYPES,
    CollectingSink,
    CacheHit,
    EventBus,
    HeuristicFired,
    HopObserved,
    ProbeSent,
    TopologyMutated,
    TraceFinished,
    TraceStarted,
    as_record,
)
from repro.metrics import (
    MetricsRegistry,
    MetricsSink,
    ProbeEconomyAuditor,
    stats_from_events,
    stats_from_journal,
)
from repro.netsim import Engine, MutationSchedule, NetworkDynamics
from repro.radar import RadarRunner
from repro.runner import SurveyRunner
from repro.runspec import RunSpec
from repro.topogen import geant, internet2
from repro.tracing import (
    SpanBuilder,
    span_tree_from_events,
    span_tree_from_journal,
)
from repro.transport import (
    FaultInjectingTransport,
    MutatingTransport,
    ReplayTransport,
    SimulatorTransport,
)

with open(DIGESTS_PATH, "r", encoding="utf-8") as _fp:
    PINNED = json.load(_fp)


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# -- three-way parity over every pinned flow ----------------------------------


@pytest.fixture(scope="module", params=sorted(FLOWS))
def flow_run(request, tmp_path_factory):
    """One pinned flow run live in-process, its folds attached (the CLI's
    ``--metrics-out``/``--spans-out``), with its journals."""
    name = request.param
    workdir = tmp_path_factory.mktemp(name)
    paths = {key: str(workdir / f"{name}.{key}")
             for key in ("journal", "events", "metrics", "spans")}
    argv = FLOWS[name]
    extra = ["--out", str(workdir / "out")] if argv[0] == "radar" else []
    assert main([*argv, "--record", paths["journal"],
                 "--events", paths["events"],
                 "--metrics-out", paths["metrics"],
                 "--spans-out", paths["spans"], *extra]) == 0
    with open(paths["metrics"], "r", encoding="utf-8") as fp:
        metrics = json.load(fp)["metrics"]
    with open(paths["spans"], "rb") as fp:
        spans_bytes = fp.read()
    return name, paths, metrics, spans_bytes


def _subscribed(journal: str):
    """Replay ``journal`` with the metrics sink, the auditor and the span
    builder subscribed as per-event sinks."""
    transport = ReplayTransport(journal)
    run = RunSpec.from_header(transport.metadata, None).build(
        transport=transport)
    registry = MetricsRegistry()
    tracer = SpanBuilder()
    bus = run.tool.events
    run.execute(sinks=(tracer, MetricsSink(registry),
                       ProbeEconomyAuditor(bus)))
    return registry.snapshot(), tracer.finish().to_dict()


class TestThreeWayParity:
    def test_attached_folds_rederive_the_pinned_digests(self, flow_run):
        name, _, metrics, spans_bytes = flow_run
        assert _sha(metrics) == PINNED[name]["metrics"]
        assert hashlib.sha256(spans_bytes).hexdigest() == \
            PINNED[name]["spans"]

    def test_subscribed_sinks_agree(self, flow_run):
        _, paths, metrics, spans_bytes = flow_run
        snapshot, tree = _subscribed(paths["journal"])
        assert snapshot == metrics
        assert tree == json.loads(spans_bytes)

    def test_offline_analytics_agree(self, flow_run):
        _, paths, metrics, spans_bytes = flow_run
        tree = json.loads(spans_bytes)
        assert stats_from_journal(paths["journal"]).registry.snapshot() \
            == metrics
        assert span_tree_from_journal(paths["journal"]).to_dict() == tree
        assert stats_from_events(paths["events"]).registry.snapshot() == \
            metrics
        assert span_tree_from_journal(paths["events"]).to_dict() == tree


# -- reads and finishes anywhere in a recorded radar-chaos stream -----------


def _radar_chaos(bus: EventBus, seed: int = 4) -> None:
    """Run one GEANT instance of the ``radar-chaos`` benchmark workload
    on ``bus``: ``tracenet radar`` defaults (3 rounds, 4 mutations from
    probe 200 every 400 probes) under 5% loss."""
    network = geant.build(seed=seed)
    engine = Engine(network.topology, policy=network.policy)
    schedule = MutationSchedule.generate(network.topology, seed=seed,
                                         start=200, interval=400, count=4)
    transport = MutatingTransport(
        FaultInjectingTransport(SimulatorTransport(engine), drop_rate=0.05,
                                seed=seed),
        schedule, dynamics=NetworkDynamics(engine, schedule), events=bus)
    tool = TraceNET(transport, "utdallas", events=bus)
    RadarRunner(tool, geant.targets(network, seed=seed), rounds=3).run()


def _radar_chaos_events(seed: int = 4):
    """The ``radar-chaos`` stream of one instance, with the probe-economy
    auditor's verdicts."""
    bus = EventBus()
    seen = bus.subscribe(CollectingSink())
    bus.subscribe(ProbeEconomyAuditor(bus))
    _radar_chaos(bus, seed)
    return seen.events


@functools.lru_cache(maxsize=None)
def _radar_reference():
    """The stream, and the snapshot and tree subscribed sinks fold from it."""
    events = _radar_chaos_events()
    registry = MetricsRegistry()
    sink = MetricsSink(registry)
    tracer = SpanBuilder()
    for event in events:
        sink(event)
        tracer(event)
    return events, registry.snapshot(), tracer.finish().to_dict()


class TestReadsAnywhere:
    def test_the_stream_is_a_chaos_stream(self):
        events = _radar_reference()[0]
        kinds = {type(event).__name__ for event in events}
        assert {"TopologyMutated", "ProbeRetried", "DegradedResult",
                "CacheHit", "HeuristicFired"} <= kinds

    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(
        st.tuples(st.floats(0, 1),
                  st.sampled_from(["snapshot", "value", "finish"])),
        max_size=12))
    def test_reads_and_finishes_change_nothing(self, points):
        events, snapshot, tree = _radar_reference()
        registry = MetricsRegistry()
        bus = EventBus()
        bus.attach(MetricsSink(registry))
        tracer = bus.attach(SpanBuilder())
        # The same consumers, subscribed: what a read must see so far.
        reference = MetricsRegistry()
        reference_sink = MetricsSink(reference)
        reference_tracer = SpanBuilder()
        at = {}
        for share, what in points:
            at.setdefault(int(share * len(events)), []).append(what)
        for index in range(len(events) + 1):
            for what in at.get(index, ()):
                if what == "snapshot":
                    assert registry.snapshot() == reference.snapshot()
                elif what == "value":
                    assert registry.value("probes_sent_total") == \
                        reference.value("probes_sent_total")
                else:
                    assert tracer.finish().to_dict() == \
                        reference_tracer.finish().to_dict()
            if index < len(events):
                bus.emit(events[index])
                reference_sink(events[index])
                reference_tracer(events[index])
        assert registry.snapshot() == snapshot
        assert tracer.finish().to_dict() == tree


# -- the log itself -----------------------------------------------------------


class _Slices:
    """A fold keeping every slice of the log it is handed."""

    clock = None

    def __init__(self):
        self.slices = []

    def bind(self, bus):
        pass

    def fold(self, records):
        self.slices.append(list(records))


class TestTheLog:
    def test_each_trace_is_handed_over_at_its_end(self, lan_network):
        tool = TraceNET(lan_network.engine(), "vantage")
        slices = tool.events.attach(_Slices())
        targets = sorted(lan_network.topology.all_interface_addresses)[-4:]
        SurveyRunner(tool).run(targets)
        traces = [s for s in slices.slices if s[-1][0] is TraceFinished]
        assert len(traces) == len(targets)
        for records in traces:
            assert [r[0] for r in records].count(TraceStarted) == 1
        # The progress records after each trace come with the next one;
        # the last trace's, with the run's final drain.
        assert slices.slices[-1][-1][0] is not TraceFinished
        assert not tool.events._log

    def test_records_are_the_event_fields(self, lan_network):
        tool = TraceNET(lan_network.engine(), "vantage")
        slices = tool.events.attach(_Slices())
        seen = tool.events.subscribe(CollectingSink())
        tool.trace(max(lan_network.topology.all_interface_addresses))
        records = [r for s in slices.slices for r in s]
        assert records == [as_record(event) for event in seen.events]

    def test_nothing_observing_records_nothing(self):
        """The reference-survey path: a bare bus is falsy, and no record
        or event object is ever made."""

        class Refusing(EventBus):
            def record(self, cls, *fields):
                raise AssertionError(f"recorded {cls.__name__}")

            def emit(self, event):
                raise AssertionError(f"emitted {type(event).__name__}")

        network = internet2.build(seed=7)
        bus = Refusing()
        tool = TraceNET(SimulatorTransport(
            Engine(network.topology, policy=network.policy)), "utdallas",
            events=bus)
        assert not bus
        SurveyRunner(tool).run(internet2.targets(network, seed=7)[:40])
        assert not bus._log

    def test_detach_hands_over_what_is_left(self, lan_network):
        tool = TraceNET(lan_network.engine(), "vantage")
        slices = tool.events.attach(_Slices())
        tool.prober.probe(max(lan_network.topology.all_interface_addresses),
                          3)
        assert not slices.slices
        tool.events.detach(slices)
        assert len(slices.slices) == 1
        assert not tool.events


# -- subscribed folds read the log --------------------------------------------


class TestSubscribedFolds:
    """A fold has one way onto the bus: subscribing it attaches it."""

    def test_subscribed_folds_build_no_event_object(self, monkeypatch):
        def folds(subscribe: bool):
            bus = EventBus()
            registry = MetricsRegistry()
            add = bus.subscribe if subscribe else bus.attach
            tracer = add(SpanBuilder())
            add(MetricsSink(registry))
            _radar_chaos(bus)
            return registry.snapshot(), tracer.finish().to_dict()

        attached = folds(subscribe=False)
        built = {}
        for cls in EVENT_TYPES.values():
            # The radar's own mutation log is a subscribed
            # TopologyMutated sink: those objects are its.
            if cls is TopologyMutated:
                continue

            def counting(self, *args, _init=cls.__init__, **kwargs):
                name = type(self).__name__
                built[name] = built.get(name, 0) + 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        subscribed = folds(subscribe=True)
        assert built == {}
        assert subscribed == attached
        assert attached[0]["counters"]["probes_sent_total"] > 0

    def test_unsubscribe_hands_over_what_is_left(self, lan_network):
        tool = TraceNET(lan_network.engine(), "vantage")
        slices = tool.events.subscribe(_Slices())
        tool.prober.probe(max(lan_network.topology.all_interface_addresses),
                          3)
        assert not slices.slices
        tool.events.unsubscribe(slices)
        assert len(slices.slices) == 1
        assert not tool.events

    def test_subscribed_hands_over_what_is_left(self, lan_network):
        tool = TraceNET(lan_network.engine(), "vantage")
        with tool.events.subscribed(_Slices()) as slices:
            tool.prober.probe(
                max(lan_network.topology.all_interface_addresses), 3)
            assert not slices.slices
        assert len(slices.slices) == 1
        assert not tool.events

    def test_subscribed_clocks_must_agree(self):
        bus = EventBus()
        bus.attach(SpanBuilder(clock=_Ticks()))
        with pytest.raises(ValueError):
            bus.subscribe(SpanBuilder(clock=_Ticks()))


# -- a trace that never finished ------------------------------------------


def _truncated_stream():
    """A trace cut off mid-growth (a killed run's events journal): two
    exploration probes and a cache hit wait for a judgement when the next
    trace starts."""
    first, second = 0x0A000001, 0x0A000002
    return [
        TraceStarted(first),
        ProbeSent(first, 1, "icmp", 0, "trace-collection", True,
                  "time-exceeded", 0x0A0000FE),
        HopObserved(first, 1, "router", 0x0A0000FE),
        ProbeSent(0x0A0000FD, 1, "icmp", 0, "subnet-exploration", True,
                  "time-exceeded", 0x0A0000FD),
        ProbeSent(0x0A0000FC, 1, "icmp", 0, "subnet-exploration", False,
                  None, None),
        CacheHit(0x0A0000FD, 1, "subnet-exploration"),
        TraceStarted(second),
        ProbeSent(second, 1, "icmp", 0, "trace-collection", True,
                  "echo-reply", second),
        HopObserved(second, 1, "destination", second),
        TraceFinished(second, True, 1, 1),
    ]


class TestTruncatedTrace:
    """Exploration probes no judgement claimed stay on the exploration
    span of the trace that sent them, however the builder is fed."""

    def _check(self, root):
        first, second = [s for s in root.children if s.kind == "trace"]
        assert first.name == "10.0.0.1" and "reached" not in first.meta
        (hop,) = first.children
        (exploration,) = hop.children
        assert exploration.name == "subnet-exploration"
        assert exploration.counters == {"probes": 2, "cache_hits": 1}
        assert first.total("probes") == 3
        assert second.total("probes") == 1
        assert second.total("cache_hits") == 0
        assert not [s for s in second.walk() if s.kind == "phase"]

    def test_subscribed(self):
        bus = EventBus()
        tracer = bus.subscribe(SpanBuilder())
        for event in _truncated_stream():
            bus.emit(event)
        self._check(tracer.finish())

    def test_attached(self):
        bus = EventBus()
        tracer = bus.attach(SpanBuilder())
        for event in _truncated_stream():
            bus.emit(event)
        self._check(tracer.finish())

    def test_offline(self):
        self._check(span_tree_from_events(_truncated_stream()))

    def test_finished_at_the_cut(self):
        """A tree read while the probes are pending charges them to the
        exploration span, and the next trace finds them there."""
        events = _truncated_stream()
        cut = next(i for i, e in enumerate(events)
                   if isinstance(e, TraceStarted) and i)
        bus = EventBus()
        tracer = bus.attach(SpanBuilder())
        for event in events[:cut]:
            bus.emit(event)
        partial = tracer.finish()
        (hop,) = partial.children[0].children
        assert hop.children[0].counters == {"probes": 2, "cache_hits": 1}
        for event in events[cut:]:
            bus.emit(event)
        self._check(tracer.finish())


# -- the timing plane: stamps at span boundaries only -------------------------


class _Ticks:
    """A clock that counts its reads."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return float(self.reads)


def _clocked_survey(lan_network, attach: bool):
    ticks = _Ticks()
    tool = TraceNET(lan_network.engine(), "vantage", batch_window=2)
    tracer = SpanBuilder(clock=ticks)
    seen = tool.events.subscribe(CollectingSink())
    if attach:
        tool.events.attach(tracer)
    else:
        tool.events.subscribe(tracer)
    targets = sorted(lan_network.topology.all_interface_addresses)[-3:]
    SurveyRunner(tool).run(targets)
    return tracer.finish(), ticks, seen.events


class TestTimingPlane:
    def test_one_stamp_per_boundary_record(self, lan_network):
        root, ticks, events = _clocked_survey(lan_network, attach=True)
        boundaries = sum(type(e) in BOUNDARY_TYPES for e in events)
        assert boundaries > 0
        # The root's start, every boundary record, the root's end.
        assert ticks.reads == boundaries + 2

    def test_attached_and_subscribed_timing_agree(self, lan_network):
        attached, _, _ = _clocked_survey(lan_network, attach=True)
        subscribed, _, _ = _clocked_survey(lan_network, attach=False)
        assert attached.to_dict(timing=True) == \
            subscribed.to_dict(timing=True)

    def test_spans_carry_their_boundary_stamps(self, lan_network):
        root, _, events = _clocked_survey(lan_network, attach=True)
        # Stamps are the clock's reads in order: the root took 1.
        stamps = {}
        clock = iter(range(2, 10 ** 6))
        for event in events:
            if type(event) in BOUNDARY_TYPES:
                stamps.setdefault(type(event), []).append(float(next(clock)))
        spans = list(root.walk())
        assert [s.end for s in spans if s.kind == "heuristic"] == \
            stamps[HeuristicFired]
        traces = [s for s in spans if s.kind == "trace"]
        assert [s.start for s in traces] == stamps[TraceStarted]
        assert [s.end for s in traces] == stamps[TraceFinished]
        for span in spans:
            assert span.start is not None and span.start <= span.end
