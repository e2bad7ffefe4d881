"""Unit tests for the session-event stream, bus, and sinks."""

import dataclasses
import inspect
import io
import json

import pytest

from repro.core import TraceNET
from repro.core.heuristics import ExplorationState, Judgement, Verdict
from repro.events import (
    CacheHit,
    EVENT_TYPES,
    CheckpointWritten,
    CollectingSink,
    CounterSink,
    EventBus,
    HeuristicFired,
    HopObserved,
    JsonlEventSink,
    OverheadViolation,
    ProbeSent,
    ProgressSink,
    SubnetGrown,
    SubnetPositioned,
    SurveyProgressed,
    TraceFinished,
    TraceStarted,
    event_from_dict,
    event_to_dict,
    replay_events,
)
from repro.probing import Prober
from repro.runner import SurveyRunner
from repro.topogen import internet2


class TestEventBus:
    def test_falsy_without_sinks(self):
        bus = EventBus()
        assert not bus
        bus.subscribe(lambda e: None)
        assert bus

    def test_emit_order_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        first = bus.subscribe(lambda e: seen.append(("first", e)))
        bus.subscribe(lambda e: seen.append(("second", e)))
        event = TraceStarted(destination=1)
        bus.emit(event)
        assert [name for name, _ in seen] == ["first", "second"]
        bus.unsubscribe(first)
        bus.emit(event)
        assert [name for name, _ in seen] == ["first", "second", "second"]

    def test_scoped_subscription(self):
        bus = EventBus()
        sink = CollectingSink()
        with bus.subscribed(sink):
            bus.emit(TraceStarted(destination=9))
        bus.emit(TraceStarted(destination=10))
        assert [e.destination for e in sink.events] == [9]


def _probe_sent():
    return ProbeSent(dst=1, ttl=2, protocol="icmp", flow_id=0, phase="trace",
                     answered=True, response_kind=None, response_source=None)


class TestDispatchMask:
    def test_wants_everything_for_legacy_sinks(self):
        # A bare callable declares no interests: the legacy contract is
        # full payloads for every event type.
        bus = EventBus()
        bus.subscribe(lambda e: None)
        assert bus.wants(ProbeSent)
        assert bus.wants(TraceStarted)

    def test_counter_sink_wants_only_its_interests(self):
        bus = EventBus()
        bus.subscribe(CounterSink())
        assert bus.wants(HeuristicFired)
        assert not bus.wants(ProbeSent)
        assert not bus.wants(HopObserved)

    def test_emit_routes_to_tally_outside_interests(self):
        bus = EventBus()
        sink = bus.subscribe(CounterSink())
        bus.emit(_probe_sent())
        bus.tally(ProbeSent, 3)
        assert sink.counts["ProbeSent"] == 4

    def test_payload_sinks_never_see_foreign_types(self):
        bus = EventBus()
        collecting = CollectingSink(TraceStarted)
        bus.subscribe(collecting)
        bus.emit(_probe_sent())
        bus.emit(TraceStarted(destination=9))
        assert [type(e).__name__ for e in collecting.events] == [
            "TraceStarted"]

    def test_subscribe_invalidates_cached_dispatch(self):
        bus = EventBus()
        bus.subscribe(CounterSink())
        assert not bus.wants(ProbeSent)  # caches the dispatch entry
        collecting = bus.subscribe(CollectingSink())
        assert bus.wants(ProbeSent)
        bus.unsubscribe(collecting)
        assert not bus.wants(ProbeSent)

    def test_tally_without_counting_sinks_is_a_noop(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.tally(ProbeSent, 5)   # payload-only sink: nothing delivered
        assert seen == []


class TestSerialization:
    def test_roundtrip_every_type(self):
        samples = [
            ProbeSent(dst=1, ttl=2, protocol="icmp", flow_id=0, phase="x",
                      answered=True, response_kind="echo-reply",
                      response_source=7),
            HopObserved(destination=1, ttl=3, kind="router", address=5),
            SubnetPositioned(trace_address=5, positioned=True, pivot=6,
                             pivot_distance=3, on_trace_path=None),
            HeuristicFired(candidate=8, rule="H2", verdict="stop-and-shrink",
                           detail="d"),
            CacheHit(dst=9, ttl=4, phase="subnet-exploration"),
            SubnetGrown(pivot=6, prefix="10.0.0.4/31", size=2,
                        stop_reason="prefix-floor", probes_used=11,
                        phase_probes={"subnet-exploration": 11},
                        candidates_tested=3),
            OverheadViolation(pivot=6, prefix="10.0.0.4/29", size=5,
                              probes_used=99, upper_bound=42, slack=1.25,
                              phase_probes={"subnet-exploration": 99}),
            TraceFinished(destination=1, reached=True, hops=4,
                          probes_sent=40, cache_hits=3),
            CheckpointWritten(path="/tmp/x.json", completed_targets=3,
                              traces=3),
            SurveyProgressed(total_targets=10, completed=4, skipped=1,
                             reached=3, probes_sent=99),
        ]
        for event in samples:
            payload = event_to_dict(event)
            assert payload["event"] == type(event).__name__
            assert event_from_dict(json.loads(json.dumps(payload))) == event

    def test_unknown_kind_fails(self):
        with pytest.raises(ValueError, match="unknown session event"):
            event_from_dict({"event": "Nonsense"})


def _sample(cls, offset=0):
    """An instance of ``cls`` with a distinct int in every field."""
    return cls(**{f.name: offset + index
                  for index, f in enumerate(dataclasses.fields(cls))})


#: The event types built once per probe, hop or judgement; their producers
#: construct them positionally.
HOT_SAMPLES = {
    ProbeSent: dict(dst=1, ttl=2, protocol="icmp", flow_id=3,
                    phase="trace-collection", answered=True,
                    response_kind="ttl-exceeded", response_source=4),
    CacheHit: dict(dst=1, ttl=2, phase="subnet-exploration"),
    HopObserved: dict(destination=1, ttl=2, kind="router", address=None),
    HeuristicFired: dict(candidate=1, rule="H2", verdict="add", detail=""),
}


class TestImmutability:
    @pytest.mark.parametrize("cls", list(EVENT_TYPES.values()),
                             ids=list(EVENT_TYPES))
    def test_every_event_is_frozen(self, cls):
        event = _sample(cls)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, f.name, -1)
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError,
                            TypeError)):
            event.extra = 1

    @pytest.mark.parametrize("cls", list(EVENT_TYPES.values()),
                             ids=list(EVENT_TYPES))
    def test_equality_and_hash_are_by_field_values(self, cls):
        event, twin, other = _sample(cls), _sample(cls), _sample(cls, 100)
        values = tuple(getattr(event, f.name)
                       for f in dataclasses.fields(cls))
        assert event == twin and hash(event) == hash(twin)
        assert hash(event) == hash(values)
        assert event != other
        assert event != values

    @pytest.mark.parametrize("cls", list(HOT_SAMPLES), ids=lambda c: c.__name__)
    def test_positional_construction_equals_keyword(self, cls):
        kwargs = HOT_SAMPLES[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(kwargs) == names
        assert list(inspect.signature(cls).parameters) == names
        positional = cls(*kwargs.values())
        keyword = cls(**kwargs)
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert event_to_dict(positional) == {"event": cls.__name__, **kwargs}
        changed = {names[-1]: "changed"}
        assert dataclasses.replace(keyword, **changed) == \
            cls(**{**kwargs, **changed})

    @pytest.mark.parametrize("cls", list(HOT_SAMPLES), ids=lambda c: c.__name__)
    def test_hot_constructors_reject_bad_arity(self, cls):
        kwargs = HOT_SAMPLES[cls]
        with pytest.raises(TypeError):
            cls(*list(kwargs.values())[:-1])
        with pytest.raises(TypeError):
            cls(**kwargs, bogus=1)


class TestSinks:
    def test_counter_sink(self):
        sink = CounterSink()
        sink(TraceStarted(destination=1))
        sink(HeuristicFired(candidate=1, rule="H5", verdict="add", detail=""))
        sink(HeuristicFired(candidate=2, rule="H5", verdict="add", detail=""))
        assert sink.counts["TraceStarted"] == 1
        assert sink.rules == {"H5": 2}
        assert sink.total == 3
        assert sink.snapshot()["rule:H5"] == 2

    def test_jsonl_sink_and_replay(self):
        buffer = io.StringIO()
        sink = JsonlEventSink(buffer)
        sink(TraceStarted(destination=12))
        sink(TraceFinished(destination=12, reached=False, hops=0,
                           probes_sent=0))
        sink.close()
        buffer.seek(0)
        events = replay_events(buffer)
        assert events == [
            TraceStarted(destination=12),
            TraceFinished(destination=12, reached=False, hops=0,
                          probes_sent=0),
        ]

    def test_progress_sink_renders_bar(self):
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, width=10)
        sink(SurveyProgressed(total_targets=4, completed=2, skipped=0,
                              reached=2, probes_sent=50))
        sink.close()
        text = stream.getvalue()
        assert "2/4 targets" in text
        assert "#" in text


class TestCollectorEmission:
    def test_prober_emits_probe_sent(self, line_engine, line_topology):
        prober = Prober(line_engine, "vantage")
        sink = prober.events.subscribe(CollectingSink(ProbeSent))
        destination = max(line_topology.all_interface_addresses)
        prober.probe(destination, 1)
        assert sink.events
        assert sink.events[0].dst == destination
        assert sink.events[0].ttl == 1

    def test_cache_hits_do_not_emit(self, line_engine, line_topology):
        prober = Prober(line_engine, "vantage")
        counter = prober.events.subscribe(CounterSink())
        destination = max(line_topology.all_interface_addresses)
        prober.probe(destination, 1)
        wire_probes = counter.counts.get("ProbeSent", 0)
        prober.probe(destination, 1)  # cached
        assert counter.counts.get("ProbeSent", 0) == wire_probes

    def test_trace_emits_full_stream(self, lan_engine, lan_network):
        tool = TraceNET(lan_engine, "vantage")
        counter = tool.events.subscribe(CounterSink())
        destination = min(
            min(r.addresses) for r in lan_network.topology.routers.values())
        tool.trace(destination)
        assert counter.counts["TraceStarted"] == 1
        assert counter.counts["TraceFinished"] == 1
        assert counter.counts.get("HopObserved", 0) > 0
        assert counter.counts.get("ProbeSent", 0) > 0
        assert counter.counts.get("SubnetPositioned", 0) > 0
        assert counter.counts.get("HeuristicFired", 0) > 0
        assert counter.counts.get("SubnetGrown", 0) > 0

    def test_no_sink_no_cost(self, lan_engine, lan_network):
        tool = TraceNET(lan_engine, "vantage")
        assert not tool.events  # nothing attached -> producers skip emission
        destination = min(
            min(r.addresses) for r in lan_network.topology.routers.values())
        assert tool.trace(destination).hops


class TestAuditAdapter:
    """Heuristic judgements reach the bus as `HeuristicFired` events."""

    def test_audit_fed_through_bus(self, lan_engine):
        prober = Prober(lan_engine, "vantage")
        audit = prober.events.subscribe(CollectingSink(HeuristicFired))
        state = ExplorationState(prober=prober, pivot=1, pivot_distance=2)
        judgement = Judgement(Verdict.ADD, "H5", "mate of pivot")
        state.record(42, judgement)
        assert audit.events == [HeuristicFired(
            candidate=42, rule="H5", verdict="add", detail="mate of pivot")]
        prober.events.unsubscribe(audit)
        state.record(43, judgement)
        assert len(audit.events) == 1

    def test_bus_sinks_see_audited_judgements(self, lan_engine):
        prober = Prober(lan_engine, "vantage")
        sink = prober.events.subscribe(CollectingSink(HeuristicFired))
        state = ExplorationState(prober=prober, pivot=1, pivot_distance=2)
        state.record(7, Judgement(Verdict.STOP, "H6", "foreign router"))
        assert sink.events == [HeuristicFired(
            candidate=7, rule="H6", verdict="stop-and-shrink",
            detail="foreign router")]


class TestSurveyRunnerEvents:
    @pytest.fixture(scope="class")
    def network(self):
        return internet2.build(seed=13)

    def make_tool(self, network):
        from repro.netsim import Engine

        return TraceNET(Engine(network.topology, policy=network.policy),
                        "utdallas")

    def test_progress_events_and_hook_agree(self, network):
        tool = self.make_tool(network)
        targets = internet2.targets(network, seed=13)[:5]
        runner = SurveyRunner(tool)
        sink = tool.events.subscribe(CollectingSink(SurveyProgressed))
        progress = runner.run(targets)
        assert [e.completed for e in sink.events] == \
            list(range(1, len(targets) + 1))
        assert sink.events[-1].completed == progress.completed
        assert sink.events[-1].probes_sent == progress.probes_sent

    def test_checkpoint_event(self, network, tmp_path):
        tool = self.make_tool(network)
        targets = internet2.targets(network, seed=13)[:3]
        sink = tool.events.subscribe(CollectingSink(CheckpointWritten))
        path = str(tmp_path / "survey.json")
        SurveyRunner(tool, checkpoint_path=path, checkpoint_every=2)\
            .run(targets)
        assert sink.events
        assert sink.events[-1].path == path
        assert sink.events[-1].completed_targets == len(targets)

    def test_probes_sent_is_per_run_delta(self, network):
        tool = self.make_tool(network)
        targets = internet2.targets(network, seed=13)
        runner = SurveyRunner(tool)
        first = runner.run(targets[:4])
        assert first.probes_sent > 0
        # A second run over fresh targets must not inherit the first
        # run's probe count (regression: it reported the lifetime total).
        second = runner.run(targets[4:6])
        assert second.probes_sent > 0
        assert (first.probes_sent + second.probes_sent
                == tool.prober.stats.sent)


class TestSinkFailureIsolation:
    def test_raising_sink_is_counted_and_skipped(self):
        bus = EventBus()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.emit(TraceStarted(destination=1))
        bus.emit(TraceStarted(destination=2))
        # Later sinks keep receiving every event; the failure is tallied.
        assert [e.destination for e in seen] == [1, 2]
        assert bus.sink_errors["bad"] == 2
        assert bus.total_sink_errors == 2
        name, detail = bus.last_sink_error
        assert name == "bad"
        assert detail == "RuntimeError: boom"

    def test_class_sinks_are_counted_by_type_name(self):
        class Exploding:
            def __call__(self, event):
                raise ValueError("nope")

        bus = EventBus()
        bus.subscribe(Exploding())
        bus.emit(TraceStarted(destination=1))
        assert bus.sink_errors == {"Exploding": 1}

    def test_tally_path_is_isolated_too(self):
        class BadCounter(CounterSink):
            def tally(self, cls, count=1):
                raise RuntimeError("tally boom")

        bus = EventBus()
        bus.subscribe(BadCounter())
        good = bus.subscribe(CounterSink())
        bus.tally(ProbeSent, 3)
        bus.emit(_probe_sent())
        assert good.counts["ProbeSent"] == 4
        assert bus.sink_errors["BadCounter"] == 2

    def test_collection_survives_a_raising_sink(self, lan_engine,
                                                lan_network):
        # End to end: a broken observer must not abort the survey, and the
        # surviving sinks must see the identical stream.
        tool = TraceNET(lan_engine, "vantage")

        def flaky(event):
            raise OSError("observer disk full")

        tool.events.subscribe(flaky)
        counter = tool.events.subscribe(CounterSink())
        destination = min(
            min(r.addresses) for r in lan_network.topology.routers.values())
        result = tool.trace(destination)
        assert result.hops
        assert counter.counts["TraceFinished"] == 1
        assert tool.events.total_sink_errors > 0
