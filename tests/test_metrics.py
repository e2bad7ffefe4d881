"""Unit tests for repro.metrics: registry, sink, auditor, exposition."""

import json

import pytest

from repro.core import TraceNET
from repro.core.exploration import explore_subnet
from repro.core.positioning import position_subnet
from repro.events import (
    CacheHit,
    CheckpointWritten,
    CollectingSink,
    DegradedResult,
    EventBus,
    HeuristicFired,
    HopObserved,
    OverheadViolation,
    ProbeBatchSent,
    ProbeRetried,
    ProbeSent,
    ProbeSuppressed,
    SubnetGrown,
    SubnetPositioned,
    SubnetRetracted,
    SubnetShrunk,
    SurveyProgressed,
    TopologyMutated,
    TraceFinished,
    TraceInconsistent,
    TraceStarted,
)
from repro.metrics import (
    Histogram,
    MetricsRegistry,
    MetricsSink,
    ProbeEconomyAuditor,
    instrument,
    registry_from_events,
    render_prometheus,
)
from repro.metrics.sink import (
    BATCH_SIZE_BUCKETS,
    SUBNET_PROBE_BUCKETS,
    SUBNET_SIZE_BUCKETS,
    TRACE_HOP_BUCKETS,
    TRACE_PROBE_BUCKETS,
    TTL_BUCKETS,
)
from repro.netsim import Engine, TopologyBuilder
from repro.netsim.dynamics import MutationSchedule, NetworkDynamics
from repro.probing import Prober, RetryPolicy, StopSet
from repro.radar import RadarRunner
from repro.runner import SurveyRunner
from repro.topogen import geant, internet2
from repro.transport import (
    FaultInjectingTransport,
    MutatingTransport,
    SimulatorTransport,
    collect_backend_metrics,
)


# -- registry primitives ------------------------------------------------------


class TestRegistry:
    def test_counter_counts_and_rejects_decrease(self):
        registry = MetricsRegistry()
        registry.inc("x_total")
        registry.inc("x_total", 4)
        assert registry.value("x_total") == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.inc("x_total", -1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 3)
        registry.set_gauge("g", 1)
        assert registry.value("g") == 1

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", phase="a")
        registry.inc("hits_total", phase="b")
        registry.inc("hits_total", phase="a")
        assert registry.value("hits_total", phase="a") == 2
        assert registry.value("hits_total", phase="b") == 1
        assert registry.value("hits_total", phase="c", default=None) is None

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.set_gauge("x", 1)
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.observe("x", 1, buckets=(1, 2))

    def test_histogram_needs_buckets_on_first_use(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="must name its buckets"):
            registry.observe("h", 1)
        registry.observe("h", 1, buckets=(1, 2))
        registry.observe("h", 2)  # subsequent uses reuse the bounds
        assert registry.histogram("h").count == 2

    def test_histogram_bucket_boundaries(self):
        # Inclusive upper bounds: a value equal to a bound lands in that
        # bucket; anything past the last bound goes to the +Inf overflow.
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1, 4, 8))
        for value in (0, 1):
            h.observe(value)
        for value in (2, 4):
            h.observe(value)
        for value in (5, 8):
            h.observe(value)
        for value in (9, 1000):
            h.observe(value)
        assert h.counts == [2, 2, 2, 2]
        assert h.overflow == 2
        assert h.sum == 0 + 1 + 2 + 4 + 5 + 8 + 9 + 1000
        assert h.count == 8
        assert h.bucket_index(4) == 1
        assert h.bucket_index(4.0001) == 2
        assert h.bucket_index(8.5) == 3

    @pytest.mark.parametrize("bounds", [TTL_BUCKETS, SUBNET_SIZE_BUCKETS])
    def test_bucket_index_matches_the_linear_scan(self, bounds):
        def scan(value):
            # The ``le`` rule as a loop: the first bound >= value.
            for index, bound in enumerate(bounds):
                if value <= bound:
                    return index
            return len(bounds)

        h = Histogram("h", (), bounds)
        for whole in range(-1, bounds[-1] + 3):
            for value in (whole, float(whole), whole - 0.5, whole + 0.5):
                assert h.bucket_index(value) == scan(value), value
        for index, bound in enumerate(bounds):
            # A value equal to a bound lands in that bucket, as int or float.
            assert h.bucket_index(bound) == index
            assert h.bucket_index(float(bound)) == index
            assert h.bucket_index(bound + 0.5) == index + 1
        assert h.bucket_index(bounds[0] - 1) == 0
        assert h.bucket_index(bounds[-1] + 1) == len(bounds)  # overflow

    def test_observe_times_equals_repeated_observations(self):
        once, many = (Histogram("h", (), TTL_BUCKETS) for _ in range(2))
        for value in (3, 3, 3, 40, 40):
            once.observe(value)
        many.observe(3, times=3)
        many.observe(40, times=2)
        assert (many.counts, many.sum, many.count) == \
            (once.counts, once.sum, once.count)

    def test_histogram_rejects_unsorted_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("h", buckets=(4, 1))
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("h2", buckets=(1, 1, 2))

    def test_snapshot_is_deterministically_ordered(self):
        registry = MetricsRegistry()
        registry.inc("z_total")
        registry.inc("a_total")
        registry.inc("m_total", phase="b")
        registry.inc("m_total", phase="a")
        snap = registry.snapshot()
        assert list(snap["counters"]) == [
            "a_total", 'm_total{phase="a"}', 'm_total{phase="b"}', "z_total"]


# -- Prometheus exposition ----------------------------------------------------


class TestPrometheus:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.describe("probes_sent_total", "Wire probes sent")
        registry.inc("probes_sent_total", 9)
        registry.inc("by_phase_total", 2, phase="trace-collection")
        registry.set_gauge("survey_targets", 4)
        registry.observe("probe_ttl", 3, buckets=(2, 4))
        registry.observe("probe_ttl", 9, buckets=(2, 4))
        registry.backend.set_gauge("engine_probes_sent", 9)
        text = render_prometheus(registry)
        assert "# HELP tracenet_probes_sent_total Wire probes sent" in text
        assert "# TYPE tracenet_probes_sent_total counter" in text
        assert "tracenet_probes_sent_total 9" in text
        assert ('tracenet_by_phase_total{phase="trace-collection"} 2'
                in text)
        assert "# TYPE tracenet_survey_targets gauge" in text
        # Cumulative le buckets, +Inf last, sum and count series.
        assert 'tracenet_probe_ttl_bucket{le="2"} 0' in text
        assert 'tracenet_probe_ttl_bucket{le="4"} 1' in text
        assert 'tracenet_probe_ttl_bucket{le="+Inf"} 2' in text
        assert "tracenet_probe_ttl_sum 12" in text
        assert "tracenet_probe_ttl_count 2" in text
        assert "tracenet_backend_engine_probes_sent 9" in text

    def test_every_line_is_wellformed(self):
        registry = MetricsRegistry()
        registry.inc("a_total", rule="H2")
        registry.observe("h", 1, buckets=(1,))
        for line in render_prometheus(registry).splitlines():
            assert line.startswith("#") or " " in line


# -- the event sink -----------------------------------------------------------


class TestMetricsSink:
    def test_probe_events_feed_counters(self):
        bus = EventBus()
        registry = MetricsRegistry()
        bus.subscribe(MetricsSink(registry))
        bus.emit(ProbeSent(dst=1, ttl=3, protocol="icmp", flow_id=0,
                           phase="trace-collection", answered=True,
                           response_kind="ttl-exceeded", response_source=5))
        bus.emit(ProbeSent(dst=1, ttl=9, protocol="icmp", flow_id=0,
                           phase="subnet-exploration", answered=False,
                           response_kind=None, response_source=None))
        assert registry.value("probes_sent_total") == 2
        assert registry.value("probe_responses_total") == 1
        assert registry.value("probe_silent_total") == 1
        assert registry.value("probe_phase_total",
                              phase="subnet-exploration") == 1
        assert registry.histogram("probe_ttl").count == 2

    def test_subnet_grown_attributes_phases(self):
        registry = registry_from_events([
            SubnetGrown(pivot=1, prefix="10.0.0.0/30", size=2,
                        stop_reason="prefix-floor", probes_used=12,
                        phase_probes={"subnet-exploration": 9,
                                      "subnet-positioning": 3}),
        ])
        assert registry.value("subnets_grown_total") == 1
        assert registry.value("overhead_checks_total") == 1
        assert registry.value("subnet_phase_probes_total",
                              phase="subnet-exploration") == 9
        assert registry.value("subnet_phase_probes_total",
                              phase="subnet-positioning") == 3


def _reference_apply(registry: MetricsRegistry, event) -> None:
    """One event folded the plain way: every update a registry.inc,
    observe or set_gauge call, labels resolved on each call."""
    inc, observe = registry.inc, registry.observe
    if isinstance(event, ProbeSent):
        inc("probes_sent_total")
        inc("probe_protocol_total", protocol=event.protocol)
        if event.phase is not None:
            inc("probe_phase_total", phase=event.phase)
        if event.answered:
            inc("probe_responses_total")
            if event.response_kind is not None:
                inc("probe_response_kind_total", kind=event.response_kind)
        else:
            inc("probe_silent_total")
        observe("probe_ttl", event.ttl)
    elif isinstance(event, CacheHit):
        inc("probe_cache_hits_total")
    elif isinstance(event, ProbeSuppressed):
        inc("probes_suppressed_total", reason=event.reason)
    elif isinstance(event, ProbeBatchSent):
        inc("probe_batches_total")
        observe("probe_batch_size", event.size)
    elif isinstance(event, HopObserved):
        inc("hops_observed_total", kind=event.kind)
    elif isinstance(event, SubnetPositioned):
        inc("subnet_positionings_total",
            outcome="positioned" if event.positioned else "unpositioned")
    elif isinstance(event, HeuristicFired):
        inc("heuristic_fired_total", rule=event.rule)
        inc("heuristic_verdict_total", verdict=event.verdict)
    elif isinstance(event, SubnetShrunk):
        inc("subnet_shrunk_total", rule=event.rule)
    elif isinstance(event, SubnetGrown):
        inc("subnets_grown_total")
        inc("subnet_stop_total", reason=event.stop_reason)
        inc("overhead_checks_total")
        observe("subnet_size", event.size, buckets=SUBNET_SIZE_BUCKETS)
        observe("subnet_probes_used", event.probes_used,
                buckets=SUBNET_PROBE_BUCKETS)
        for phase, count in (event.phase_probes or {}).items():
            inc("subnet_phase_probes_total", count, phase=phase)
    elif isinstance(event, OverheadViolation):
        inc("overhead_violations_total")
        inc("overhead_violation_probes_total", event.probes_used)
    elif isinstance(event, TraceStarted):
        inc("traces_started_total")
    elif isinstance(event, TraceFinished):
        inc("traces_finished_total")
        if event.reached:
            inc("traces_reached_total")
        inc("trace_cache_hits_total", event.cache_hits)
        observe("trace_hops", event.hops, buckets=TRACE_HOP_BUCKETS)
        observe("trace_probes", event.probes_sent,
                buckets=TRACE_PROBE_BUCKETS)
    elif isinstance(event, CheckpointWritten):
        inc("checkpoints_written_total")
    elif isinstance(event, SurveyProgressed):
        inc("survey_progress_events_total")
        registry.set_gauge("survey_targets", event.total_targets)
        registry.set_gauge("survey_completed", event.completed)
        registry.set_gauge("survey_skipped", event.skipped)
        registry.set_gauge("survey_reached", event.reached)
        registry.set_gauge("survey_probes_sent", event.probes_sent)
    elif isinstance(event, TopologyMutated):
        inc("topology_mutations_total", kind=event.kind)
    elif isinstance(event, TraceInconsistent):
        inc("trace_inconsistencies_total", reason=event.reason)
    elif isinstance(event, SubnetRetracted):
        inc("subnets_retracted_total", reason=event.reason)
    elif isinstance(event, DegradedResult):
        inc("degraded_traces_total")
    elif isinstance(event, ProbeRetried):
        inc("probe_retries_total")


def _reference_registry() -> MetricsRegistry:
    """An empty reference registry with the sink's up-front series."""
    registry = MetricsRegistry()
    for name in ("probes_sent_total", "probe_responses_total",
                 "probe_silent_total", "probe_cache_hits_total",
                 "probe_batches_total"):
        registry.counter(name)
    registry.histogram("probe_ttl", buckets=TTL_BUCKETS)
    registry.histogram("probe_batch_size", buckets=BATCH_SIZE_BUCKETS)
    return registry


def _reference_fold(events) -> MetricsRegistry:
    registry = _reference_registry()
    for event in events:
        _reference_apply(registry, event)
    return registry


def _sink_fold(events) -> MetricsRegistry:
    registry = MetricsRegistry()
    sink = MetricsSink(registry)
    for event in events:
        sink(event)
    return registry


def _record_survey_events():
    """A GEANT survey with stop sets and batched hops: probes, cache hits,
    suppressions, batches, growth and progress."""
    network = geant.build(seed=7)
    tool = TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas", batch_window=4, stop_set=StopSet())
    seen = tool.events.subscribe(CollectingSink())
    SurveyRunner(tool).run(geant.targets(network, seed=7)[:12])
    return seen.events


def _record_chaos_events():
    """A GEANT radar run under churn and 5% loss: mutations, retries,
    contradictions, degraded traces and retractions."""
    network = geant.build(seed=2010)
    engine = Engine(network.topology, policy=network.policy)
    schedule = MutationSchedule.generate(network.topology, seed=7, start=60,
                                         interval=90, count=4)
    bus = EventBus()
    transport = MutatingTransport(
        FaultInjectingTransport(SimulatorTransport(engine), drop_rate=0.05,
                                seed=1),
        schedule, dynamics=NetworkDynamics(engine, schedule), events=bus)
    tool = TraceNET(transport, "utdallas", events=bus)
    seen = bus.subscribe(CollectingSink())
    RadarRunner(tool, geant.targets(network, seed=2010)[:10], rounds=2).run()
    return seen.events


@pytest.fixture(scope="module", params=["survey", "chaos"])
def recorded_events(request):
    record = {"survey": _record_survey_events,
              "chaos": _record_chaos_events}[request.param]
    return record()


class TestSinkMatchesReferenceFold:
    """The sink's resolved series and its read-time ProbeSent fold give
    the snapshot of a plain per-event fold, at every read."""

    def test_recorded_stream(self, recorded_events):
        assert any(isinstance(e, ProbeSent) for e in recorded_events)
        reference = _reference_registry()
        registry = MetricsRegistry()
        sink = MetricsSink(registry)
        for index, event in enumerate(recorded_events):
            _reference_apply(reference, event)
            sink(event)
            if index % 37 == 0:
                # Reads between events fold the pending ProbeSent tally.
                assert registry.snapshot() == reference.snapshot(), index
        assert registry.snapshot() == reference.snapshot()

    def test_series_appear_on_their_first_event(self):
        registry = MetricsRegistry()
        sink = MetricsSink(registry)
        sink(HopObserved(1, 1, "router", 5))
        snapshot = registry.snapshot()
        assert "subnet_size" not in snapshot["histograms"]
        assert 'hops_observed_total{kind="router"}' in snapshot["counters"]
        assert not any(key.startswith("probe_protocol_total")
                       for key in snapshot["counters"])
        sink(SubnetGrown(pivot=1, prefix="10.0.0.0/30", size=2,
                         stop_reason="prefix-floor", probes_used=12))
        assert "subnet_size" in registry.snapshot()["histograms"]

    def test_zero_valued_series_still_appear(self):
        registry = MetricsRegistry()
        MetricsSink(registry)(TraceFinished(destination=1, reached=False,
                                            hops=3, probes_sent=4,
                                            cache_hits=0))
        counters = registry.snapshot()["counters"]
        assert counters["trace_cache_hits_total"] == 0
        assert "traces_reached_total" not in counters

    def test_value_read_between_events(self, recorded_events):
        probes = [e for e in recorded_events if isinstance(e, ProbeSent)]
        half = len(probes) // 2
        registry = MetricsRegistry()
        sink = MetricsSink(registry)
        for event in probes[:half]:
            sink(event)
        assert registry.value("probes_sent_total") == half
        assert registry.histogram("probe_ttl").count == half
        for event in probes[half:]:
            sink(event)
        assert registry.value("probes_sent_total") == len(probes)
        assert registry.snapshot() == _reference_fold(probes).snapshot()

    def test_synthetic_event_of_every_type(self):
        events = [
            ProbeSent(1, 2, "udp", 0, None, True, None, 9),
            ProbeSuppressed(destination=1, ttl=2, phase="trace-collection",
                            reason="stop-set", address=5),
            ProbeBatchSent(size=3, phase=None),
            SubnetShrunk(pivot=1, rule="H1", prefix_length=29),
            OverheadViolation(pivot=1, prefix="10.0.0.0/29", size=2,
                              probes_used=40, upper_bound=21, slack=1.25),
            CheckpointWritten(path="x", completed_targets=1, traces=1),
            SubnetRetracted(prefix="10.0.0.0/30", reason="vanished"),
            TraceInconsistent(destination=1, ttl=2, expected=3, observed=4,
                              reason="topology-mutated"),
        ]
        assert _sink_fold(events).snapshot() == \
            _reference_fold(events).snapshot()


# -- the probe-economy auditor ------------------------------------------------


def _grown(size: int, probes_used: int) -> SubnetGrown:
    return SubnetGrown(pivot=1, prefix="10.0.0.0/29", size=size,
                       stop_reason="prefix-floor", probes_used=probes_used)


class TestAuditor:
    def test_within_bound_is_quiet(self):
        bus = EventBus()
        inst = instrument(bus)
        bus.emit(_grown(size=4, probes_used=20))  # bound 35, slack 43.75
        assert inst.auditor.checked == 1
        assert inst.auditor.violations == 0
        assert inst.registry.value("overhead_checks_total") == 1
        assert inst.registry.value("overhead_violations_total") == 0

    def test_violation_emits_event_and_counter(self):
        bus = EventBus()
        inst = instrument(bus)
        seen = CollectingSink()
        bus.subscribe(seen)
        bus.emit(_grown(size=2, probes_used=40))  # bound 21 * 1.25 = 26.25
        violations = [e for e in seen.events
                      if isinstance(e, OverheadViolation)]
        assert len(violations) == 1
        assert violations[0].probes_used == 40
        assert violations[0].upper_bound == 21
        assert violations[0].slack == 1.25
        assert inst.registry.value("overhead_violations_total") == 1
        assert inst.registry.value("overhead_violation_probes_total") == 40

    def test_custom_slack(self):
        bus = EventBus()
        inst = instrument(bus, slack=1.0)
        bus.emit(_grown(size=2, probes_used=22))  # bound 21, no slack
        assert inst.registry.value("overhead_violations_total") == 1

    def test_slack_must_be_positive(self):
        with pytest.raises(ValueError, match="slack"):
            ProbeEconomyAuditor(EventBus(), slack=0)

    def test_forced_violation_on_hostile_lan(self):
        # A sparse /27 LAN (two real members, silence everywhere else)
        # probed by an aggressive, ungated-retry vantage: every silent
        # candidate burns 1 + retries probes, pushing the subnet past the
        # worst case over even the candidates it touched.  This is exactly the
        # silently-degraded probe economy the live auditor exists to flag.
        builder = TopologyBuilder("hostile")
        builder.link("R1", "R2")
        lan = builder.lan(["R2", "M0"], length=27)
        builder.edge_host("v", "R1")
        topology = builder.build()
        prober = Prober(Engine(topology), "v",
                        retries=RetryPolicy(attempts=12, gated=False))
        inst = instrument(prober.events)
        seen = CollectingSink()
        prober.events.subscribe(seen)
        pivot = topology.routers["R2"].interface_on(lan.subnet_id).address
        entry = [i.address for i in topology.routers["R2"].interfaces
                 if i.subnet_id != lan.subnet_id][0]
        position = position_subnet(prober, entry, pivot, 3)
        subnet = explore_subnet(prober, position)
        grown = [e for e in seen.events if isinstance(e, SubnetGrown)][0]
        scope = max(subnet.size, grown.candidates_tested)
        assert subnet.probes_used > (7 * scope + 7) * 1.25
        assert inst.registry.value("overhead_violations_total") == 1
        assert (inst.registry.value("overhead_violation_probes_total")
                == subnet.probes_used)
        violation = [e for e in seen.events
                     if isinstance(e, OverheadViolation)][0]
        assert violation.probes_used == subnet.probes_used
        assert violation.phase_probes == grown.phase_probes

    @pytest.mark.parametrize("module", [internet2, geant])
    def test_reference_surveys_stay_within_bounds(self, module):
        # The paper's own scenarios respect the Section 3.6 model: a full
        # survey over either reference network audits clean.
        network = module.build(seed=7)
        engine = Engine(network.topology, policy=network.policy)
        tool = TraceNET(engine, "utdallas")
        inst = instrument(tool.events)
        SurveyRunner(tool).run(module.targets(network, seed=7))
        assert inst.registry.value("overhead_checks_total") > 0
        assert inst.registry.value("overhead_violations_total") == 0


# -- transport backend metrics ------------------------------------------------


class TestBackendMetrics:
    def test_fault_transport_counts_seeded_drops(self):
        network = internet2.build(seed=7)
        engine = Engine(network.topology, policy=network.policy)
        transport = FaultInjectingTransport(
            SimulatorTransport(engine), drop_rate=0.2, seed=99)
        from repro.core import TraceNET

        tool = TraceNET(transport, "utdallas")
        targets = internet2.targets(network, seed=7)[:10]
        for target in targets:
            tool.trace(target)
        assert transport.sends == engine.stats.probes_sent
        assert transport.injected_drops > 0
        assert transport.responses_suppressed >= transport.injected_drops
        registry = MetricsRegistry()
        collect_backend_metrics(registry.backend, transport)
        backend = registry.backend
        assert backend.value("fault_sends") == transport.sends
        assert (backend.value("fault_injected_drops")
                == transport.injected_drops)
        assert backend.value("fault_blackholed") == 0
        assert (backend.value("fault_responses_suppressed")
                == transport.responses_suppressed)
        # The inner engine's counters fold through the wrapper.
        assert backend.value("engine_probes_sent") == engine.stats.probes_sent

    def test_fault_counters_are_seed_deterministic(self):
        def run(seed):
            network = internet2.build(seed=7)
            engine = Engine(network.topology, policy=network.policy)
            transport = FaultInjectingTransport(
                SimulatorTransport(engine), drop_rate=0.3, seed=seed)
            from repro.core import TraceNET

            tool = TraceNET(transport, "utdallas")
            for target in internet2.targets(network, seed=7)[:5]:
                tool.trace(target)
            return (transport.sends, transport.injected_drops,
                    transport.responses_suppressed)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_blackhole_counter(self):
        network = internet2.build(seed=7)
        engine = Engine(network.topology, policy=network.policy)
        target = internet2.targets(network, seed=7)[0]
        transport = FaultInjectingTransport(
            SimulatorTransport(engine), blackholes=[target])
        from repro.core import TraceNET

        tool = TraceNET(transport, "utdallas")
        result = tool.trace(target)
        assert not result.reached
        assert transport.blackholed > 0
        assert transport.injected_drops == 0


class TestPrometheusEscaping:
    def test_label_values_escape_backslash_quote_newline(self):
        # The 0.0.4 text format requires all three escapes in label
        # values; an unescaped quote or newline corrupts the exposition.
        registry = MetricsRegistry()
        registry.inc("weird_total", rule='H2 "quoted" \\ two\nlines')
        text = render_prometheus(registry)
        assert (r'tracenet_weird_total{rule="H2 \"quoted\" \\ two\nlines"}'
                in text)
        # No raw newline survives inside any series line.
        for line in text.splitlines():
            assert "\n" not in line

    def test_help_text_escapes_backslash_and_newline_only(self):
        # HELP escapes \ and \n but keeps quotes raw per the spec.
        registry = MetricsRegistry()
        registry.describe("a_total", 'the "7|S| + 7" bound\nsecond \\ line')
        registry.inc("a_total")
        text = render_prometheus(registry)
        assert ('# HELP tracenet_a_total the "7|S| + 7" '
                'bound\\nsecond \\\\ line') in text


class TestTimingQuarantine:
    def test_nested_time_spans_accumulate_independently(self):
        registry = MetricsRegistry()
        with registry.time("outer"):
            with registry.time("inner"):
                pass
            with registry.time("inner"):
                pass
        assert registry.timings["outer"]["count"] == 1
        assert registry.timings["inner"]["count"] == 2
        assert registry.timings["outer"]["seconds"] >= \
            registry.timings["inner"]["seconds"]

    def test_reentrant_same_name_spans_accumulate(self):
        registry = MetricsRegistry()
        with registry.time("span"):
            with registry.time("span"):
                pass
        assert registry.timings["span"]["count"] == 2
        assert registry.timings["span"]["seconds"] >= 0.0

    def test_timings_never_leak_into_snapshot(self):
        # The deterministic snapshot is the replay-parity contract; any
        # wall-clock value inside it would break record -> replay equality.
        registry = MetricsRegistry()
        registry.inc("probes_sent_total", 3)
        before = json.dumps(registry.snapshot(), sort_keys=True)
        with registry.time("collection_seconds"):
            with registry.time("collection_seconds"):
                pass
        assert json.dumps(registry.snapshot(), sort_keys=True) == before
        full = registry.full_snapshot()
        assert full["timings"]["collection_seconds"]["count"] == 2
        assert "timings" not in registry.snapshot()

    def test_exceptions_still_close_the_span(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.time("span"):
                raise RuntimeError("boom")
        assert registry.timings["span"]["count"] == 1


class TestBusMetricsCapture:
    def test_sink_errors_land_in_backend_scope(self):
        from repro.metrics import collect_bus_metrics

        bus = EventBus()

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(lambda e: None)
        from repro.events import TraceStarted

        bus.emit(TraceStarted(destination=1))
        registry = MetricsRegistry()
        collect_bus_metrics(registry.backend, bus)
        assert registry.backend.value("event_sink_errors_total") == 1
        assert registry.backend.value("event_sink_errors", sink="bad") == 1
        # Backend scope only: the deterministic snapshot stays clean.
        assert "event_sink_errors_total" not in json.dumps(
            registry.snapshot())
