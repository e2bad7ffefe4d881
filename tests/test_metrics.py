"""Unit tests for repro.metrics: registry, sink, auditor, exposition."""

import json

import pytest

from repro.core.exploration import explore_subnet
from repro.core.positioning import position_subnet
from repro.events import (
    CollectingSink,
    EventBus,
    OverheadViolation,
    ProbeSent,
    SubnetGrown,
)
from repro.metrics import (
    MetricsRegistry,
    MetricsSink,
    ProbeEconomyAuditor,
    instrument,
    registry_from_events,
    render_prometheus,
)
from repro.netsim import Engine, TopologyBuilder
from repro.probing import Prober, RetryPolicy
from repro.runner import SurveyRunner
from repro.topogen import geant, internet2
from repro.transport import (
    FaultInjectingTransport,
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

    def test_roundtrip_to_from_dict(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 3)
        registry.inc("by_rule_total", 2, rule="H2")
        registry.set_gauge("g", 7)
        registry.observe("h", 5, buckets=(2, 4, 8))
        registry.backend.set_gauge("engine_probes_sent", 11)
        with registry.time("span"):
            pass
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict())))
        assert clone.snapshot() == registry.snapshot()
        assert clone.backend.snapshot() == registry.backend.snapshot()
        assert clone.timings["span"]["count"] == 1

    def test_merge_sums_counters_gauges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c_total", 2)
        b.inc("c_total", 3)
        b.inc("only_b_total", 1)
        a.set_gauge("g", 10)
        b.set_gauge("g", 5)
        a.observe("h", 1, buckets=(2, 4))
        b.observe("h", 3, buckets=(2, 4))
        b.observe("h", 99, buckets=(2, 4))
        a.backend.set_gauge("engine_probes_sent", 6)
        b.backend.set_gauge("engine_probes_sent", 4)
        a.merge(b)
        assert a.value("c_total") == 5
        assert a.value("only_b_total") == 1
        assert a.value("g") == 15  # shard totals add
        h = a.histogram("h")
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert a.backend.value("engine_probes_sent") == 10

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1, buckets=(2, 4))
        b.observe("h", 1, buckets=(2, 8))
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge(b)


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
        from repro.core import TraceNET

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
