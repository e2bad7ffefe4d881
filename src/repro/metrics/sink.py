"""The event → metrics bridge: one bus sink feeding one registry.

Every metric written here is a pure function of the session-event stream,
which is the whole point: attach a :class:`MetricsSink` to a live run, to a
journal replay, or to ``tracenet stats`` and the resulting
:meth:`~repro.metrics.registry.MetricsRegistry.snapshot` payloads are
identical.  The metric-name inventory lives in ``docs/OBSERVABILITY.md``;
keep the two in sync.
"""

from __future__ import annotations

from ..events import (
    CacheHit,
    CheckpointWritten,
    DegradedResult,
    HeuristicFired,
    HopObserved,
    OverheadViolation,
    ProbeBatchSent,
    ProbeRetried,
    ProbeSent,
    ProbeSuppressed,
    SessionEvent,
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
from .registry import MetricsRegistry

#: Fixed histogram buckets (inclusive upper bounds; +Inf overflow implied).
TTL_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
SUBNET_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
SUBNET_PROBE_BUCKETS = (4, 8, 16, 32, 64, 128, 256, 512)
TRACE_HOP_BUCKETS = (1, 2, 4, 8, 12, 16, 24, 32)
TRACE_PROBE_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024)
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

_HELP = {
    "probes_sent_total": "Wire probes sent (reconciles with Engine.stats.probes_sent)",
    "probe_cache_hits_total": "Probes answered from the prober response cache",
    "probes_suppressed_total": "Probes never sent (stop-set redundancy elimination)",
    "probe_batches_total": "Transport batches dispatched through send_many",
    "probe_batch_size": "Wire probes per transport batch",
    "probe_responses_total": "Wire probes that got an answer",
    "probe_silent_total": "Wire probes that got silence",
    "probe_phase_total": "Wire probes by algorithm phase",
    "probe_protocol_total": "Wire probes by transport protocol",
    "probe_response_kind_total": "Responses by ICMP kind",
    "probe_ttl": "TTL distribution of wire probes",
    "hops_observed_total": "Trace-collection hop classifications by kind",
    "subnet_positionings_total": "Algorithm 2 outcomes (positioned / unpositioned)",
    "heuristic_fired_total": "H2-H8 judgements by rule",
    "heuristic_verdict_total": "H2-H8 judgements by verdict",
    "subnet_shrunk_total": "Stop-and-shrink / half-utilization cuts by rule",
    "subnets_grown_total": "Subnets that finished Algorithm 1",
    "subnet_stop_total": "Subnet growth stop reasons",
    "subnet_phase_probes_total": "Per-subnet probe cost attributed by phase",
    "subnet_size": "Observed subnet sizes",
    "subnet_probes_used": "Wire probes spent growing each subnet",
    "overhead_checks_total": "Subnets checked against the 7|S|+7 bound",
    "overhead_violations_total": "Subnets that exceeded the Section 3.6 bound",
    "overhead_violation_probes_total": "Wire probes spent inside violating subnets",
    "traces_started_total": "tracenet sessions started",
    "traces_finished_total": "tracenet sessions finished",
    "traces_reached_total": "tracenet sessions that reached the destination",
    "trace_cache_hits_total": "Cache hits attributed to finished traces",
    "trace_hops": "Hops per finished trace",
    "trace_probes": "Wire probes per finished trace",
    "checkpoints_written_total": "Survey checkpoints persisted",
    "survey_progress_events_total": "Per-target survey progress updates",
    "survey_targets": "Targets in the current survey run",
    "survey_completed": "Targets completed in the current survey run",
    "survey_skipped": "Targets skipped (resumed from checkpoint)",
    "survey_reached": "Targets whose trace reached the destination",
    "survey_probes_sent": "Wire probes sent by the current survey run",
    "topology_mutations_total": "Network mutations fired mid-survey, by kind",
    "trace_inconsistencies_total": "Hop contradictions against cached paths",
    "subnets_retracted_total": "Previously-mapped subnets no longer observed",
    "degraded_traces_total": "Traces marked degraded by mid-trace churn",
    "probe_retries_total": "Silent probes re-sent under the retry policy",
}


class MetricsSink:
    """Feeds a :class:`MetricsRegistry` from the session-event stream.

    Dispatch is a per-type handler table instead of an isinstance chain.
    The handlers hold their metric objects directly, and each labelled
    counter as a :meth:`~MetricsRegistry.family`, so a label value is
    resolved once per sink rather than once per event.  Series still
    appear in the registry on their first event, so snapshots are
    unchanged.

    :class:`ProbeSent`, one per wire probe, is the exception: the sink
    only tallies its shape ``(protocol, phase, answered, kind, ttl)``, and
    the registry folds the tally into the six per-probe metrics before
    any read (:meth:`MetricsRegistry.defer`).
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        for name, text in _HELP.items():
            registry.describe(name, text)
        # Label-free metrics the per-probe handlers touch, resolved once.
        self._probes_sent = registry.counter("probes_sent_total")
        self._responses = registry.counter("probe_responses_total")
        self._silent = registry.counter("probe_silent_total")
        self._cache_hits = registry.counter("probe_cache_hits_total")
        self._batches = registry.counter("probe_batches_total")
        self._ttl_hist = registry.histogram("probe_ttl", buckets=TTL_BUCKETS)
        self._batch_hist = registry.histogram("probe_batch_size",
                                              buckets=BATCH_SIZE_BUCKETS)
        family = registry.family
        self._by_protocol = family("probe_protocol_total", "protocol")
        self._by_phase = family("probe_phase_total", "phase")
        self._by_kind = family("probe_response_kind_total", "kind")
        self._suppressed = family("probes_suppressed_total", "reason")
        self._hops = family("hops_observed_total", "kind")
        self._positionings = family("subnet_positionings_total", "outcome")
        self._rules = family("heuristic_fired_total", "rule")
        self._verdicts = family("heuristic_verdict_total", "verdict")
        self._shrinks = family("subnet_shrunk_total", "rule")
        self._stops = family("subnet_stop_total", "reason")
        self._phase_probes = family("subnet_phase_probes_total", "phase")
        self._mutations = family("topology_mutations_total", "kind")
        self._inconsistencies = family("trace_inconsistencies_total",
                                       "reason")
        self._retractions = family("subnets_retracted_total", "reason")
        #: ProbeSent count by (protocol, phase, answered, kind, ttl).
        self._probe_shapes: dict = {}
        registry.defer(self._fold_probes)
        self._handlers = {
            ProbeSent: self._on_probe_sent,
            CacheHit: self._on_cache_hit,
            ProbeSuppressed: self._on_probe_suppressed,
            ProbeBatchSent: self._on_probe_batch,
            HopObserved: self._on_hop_observed,
            SubnetPositioned: self._on_subnet_positioned,
            HeuristicFired: self._on_heuristic_fired,
            SubnetShrunk: self._on_subnet_shrunk,
            SubnetGrown: self._on_subnet_grown,
            OverheadViolation: self._on_overhead_violation,
            TraceStarted: self._on_trace_started,
            TraceFinished: self._on_trace_finished,
            CheckpointWritten: self._on_checkpoint,
            SurveyProgressed: self._on_survey_progressed,
            TopologyMutated: self._on_topology_mutated,
            TraceInconsistent: self._on_trace_inconsistent,
            SubnetRetracted: self._on_subnet_retracted,
            DegradedResult: self._on_degraded_result,
            ProbeRetried: self._on_probe_retried,
        }

    def __call__(self, event: SessionEvent) -> None:
        handler = self._handlers.get(event.__class__)
        if handler is None:
            # Unknown concrete type: honour subclassing once, then memoize
            # (None for types this sink does not consume).
            for base in type(event).__mro__:
                handler = self._handlers.get(base)
                if handler is not None:
                    break
            self._handlers[event.__class__] = handler
            if handler is None:
                return
        handler(event)

    # -- per-type handlers --------------------------------------------------

    def _on_probe_sent(self, event: ProbeSent) -> None:
        shape = (event.protocol, event.phase, event.answered,
                 event.response_kind, event.ttl)
        shapes = self._probe_shapes
        shapes[shape] = shapes.get(shape, 0) + 1

    def _fold_probes(self) -> None:
        """Apply the ProbeSent tally (run by the registry before reads)."""
        shapes, self._probe_shapes = self._probe_shapes, {}
        for (protocol, phase, answered, kind, ttl), count in shapes.items():
            self._probes_sent.inc(count)
            self._by_protocol[protocol].inc(count)
            if phase is not None:
                self._by_phase[phase].inc(count)
            if answered:
                self._responses.inc(count)
                if kind is not None:
                    self._by_kind[kind].inc(count)
            else:
                self._silent.inc(count)
            self._ttl_hist.observe(ttl, count)

    def _on_cache_hit(self, event: CacheHit) -> None:
        self._cache_hits.inc()

    def _on_probe_suppressed(self, event: ProbeSuppressed) -> None:
        self._suppressed[event.reason].inc()

    def _on_probe_batch(self, event: ProbeBatchSent) -> None:
        self._batches.inc()
        self._batch_hist.observe(event.size)

    def _on_hop_observed(self, event: HopObserved) -> None:
        self._hops[event.kind].inc()

    def _on_subnet_positioned(self, event: SubnetPositioned) -> None:
        outcome = "positioned" if event.positioned else "unpositioned"
        self._positionings[outcome].inc()

    def _on_heuristic_fired(self, event: HeuristicFired) -> None:
        self._rules[event.rule].inc()
        self._verdicts[event.verdict].inc()

    def _on_subnet_shrunk(self, event: SubnetShrunk) -> None:
        self._shrinks[event.rule].inc()

    def _on_subnet_grown(self, event: SubnetGrown) -> None:
        registry = self.registry
        registry.inc("subnets_grown_total")
        self._stops[event.stop_reason].inc()
        registry.inc("overhead_checks_total")
        registry.observe("subnet_size", event.size,
                         buckets=SUBNET_SIZE_BUCKETS)
        registry.observe("subnet_probes_used", event.probes_used,
                         buckets=SUBNET_PROBE_BUCKETS)
        for phase, count in (event.phase_probes or {}).items():
            self._phase_probes[phase].inc(count)

    def _on_overhead_violation(self, event: OverheadViolation) -> None:
        self.registry.inc("overhead_violations_total")
        self.registry.inc("overhead_violation_probes_total", event.probes_used)

    def _on_trace_started(self, event: TraceStarted) -> None:
        self.registry.inc("traces_started_total")

    def _on_trace_finished(self, event: TraceFinished) -> None:
        registry = self.registry
        registry.inc("traces_finished_total")
        if event.reached:
            registry.inc("traces_reached_total")
        registry.inc("trace_cache_hits_total", event.cache_hits)
        registry.observe("trace_hops", event.hops, buckets=TRACE_HOP_BUCKETS)
        registry.observe("trace_probes", event.probes_sent,
                         buckets=TRACE_PROBE_BUCKETS)

    def _on_checkpoint(self, event: CheckpointWritten) -> None:
        self.registry.inc("checkpoints_written_total")

    def _on_topology_mutated(self, event: TopologyMutated) -> None:
        self._mutations[event.kind].inc()

    def _on_trace_inconsistent(self, event: TraceInconsistent) -> None:
        self._inconsistencies[event.reason].inc()

    def _on_subnet_retracted(self, event: SubnetRetracted) -> None:
        self._retractions[event.reason].inc()

    def _on_degraded_result(self, event: DegradedResult) -> None:
        self.registry.inc("degraded_traces_total")

    def _on_probe_retried(self, event: ProbeRetried) -> None:
        self.registry.inc("probe_retries_total")

    def _on_survey_progressed(self, event: SurveyProgressed) -> None:
        registry = self.registry
        registry.inc("survey_progress_events_total")
        registry.set_gauge("survey_targets", event.total_targets)
        registry.set_gauge("survey_completed", event.completed)
        registry.set_gauge("survey_skipped", event.skipped)
        registry.set_gauge("survey_reached", event.reached)
        registry.set_gauge("survey_probes_sent", event.probes_sent)


def collect_bus_metrics(registry, bus) -> None:
    """Capture the bus's sink-failure tallies into a registry scope.

    ``registry`` is duck-typed (anything with ``set_gauge``), normally the
    quarantined ``backend`` scope: sink failures are operational facts
    about one process, not part of the deterministic event stream, so they
    must never reach ``snapshot()``.  Gauges, not counters — re-capturing
    after a longer run overwrites rather than doubles, matching
    :func:`repro.transport.base.collect_backend_metrics`.
    """
    if registry is None:
        return
    registry.set_gauge("event_sink_errors_total", bus.total_sink_errors)
    for name, count in sorted(bus.sink_errors.items()):
        registry.set_gauge("event_sink_errors", count, sink=name)
