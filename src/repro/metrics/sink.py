"""The event → metrics bridge: one fold feeding one registry.

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
    as_record,
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

    A fold over session-log records (:meth:`fold`): attached or
    subscribed to a bus (:meth:`EventBus.attach`; :meth:`EventBus.subscribe`
    attaches it too), it reads the log once per trace, and every registry
    read drains the bus first (:meth:`MetricsRegistry.defer`), so readers
    never see a trace half folded.  Called directly with an event object,
    it turns the event into its record and runs the same fold.

    The four types recorded per probe or per hop only count in the fold:
    :class:`ProbeSent` by its shape ``(ttl, protocol, flow_id, phase,
    answered, kind)``, :class:`HopObserved` by kind,
    :class:`HeuristicFired` by ``(rule, verdict)``, :class:`CacheHit` in
    total.  The registry applies the counts before any read.  Every other
    type goes through a per-type handler table, by exact type; each
    handler takes the record's fields in declaration order.  The metric
    objects are held directly, and each labelled counter as a
    :meth:`~MetricsRegistry.family`, so a label value is resolved once per
    sink rather than once per event.  Series still appear in the registry
    on their first event, so snapshots are unchanged.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._bus = None
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
        #: ProbeSent count by (ttl, protocol, flow_id, phase, answered,
        #: kind): the record's fields 1-6.
        self._probe_shapes: dict = {}
        #: HopObserved count by kind; HeuristicFired by (rule, verdict).
        self._hop_kinds: dict = {}
        self._judgements: dict = {}
        registry.defer(self._catch_up)
        # The other types, by exact type.
        self._handlers = {
            ProbeSuppressed: self._on_probe_suppressed,
            ProbeBatchSent: self._on_probe_batch,
            SubnetPositioned: self._on_subnet_positioned,
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

    # -- the fold protocol --------------------------------------------------

    def bind(self, bus) -> None:
        """The bus this fold is attached to (None once detached)."""
        self._bus = bus

    def __call__(self, event: SessionEvent) -> None:
        self.fold((as_record(event),))

    def fold(self, records) -> None:
        """Apply a slice of session-log records, in order.

        The four per-probe and per-hop types only count here; the
        registry applies the counts before any read (:meth:`_catch_up`).
        """
        shapes = self._probe_shapes
        hop_kinds = self._hop_kinds
        judgements = self._judgements
        cache_hits = 0
        handlers = self._handlers
        for record in records:
            cls = record[0]
            if cls is ProbeSent:
                shape = record[1][1:7]
                shapes[shape] = shapes.get(shape, 0) + 1
            elif cls is CacheHit:
                cache_hits += 1
            elif cls is HopObserved:
                kind = record[1][2]
                hop_kinds[kind] = hop_kinds.get(kind, 0) + 1
            elif cls is HeuristicFired:
                judgement = record[1][1:3]
                judgements[judgement] = judgements.get(judgement, 0) + 1
            else:
                handler = handlers.get(cls)
                if handler is not None:
                    handler(*record[1])
        if cache_hits:
            self._cache_hits.inc(cache_hits)

    def _catch_up(self) -> None:
        """Fold everything recorded so far and apply the counts (run by
        the registry before every read)."""
        if self._bus is not None:
            self._bus.drain()
        shapes, self._probe_shapes = self._probe_shapes, {}
        for (ttl, protocol, _flow, phase, answered, kind), count \
                in shapes.items():
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
        hop_kinds, self._hop_kinds = self._hop_kinds, {}
        for kind, count in hop_kinds.items():
            self._hops[kind].inc(count)
        judgements, self._judgements = self._judgements, {}
        for (rule, verdict), count in judgements.items():
            self._rules[rule].inc(count)
            self._verdicts[verdict].inc(count)

    # -- per-type handlers, one argument per event field --------------------

    def _on_probe_suppressed(self, destination, ttl, phase, reason,
                             address=None) -> None:
        self._suppressed[reason].inc()

    def _on_probe_batch(self, size, phase) -> None:
        self._batches.inc()
        self._batch_hist.observe(size)

    def _on_subnet_positioned(self, trace_address, positioned, pivot,
                              pivot_distance, on_trace_path) -> None:
        outcome = "positioned" if positioned else "unpositioned"
        self._positionings[outcome].inc()

    def _on_subnet_shrunk(self, pivot, rule, prefix_length) -> None:
        self._shrinks[rule].inc()

    def _on_subnet_grown(self, pivot, prefix, size, stop_reason, probes_used,
                         phase_probes=None, candidates_tested=0) -> None:
        registry = self.registry
        registry.inc("subnets_grown_total")
        self._stops[stop_reason].inc()
        registry.inc("overhead_checks_total")
        registry.observe("subnet_size", size, buckets=SUBNET_SIZE_BUCKETS)
        registry.observe("subnet_probes_used", probes_used,
                         buckets=SUBNET_PROBE_BUCKETS)
        for phase, count in (phase_probes or {}).items():
            self._phase_probes[phase].inc(count)

    def _on_overhead_violation(self, pivot, prefix, size, probes_used,
                               upper_bound, slack,
                               phase_probes=None) -> None:
        self.registry.inc("overhead_violations_total")
        self.registry.inc("overhead_violation_probes_total", probes_used)

    def _on_trace_started(self, destination) -> None:
        self.registry.inc("traces_started_total")

    def _on_trace_finished(self, destination, reached, hops, probes_sent,
                           cache_hits=0) -> None:
        registry = self.registry
        registry.inc("traces_finished_total")
        if reached:
            registry.inc("traces_reached_total")
        registry.inc("trace_cache_hits_total", cache_hits)
        registry.observe("trace_hops", hops, buckets=TRACE_HOP_BUCKETS)
        registry.observe("trace_probes", probes_sent,
                         buckets=TRACE_PROBE_BUCKETS)

    def _on_checkpoint(self, path, completed_targets, traces) -> None:
        self.registry.inc("checkpoints_written_total")

    def _on_topology_mutated(self, epoch, sequence, kind, target,
                             detail=None) -> None:
        self._mutations[kind].inc()

    def _on_trace_inconsistent(self, destination, ttl, expected, observed,
                               reason) -> None:
        self._inconsistencies[reason].inc()

    def _on_subnet_retracted(self, prefix, reason) -> None:
        self._retractions[reason].inc()

    def _on_degraded_result(self, destination, reason, confidence) -> None:
        self.registry.inc("degraded_traces_total")

    def _on_probe_retried(self, dst, ttl, attempt, phase) -> None:
        self.registry.inc("probe_retries_total")

    def _on_survey_progressed(self, total_targets, completed, skipped,
                              reached, probes_sent) -> None:
        registry = self.registry
        registry.inc("survey_progress_events_total")
        registry.set_gauge("survey_targets", total_targets)
        registry.set_gauge("survey_completed", completed)
        registry.set_gauge("survey_skipped", skipped)
        registry.set_gauge("survey_reached", reached)
        registry.set_gauge("survey_probes_sent", probes_sent)


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
