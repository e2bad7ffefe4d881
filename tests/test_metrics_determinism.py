"""The metrics parity contract: live run == journal replay == tracenet stats.

The deterministic :meth:`MetricsRegistry.snapshot` payload is a pure
function of the session-event stream.  Recording a run and replaying its
journal — through :class:`ReplayTransport` directly, or through the
``tracenet stats`` analytics entry point — must therefore reproduce the
registry bit for bit, histograms included.  Backend counters and timing
spans legitimately differ (different backends, different wall clocks),
which is why they are quarantined outside ``snapshot()``.
"""

import io
import json

from repro.core import TraceNET
from repro.metrics import (
    MetricsRegistry,
    instrument,
    registry_from_events,
    stats_from_journal,
)
from repro.netsim import Engine
from repro.runner import SurveyRunner
from repro.runspec import RunSpec
from repro.topogen import internet2
from repro.transport import (
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
    collect_backend_metrics,
)

SEED = 7
VANTAGE = "utdallas"


def _record_survey(targets):
    """One live instrumented survey; returns (registry, journal_text, tool)."""
    network = internet2.build(seed=SEED)
    engine = Engine(network.topology, policy=network.policy)
    buffer = io.StringIO()
    transport = RecordingTransport(
        SimulatorTransport(engine), buffer,
        metadata={"network": "internet2", "seed": SEED, "vantage": VANTAGE,
                  "collector": {"retry": "gated"}})
    tool = TraceNET(transport, VANTAGE)
    registry = MetricsRegistry()
    instrument(tool.events, registry=registry)
    SurveyRunner(tool).run(targets)
    collect_backend_metrics(registry.backend, transport)
    return registry, buffer.getvalue(), tool


def _targets(count=12):
    network = internet2.build(seed=SEED)
    return internet2.targets(network, seed=SEED)[:count]


class TestThreeWayParity:
    def test_live_replay_and_stats_registries_are_identical(self):
        targets = _targets()
        live, journal, _ = _record_survey(targets)

        replayed = MetricsRegistry()
        RunSpec(shape="survey", vantage=VANTAGE).build(
            transport=ReplayTransport(io.StringIO(journal)),
            targets=targets).execute(registry=replayed)

        stats = stats_from_journal(io.StringIO(journal), targets=targets)

        assert live.snapshot() == replayed.snapshot()
        assert live.snapshot() == stats.registry.snapshot()
        # Histograms specifically: same buckets, same per-bucket counts.
        assert live.snapshot()["histograms"] == \
            stats.registry.snapshot()["histograms"]
        assert live.snapshot()["histograms"]["probe_ttl"]["count"] > 0
        assert stats.mode == "survey"
        assert stats.exchanges_remaining == 0

    def test_stats_resolves_survey_shape_from_metadata(self):
        # Full target list so the journal metadata alone (network + seed)
        # reconstructs the run; no targets= hint passed.
        network = internet2.build(seed=SEED)
        targets = internet2.targets(network, seed=SEED)
        live, journal, _ = _record_survey(targets)
        stats = stats_from_journal(io.StringIO(journal))
        assert stats.vantage == VANTAGE
        assert stats.targets == list(targets)
        assert stats.registry.snapshot() == live.snapshot()
        assert stats.exchanges_remaining == 0

    def test_snapshot_survives_json_roundtrip(self):
        targets = _targets(6)
        live, _, _ = _record_survey(targets)
        snapshot = live.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_backend_scopes_differ_but_sessions_match(self):
        targets = _targets(6)
        live, journal, _ = _record_survey(targets)
        stats = stats_from_journal(io.StringIO(journal), targets=targets)
        # Live saw the engine; stats saw only the journal cursor.
        assert "engine_probes_sent" in live.backend.snapshot()["gauges"]
        replay_backend = stats.registry.backend.snapshot()["gauges"]
        assert "engine_probes_sent" not in replay_backend
        assert replay_backend["replay_exchanges_remaining"] == 0


class TestEngineReconciliation:
    def test_event_counters_match_engine_and_prober_exactly(self):
        # The accounting skew the CacheHit event closed: wire-probe events
        # must reconcile with the engine's own counters, and cache-hit
        # events with the prober's.
        targets = _targets()
        network = internet2.build(seed=SEED)
        engine = Engine(network.topology, policy=network.policy)
        tool = TraceNET(engine, VANTAGE)
        registry = MetricsRegistry()
        instrument(tool.events, registry=registry)
        SurveyRunner(tool).run(targets)
        assert registry.value("probes_sent_total") == engine.stats.probes_sent
        assert (registry.value("probe_cache_hits_total")
                == tool.prober.stats.cache_hits)
        assert (registry.value("probe_responses_total")
                == engine.stats.responses_returned)
        assert registry.value("probe_silent_total") == engine.stats.silent_drops
        assert registry.value("probe_cache_hits_total") > 0

    def test_replayed_event_stream_rebuilds_the_registry(self):
        # registry_from_events over the collected stream equals the live
        # sink — the sink is a pure function of the events.
        from repro.events import CollectingSink

        targets = _targets(6)
        network = internet2.build(seed=SEED)
        engine = Engine(network.topology, policy=network.policy)
        tool = TraceNET(engine, VANTAGE)
        collected = CollectingSink()
        tool.events.subscribe(collected)
        registry = MetricsRegistry()
        instrument(tool.events, registry=registry)
        SurveyRunner(tool).run(targets)
        # The stream already contains the auditor's OverheadViolation
        # events (none expected here), so rebuild without re-auditing.
        rebuilt = registry_from_events(collected.events)
        assert rebuilt.snapshot() == registry.snapshot()
