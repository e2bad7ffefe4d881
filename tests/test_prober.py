"""Unit tests for the probing layer: retries and the retry gate, caching,
distance measuring, budgets and statistics."""

import io

import pytest

from conftest import address_on
from repro.core import TraceNET
from repro.core.collection import PHASE_TRACE
from repro.core.heuristics import PHASE_EXPLORATION
from repro.core.positioning import PHASE_POSITIONING
from repro.events import CollectingSink, ProbeBatchSent, event_to_dict
from repro.mapping import archive_to_dict
from repro.netsim import (
    DEFAULT_TTL,
    Engine,
    ResponsePolicy,
    TopologyBuilder,
)
from repro.probing import ProbeStats, Prober, RetryPolicy
from repro.runner import SurveyRunner
from repro.topogen import internet2
from repro.transport import (
    FaultInjectingTransport,
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
)

#: A block nothing in the test topologies answers from.
SILENT = 0x01010100
WARMUP = RetryPolicy.WARMUP


def chain(n=4, policy=None):
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return Engine(topo, policy=policy), topo


class TestProberBasics:
    def test_unknown_vantage_rejected(self):
        engine, _ = chain()
        with pytest.raises(ValueError):
            Prober(engine, "nobody")

    def test_direct_probe_alive(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        dst = address_on(topo, "R4", "R3")
        response = prober.direct_probe(dst)
        assert response is not None and response.is_alive_signal

    def test_indirect_probe_requires_small_ttl(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        with pytest.raises(ValueError):
            prober.indirect_probe(address_on(topo, "R4", "R3"), DEFAULT_TTL)

    def test_is_alive(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        assert prober.is_alive(address_on(topo, "R2", "R1"))
        assert not prober.is_alive(0x01010101)

    def test_phase_accounting(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        prober.direct_probe(address_on(topo, "R2", "R1"), phase="testing")
        assert prober.stats.by_phase["testing"] == 1


class TestRetries:
    def test_silent_address_retried_once(self):
        engine, topo = chain()
        prober = Prober(engine, "v", retries=1, use_cache=False)
        prober.direct_probe(0x01010101)
        assert prober.stats.sent == 2
        assert prober.stats.retries == 1

    def test_no_retry_on_answer(self):
        engine, topo = chain()
        prober = Prober(engine, "v", retries=1)
        prober.direct_probe(address_on(topo, "R2", "R1"))
        assert prober.stats.retries == 0

    def test_retry_recovers_from_one_drop(self):
        policy = ResponsePolicy().rate_limit_router("R2", capacity=1,
                                                    refill_per_tick=0.5)
        engine, topo = chain(policy=policy)
        prober = Prober(engine, "v", retries=1, use_cache=False)
        dst = address_on(topo, "R2", "R1")
        assert prober.direct_probe(dst) is not None
        # Bucket now empty; the next probe drops (only 0.5 tokens refilled)
        # and the retry one tick later succeeds.
        assert prober.direct_probe(dst) is not None
        assert prober.stats.retries >= 1


def sends_for(prober, dst, phase):
    """Wire probes one uncached direct probe of ``dst`` costs."""
    before = prober.stats.sent
    prober.direct_probe(dst, phase=phase)
    return prober.stats.sent - before


def close_gate(prober):
    """Spend the warm-up on unanswered exploration retries."""
    for i in range(WARMUP):
        assert sends_for(prober, SILENT + i, PHASE_EXPLORATION) == 2
    assert prober.stats.retries == WARMUP
    assert prober.stats.retries_answered == 0


class TestRetryGate:
    def test_gated_phases_are_the_collectors_phase_names(self):
        assert RetryPolicy.GATED_PHASES == {PHASE_EXPLORATION,
                                            PHASE_POSITIONING}

    def test_gate_closes_for_exploration_and_positioning_only(self):
        engine, _ = chain()
        prober = Prober(engine, "v")
        close_gate(prober)
        assert sends_for(prober, SILENT + 100, PHASE_EXPLORATION) == 1
        assert sends_for(prober, SILENT + 101, PHASE_POSITIONING) == 1
        # Trace-collection silences (and unphased ones) keep retrying.
        assert sends_for(prober, SILENT + 102, PHASE_TRACE) == 2
        assert sends_for(prober, SILENT + 103, None) == 2
        assert sends_for(prober, SILENT + 104, PHASE_EXPLORATION) == 1
        assert prober.stats.retries == WARMUP + 2
        assert prober.stats.retries_answered == 0

    def test_ungated_policy_retries_every_silence(self):
        engine, _ = chain()
        prober = Prober(engine, "v", retries=RetryPolicy(gated=False))
        close_gate(prober)
        assert sends_for(prober, SILENT + 100, PHASE_EXPLORATION) == 2
        assert sends_for(prober, SILENT + 101, PHASE_POSITIONING) == 2

    def test_one_answered_retry_rearms_every_phase(self):
        engine, topo = chain()
        flaky = address_on(topo, "R2", "R1")
        # Answers every other probe toward ``flaky``: the first, then the
        # third, and so on.
        transport = FaultInjectingTransport(SimulatorTransport(engine),
                                            intermittent={flaky: (1, 1)})
        prober = Prober(transport, "v")
        close_gate(prober)
        assert prober.direct_probe(flaky) is not None
        assert sends_for(prober, SILENT + 100, PHASE_EXPLORATION) == 1
        # A trace retry is answered: the second probe drops, the third
        # gets through.
        response = prober.probe(flaky, DEFAULT_TTL, phase=PHASE_TRACE,
                                refresh=True)
        assert response is not None
        assert prober.stats.retries_answered == 1
        assert sends_for(prober, SILENT + 101, PHASE_EXPLORATION) == 2
        assert sends_for(prober, SILENT + 102, PHASE_POSITIONING) == 2
        assert sends_for(prober, SILENT + 103, PHASE_TRACE) == 2

    def test_batches_of_one_equal_serial_probes(self):
        """The gate decides identically in probe() and probe_many()."""
        def script_run(batched):
            engine, topo = chain()
            flaky = address_on(topo, "R3", "R2")
            transport = FaultInjectingTransport(
                SimulatorTransport(engine), drop_rate=0.05, seed=3,
                intermittent={flaky: (1, 1)})
            prober = Prober(transport, "v")
            sink = prober.events.subscribe(CollectingSink())
            # Close the gate, then re-arm it: ``flaky`` answers its
            # first probe and drops the second, whose retry is answered.
            script = ([(SILENT + i, DEFAULT_TTL, PHASE_EXPLORATION)
                       for i in range(70)]
                      + [(SILENT + 70 + i, DEFAULT_TTL, PHASE_POSITIONING)
                         for i in range(4)]
                      + [(flaky, DEFAULT_TTL, PHASE_TRACE),
                         (SILENT + 80, DEFAULT_TTL, PHASE_TRACE),
                         (flaky, DEFAULT_TTL - 1, PHASE_TRACE)]
                      + [(SILENT + 90 + i, DEFAULT_TTL, PHASE_EXPLORATION)
                         for i in range(8)])
            answers = []
            for dst, ttl, phase in script:
                if batched:
                    [response] = prober.probe_many([(dst, ttl)],
                                                   phase=phase)
                else:
                    response = prober.probe(dst, ttl, phase=phase)
                answers.append(None if response is None
                               else (response.kind, response.source))
            events = [event_to_dict(e) for e in sink.events
                      if not isinstance(e, ProbeBatchSent)]
            return answers, prober.stats.snapshot(), events

        serial, batched = script_run(False), script_run(True)
        assert batched == serial
        _, stats, _ = serial
        # The script ran both with the gate closed and re-armed.
        assert stats["retries_answered"] >= 1
        assert stats["retries"] < stats["silent"]

    @pytest.mark.parametrize("drop_rate", [0.0, 0.05])
    def test_gated_survey_replays_byte_identically(self, drop_rate):
        network = internet2.build(seed=7)
        targets = internet2.targets(network, seed=7)

        def survey(transport):
            tool = TraceNET(transport, "utdallas")
            sink = tool.events.subscribe(CollectingSink())
            runner = SurveyRunner(tool)
            runner.run(targets)
            return (archive_to_dict(runner.archive),
                    [event_to_dict(e) for e in sink.events],
                    tool.prober.stats)

        journal = io.StringIO()
        live = SimulatorTransport(
            Engine(network.topology, policy=network.policy))
        if drop_rate:
            live = FaultInjectingTransport(live, drop_rate=drop_rate, seed=0)
        archive, events, stats = survey(RecordingTransport(live, journal))
        replayed = survey(ReplayTransport(io.StringIO(journal.getvalue())))
        assert replayed[:2] == (archive, events)
        assert replayed[2] == stats
        if drop_rate:
            assert stats.retries_answered > 0
        else:
            assert stats.retries_answered == 0 and stats.retries >= WARMUP


class TestCache:
    def test_repeat_probe_served_from_cache(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        dst = address_on(topo, "R3", "R2")
        prober.probe(dst, 3)
        sent_before = prober.stats.sent
        prober.probe(dst, 3)
        assert prober.stats.sent == sent_before
        assert prober.stats.cache_hits == 1

    def test_silence_is_cached_after_retry(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        prober.direct_probe(0x01010101)
        sent_before = prober.stats.sent
        prober.direct_probe(0x01010101)
        assert prober.stats.sent == sent_before

    def test_oversized_ttl_rejected_not_aliased(self):
        # A TTL beyond DEFAULT_TTL used to silently alias the direct-probe
        # cache entry even though the engine can walk it differently.
        engine, topo = chain()
        prober = Prober(engine, "v")
        dst = address_on(topo, "R2", "R1")
        prober.probe(dst, DEFAULT_TTL)
        with pytest.raises(ValueError):
            prober.probe(dst, DEFAULT_TTL + 10)
        assert prober.stats.cache_hits == 0

    def test_default_ttl_probe_shares_direct_cache_entry(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        dst = address_on(topo, "R2", "R1")
        prober.direct_probe(dst)
        prober.probe(dst, DEFAULT_TTL)
        assert prober.stats.cache_hits == 1

    def test_flow_override_bypasses_cache(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        dst = address_on(topo, "R3", "R2")
        prober.probe(dst, 3)
        prober.probe(dst, 3, flow_id=7)
        assert prober.stats.cache_hits == 0

    def test_clear_cache(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        dst = address_on(topo, "R3", "R2")
        prober.probe(dst, 3)
        prober.clear_cache()
        sent_before = prober.stats.sent
        prober.probe(dst, 3)
        assert prober.stats.sent == sent_before + 1

    def test_cache_disabled(self):
        engine, topo = chain()
        prober = Prober(engine, "v", use_cache=False)
        dst = address_on(topo, "R3", "R2")
        prober.probe(dst, 3)
        prober.probe(dst, 3)
        assert prober.stats.sent == 2


class TestMeasureDistance:
    def test_exact_hint(self):
        engine, topo = chain(5)
        prober = Prober(engine, "v")
        assert prober.measure_distance(address_on(topo, "R4", "R3"), hint=4) == 4

    def test_hint_too_low(self):
        engine, topo = chain(5)
        prober = Prober(engine, "v")
        assert prober.measure_distance(address_on(topo, "R4", "R3"), hint=1) == 4

    def test_hint_too_high(self):
        engine, topo = chain(5)
        prober = Prober(engine, "v")
        assert prober.measure_distance(address_on(topo, "R2", "R1"), hint=5) == 2

    def test_unresponsive_returns_none(self):
        engine, topo = chain(5)
        prober = Prober(engine, "v")
        assert prober.measure_distance(0x01010101, hint=3) is None

    def test_near_side_vs_far_side(self):
        engine, topo = chain(4)
        prober = Prober(engine, "v")
        near = address_on(topo, "R2", "R3")
        far = address_on(topo, "R3", "R2")
        assert prober.measure_distance(near, hint=3) == 2
        assert prober.measure_distance(far, hint=2) == 3


class TestStats:
    def test_snapshot_is_independent_copy(self):
        engine, topo = chain()
        prober = Prober(engine, "v")
        snap = prober.stats_snapshot()
        prober.direct_probe(address_on(topo, "R2", "R1"))
        assert snap.sent == 0
        assert prober.stats.sent == 1

    def test_diff(self):
        a = ProbeStats(sent=10, responses=8, by_phase={"x": 4})
        b = ProbeStats(sent=3, responses=2, by_phase={"x": 1})
        delta = a.diff(b)
        assert delta.sent == 7
        assert delta.responses == 6
        assert delta.by_phase == {"x": 3}

    def test_snapshot_dict(self):
        stats = ProbeStats(sent=2, responses=1, silent=1, by_phase={"p": 2})
        flat = stats.snapshot()
        assert flat["sent"] == 2
        assert flat["phase:p"] == 2
