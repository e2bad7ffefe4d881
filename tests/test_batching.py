"""The batched probe pipeline: send_many, probe_many, and batched surveys.

The batch API's contract is that ``send_many(probes)`` is semantically
identical to ``[send(p) for p in probes]`` on every backend — same
responses, same clock ticks, same RNG draws, same journal records — so a
batched collection produces byte-identical artifacts in exact mode
(``batch_window=1``).
"""

import io
import json

from repro.core import TraceNET
from repro.events import CacheHit, ProbeBatchSent, ProbeSent
from repro.metrics import MetricsRegistry, MetricsSink
from repro.metrics.analytics import stats_from_journal
from repro.mapping.store import archive_to_dict
from repro.netsim import Engine
from repro.netsim.packet import Probe
from repro.probing import Prober
from repro.runner import SurveyRunner
from repro.topogen import internet2
from repro.transport import (
    FaultInjectingTransport,
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
    send_batch,
)


def line_probes(engine, count=6):
    src = engine.topology.hosts["vantage"].address
    dst = src  # probing the vantage's own subnet keeps the line topology busy
    return [Probe(src=src, dst=dst, ttl=ttl) for ttl in range(1, count + 1)]


def survey_network():
    network = internet2.build(seed=7)
    targets = internet2.targets(network, seed=7)[:10]
    return network, targets


def response_key(response):
    if response is None:
        return None
    return response.kind, response.source, response.responder


class TestEngineSendMany:
    def test_matches_serial_sends(self):
        network, targets = survey_network()
        src = network.topology.hosts["utdallas"].address
        work = [(dst, ttl) for dst in targets for ttl in range(1, 13)]
        serial_engine = Engine(network.topology, policy=network.policy,
                               path_cache=True)
        batched_engine = Engine(network.topology, policy=network.policy,
                                path_cache=True)
        serial = [serial_engine.send(Probe(src=src, dst=d, ttl=t))
                  for d, t in work]
        probes = [Probe(src=src, dst=d, ttl=t) for d, t in work]
        batched = []
        for start in range(0, len(probes), 17):  # uneven chunks on purpose
            batched.extend(batched_engine.send_many(probes[start:start + 17]))
        assert [response_key(r) for r in serial] == \
            [response_key(r) for r in batched]
        assert serial_engine.clock == batched_engine.clock
        assert serial_engine.stats.probes_sent == \
            batched_engine.stats.probes_sent
        assert serial_engine.stats.per_protocol == \
            batched_engine.stats.per_protocol

    def test_counts_batches(self, line_engine):
        probes = line_probes(line_engine)
        line_engine.send_many(probes)
        assert line_engine.stats.batches == 1
        assert line_engine.stats.batched_probes == len(probes)

    def test_cache_off_falls_back_to_send(self, line_topology):
        engine = Engine(line_topology, path_cache=False)
        probes = line_probes(engine, count=3)
        responses = engine.send_many(probes)
        assert len(responses) == 3
        assert engine.stats.batches == 1


class TestTransportSendMany:
    def test_simulator_delegates_to_engine(self, line_engine):
        transport = SimulatorTransport(line_engine)
        probes = line_probes(line_engine, count=4)
        responses = transport.send_many(probes)
        assert len(responses) == 4
        metrics = transport.backend_metrics()
        assert metrics["transport_batches"] == 1
        assert metrics["transport_batched_probes"] == 4

    def test_send_batch_falls_back_without_send_many(self, line_engine):
        class Minimal:
            def __init__(self, engine):
                self.engine = engine

            def send(self, probe):
                return self.engine.send(probe)

        probes = line_probes(line_engine, count=3)
        responses = send_batch(Minimal(line_engine), probes)
        assert len(responses) == 3

    def test_fault_batches_match_serial_faults(self, line_topology):
        # Same seed, same probe order: the RNG draw sequence (and so the
        # dropped-response pattern) must be identical serial vs batched.
        serial = FaultInjectingTransport(
            SimulatorTransport(Engine(line_topology)), drop_rate=0.5, seed=3)
        batched = FaultInjectingTransport(
            SimulatorTransport(Engine(line_topology)), drop_rate=0.5, seed=3)
        probes = line_probes(serial.engine, count=8)
        one_by_one = [serial.send(p) for p in probes]
        together = batched.send_many(line_probes(batched.engine, count=8))
        assert [r is None for r in one_by_one] == \
            [r is None for r in together]
        assert serial.injected_drops == batched.injected_drops
        metrics = batched.backend_metrics()
        assert metrics["fault_batches"] == 1
        assert metrics["fault_batched_probes"] == 8

    def test_recording_journals_batches_flat(self, line_engine):
        # Batches are a pipelining detail, not a wire-format concern: the
        # journal holds ordinary sequential exchange records, so a journal
        # recorded in batches replays under serial dispatch and vice versa.
        buffer = io.StringIO()
        recording = RecordingTransport(SimulatorTransport(line_engine),
                                       buffer)
        probes = line_probes(line_engine, count=5)
        recorded = recording.send_many(probes)
        recording.close()
        metrics_text = buffer.getvalue()
        records = [json.loads(line) for line in
                   metrics_text.strip().splitlines()]
        exchanges = [r for r in records if r.get("kind") == "exchange"]
        assert len(exchanges) == 5
        assert [r["seq"] for r in exchanges] == list(range(1, 6))

        replay = ReplayTransport(io.StringIO(metrics_text))
        served_serial = [replay.send(p)
                         for p in line_probes(line_engine, count=5)]
        assert [response_key(r) for r in served_serial] == \
            [response_key(r) for r in recorded]

        replay_batched = ReplayTransport(io.StringIO(metrics_text))
        served_batched = replay_batched.send_many(
            line_probes(line_engine, count=5))
        assert [response_key(r) for r in served_batched] == \
            [response_key(r) for r in recorded]
        assert replay_batched.backend_metrics()["replay_batches_served"] == 1


class TestProbeMany:
    def test_matches_serial_probe_semantics(self, line_topology):
        # Two identical engines: the probers must not share simulator state
        # (the clock and rate-limit buckets) or the comparison measures the
        # engine, not the prober.
        serial = Prober(SimulatorTransport(Engine(line_topology)), "vantage")
        batched = Prober(SimulatorTransport(Engine(line_topology)), "vantage")
        dst = line_topology.hosts["vantage"].address
        requests = [(dst, ttl) for ttl in range(1, 5)]
        one_by_one = [serial.probe(d, t) for d, t in requests]
        together = batched.probe_many(requests)
        assert [response_key(r) for r in one_by_one] == \
            [response_key(r) for r in together]
        assert serial.stats.sent == batched.stats.sent
        assert serial.stats.responses == batched.stats.responses

    def test_cache_and_duplicates(self, line_engine):
        prober = Prober(SimulatorTransport(line_engine), "vantage")
        dst = line_engine.topology.hosts["vantage"].address
        events = []
        prober.events.subscribe(events.append)
        prober.probe(dst, 1)  # pre-populates the cache
        events.clear()
        results = prober.probe_many([(dst, 1), (dst, 2), (dst, 2)])
        # (dst, 1) from the cache, (dst, 2) once on the wire, the repeat
        # resolved as a cache hit exactly like the serial path would.
        assert response_key(results[1]) == response_key(results[2])
        hits = [e for e in events if isinstance(e, CacheHit)]
        sent = [e for e in events if isinstance(e, ProbeSent)]
        batches = [e for e in events if isinstance(e, ProbeBatchSent)]
        assert len(hits) == 2
        assert len(sent) == 1
        assert len(batches) == 1 and batches[0].size == 1
        assert prober.stats.cache_hits == 2  # primed entry + in-batch dup


class TestBatchedCollection:
    def test_batch_window_one_is_byte_identical(self):
        network, targets = survey_network()

        def survey(**kwargs):
            engine = Engine(network.topology, policy=network.policy,
                            path_cache=True)
            tool = TraceNET(engine, "utdallas", **kwargs)
            runner = SurveyRunner(tool)
            runner.run(targets)
            return tool, runner.archive

        serial_tool, serial_archive = survey()
        batched_tool, batched_archive = survey(batch_window=1)
        assert json.dumps(archive_to_dict(serial_archive), sort_keys=True) \
            == json.dumps(archive_to_dict(batched_archive), sort_keys=True)
        assert serial_tool.prober.stats.sent == batched_tool.prober.stats.sent

    def test_offline_stats_replay_batched_journal(self, tmp_path):
        # A journal recorded under batch_window=1 carries the collector
        # options in its metadata; the offline analytics rebuild the same
        # collector, so the registry from the journal matches the live one.
        network, targets = survey_network()
        journal = tmp_path / "batched.jsonl"
        engine = Engine(network.topology, policy=network.policy,
                        path_cache=True)
        recording = RecordingTransport(
            SimulatorTransport(engine), str(journal),
            metadata={"network": "internet2", "seed": 7,
                      "vantage": "utdallas",
                      "collector": {"batch_window": 1}})
        tool = TraceNET(recording, "utdallas", batch_window=1)
        live = MetricsRegistry()
        tool.events.subscribe(MetricsSink(live))
        SurveyRunner(tool).run(targets)
        recording.close()

        offline = stats_from_journal(str(journal), targets=targets)
        live_counters = live.snapshot()["counters"]
        offline_counters = offline.registry.snapshot()["counters"]
        assert offline_counters["probes_sent_total"] == \
            live_counters["probes_sent_total"]
        assert offline_counters["probe_batches_total"] == \
            live_counters["probe_batches_total"]
        assert offline.exchanges_remaining == 0
