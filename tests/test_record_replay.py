"""Record → replay determinism: a journaled survey re-runs without a network.

The operational contract of the transport seam: recording a survey once and
replaying the journal must reproduce the identical archive and the
identical session-event stream — with no Engine involved at all on the
replay side.  This is what makes collected runs auditable and debuggable
offline ("A Radar for the Internet": runs are only comparable when each
probe stream is fully recorded).
"""

import ast
import io
import json
import tracemalloc

import pytest

from repro.cli import main
from repro.core import TraceNET
from repro.events import CollectingSink, event_to_dict
from repro.mapping import archive_signature
from repro.netsim import Engine, Probe
from repro.netsim import engine as engine_module
from repro.netsim.addressing import format_ip
from repro.runner import SurveyRunner
from repro.topogen import figures
from repro.transport import (
    JournalError,
    RecordingTransport,
    ReplayExhausted,
    ReplayMismatch,
    ReplayTransport,
    SimulatorTransport,
)


def survey_targets(scenario):
    """One far interface per router — a small but exploration-heavy survey."""
    return sorted(min(router.addresses)
                  for router in scenario.topology.routers.values())


def run_survey(transport, vantage):
    tool = TraceNET(transport, vantage)
    sink = tool.events.subscribe(CollectingSink())
    runner = SurveyRunner(tool)
    runner.run(survey_targets(figures.figure2_network()))
    return runner.archive, sink.events


class TestRecordReplayDeterminism:
    @pytest.fixture(scope="class")
    def recorded(self):
        scenario = figures.figure2_network()
        vantage = next(iter(scenario.hosts))
        journal = io.StringIO()
        transport = RecordingTransport(SimulatorTransport(scenario.engine()),
                                       journal)
        archive, events = run_survey(transport, vantage)
        return vantage, journal.getvalue(), archive, events

    def test_replay_reproduces_archive_without_engine(self, recorded,
                                                      monkeypatch):
        vantage, journal, archive, events = recorded

        def no_engines_allowed(self, *args, **kwargs):
            raise AssertionError("replay must not instantiate an Engine")

        monkeypatch.setattr(engine_module.Engine, "__init__",
                            no_engines_allowed)
        replay = ReplayTransport(io.StringIO(journal))
        replayed_archive, replayed_events = run_survey(replay, vantage)
        assert (archive_signature(replayed_archive)
                == archive_signature(archive))
        replay.assert_drained()

    def test_replay_reproduces_event_sequence(self, recorded):
        vantage, journal, archive, events = recorded
        replay = ReplayTransport(io.StringIO(journal))
        _, replayed_events = run_survey(replay, vantage)
        assert ([event_to_dict(e) for e in replayed_events]
                == [event_to_dict(e) for e in events])

    def test_vantage_resolution_from_journal(self, recorded):
        vantage, journal, _, _ = recorded
        replay = ReplayTransport(io.StringIO(journal))
        assert replay.source_address(vantage) > 0
        with pytest.raises(ValueError, match="unknown vantage"):
            replay.source_address("nobody")


class TestReplayFailsLoudly:
    def make_journal(self, line_engine):
        journal = io.StringIO()
        transport = RecordingTransport(SimulatorTransport(line_engine),
                                       journal)
        src = transport.source_address("vantage")
        dst = max(line_engine.topology.all_interface_addresses)
        transport.send(Probe(src=src, dst=dst, ttl=1))
        return journal.getvalue(), src, dst

    def test_mismatched_probe_rejected(self, line_engine):
        journal, src, dst = self.make_journal(line_engine)
        replay = ReplayTransport(io.StringIO(journal))
        probe = Probe(src=src, dst=dst, ttl=9)
        with pytest.raises(ReplayMismatch, match="diverged") as raised:
            replay.send(probe)
        # Both sides read as journal dicts: dotted quads, protocol names.
        sent, recorded = str(raised.value).split("sent ")[1].split(
            ", recorded ")
        matched = {"src": format_ip(src), "dst": format_ip(dst),
                   "protocol": "icmp", "flow_id": 0, "record_route": False}
        assert ast.literal_eval(sent) == dict(matched, ttl=9,
                                              probe_id=probe.probe_id)
        assert ast.literal_eval(recorded) == dict(matched, ttl=1)

    def test_exhausted_journal_rejected(self, line_engine):
        journal, src, dst = self.make_journal(line_engine)
        replay = ReplayTransport(io.StringIO(journal))
        assert replay.send(Probe(src=src, dst=dst, ttl=1)) is not None
        with pytest.raises(ReplayExhausted):
            replay.send(Probe(src=src, dst=dst, ttl=1))

    def test_undrained_journal_detected(self, line_engine):
        journal, _, _ = self.make_journal(line_engine)
        replay = ReplayTransport(io.StringIO(journal))
        with pytest.raises(ReplayMismatch, match="never replayed"):
            replay.assert_drained()

    def test_responses_roundtrip_exactly(self, line_engine):
        journal_text, src, dst = self.make_journal(line_engine)
        # Re-send the same probe against a fresh engine to learn the truth.
        fresh = Engine(line_engine.topology)
        expected = fresh.send(Probe(src=src, dst=dst, ttl=1))
        replayed = ReplayTransport(io.StringIO(journal_text))\
            .send(Probe(src=src, dst=dst, ttl=1))
        assert replayed.kind == expected.kind
        assert replayed.source == expected.source
        assert replayed.responder == expected.responder

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda record: record["probe"].pop("flow_id"),
                     id="missing-matched-field"),
        pytest.param(lambda record: record["probe"].update(protocol="sctp"),
                     id="unknown-protocol"),
        pytest.param(lambda record: record["response"].update(kind="redirect"),
                     id="unknown-response-kind"),
        pytest.param(lambda record: record["probe"].update(dst="1.2.3"),
                     id="bad-address"),
    ])
    def test_malformed_exchange_fails_at_load(self, line_engine, corrupt):
        journal, _, _ = self.make_journal(line_engine)
        header, vantage, exchange = journal.splitlines()
        record = json.loads(exchange)
        corrupt(record)
        broken = "\n".join([header, vantage, json.dumps(record)]) + "\n"
        with pytest.raises(JournalError, match="journal line 3"):
            ReplayTransport(io.StringIO(broken))


class CapturingTransport(SimulatorTransport):
    """A simulator backend that keeps every live (probe, response) pair."""

    def __init__(self, engine):
        super().__init__(engine)
        self.exchanges = []

    def send(self, probe):
        response = super().send(probe)
        self.exchanges.append((probe, response))
        return response

    def send_many(self, probes):
        responses = super().send_many(probes)
        self.exchanges.extend(zip(probes, responses))
        return responses


class TestResponsesRoundTrip:
    """Every replayed exchange equals the live one, field by field."""

    def record(self, collect):
        scenario = figures.figure2_network()
        vantage = next(iter(scenario.hosts))
        live = CapturingTransport(scenario.engine())
        journal = io.StringIO()
        result = collect(RecordingTransport(live, journal), vantage,
                         max(survey_targets(scenario)))
        return live.exchanges, journal.getvalue(), vantage, result

    def assert_replays_exactly(self, exchanges, journal):
        replay = ReplayTransport(io.StringIO(journal))
        for probe, response in exchanges:
            replayed = replay.send(probe)
            assert replayed == response
            assert replayed is None or replayed.probe is probe
        replay.assert_drained()

    def test_record_route_stamps_roundtrip(self):
        def collect(transport, vantage, target):
            source = transport.source_address(vantage)
            return [transport.send(Probe(src=source, dst=target, ttl=ttl,
                                         record_route=True))
                    for ttl in range(1, 10)]

        exchanges, journal, _, _ = self.record(collect)
        assert any(response.record_route
                   for _, response in exchanges if response is not None)
        self.assert_replays_exactly(exchanges, journal)

    def test_tracenet_trace_roundtrip(self):
        def collect(transport, vantage, target):
            return TraceNET(transport, vantage).trace(target)

        exchanges, journal, _, _ = self.record(collect)
        assert any(response is None for _, response in exchanges)
        assert any(response is not None for _, response in exchanges)
        self.assert_replays_exactly(exchanges, journal)


def test_decoded_journal_is_compact(tmp_path, capsys):
    """A decoded exchange holds native fields, not three nested JSON dicts
    (about 1.7 KB per exchange)."""
    path = tmp_path / "geant.jsonl"
    assert main(["survey", "--network", "geant", "--seed", "7",
                 "--record", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    tracemalloc.start()
    try:
        replay = ReplayTransport(io.StringIO(text))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert replay.remaining > 1000
    assert held / replay.remaining <= 400
