"""Record → replay determinism: a journaled survey re-runs without a network.

The operational contract of the transport seam: recording a survey once and
replaying the journal must reproduce the identical archive and the
identical session-event stream — with no Engine involved at all on the
replay side.  This is what makes collected runs auditable and debuggable
offline ("A Radar for the Internet": runs are only comparable when each
probe stream is fully recorded).
"""

import io

import pytest

from repro.core import TraceNET
from repro.events import CollectingSink, event_to_dict
from repro.mapping import archive_signature
from repro.netsim import Engine, Probe
from repro.netsim import engine as engine_module
from repro.runner import SurveyRunner
from repro.topogen import figures
from repro.transport import (
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
        with pytest.raises(ReplayMismatch, match="diverged"):
            replay.send(Probe(src=src, dst=dst, ttl=9))

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
