"""Radar mode: continuous re-surveys over a network that keeps changing.

The contract under test, end to end: with no churn the radar degenerates
to byte-identical repeated surveys; with seeded churn the rounds shrink to
the dirty portion of the target set, stay fully deterministic, replay
bit-identically from a journal, and survive chaos (churn + loss) with
degraded traces marked and zero probe-economy violations.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import TraceNET
from repro.events import (
    EventBus,
    SubnetRetracted,
    TopologyMutated,
    event_to_dict,
)
from repro.mapping.diff import diff_archives
from repro.mapping.store import archive_from_dict, archive_to_dict
from repro.metrics import instrument
from repro.netsim import Engine
from repro.netsim.dynamics import MutationSchedule, NetworkDynamics
from repro.netsim.addressing import Prefix, parse_ip
from repro.radar import RadarRunner, _BlockIndex, mutation_prefixes
from repro.runner import SurveyRunner
from repro.topogen import geant
from repro.transport import (
    FaultInjectingTransport,
    MutatingTransport,
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
)

CHURN = dict(seed=7, start=60, interval=90, count=4)


def _radar_setup(churn=False, drop_rate=0.0, journal=None, limit=10):
    """A collector over GEANT with optional churn/fault/record layers.

    Layering matches ``tracenet radar``: record(churn(fault(simulator))),
    with one shared event bus between the churn seam and the collector.
    """
    network = geant.build(seed=2010)
    engine = Engine(network.topology, policy=network.policy)
    transport = SimulatorTransport(engine)
    if drop_rate > 0.0:
        transport = FaultInjectingTransport(transport, drop_rate=drop_rate,
                                            seed=1)
    events = EventBus()
    schedule = None
    if churn:
        schedule = MutationSchedule.generate(network.topology, **CHURN)
        transport = MutatingTransport(
            transport, schedule,
            dynamics=NetworkDynamics(engine, schedule), events=events)
    if journal is not None:
        transport = RecordingTransport(transport, journal)
    tool = TraceNET(transport, "utdallas", events=events)
    targets = geant.targets(network, seed=2010)[:limit]
    return tool, targets, schedule


class TestQuietRadar:
    """No churn: the radar is just a repeated survey, bit for bit."""

    def test_rounds_are_byte_identical(self):
        tool, targets, _ = _radar_setup()
        result = RadarRunner(tool, targets, rounds=3).run()
        first = archive_to_dict(result.rounds[0].archive)
        for later in result.rounds[1:]:
            assert archive_to_dict(later.archive) == first
            assert later.probed_targets == []
            assert later.diff is not None and later.diff.is_empty
        assert [len(r.probed_targets) for r in result.rounds] == \
            [len(targets), 0, 0]

    def test_round_zero_matches_plain_survey(self):
        tool, targets, _ = _radar_setup()
        radar = RadarRunner(tool, targets, rounds=1).run()
        survey_tool, _, _ = _radar_setup()
        runner = SurveyRunner(survey_tool)
        runner.run(targets)
        assert archive_to_dict(radar.final_archive) == \
            archive_to_dict(runner.archive)

    def test_non_incremental_reprobes_everything(self):
        tool, targets, _ = _radar_setup()
        result = RadarRunner(tool, targets, rounds=2, incremental=False).run()
        assert all(r.full for r in result.rounds)
        assert [len(r.probed_targets) for r in result.rounds] == \
            [len(targets)] * 2


class TestChurningRadar:
    def test_incremental_rounds_shrink(self):
        tool, targets, _ = _radar_setup(churn=True)
        result = RadarRunner(tool, targets, rounds=3).run()
        assert result.rounds[0].full
        assert result.rounds[0].mutations_seen == 0
        # Round 0's probes crossed the mutation epochs; round 1 sees them
        # and re-probes only the dirty slice of the target set.
        assert result.rounds[1].mutations_seen > 0
        assert not result.rounds[1].full
        assert 0 < len(result.rounds[1].probed_targets) < len(targets)

    def test_churn_radar_is_deterministic(self):
        runs = []
        for _ in range(2):
            tool, targets, _ = _radar_setup(churn=True)
            runs.append(RadarRunner(tool, targets, rounds=3).run())
        assert runs[0].to_dict() == runs[1].to_dict()
        assert archive_to_dict(runs[0].final_archive) == \
            archive_to_dict(runs[1].final_archive)

    def test_diff_matches_offline_recomputation(self):
        """tracenet diff over dumped archives == the in-run diff."""
        tool, targets, _ = _radar_setup(churn=True)
        result = RadarRunner(tool, targets, rounds=2).run()
        old = archive_from_dict(archive_to_dict(result.rounds[0].archive))
        new = archive_from_dict(archive_to_dict(result.rounds[1].archive))
        assert diff_archives(old, new).to_dict() == \
            result.rounds[1].diff.to_dict()

    def test_degraded_traces_reprobed_next_round(self):
        tool, targets, _ = _radar_setup(churn=True)
        result = RadarRunner(tool, targets, rounds=3).run()
        degraded_round0 = {t.destination
                           for t in result.rounds[0].archive.traces
                           if t.degraded}
        # Mid-survey churn degrades some round-0 traces...
        assert degraded_round0
        # ...and every one of them is on round 1's re-probe list.
        assert degraded_round0 <= set(result.rounds[1].probed_targets)

    def test_vanished_subnets_emit_retractions(self):
        tool, targets, _ = _radar_setup(churn=True)
        retracted = []

        class _Sink:
            interests = (SubnetRetracted,)

            def __call__(self, event):
                retracted.append(event)

        tool.events.subscribe(_Sink())
        result = RadarRunner(tool, targets, rounds=3).run()
        vanished = [change.prefix for diff in result.diffs
                    for change in diff.vanished]
        assert sorted(e.prefix for e in retracted) == sorted(vanished)


class TestChaosRadar:
    def test_chaos_run_is_crash_free_and_audited(self):
        tool, targets, _ = _radar_setup(churn=True, drop_rate=0.05)
        inst = instrument(tool.events, audit=True)
        result = RadarRunner(tool, targets, rounds=3).run()
        assert len(result.rounds) == 3
        assert inst.auditor.violations == 0
        # Degradation markers survive with consistent confidence fields.
        final = result.final_archive
        for trace in final.traces:
            if trace.degraded:
                assert trace.confidence < 1.0
                assert trace.degraded_reasons
        # The chaos archive still round-trips losslessly.
        payload = archive_to_dict(final)
        assert archive_to_dict(archive_from_dict(payload)) == payload

    def test_chaos_run_is_deterministic(self):
        runs = []
        for _ in range(2):
            tool, targets, _ = _radar_setup(churn=True, drop_rate=0.05)
            runs.append(RadarRunner(tool, targets, rounds=3).run())
        assert runs[0].to_dict() == runs[1].to_dict()


class TestRadarReplay:
    def test_live_and_replay_are_bit_identical(self):
        journal = io.StringIO()
        live_events = []
        tool, targets, _ = _radar_setup(churn=True, drop_rate=0.05,
                                        journal=journal)
        tool.events.subscribe(live_events.append)
        live = RadarRunner(tool, targets, rounds=3).run()

        replay_bus = EventBus()
        replay_events = []
        replay_bus.subscribe(replay_events.append)
        schedule = MutationSchedule.generate(
            geant.build(seed=2010).topology, **CHURN)
        replay_transport = MutatingTransport(
            ReplayTransport(io.StringIO(journal.getvalue())),
            schedule, dynamics=None, events=replay_bus)
        replay_tool = TraceNET(replay_transport, "utdallas",
                               events=replay_bus)
        replayed = RadarRunner(replay_tool, targets, rounds=3).run()

        assert replayed.to_dict() == live.to_dict()
        assert archive_to_dict(replayed.final_archive) == \
            archive_to_dict(live.final_archive)
        assert [event_to_dict(e) for e in replay_events] == \
            [event_to_dict(e) for e in live_events]


class TestMutationPrefixes:
    def test_global_kinds_have_unbounded_blast_radius(self):
        assert mutation_prefixes(
            [TopologyMutated(epoch=1, sequence=0, kind="ecmp",
                             target="R1", detail=None)]) is None

    def test_missing_detail_is_conservative(self):
        assert mutation_prefixes(
            [TopologyMutated(epoch=1, sequence=0, kind="link-down",
                             target="x", detail=None)]) is None

    def test_prefixes_collected_from_details(self):
        blocks = mutation_prefixes([
            TopologyMutated(epoch=1, sequence=0, kind="link-down",
                            target="x", detail={"prefix": "10.0.0.0/30"}),
            TopologyMutated(epoch=2, sequence=1, kind="router-down",
                            target="R9",
                            detail={"prefixes": ["10.0.1.0/30"]}),
            TopologyMutated(epoch=3, sequence=2, kind="renumber",
                            target="s1",
                            detail={"old_prefix": "10.0.2.0/29",
                                    "new_prefix": "198.18.0.0/29"}),
        ])
        assert sorted(str(b) for b in blocks) == [
            "10.0.0.0/30", "10.0.1.0/30", "10.0.2.0/29", "198.18.0.0/29"]

    def test_rounds_validation(self):
        tool, targets, _ = _radar_setup()
        with pytest.raises(ValueError):
            RadarRunner(tool, targets, rounds=0)


BASE = parse_ip("10.0.0.0")
_blocks = st.builds(lambda offset, length: Prefix.containing(BASE + offset,
                                                             length),
                    st.integers(min_value=0, max_value=1023),
                    st.integers(min_value=22, max_value=32))


def _parsed(*texts):
    return [Prefix.parse(text) for text in texts]


class TestBlockIndex:
    """One bisect into the merged intervals answers exactly as testing
    every mutated block in turn does."""

    @given(blocks=st.lists(_blocks, max_size=8),
           offsets=st.lists(st.integers(min_value=-8, max_value=1100),
                            max_size=24),
           probes=st.lists(_blocks, max_size=8))
    @example(blocks=_parsed("10.0.0.0/24", "10.0.0.64/26"),  # nested
             offsets=[63, 64, 127, 128, 255, 256], probes=[])
    @example(blocks=_parsed("10.0.0.128/25", "10.0.0.0/25"),  # adjacent
             offsets=[-1, 0, 127, 128, 255, 256],
             probes=_parsed("10.0.0.0/24", "10.0.1.0/30"))
    @example(blocks=_parsed("10.0.0.0/30", "10.0.2.0/30"),  # disjoint
             offsets=[3, 4, 511, 512, 515, 516],
             probes=_parsed("10.0.1.0/24", "10.0.0.0/22"))
    @settings(deadline=None)
    def test_matches_per_block_prefix_test(self, blocks, offsets, probes):
        index = _BlockIndex(blocks)
        assert bool(index) == bool(blocks)
        addresses = [BASE + offset for offset in offsets]
        for block in blocks:
            addresses += [block.network - 1, block.network,
                          block.broadcast, block.broadcast + 1]
        for address in addresses:
            assert (address in index) == any(address in block
                                              for block in blocks)
        for probe in probes + blocks:
            assert index.overlaps(probe) == any(probe.overlaps(block)
                                                for block in blocks)
