"""Unit tests for the shard primitives behind the survey service.

A shard is one vantage's survey of its whole target list: its archive
serializes to the same bytes as a serial :class:`SurveyRunner` run, and a
re-run against an existing checkpoint resumes without re-probing.
"""

import pytest

from repro.core import TraceNET
from repro.mapping import archive_to_dict
from repro.netsim import Engine
from repro.parallel import (
    ShardSpec,
    archive_signature,
    archives_equivalent,
    outcome_from_payload,
    run_shard,
)
from repro.probing import StopSet
from repro.runner import SurveyRunner
from repro.topogen import internet2


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:24]


@pytest.fixture(scope="module")
def spec(network):
    return ShardSpec.from_network(network.topology, network.policy,
                                  "utdallas")


@pytest.fixture(scope="module")
def serial_run(network, targets):
    tool = TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas")
    runner = SurveyRunner(tool)
    runner.run(targets)
    return runner.archive, tool.prober.stats.sent


def run_one(spec, targets, checkpoint_path=None, checkpoint_every=25):
    """One shard through the payload boundary, as the coordinator sees it."""
    payload = run_shard(spec, 0, targets, checkpoint_path, checkpoint_every)
    return outcome_from_payload(0, targets, payload)


class TestShardSpec:
    def test_round_trip_builds_equivalent_tool(self, network):
        spec = ShardSpec.from_network(network.topology, network.policy,
                                      "utdallas")
        tool = spec.build_tool()
        assert tool.vantage_host_id == "utdallas"
        assert len(tool.engine.topology.routers) == len(
            network.topology.routers)


class TestParallelEquivalence:
    def test_shard_matches_serial_bytes(self, spec, targets, serial_run):
        serial_archive, serial_sent = serial_run
        outcome = run_one(spec, targets)
        assert archive_to_dict(outcome.archive) == \
            archive_to_dict(serial_archive)
        assert outcome.stats.sent == serial_sent
        assert len(outcome.archive.traces) == len(targets)

    def test_signature_ignores_probe_counts(self, serial_run):
        serial_archive, _ = serial_run
        sig = archive_signature(serial_archive)
        assert "probes" not in str(sig.keys())
        assert sig == archive_signature(serial_archive)


class TestShardCheckpoints:
    def test_rerun_resumes_from_shard_checkpoints(self, spec, targets,
                                                  tmp_path):
        checkpoint = tmp_path / "shard-0.json"
        outcome = run_one(spec, targets, str(checkpoint), checkpoint_every=3)
        assert checkpoint.exists()

        # A second run over the same checkpoint resumes: nothing is
        # re-probed and the archive is unchanged.
        resumed = run_one(spec, targets, str(checkpoint), checkpoint_every=3)
        assert resumed.stats.sent == 0
        assert archives_equivalent(outcome.archive, resumed.archive)

    def test_partial_checkpoint_resume_matches_uninterrupted(
            self, spec, targets, tmp_path, serial_run):
        # Interrupt: survey only the first half, checkpointing into the
        # file the full run will use.
        checkpoint = str(tmp_path / "shard-0.json")
        run_one(spec, targets[:len(targets) // 2], checkpoint,
                checkpoint_every=2)

        resumed = run_one(spec, targets, checkpoint)
        assert archives_equivalent(serial_run[0], resumed.archive)


class TestTypedStopSets:
    def test_outcomes_carry_typed_stop_sets(self, network, targets):
        spec = ShardSpec.from_network(network.topology, network.policy,
                                      "utdallas", use_stop_sets=True)
        outcome = run_one(spec, targets)
        assert isinstance(outcome.stop_set, StopSet)
        assert outcome.stop_set.recorded > 0
        assert outcome.stop_set.suppressed == outcome.stats.suppressed

    def test_outcomes_without_stop_sets_stay_none(self, spec, targets):
        outcome = run_one(spec, targets[:6])
        assert outcome.stop_set is None
