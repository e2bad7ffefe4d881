"""Unit tests for a survey run built from its description.

A :class:`~repro.runspec.RunSpec` over a target list, run through
``RunSpec.build`` → ``Run.execute``, collects an archive that serializes
to the same bytes as a hand-wired serial :class:`SurveyRunner` run, and a
re-run against an existing checkpoint resumes without re-probing.
"""

import pytest

from repro.core import TraceNET
from repro.mapping import archive_signature, archive_to_dict, \
    archives_equivalent
from repro.netsim import Engine
from repro.probing import StopSet
from repro.runner import SurveyRunner
from repro.runspec import RunSpec
from repro.topogen import internet2


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:24]


@pytest.fixture(scope="module")
def spec():
    return RunSpec.from_flags("survey", network="internet2", seed=13)


@pytest.fixture(scope="module")
def serial_run(network, targets):
    tool = TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas")
    runner = SurveyRunner(tool)
    runner.run(targets)
    return runner.archive, tool.prober.stats.sent


def run_one(spec, targets, checkpoint_path=None, checkpoint_every=25):
    """``spec``'s run over ``targets``, as ``tracenet survey`` executes it:
    the archive and the collector (its prober counters and stop set)."""
    run = spec.build(targets=targets)
    archive = run.execute(checkpoint_path=checkpoint_path,
                          checkpoint_every=checkpoint_every)
    return archive, run.tool


class TestParallelEquivalence:
    def test_shard_matches_serial_bytes(self, spec, targets, serial_run):
        serial_archive, serial_sent = serial_run
        archive, tool = run_one(spec, targets)
        assert archive_to_dict(archive) == archive_to_dict(serial_archive)
        assert tool.prober.stats.sent == serial_sent
        assert len(archive.traces) == len(targets)

    def test_signature_ignores_probe_counts(self, serial_run):
        serial_archive, _ = serial_run
        sig = archive_signature(serial_archive)
        assert "probes" not in str(sig.keys())
        assert sig == archive_signature(serial_archive)


class TestShardCheckpoints:
    def test_rerun_resumes_from_shard_checkpoints(self, spec, targets,
                                                  tmp_path):
        checkpoint = tmp_path / "shard-0.json"
        archive, _ = run_one(spec, targets, str(checkpoint),
                             checkpoint_every=3)
        assert checkpoint.exists()

        # A second run over the same checkpoint resumes: nothing is
        # re-probed and the archive is unchanged.
        resumed, tool = run_one(spec, targets, str(checkpoint),
                                checkpoint_every=3)
        assert tool.prober.stats.sent == 0
        assert archives_equivalent(archive, resumed)

    def test_partial_checkpoint_resume_matches_uninterrupted(
            self, spec, targets, tmp_path, serial_run):
        # Interrupt: survey only the first half, checkpointing into the
        # file the full run will use.
        checkpoint = str(tmp_path / "shard-0.json")
        run_one(spec, targets[:len(targets) // 2], checkpoint,
                checkpoint_every=2)

        resumed, _ = run_one(spec, targets, checkpoint)
        assert archives_equivalent(serial_run[0], resumed)


class TestTypedStopSets:
    def test_outcomes_carry_typed_stop_sets(self, spec, targets):
        stopped = RunSpec("survey", network="internet2", seed=13,
                          vantage="utdallas", collector={"stop_sets": True})
        _, tool = run_one(stopped, targets)
        assert isinstance(tool.stop_set, StopSet)
        assert tool.stop_set.recorded > 0
        assert tool.stop_set.suppressed == tool.prober.stats.suppressed
        assert tool.stop_set.counters()["suppressed"] == \
            tool.prober.stats.suppressed

    def test_outcomes_without_stop_sets_stay_none(self, spec, targets):
        _, tool = run_one(spec, targets[:6])
        assert tool.stop_set is None
