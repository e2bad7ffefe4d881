"""Unit tests for the shard primitives behind the survey service.

The determinism contract: a sharded run merged back together collects the
same subnets and traces as one serial run over the same target list, and a
re-run against existing shard checkpoints resumes without re-probing.
"""

import os

import pytest

from inline_shards import run_inline_shards
from repro.core import TraceNET
from repro.netsim import Engine
from repro.parallel import (
    ShardSpec,
    archive_signature,
    archives_equivalent,
    merge_probe_stats,
    run_shard,
    shard_targets,
)
from repro.probing import ProbeStats
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
def serial_archive(network, targets):
    tool = TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas")
    runner = SurveyRunner(tool)
    runner.run(targets)
    return runner.archive


class TestShardTargets:
    def test_balanced_contiguous_split(self):
        slices = shard_targets(list(range(10)), 3)
        assert slices == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_shards_than_targets(self):
        slices = shard_targets([1, 2], 5)
        assert slices == [[1], [2]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_targets([1], 0)

    def test_deterministic(self):
        assert shard_targets(list(range(7)), 2) == shard_targets(
            list(range(7)), 2)


class TestShardSpec:
    def test_round_trip_builds_equivalent_tool(self, network):
        spec = ShardSpec.from_network(network.topology, network.policy,
                                      "utdallas")
        tool = spec.build_tool()
        assert tool.vantage_host_id == "utdallas"
        assert len(tool.engine.topology.routers) == len(
            network.topology.routers)


class TestParallelEquivalence:
    def test_two_workers_match_serial_content(self, spec, targets,
                                              serial_archive):
        outcome = run_inline_shards(spec, targets, 2)
        assert len(outcome.shards) == 2
        assert archives_equivalent(serial_archive, outcome.archive)
        assert outcome.stats.sent > 0
        assert len(outcome.archive.traces) == len(targets)

    def test_signature_ignores_probe_counts(self, serial_archive):
        sig = archive_signature(serial_archive)
        assert "probes" not in str(sig.keys())
        assert sig == archive_signature(serial_archive)


class TestShardCheckpoints:
    def test_rerun_resumes_from_shard_checkpoints(self, spec, targets,
                                                  tmp_path):
        checkpoint_dir = str(tmp_path / "shards")
        outcome = run_inline_shards(spec, targets, 2,
                                    checkpoint_dir=checkpoint_dir,
                                    checkpoint_every=3)
        for index in range(2):
            assert (tmp_path / "shards" / f"shard-{index}.json").exists()

        # A second run over the same directory resumes every shard:
        # nothing is re-probed, the merged archive is unchanged.
        resumed = run_inline_shards(spec, targets, 2,
                                    checkpoint_dir=checkpoint_dir,
                                    checkpoint_every=3)
        assert resumed.stats.sent == 0
        assert archives_equivalent(outcome.archive, resumed.archive)

    def test_partial_checkpoint_resume_matches_uninterrupted(
            self, spec, targets, tmp_path, serial_archive):
        # Interrupt: survey only each shard's first half, checkpointing
        # into the same shard file the full run will use.
        checkpoint_dir = str(tmp_path / "partial")
        os.makedirs(checkpoint_dir)
        for index, full in enumerate(shard_targets(targets, 2)):
            half = full[:len(full) // 2]
            run_shard(spec, index, half,
                      os.path.join(checkpoint_dir, f"shard-{index}.json"),
                      checkpoint_every=2)

        resumed = run_inline_shards(spec, targets, 2,
                                    checkpoint_dir=checkpoint_dir)
        assert archives_equivalent(serial_archive, resumed.archive)


class TestMergeStats:
    def test_probe_stats_summed(self):
        a = ProbeStats(sent=5, responses=4, silent=1, by_phase={"p": 2})
        b = ProbeStats(sent=3, responses=3, by_phase={"p": 1, "q": 4})
        total = merge_probe_stats([a, b])
        assert total.sent == 8
        assert total.responses == 7
        assert total.by_phase == {"p": 3, "q": 4}


class TestShardTargetsEdgeCases:
    def test_empty_target_list_yields_one_empty_shard(self):
        assert shard_targets([], 3) == [[]]

    def test_duplicate_targets_preserved_in_order(self):
        assert shard_targets([5, 5, 7, 5], 2) == [[5, 5], [7, 5]]

    def test_shards_capped_at_target_count(self):
        slices = shard_targets([1, 2, 3], 10)
        assert slices == [[1], [2], [3]]


class TestTypedStopSets:
    def test_outcomes_carry_typed_stop_sets(self, network, targets):
        from repro.probing import StopSet

        spec = ShardSpec.from_network(network.topology, network.policy,
                                      "utdallas", use_stop_sets=True)
        outcome = run_inline_shards(spec, targets, 2)
        assert isinstance(outcome.stop_set, StopSet)
        for shard in outcome.shards:
            assert isinstance(shard.stop_set, StopSet)
        assert outcome.stop_set.recorded >= max(
            shard.stop_set.recorded for shard in outcome.shards)

    def test_outcomes_without_stop_sets_stay_none(self, spec, targets):
        outcome = run_inline_shards(spec, targets[:6], 2)
        assert outcome.stop_set is None
        for shard in outcome.shards:
            assert shard.stop_set is None
