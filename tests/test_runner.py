"""Unit tests for the checkpointing survey runner."""

import pytest

from repro.core import TraceNET
from repro.events import CollectingSink, SurveyProgressed
from repro.mapping import load_archive
from repro.netsim import Engine
from repro.runner import SurveyRunner
from repro.topogen import internet2


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:25]


def make_tool(network, **kwargs):
    return TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas", **kwargs)


class TestRun:
    def test_progress_counters(self, network, targets):
        runner = SurveyRunner(make_tool(network))
        progress = runner.run(targets)
        assert progress.completed == len(targets)
        assert progress.skipped == 0
        assert progress.reached > 0
        assert progress.probes_sent > 0
        assert progress.remaining == 0

    def test_traces_recorded(self, network, targets):
        runner = SurveyRunner(make_tool(network))
        runner.run(targets)
        assert len(runner.traces) == len(targets)

    def test_progress_hook_called(self, network, targets):
        tool = make_tool(network)
        seen = tool.events.subscribe(CollectingSink(SurveyProgressed))
        SurveyRunner(tool).run(targets[:5])
        assert len(seen.events) == 5

    def test_duplicate_targets_skipped(self, network, targets):
        runner = SurveyRunner(make_tool(network))
        doubled = list(targets[:5]) + list(targets[:5])
        progress = runner.run(doubled)
        assert progress.completed == 5
        assert progress.skipped == 5

    def test_describe(self, network, targets):
        runner = SurveyRunner(make_tool(network))
        progress = runner.run(targets[:3])
        assert "3/3 targets" in progress.describe()


class TestCheckpointing:
    def test_checkpoint_written(self, network, targets, tmp_path):
        path = str(tmp_path / "survey.json")
        runner = SurveyRunner(make_tool(network), checkpoint_path=path,
                              checkpoint_every=2)
        runner.run(targets[:6])
        archive = load_archive(path)
        assert archive.vantage == "utdallas"
        assert len(archive.traces) == 6
        assert len(archive.metadata["done_targets"]) == 6

    def test_resume_skips_done_targets(self, network, targets, tmp_path):
        path = str(tmp_path / "survey.json")
        first = SurveyRunner(make_tool(network), checkpoint_path=path)
        first.run(targets[:10])

        resumed_tool = make_tool(network)
        resumed = SurveyRunner(resumed_tool, checkpoint_path=path)
        progress = resumed.run(targets)
        assert progress.skipped == 10
        assert progress.completed == len(targets) - 10
        # The resumed tool reuses archived subnets instead of re-exploring.
        assert resumed_tool.collected_subnets

    def test_resume_rejects_foreign_vantage(self, network, targets, tmp_path):
        path = str(tmp_path / "survey.json")
        SurveyRunner(make_tool(network), checkpoint_path=path).run(targets[:2])
        other_network = internet2.build(seed=13, vantage="elsewhere")
        other_tool = TraceNET(
            Engine(other_network.topology, policy=other_network.policy),
            "elsewhere")
        with pytest.raises(ValueError):
            SurveyRunner(other_tool, checkpoint_path=path)

    def test_resumed_collection_equivalent_to_uninterrupted(self, network,
                                                            targets, tmp_path):
        """Interrupt + resume must converge to the same subnet inventory
        as a single uninterrupted run."""
        path = str(tmp_path / "survey.json")
        SurveyRunner(make_tool(network), checkpoint_path=path).run(targets[:12])
        resumed_tool = make_tool(network)
        SurveyRunner(resumed_tool, checkpoint_path=path).run(targets)

        straight_tool = make_tool(network)
        SurveyRunner(straight_tool).run(targets)

        resumed_blocks = {s.prefix for s in resumed_tool.collected_subnets
                          if s.size > 1}
        straight_blocks = {s.prefix for s in straight_tool.collected_subnets
                           if s.size > 1}
        assert resumed_blocks == straight_blocks
