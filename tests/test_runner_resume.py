"""Checkpoint-resume equivalence for the serial survey runner.

An interrupted survey resumed from its checkpoint must end with the same
collected content (subnets and traces) as a never-interrupted run, and
re-entering ``run`` must not inherit stale per-run counters.
"""

import pytest

from repro.core import TraceNET
from repro.mapping import archives_equivalent
from repro.netsim import Engine
from repro.runner import SurveyRunner
from repro.topogen import internet2


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:20]


def make_tool(network):
    return TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas")


class TestResumeEquivalence:
    def test_interrupted_resume_matches_uninterrupted(self, network,
                                                      targets, tmp_path):
        uninterrupted = SurveyRunner(make_tool(network))
        uninterrupted.run(targets)

        # "Interrupt" after the first half, then resume with a fresh tool
        # (a new process would rebuild everything from the checkpoint).
        path = str(tmp_path / "survey.json")
        first = SurveyRunner(make_tool(network), checkpoint_path=path,
                             checkpoint_every=2)
        first.run(targets[:len(targets) // 2])

        resumed = SurveyRunner(make_tool(network), checkpoint_path=path,
                               checkpoint_every=2)
        progress = resumed.run(targets)
        assert progress.skipped == len(targets) // 2
        assert progress.completed == len(targets) - len(targets) // 2
        assert archives_equivalent(uninterrupted.archive, resumed.archive)

    def test_resume_skips_probing_entirely_when_done(self, network,
                                                     targets, tmp_path):
        path = str(tmp_path / "survey.json")
        SurveyRunner(make_tool(network), checkpoint_path=path).run(targets)

        tool = make_tool(network)
        resumed = SurveyRunner(tool, checkpoint_path=path)
        progress = resumed.run(targets)
        assert progress.skipped == len(targets)
        assert progress.completed == 0
        assert tool.prober.stats.sent == 0


class TestRunReentry:
    def test_second_run_resets_per_run_counters(self, network, targets):
        # Regression: run() used to keep accumulating completed/skipped
        # across calls, driving ``remaining`` negative on re-entry.
        runner = SurveyRunner(make_tool(network))
        runner.run(targets[:6])
        progress = runner.run(targets[:6])
        assert progress.total_targets == 6
        assert progress.completed == 0
        assert progress.skipped == 6
        assert progress.remaining == 0

    def test_reentry_with_longer_list_counts_only_new_work(self, network,
                                                           targets):
        runner = SurveyRunner(make_tool(network))
        runner.run(targets[:4])
        progress = runner.run(targets[:10])
        assert progress.total_targets == 10
        assert progress.skipped == 4
        assert progress.completed == 6
        assert progress.remaining == 0
