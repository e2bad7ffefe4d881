"""Unit tests for the adversarial gauntlet and heuristic ablation wiring."""

import pytest

from repro.core import TraceNET
from repro.core.heuristics import ExplorationState
from repro.events import CollectingSink, HeuristicFired
from repro.netsim import Engine
from repro.probing import Prober
from repro.topogen.adversarial import build_gauntlet


@pytest.fixture(scope="module")
def gauntlet():
    return build_gauntlet(seed=5, motifs_per_kind=2)


def survey(gauntlet, disabled=frozenset()):
    engine = Engine(gauntlet.network.topology, policy=gauntlet.network.policy)
    tool = TraceNET(engine, "vantage", disabled_rules=disabled)
    tool.trace_many(gauntlet.targets)
    return tool


class TestGauntletStructure:
    def test_motif_counts(self, gauntlet):
        assert gauntlet.counts() == {"sibling-lan": 2, "far-fringe": 2,
                                     "foreign-entry": 2}

    def test_topology_valid(self, gauntlet):
        gauntlet.network.topology.validate()

    def test_targets_inside_probed_lans(self, gauntlet):
        for motif in gauntlet.motifs:
            assert motif.target in motif.probed_lan

    def test_sibling_blocks_adjacent(self, gauntlet):
        for motif in gauntlet.motifs:
            parent = motif.probed_lan.parent()
            assert any(parent.contains_prefix(block)
                       for block in motif.sibling_blocks)


class TestDisabledRules:
    def test_rule_enabled_default(self):
        state = ExplorationState(prober=None, pivot=1, pivot_distance=2)
        assert state.rule_enabled("H6")

    def test_rule_disabled(self):
        state = ExplorationState(prober=None, pivot=1, pivot_distance=2,
                                 disabled_rules=frozenset({"H6"}))
        assert not state.rule_enabled("H6")
        assert state.rule_enabled("H7")

    def test_audit_records(self, gauntlet):
        from repro.core.heuristics import Judgement, Verdict
        prober = Prober(Engine(gauntlet.network.topology), "vantage")
        audit = prober.events.subscribe(CollectingSink(HeuristicFired))
        state = ExplorationState(prober=prober, pivot=1, pivot_distance=2)
        judgement = Judgement(Verdict.ADD, "test")
        state.record(42, judgement)
        assert audit.events == [HeuristicFired(
            candidate=42, rule="test", verdict="add", detail="")]


class TestAblationEffects:
    def test_full_pipeline_exact_everywhere(self, gauntlet):
        tool = survey(gauntlet)
        for motif in gauntlet.motifs:
            views = [s for s in tool.collected_subnets
                     if s.size > 1 and s.prefix == motif.probed_lan]
            assert views, motif.kind

    def test_no_h6_merges_foreign_entry(self, gauntlet):
        tool = survey(gauntlet, frozenset({"H6"}))
        for motif in gauntlet.motifs_of("foreign-entry"):
            merged = [s for s in tool.collected_subnets
                      if s.size > 1
                      and s.prefix.length < motif.probed_lan.length
                      and s.prefix.overlaps(motif.probed_lan)]
            assert merged

    def test_no_h3_merges_sibling_lans(self, gauntlet):
        tool = survey(gauntlet, frozenset({"H3", "H4"}))
        for motif in gauntlet.motifs_of("sibling-lan"):
            merged = [s for s in tool.collected_subnets
                      if s.size > 1
                      and s.prefix.length < motif.probed_lan.length
                      and s.prefix.overlaps(motif.probed_lan)]
            assert merged

    def test_h7_is_probe_economy_not_accuracy(self, gauntlet):
        tool = survey(gauntlet, frozenset({"H7"}))
        for motif in gauntlet.motifs_of("far-fringe"):
            exact = [s for s in tool.collected_subnets
                     if s.prefix == motif.probed_lan]
            assert exact
