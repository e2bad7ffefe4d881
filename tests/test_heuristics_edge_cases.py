"""Tests for the heuristic pipeline's hardening branches and edge cases:
the H5 contra-pivot detection, H8's tentative-contra designation, and
behaviour under alternative router response configurations."""

import pytest

from conftest import address_on
from repro.core import TraceNET
from repro.core.exploration import explore_subnet
from repro.core.heuristics import (
    ExplorationState,
    Verdict,
    _passes_h4,
    heuristic_h5,
)
from repro.core.positioning import position_subnet
from repro.events import CollectingSink, HeuristicFired
from repro.netsim import Engine, TopologyBuilder
from repro.netsim.addressing import mate30, mate31
from repro.netsim.router import IndirectConfig
from repro.probing import Prober


def p2p_chain():
    """vantage - R1 - R2 - R3 with an extra parallel /30 pair off R2."""
    builder = TopologyBuilder("p2p")
    builder.link("R1", "R2")
    link = builder.link("R2", "R3", prefix="10.9.0.0/30")
    sibling = builder.link("R2", "R7", prefix="10.9.0.4/30")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return topo, link, sibling


class TestH5ContraDetection:
    def test_p2p_mate_recorded_as_contra(self):
        """On a /30 link the pivot's mate answers one hop closer: H5 must
        designate it contra-pivot so H3 stays armed."""
        topo, link, sibling = p2p_chain()
        engine = Engine(topo)
        prober = Prober(engine, "v")
        pivot = topo.routers["R3"].interface_on(link.subnet_id).address
        u = address_on(topo, "R2", "R1")
        position = position_subnet(prober, u, pivot, 3)
        state = ExplorationState(prober=prober, pivot=position.pivot,
                                 pivot_distance=position.pivot_distance,
                                 ingress=position.ingress,
                                 trace_entry=u,
                                 on_trace_path=position.on_trace_path)
        judgement = heuristic_h5(state, mate30(position.pivot))
        assert judgement is not None
        assert judgement.verdict == Verdict.ADD_CONTRA

    def test_sibling_p2p_does_not_merge(self):
        """The armed contra-pivot stops the parallel /30 from merging."""
        topo, link, sibling = p2p_chain()
        engine = Engine(topo)
        prober = Prober(engine, "v")
        pivot = topo.routers["R3"].interface_on(link.subnet_id).address
        u = address_on(topo, "R2", "R1")
        position = position_subnet(prober, u, pivot, 3)
        subnet = explore_subnet(prober, position)
        assert subnet.prefix == link.prefix
        assert all(member in link.prefix for member in subnet.members)

    def test_lan_mate_not_contra(self):
        """On a LAN the pivot's mate is a same-distance member, not the
        contra-pivot."""
        builder = TopologyBuilder("lan")
        builder.link("R1", "R2")
        lan = builder.lan(["R2", "R3", "R4", "R6"], length=29)
        builder.edge_host("v", "R1")
        topo = builder.build()
        engine = Engine(topo)
        prober = Prober(engine, "v")
        pivot = topo.routers["R4"].interface_on(lan.subnet_id).address
        u = address_on(topo, "R2", "R1")
        position = position_subnet(prober, u, pivot, 3)
        state = ExplorationState(prober=prober, pivot=position.pivot,
                                 pivot_distance=position.pivot_distance,
                                 ingress=position.ingress, trace_entry=u,
                                 on_trace_path=position.on_trace_path)
        mate = mate31(position.pivot)
        if topo.interface_at(mate) is None:
            mate = mate30(position.pivot)
        judgement = heuristic_h5(state, mate)
        assert judgement is not None
        assert judgement.verdict == Verdict.ADD


class TestPassesH4:
    def test_distance_two_always_passes(self):
        state = ExplorationState(prober=None, pivot=1, pivot_distance=2)
        assert _passes_h4(state, 42)

    def test_alive_two_closer_fails(self):
        builder = TopologyBuilder()
        builder.link("R1", "R2")
        builder.link("R2", "R3")
        builder.edge_host("v", "R1")
        topo = builder.build()
        prober = Prober(Engine(topo), "v")
        r1_address = address_on(topo, "R1", "R2")
        state = ExplorationState(prober=prober, pivot=1, pivot_distance=3)
        assert not _passes_h4(state, r1_address)


class TestResponseConfigVariety:
    @pytest.mark.parametrize("config", [IndirectConfig.SHORTEST_PATH,
                                        IndirectConfig.DEFAULT])
    def test_survey_accuracy_with_mixed_configs(self, config):
        """Whole-path collection still resolves the on-path subnets when a
        mid-path router uses a non-incoming response configuration."""
        builder = TopologyBuilder("mixed")
        builder.link("R1", "R2")
        builder.link("R2", "R3")
        # Four of six hosts assigned: above Algorithm 1's half-utilization
        # stop, so the LAN must come back as the exact /29.
        lan = builder.lan(["R3", "R4", "R5", "R7"], length=29)
        stub = builder.link("R4", "R6")
        builder.edge_host("v", "R1")
        topo = builder.build()
        topo.routers["R3"].indirect_config = config
        tool = TraceNET(Engine(topo), "v")
        target = topo.routers["R6"].interface_on(stub.subnet_id).address
        result = tool.trace(target)
        assert result.reached
        # The LAN must be discovered regardless of how R3 reports itself.
        blocks = {s.prefix for s in tool.collected_subnets if s.size > 1}
        assert lan.prefix in blocks

    def test_default_config_triggers_mate_positioning(self):
        """A DEFAULT-configured router reporting a far-side-facing address
        exercises Algorithm 2's mate-pivot branch; the subnet is still
        collected exactly and trace_address records the promotion."""
        builder = TopologyBuilder("mate")
        builder.link("R1", "R2")
        builder.link("R2", "R3")
        south = builder.link("R3", "R5", length=31)
        builder.link("R3", "R4")
        builder.edge_host("v", "R1")
        topo = builder.build()
        r3_south = topo.routers["R3"].interface_on(south.subnet_id).address
        topo.routers["R3"].indirect_config = IndirectConfig.DEFAULT
        topo.routers["R3"].default_address = r3_south
        tool = TraceNET(Engine(topo), "v")
        target = address_on(topo, "R4", "R3")
        tool.trace(target)
        south_view = [s for s in tool.collected_subnets
                      if s.prefix == south.prefix]
        assert south_view
        subnet = south_view[0]
        assert subnet.trace_address == r3_south
        assert subnet.pivot != subnet.trace_address  # the mate was promoted


class TestAuditPlumbing:
    def test_tracenet_audit_disabled_by_default(self):
        topo, link, sibling = p2p_chain()
        tool = TraceNET(Engine(topo), "v")
        target = topo.routers["R3"].interface_on(link.subnet_id).address
        tool.trace(target)  # must not raise with no sink attached

    def test_explore_audit_records_every_candidate(self):
        topo, link, sibling = p2p_chain()
        prober = Prober(Engine(topo), "v")
        pivot = topo.routers["R3"].interface_on(link.subnet_id).address
        u = address_on(topo, "R2", "R1")
        position = position_subnet(prober, u, pivot, 3)
        audit = prober.events.subscribe(CollectingSink(HeuristicFired))
        explore_subnet(prober, position)
        assert audit.events
        candidates = [event.candidate for event in audit.events]
        assert len(candidates) == len(set(candidates))
