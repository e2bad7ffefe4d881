"""Integration-grade unit tests for the TraceNET tool itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import address_on
from repro.core import ObservedSubnet, TraceNET
from repro.core.tracenet import ANONYMOUS_GAP_LIMIT
from repro.netsim import (
    Engine,
    IndirectConfig,
    Protocol,
    ResponsePolicy,
    TopologyBuilder,
)


def path_topology():
    """vantage - R1 - R2 - LAN{R2,R3,R4,R6}/29 - R4 - R5 (dest stub)."""
    builder = TopologyBuilder("path")
    builder.link("R1", "R2")
    lan = builder.lan(["R2", "R3", "R4", "R6"], length=29)
    dest = builder.link("R4", "R5")
    builder.edge_host("v", "R1")
    topo = builder.build()
    target = topo.routers["R5"].interface_on(dest.subnet_id).address
    return topo, lan, dest, target


class TestTrace:
    def test_reaches_destination(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(target)
        assert result.reached
        assert result.hops[-1].is_destination
        assert result.hops[-1].address == target

    def test_every_hop_annotated_with_subnet(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(target)
        assert all(hop.subnet is not None for hop in result.hops
                   if hop.address is not None)

    def test_lan_fully_discovered_on_path(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(target)
        lan_subnet = result.subnet_for(
            topo.routers["R3"].interface_on(lan.subnet_id).address)
        assert lan_subnet is not None
        assert lan_subnet.members == set(lan.addresses)

    def test_collects_more_addresses_than_traceroute(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(target)
        # The traceroute view is one address per hop; tracenet must add
        # the off-path LAN members (R3, R6 interfaces at minimum).
        trace_view = {a for a in result.path_addresses if a is not None}
        assert trace_view < result.addresses
        assert len(result.addresses) >= len(trace_view) + 2

    def test_unreachable_destination(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(0x01010101)
        assert not result.reached

    def test_probe_count_recorded(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(target)
        assert result.probes_sent > 0
        assert result.probes_sent == tool.prober.stats.sent

    def test_anonymous_gap_ends_trace(self):
        topo, lan, dest, target = path_topology()
        policy = ResponsePolicy().silence_router("R5")
        topo.routers["R5"].indirect_config = IndirectConfig.NIL
        tool = TraceNET(Engine(topo, policy=policy), "v")
        result = tool.trace(target)
        assert not result.reached
        trailing = [hop for hop in result.hops if hop.address is None]
        assert len(trailing) == ANONYMOUS_GAP_LIMIT

    def test_anonymous_hop_recorded_mid_path(self):
        topo, lan, dest, target = path_topology()
        topo.routers["R2"].indirect_config = IndirectConfig.NIL
        tool = TraceNET(Engine(topo), "v")
        result = tool.trace(target)
        assert result.reached
        assert any(hop.address is None for hop in result.hops)


class TestSubnetReuse:
    def test_shared_path_subnets_not_reexplored(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        tool.trace(target)
        count_after_first = len(tool.collected_subnets)
        other = address_on(topo, "R6", "R3")  # another LAN member
        tool.trace(other)
        # The second trace crosses only already-known subnets.
        assert len(tool.collected_subnets) == count_after_first

    def test_reuse_disabled_duplicates_work(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v", reuse_subnets=False)
        tool.trace(target)
        first = len(tool.collected_subnets)
        tool.trace(target)
        assert len(tool.collected_subnets) > first

    def test_collected_addresses_union(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        tool.trace(target)
        assert set(lan.addresses) <= tool.collected_addresses

    def test_evict_asks_the_predicate_once_per_subnet(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        tool.trace(target)
        before = tool.collected_subnets
        asked = []

        def on_lan(subnet):
            asked.append(subnet)
            return subnet.pivot in lan.addresses

        evicted = tool.evict_subnets(on_lan)
        assert asked == before
        assert evicted and all(s.pivot in lan.addresses for s in evicted)
        assert tool.collected_subnets == [s for s in before
                                          if s not in evicted]
        assert not set(lan.addresses) & tool.collected_addresses
        # The next trace through the LAN explores it again.
        tool.trace(target)
        assert set(lan.addresses) <= tool.collected_addresses


_BASE = 10 << 24


def _observed(offset, length):
    pivot = _BASE + offset
    return ObservedSubnet(pivot=pivot, pivot_distance=1, members={pivot},
                          prefix_length=length)


class TestNestedBlocks:
    """A new block evicts the registered subnets it strictly contains,
    found through the sorted pivot index: the same subnets a scan of every
    registered subnet evicts, in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(registered=st.lists(st.tuples(st.integers(0, 255),
                                         st.integers(24, 32)),
                               max_size=25),
           evict_every=st.integers(2, 7),
           block=st.tuples(st.integers(0, 255), st.integers(24, 32)))
    def test_index_matches_a_scan(self, registered, evict_every, block):
        topo, _, _, _ = path_topology()
        tool = TraceNET(Engine(topo), "v")
        for index, (offset, length) in enumerate(registered):
            tool.register_subnet(_observed(offset, length))
            if index % evict_every == evict_every - 1:
                # Evictions keep the index in step with the registry.
                tool.evict_subnets(lambda s: s.pivot % 3 == 0)
        new = _observed(*block).prefix
        scanned = [s for s in tool.collected_subnets
                   if not (new.length < 32
                           and new.network <= s.pivot <= new.broadcast
                           and s.prefix.length > new.length)]
        tool._evict_nested(new)
        assert tool.collected_subnets == scanned
        index = {}
        for subnet in scanned:
            for member in subnet.members:
                index.setdefault(member, subnet)
        assert tool._member_index == index


class TestProtocols:
    @pytest.mark.parametrize("protocol", [Protocol.ICMP, Protocol.UDP,
                                          Protocol.TCP])
    def test_all_protocols_work_on_responsive_network(self, protocol):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v", protocol=protocol)
        result = tool.trace(target)
        assert result.reached

    def test_udp_refusals_lose_subnets(self):
        topo, lan, dest, target = path_topology()
        policy = ResponsePolicy()
        for router_id in ("R3", "R4", "R5", "R6"):
            policy.refuse_protocol(router_id, Protocol.UDP)
        icmp_tool = TraceNET(Engine(topo, policy=policy), "v",
                             protocol=Protocol.ICMP)
        udp_tool = TraceNET(Engine(topo, policy=policy), "v",
                            protocol=Protocol.UDP)
        icmp_found = {s.prefix for s in
                      (icmp_tool.trace(target), )[0].subnets if s.size > 1}
        udp_found = {s.prefix for s in udp_tool.trace(target).subnets
                     if s.size > 1}
        assert len(udp_found) < len(icmp_found)


class TestResultRendering:
    def test_describe_contains_hops_and_subnets(self):
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        text = tool.trace(target).describe()
        assert "tracenet to" in text
        assert "/29" in text
        assert "destination" in text

    def test_to_dict_roundtrips_json(self):
        import json
        topo, lan, dest, target = path_topology()
        tool = TraceNET(Engine(topo), "v")
        payload = tool.trace(target).to_dict()
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["reached"] is True
        assert decoded["hops"][-1]["is_destination"] is True
