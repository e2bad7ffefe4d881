"""Unit tests for the forwarding engine: TTL semantics, response configs,
policies, delivery and unreachability."""

import pytest

from conftest import address_on
from repro.netsim import (
    DEFAULT_TTL,
    Engine,
    IndirectConfig,
    LoadBalancer,
    LoadBalancingMode,
    Probe,
    Protocol,
    ResponsePolicy,
    ResponseType,
    TopologyBuilder,
    UnassignedAddressBehavior,
)


def chain(n=4, lb=None):
    """vantage - R1 - R2 - ... - Rn chain; returns (engine, topology)."""
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return Engine(topo, balancer=lb), topo


def send(engine, topo, dst, ttl=DEFAULT_TTL, protocol=Protocol.ICMP, flow_id=0):
    host = topo.hosts["v"]
    return engine.send(Probe(src=host.address, dst=dst, ttl=ttl,
                             protocol=protocol, flow_id=flow_id))


class TestTTLSemantics:
    def test_ttl_k_reveals_kth_router(self):
        engine, topo = chain(5)
        dst = address_on(topo, "R5", "R4")
        for ttl in range(1, 5):
            response = send(engine, topo, dst, ttl=ttl)
            assert response.kind == ResponseType.TTL_EXCEEDED
            assert response.responder == f"R{ttl}"

    def test_destination_replies_at_its_distance(self):
        engine, topo = chain(5)
        dst = address_on(topo, "R5", "R4")
        response = send(engine, topo, dst, ttl=5)
        assert response.kind == ResponseType.ECHO_REPLY
        assert response.source == dst

    def test_larger_ttl_still_delivers(self):
        engine, topo = chain(5)
        dst = address_on(topo, "R5", "R4")
        assert send(engine, topo, dst, ttl=30).kind == ResponseType.ECHO_REPLY

    def test_gateway_delivery_at_ttl_1(self):
        engine, topo = chain(3)
        dst = address_on(topo, "R1", "R2")
        assert send(engine, topo, dst, ttl=1).kind == ResponseType.ECHO_REPLY

    def test_near_side_address_one_hop_closer(self):
        engine, topo = chain(3)
        near = address_on(topo, "R2", "R3")   # R2's iface on R2-R3 link
        far = address_on(topo, "R3", "R2")    # R3's iface on same link
        assert send(engine, topo, near, ttl=2).kind == ResponseType.ECHO_REPLY
        assert send(engine, topo, far, ttl=2).kind == ResponseType.TTL_EXCEEDED

    def test_unknown_source_rejected(self):
        engine, topo = chain(3)
        dst = address_on(topo, "R3", "R2")
        with pytest.raises(ValueError):
            engine.send(Probe(src=12345, dst=dst, ttl=3))


class TestResponseConfigs:
    def test_incoming_interface_source(self):
        engine, topo = chain(4)
        dst = address_on(topo, "R4", "R3")
        response = send(engine, topo, dst, ttl=2)
        # R2 reports the interface the probe entered through: its address
        # on the R1-R2 link.
        assert response.source == address_on(topo, "R2", "R1")

    def test_shortest_path_source(self):
        engine, topo = chain(4)
        topo.routers["R2"].indirect_config = IndirectConfig.SHORTEST_PATH
        dst = address_on(topo, "R4", "R3")
        response = send(engine, topo, dst, ttl=2)
        # Toward the vantage the egress is the same interface (chain), so
        # this matches the incoming interface here.
        assert response.source == address_on(topo, "R2", "R1")

    def test_default_source(self):
        engine, topo = chain(4)
        topo.routers["R2"].indirect_config = IndirectConfig.DEFAULT
        dst = address_on(topo, "R4", "R3")
        response = send(engine, topo, dst, ttl=2)
        assert response.source == min(topo.routers["R2"].addresses)

    def test_nil_indirect_config_is_silent(self):
        engine, topo = chain(4)
        topo.routers["R2"].indirect_config = IndirectConfig.NIL
        dst = address_on(topo, "R4", "R3")
        assert send(engine, topo, dst, ttl=2) is None

    def test_nil_direct_config_is_silent(self):
        from repro.netsim import DirectConfig
        engine, topo = chain(3)
        topo.routers["R3"].direct_config = DirectConfig.NIL
        dst = address_on(topo, "R3", "R2")
        assert send(engine, topo, dst) is None


class TestProtocols:
    def test_udp_alive_is_port_unreachable(self):
        engine, topo = chain(3)
        dst = address_on(topo, "R3", "R2")
        response = send(engine, topo, dst, protocol=Protocol.UDP)
        assert response.kind == ResponseType.PORT_UNREACHABLE
        assert response.is_alive_signal

    def test_tcp_alive_is_rst(self):
        engine, topo = chain(3)
        dst = address_on(topo, "R3", "R2")
        response = send(engine, topo, dst, protocol=Protocol.TCP)
        assert response.kind == ResponseType.TCP_RST

    def test_protocol_refusal_silences_router(self):
        builder = TopologyBuilder()
        builder.link("R1", "R2")
        builder.link("R2", "R3")
        builder.edge_host("v", "R1")
        topo = builder.build()
        policy = ResponsePolicy().refuse_protocol("R2", Protocol.UDP)
        engine = Engine(topo, policy=policy)
        dst = address_on(topo, "R3", "R2")
        assert send(engine, topo, dst, ttl=2, protocol=Protocol.UDP) is None
        assert send(engine, topo, dst, ttl=2, protocol=Protocol.ICMP) is not None


class TestPolicies:
    def _engine(self, policy):
        builder = TopologyBuilder()
        builder.link("R1", "R2")
        lan = builder.lan(["R2", "R3", "R4"], length=29)
        builder.edge_host("v", "R1")
        topo = builder.build()
        return Engine(topo, policy=policy), topo, lan

    def test_firewalled_subnet_drops_direct_probes(self):
        policy = ResponsePolicy()
        engine, topo, lan = self._engine(policy)
        policy.firewall_subnet(lan.subnet_id)
        for address in lan.addresses:
            assert send(engine, topo, address) is None

    def test_firewall_does_not_block_ttl_exceeded(self):
        policy = ResponsePolicy()
        engine, topo, lan = self._engine(policy)
        policy.firewall_subnet(lan.subnet_id)
        member = [a for a in lan.addresses
                  if topo.interface_at(a).router_id == "R3"][0]
        response = send(engine, topo, member, ttl=1)
        assert response is not None
        assert response.kind == ResponseType.TTL_EXCEEDED

    def test_silent_interface_ignores_direct_probe(self):
        policy = ResponsePolicy()
        engine, topo, lan = self._engine(policy)
        member = sorted(lan.addresses)[1]
        policy.silence_interface(member)
        assert send(engine, topo, member) is None

    def test_silent_interface_still_sources_ttl_exceeded(self):
        policy = ResponsePolicy()
        engine, topo, lan = self._engine(policy)
        # Silence R2's incoming interface on the R1-R2 link, then expire a
        # probe at R2: the reply is still sourced from that interface.
        incoming = address_on(topo, "R2", "R1")
        policy.silence_interface(incoming)
        far = [a for a in lan.addresses
               if topo.interface_at(a).router_id == "R3"][0]
        response = send(engine, topo, far, ttl=2)
        assert response is not None
        assert response.source == incoming

    def test_rate_limited_router_goes_quiet(self):
        policy = ResponsePolicy().rate_limit_router("R2", capacity=1,
                                                    refill_per_tick=0)
        engine, topo, lan = self._engine(policy)
        member = address_on(topo, "R2", "R1")
        assert send(engine, topo, member) is not None
        assert send(engine, topo, member) is None


class TestUnassignedAddresses:
    def _topo(self):
        builder = TopologyBuilder()
        builder.link("R1", "R2")
        builder.lan(["R2", "R3"], length=29)
        builder.edge_host("v", "R1")
        return builder.build()

    def test_silent_by_default(self):
        topo = self._topo()
        engine = Engine(topo)
        lan = [s for s in topo.subnets.values() if s.prefix.length == 29][0]
        unassigned = lan.prefix.network + 5
        assert topo.interface_at(unassigned) is None
        assert send(engine, topo, unassigned) is None

    def test_host_unreachable_mode(self):
        topo = self._topo()
        engine = Engine(
            topo, unassigned_behavior=UnassignedAddressBehavior.HOST_UNREACHABLE)
        lan = [s for s in topo.subnets.values() if s.prefix.length == 29][0]
        unassigned = lan.prefix.network + 5
        response = send(engine, topo, unassigned)
        assert response.kind == ResponseType.HOST_UNREACHABLE

    def test_unrouted_space_is_silent(self):
        topo = self._topo()
        engine = Engine(topo)
        assert send(engine, topo, 0x01010101) is None


class TestGroundTruthHelpers:
    def test_path_routers(self):
        engine, topo = chain(4)
        dst = address_on(topo, "R4", "R3")
        assert engine.path_routers("v", dst) == ["R1", "R2", "R3", "R4"]

    def test_hop_distance(self):
        engine, topo = chain(4)
        assert engine.hop_distance("v", address_on(topo, "R4", "R3")) == 4
        assert engine.hop_distance("v", address_on(topo, "R1", "R2")) == 1

    def test_hop_distance_none_for_unassigned(self):
        engine, topo = chain(3)
        assert engine.hop_distance("v", 0x01010101) is None

    def test_contra_pivot_one_hop_closer_on_lan(self):
        builder = TopologyBuilder()
        builder.link("R1", "R2")
        lan = builder.lan(["R2", "R3", "R4"], length=29)
        builder.edge_host("v", "R1")
        topo = builder.build()
        engine = Engine(topo)
        distances = {topo.interface_at(a).router_id: engine.hop_distance("v", a)
                     for a in lan.addresses}
        assert distances["R2"] == 2       # contra-pivot side
        assert distances["R3"] == 3
        assert distances["R4"] == 3

    def test_stats_counts(self):
        engine, topo = chain(3)
        dst = address_on(topo, "R3", "R2")
        send(engine, topo, dst)
        send(engine, topo, 0x01010101)
        assert engine.stats.probes_sent == 2
        assert engine.stats.responses_returned == 1
        assert engine.stats.silent_drops == 1


class TestECMP:
    def _diamond(self, mode):
        builder = TopologyBuilder("diamond")
        builder.link("A", "B")
        builder.link("A", "C")
        builder.link("B", "D")
        builder.link("C", "D")
        stub = builder.link("D", "E")
        builder.edge_host("v", "A")
        topo = builder.build()
        lb = LoadBalancer(mode, seed=11)
        return Engine(topo, balancer=lb), topo, stub

    def test_per_flow_stable_per_flow_id(self):
        engine, topo, stub = self._diamond(LoadBalancingMode.PER_FLOW)
        dst = [a for a in stub.addresses
               if topo.interface_at(a).router_id == "E"][0]
        hop2 = {send(engine, topo, dst, ttl=2, flow_id=9).responder
                for _ in range(10)}
        assert len(hop2) == 1

    def test_per_flow_differs_across_flow_ids(self):
        engine, topo, stub = self._diamond(LoadBalancingMode.PER_FLOW)
        dst = [a for a in stub.addresses
               if topo.interface_at(a).router_id == "E"][0]
        hop2 = {send(engine, topo, dst, ttl=2, flow_id=i).responder
                for i in range(32)}
        assert hop2 == {"B", "C"}

    def test_per_packet_fluctuates(self):
        engine, topo, stub = self._diamond(LoadBalancingMode.PER_PACKET)
        dst = [a for a in stub.addresses
               if topo.interface_at(a).router_id == "E"][0]
        hop2 = {send(engine, topo, dst, ttl=2).responder for _ in range(32)}
        assert hop2 == {"B", "C"}
