"""Unit tests for the traceroute baseline, classic and Paris-style."""

from conftest import address_on
from repro.baselines import Traceroute
from repro.netsim import (
    Engine,
    LoadBalancer,
    LoadBalancingMode,
    Probe,
    TopologyBuilder,
)
from repro.netsim.packet import RECORD_ROUTE_SLOTS


def chain(n=4):
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return Engine(topo), topo


def diamond(mode=LoadBalancingMode.PER_FLOW):
    builder = TopologyBuilder("diamond")
    builder.link("A", "B")
    builder.link("A", "C")
    builder.link("B", "D")
    builder.link("C", "D")
    stub = builder.link("D", "E")
    builder.edge_host("v", "A")
    topo = builder.build()
    target = topo.routers["E"].interface_on(stub.subnet_id).address
    return Engine(topo, balancer=LoadBalancer(mode, seed=2)), topo, target


class TestTraceroute:
    def test_one_address_per_hop(self):
        engine, topo = chain(5)
        result = Traceroute(engine, "v").trace(address_on(topo, "R5", "R4"))
        assert result.reached
        assert len(result.hops) == 5
        assert all(hop.subnet is None for hop in result.hops)

    def test_unreachable_gives_anonymous_tail(self):
        engine, topo = chain(3)
        result = Traceroute(engine, "v", gap_limit=3).trace(0x01010101)
        assert not result.reached
        assert [hop.address for hop in result.hops][-3:] == [None, None, None]

    def test_classic_fluctuates_under_per_flow_balancing(self):
        engine, topo, target = diamond()
        tracer = Traceroute(engine, "v", vary_flow=True)
        second_hops = {tracer.trace(target).hops[1].address
                       for _ in range(12)}
        assert len(second_hops) > 1

    def test_probe_accounting(self):
        engine, topo = chain(4)
        result = Traceroute(engine, "v").trace(address_on(topo, "R4", "R3"))
        assert result.probes_sent >= len(result.hops)


class TestParisTraceroute:
    """Paris traceroute is `Traceroute` with the flow identity pinned."""

    def test_stable_under_per_flow_balancing(self):
        engine, topo, target = diamond()
        tracer = Traceroute(engine, "v", vary_flow=False)
        second_hops = {tracer.trace(target).hops[1].address
                       for _ in range(12)}
        assert len(second_hops) == 1

    def test_same_endpoints_as_classic(self):
        engine, topo = chain(4)
        target = address_on(topo, "R4", "R3")
        classic = Traceroute(engine, "v").trace(target)
        paris = Traceroute(Engine(topo), "v", vary_flow=False).trace(target)
        assert classic.reached and paris.reached
        assert classic.hops[-1].address == paris.hops[-1].address


class TestDisCarte:
    """DisCarte's measurement: a TTL ladder of record-route probes."""

    def test_record_route_limited_to_nine_slots(self):
        builder = TopologyBuilder()
        for i in range(1, 14):
            builder.link(f"R{i}", f"R{i+1}")
        builder.edge_host("v", "R1")
        topo = builder.build()
        engine = Engine(topo)
        host = topo.hosts["v"]
        target = address_on(topo, "R14", "R13")
        stamps = []
        for ttl in range(1, 15):
            response = engine.send(Probe(src=host.address, dst=target,
                                         ttl=ttl, record_route=True))
            stamps.append(len(response.record_route))
            if response.source == target:
                break
        assert response.source == target
        assert RECORD_ROUTE_SLOTS == 9
        assert max(stamps) == 9
        assert stamps == sorted(stamps)
