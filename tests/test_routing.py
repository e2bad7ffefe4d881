"""Unit tests for routing tables, ECMP sets and load balancing."""

import pytest

from repro.netsim import Engine
from repro.netsim.builder import TopologyBuilder
from repro.netsim.dynamics import (
    DEFAULT_KINDS,
    MutationSchedule,
    NetworkDynamics,
)
from repro.netsim.routing import (
    FlowKey,
    LoadBalancer,
    LoadBalancingMode,
    NextHop,
    RoutingTable,
)
from repro.topogen import geant, internet2
from repro.topogen.adversarial import build_gauntlet


def diamond():
    """A -- B/C -- D diamond: two equal-cost paths from A to D's stub."""
    builder = TopologyBuilder("diamond")
    builder.link("A", "B")
    builder.link("A", "C")
    builder.link("B", "D")
    builder.link("C", "D")
    stub = builder.link("D", "E")
    builder.edge_host("v", "A")
    return builder.build(), stub


def lan_ecmp():
    """A LAN of A, C, B and single-homed H; B and C both link to D, which
    links to E: A reaches E's stub through two routers on one LAN."""
    builder = TopologyBuilder("lan-ecmp")
    builder.lan(["A", "C", "B", "H"])
    builder.link("B", "D")
    builder.link("C", "D")
    builder.link("D", "E")
    builder.edge_host("v", "A")
    return builder.build()


class TestRoutingTable:
    def test_distance_zero_when_attached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        assert table.distance("D", stub.subnet_id) == 0
        assert table.distance("E", stub.subnet_id) == 0

    def test_distance_counts_hops(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        assert table.distance("B", stub.subnet_id) == 1
        assert table.distance("A", stub.subnet_id) == 2

    def test_next_hops_empty_when_attached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        assert table.next_hops("D", stub.subnet_id) == []

    def test_next_hops_single(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        hops = table.next_hops("B", stub.subnet_id)
        assert [h.router_id for h in hops] == ["D"]

    def test_next_hops_ecmp_pair(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        hops = table.next_hops("A", stub.subnet_id)
        assert sorted(h.router_id for h in hops) == ["B", "C"]

    def test_next_hops_cached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        first = table.next_hops("A", stub.subnet_id)
        assert table.next_hops("A", stub.subnet_id) is first

    def test_next_hop_records_via_subnet(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        for hop in table.next_hops("A", stub.subnet_id):
            via = topo.subnets[hop.via_subnet_id]
            assert "A" in via.router_ids
            assert hop.router_id in via.router_ids

    def test_egress_interface_toward_attached(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        address = table.egress_interface_toward("D", stub.subnet_id)
        assert topo.interface_at(address).router_id == "D"

    def test_egress_interface_toward_remote(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        address = table.egress_interface_toward("A", stub.subnet_id)
        iface = topo.interface_at(address)
        assert iface.router_id == "A"

    def test_unreachable_distance_is_none(self):
        builder = TopologyBuilder()
        builder.link("A", "B")
        topo = builder.build(validate=False)
        other = TopologyBuilder()
        other.link("X", "Y")
        # Merge an island subnet manually to create unreachability.
        island = other.topology.subnets[next(iter(other.topology.subnets))]
        table = RoutingTable(topo)
        subnet_id = next(iter(topo.subnets))
        assert table.distance("A", subnet_id) is not None
        del island


class TestLazyBfsCache:
    def test_one_bfs_per_destination_subnet(self):
        topo, stub = diamond()
        table = RoutingTable(topo)
        for router in ("A", "B", "C", "D"):
            table.distance(router, stub.subnet_id)
            table.next_hops(router, stub.subnet_id)
        assert table.bfs_runs == 1
        other = sorted(set(topo.subnets) - {stub.subnet_id})[0]
        table.distance("A", other)
        assert table.bfs_runs == 2

    def test_lru_bounds_distance_maps_and_recomputes_evicted(self):
        topo, stub = diamond()
        table = RoutingTable(topo, distance_cache_size=2)
        subnets = sorted(topo.subnets)[:3]
        for subnet_id in subnets:
            table.distance("A", subnet_id)
        assert table.bfs_runs == 3
        assert len(table._levels) == 2
        # The oldest entry was evicted; touching it costs a fresh BFS.
        table.distance("A", subnets[0])
        assert table.bfs_runs == 4
        # The most-recent entries are still served from the cache.
        table.distance("A", subnets[2])
        assert table.bfs_runs == 4

    def test_topology_mutation_invalidates_graph_and_caches(self):
        builder = TopologyBuilder("diamond")
        builder.link("A", "B")
        builder.link("A", "C")
        builder.link("B", "D")
        builder.link("C", "D")
        stub = builder.link("D", "E")
        builder.edge_host("v", "A")
        topo = builder.build()
        table = RoutingTable(topo)
        first = table.next_hops("A", stub.subnet_id)
        assert table.next_hops("A", stub.subnet_id) is first
        runs_before = table.bfs_runs
        # Wire a shortcut A - E: the router↔subnet graph changed, so the
        # interned graph and every derived cache must be rebuilt.
        builder.link("A", "E")
        assert table.next_hops("A", stub.subnet_id) is not first
        assert table.bfs_runs > runs_before
        hops = table.next_hops("A", stub.subnet_id)
        assert "E" in {h.router_id for h in hops}
        assert table.distance("A", stub.subnet_id) == 1

    def test_next_hops_order_is_deterministic(self):
        # The ECMP candidate enumeration order feeds the load balancers:
        # NONE always takes the first candidate and PER_FLOW hashes into
        # the list, so the order itself is part of the contract.
        topo, stub = diamond()
        order = [
            (h.router_id, h.via_subnet_id)
            for h in RoutingTable(topo).next_hops("A", stub.subnet_id)
        ]
        assert [router for router, _ in order] == ["B", "C"]
        rebuilt = [
            (h.router_id, h.via_subnet_id)
            for h in RoutingTable(topo).next_hops("A", stub.subnet_id)
        ]
        assert rebuilt == order
        balancer = LoadBalancer(LoadBalancingMode.NONE)
        flow = FlowKey(src=1, dst=2, protocol="icmp", flow_id=0)
        hops = RoutingTable(topo).next_hops("A", stub.subnet_id)
        assert balancer.choose("A", hops, flow).router_id == "B"
        per_flow = LoadBalancer(LoadBalancingMode.PER_FLOW)
        picks = {per_flow.choose("A", hops, flow).router_id
                 for _ in range(8)}
        assert len(picks) == 1


def chain_with_island():
    """A - B - C - D - E in a row, plus an X - Y link no path reaches."""
    builder = TopologyBuilder("chain")
    stub = builder.link("A", "B")
    for left, right in zip("BCD", "CDE"):
        builder.link(left, right)
    builder.link("X", "Y")
    return builder.build(validate=False), stub


def fresh_answers(topology, router_id, subnet_id):
    table = RoutingTable(topology)
    return (table.distance(router_id, subnet_id),
            table.next_hops(router_id, subnet_id))


class TestResumableBfs:
    """A destination's BFS runs only as deep as its queries ask, and
    later queries resume it instead of starting over."""

    def test_far_query_resumes_the_near_one(self):
        topo, stub = chain_with_island()
        table = RoutingTable(topo)
        assert table.distance("B", stub.subnet_id) == 0
        state = table._levels[table._s_index[stub.subnet_id]]
        assert state.depth == 0 and state.frontier
        assert table.distance("D", stub.subnet_id) == 2
        assert state.depth == 2 and state.frontier
        for router_id in ("E", "C", "A", "B"):
            assert (table.distance(router_id, stub.subnet_id),
                    table.next_hops(router_id, stub.subnet_id)) == \
                fresh_answers(topo, router_id, stub.subnet_id)
        assert table.bfs_runs == 1
        assert table._levels[table._s_index[stub.subnet_id]] is state

    def test_disconnected_router_is_unreachable_only_when_exhausted(self):
        topo, stub = chain_with_island()
        table = RoutingTable(topo)
        assert table.distance("C", stub.subnet_id) == 1
        state = table._levels[table._s_index[stub.subnet_id]]
        # Unlabelled subnets beyond the depth reached are not unreachable.
        assert state.frontier
        assert table.distance("X", stub.subnet_id) is None
        assert table.next_hops("Y", stub.subnet_id) == []
        assert not state.frontier
        assert table.distance("E", stub.subnet_id) == 3
        assert table.bfs_runs == 1

    def test_evicted_partial_state_restarts_cleanly(self):
        topo, stub = chain_with_island()
        table = RoutingTable(topo, distance_cache_size=1)
        assert table.distance("B", stub.subnet_id) == 0
        other = sorted(set(topo.subnets) - {stub.subnet_id})[0]
        table.distance("A", other)
        assert table.bfs_runs == 2
        assert list(table._levels) == [table._s_index[other]]
        for router_id in ("E", "D", "X"):
            assert (table.distance(router_id, stub.subnet_id),
                    table.next_hops(router_id, stub.subnet_id)) == \
                fresh_answers(topo, router_id, stub.subnet_id)
        assert table.bfs_runs == 3


def reference_routes(members, attached, subnet_id):
    """Router-level BFS toward ``subnet_id``, kept independent of
    :class:`RoutingTable`: per-router distances and ECMP sets.

    ``members`` maps each subnet to its routers and ``attached`` each
    router to its subnets, both ascending.  The ECMP set of router ``r``
    crosses each of its subnets to the members one hop closer.  Members of
    one subnet sit at most one hop apart, so those are the members at the
    subnet's minimal distance whenever ``r`` is one hop above it.

    Each subnet is expanded once, from the first frontier router that
    reaches it: that router is at the smallest distance of any member, so
    every member still unseen is one hop further, and a later expansion
    would find none.  Expanding a LAN once per member instead is quadratic
    in its size.
    """
    distance = {rid: 0 for rid in members[subnet_id]}
    expanded = {subnet_id}
    frontier = list(distance)
    while frontier:
        reached = []
        for rid in frontier:
            for sid in attached[rid]:
                if sid in expanded:
                    continue
                expanded.add(sid)
                for neighbor in members[sid]:
                    if neighbor not in distance:
                        distance[neighbor] = distance[rid] + 1
                        reached.append(neighbor)
        frontier = reached
    nearest = {}
    for sid, row in members.items():
        known = [distance[rid] for rid in row if rid in distance]
        if known:
            low = min(known)
            nearest[sid] = (low, [rid for rid in row
                                  if distance.get(rid) == low])
    hops = {}
    for rid, subnets in attached.items():
        own = distance.get(rid)
        hops[rid] = [NextHop(router_id=neighbor, via_subnet_id=sid)
                     for sid in subnets
                     if own is not None and nearest[sid][0] == own - 1
                     for neighbor in nearest[sid][1]]
    return distance, hops


def assert_matches_reference(topology, table):
    members = {sid: sorted(topology.subnets[sid].router_ids)
               for sid in sorted(topology.subnets)}
    attached = {rid: [] for rid in sorted(topology.routers)}
    for sid, row in members.items():
        for rid in row:
            attached[rid].append(sid)
    for subnet_id in members:
        distance, hops = reference_routes(members, attached, subnet_id)
        for router_id in attached:
            assert (table.distance(router_id, subnet_id)
                    == distance.get(router_id)), (router_id, subnet_id)
            assert (table.next_hops(router_id, subnet_id)
                    == hops[router_id]), (router_id, subnet_id)


class TestSubnetGraphMatchesRouterBfs:
    """The subnet-level BFS answers exactly like a router-level BFS:
    equal distances and equal ECMP sets, candidate order included."""

    @pytest.mark.parametrize("name",
                             ["lan-ecmp", "internet2", "geant", "gauntlet"])
    def test_every_router_subnet_pair(self, name):
        if name == "lan-ecmp":
            topology = lan_ecmp()
        elif name == "gauntlet":
            topology = build_gauntlet(seed=3).network.topology
        else:
            topology = {"internet2": internet2,
                        "geant": geant}[name].build().topology
        assert_matches_reference(topology, RoutingTable(topology))

    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    def test_after_each_mutation_kind(self, kind):
        network = build_gauntlet(seed=3).network
        engine = Engine(network.topology, policy=network.policy)
        table = engine.routing
        # Warm the caches first, so the mutation has state to invalidate.
        subnet_id = sorted(network.topology.subnets)[0]
        for router_id in sorted(network.topology.routers):
            table.next_hops(router_id, subnet_id)
        schedule = MutationSchedule.generate(
            network.topology, seed=11, start=0, count=1, kinds=(kind,))
        dynamics = NetworkDynamics(engine, schedule)
        assert [m.kind for m in dynamics.advance(0)]
        assert_matches_reference(network.topology, table)
        dynamics.advance(10_000)  # flap/reboot recovery
        assert_matches_reference(network.topology, table)


class TestLoadBalancer:
    def _flow(self, flow_id=0):
        return FlowKey(src=1, dst=2, protocol="icmp", flow_id=flow_id)

    def _candidates(self):
        return [NextHop("B", "s1"), NextHop("C", "s2")]

    def test_single_candidate_passthrough(self):
        lb = LoadBalancer()
        only = [NextHop("B", "s1")]
        assert lb.choose("A", only, self._flow()) is only[0]

    def test_no_candidates_raises(self):
        lb = LoadBalancer()
        with pytest.raises(ValueError):
            lb.choose("A", [], self._flow())

    def test_none_mode_picks_first(self):
        lb = LoadBalancer(LoadBalancingMode.NONE)
        assert lb.choose("A", self._candidates(), self._flow()).router_id == "B"

    def test_per_flow_deterministic(self):
        lb = LoadBalancer(LoadBalancingMode.PER_FLOW)
        picks = {lb.choose("A", self._candidates(), self._flow(7)).router_id
                 for _ in range(10)}
        assert len(picks) == 1

    def test_per_flow_varies_with_flow_id(self):
        lb = LoadBalancer(LoadBalancingMode.PER_FLOW)
        picks = {lb.choose("A", self._candidates(), self._flow(i)).router_id
                 for i in range(32)}
        assert picks == {"B", "C"}

    def test_per_packet_varies(self):
        lb = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=1)
        picks = {lb.choose("A", self._candidates(), self._flow()).router_id
                 for _ in range(32)}
        assert picks == {"B", "C"}

    def test_per_packet_seeded_reproducible(self):
        seq1 = [LoadBalancer(LoadBalancingMode.PER_PACKET, seed=5)
                .choose("A", self._candidates(), self._flow()).router_id
                for _ in range(1)]
        lb1 = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=5)
        lb2 = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=5)
        seq1 = [lb1.choose("A", self._candidates(), self._flow()).router_id
                for _ in range(20)]
        seq2 = [lb2.choose("A", self._candidates(), self._flow()).router_id
                for _ in range(20)]
        assert seq1 == seq2

    def test_per_router_override(self):
        lb = LoadBalancer(LoadBalancingMode.PER_PACKET, seed=3)
        lb.set_mode("A", LoadBalancingMode.NONE)
        picks = {lb.choose("A", self._candidates(), self._flow()).router_id
                 for _ in range(10)}
        assert picks == {"B"}

    def test_mode_of_default(self):
        lb = LoadBalancer(LoadBalancingMode.PER_FLOW)
        assert lb.mode_of("anything") == LoadBalancingMode.PER_FLOW
