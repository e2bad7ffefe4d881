"""Unit tests for routing tables, ECMP sets and load balancing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def assert_matches_reference(topology, table, fresh=None):
    """``table`` answers like :func:`reference_routes` (and like ``fresh``,
    a table built on the current topology) on every router/subnet pair,
    candidate order included."""
    members = {sid: sorted(topology.subnets[sid].router_ids)
               for sid in sorted(topology.subnets)}
    attached = {rid: [] for rid in sorted(topology.routers)}
    for sid, row in members.items():
        for rid in row:
            attached[rid].append(sid)
    for subnet_id in members:
        distance, hops = reference_routes(members, attached, subnet_id)
        for router_id in attached:
            answers = (table.distance(router_id, subnet_id),
                       table.next_hops(router_id, subnet_id))
            assert answers == (distance.get(router_id), hops[router_id]), \
                (router_id, subnet_id)
            if fresh is not None:
                assert answers == (fresh.distance(router_id, subnet_id),
                                   fresh.next_hops(router_id, subnet_id)), \
                    (router_id, subnet_id)


def warm_partial(topology, table):
    """Leave a partial BFS state and cached next-hop sets toward every
    subnet of ``topology``: a query next to it, then one about halfway to
    its farthest router.  Returns the pairs asked, in order."""
    fresh = RoutingTable(topology)
    warmed = []
    for subnet_id in sorted(topology.subnets):
        reached = sorted(
            (distance, router_id) for router_id in sorted(topology.routers)
            if (distance := fresh.distance(router_id, subnet_id)) is not None)
        if not reached:
            continue
        halfway = reached[-1][0] // 2
        far = next(router_id for distance, router_id in reached
                   if distance >= halfway)
        for router_id in (reached[0][1], far):
            table.next_hops(router_id, subnet_id)
            warmed.append((router_id, subnet_id))
    return warmed


def assert_matches_fresh(topology, table, first=()):
    """``table`` answers like a table built afresh and like the router-level
    reference.  The ``first`` pairs are asked before any other, while the
    states they warmed are still as partial as the mutation left them."""
    fresh = RoutingTable(topology)
    for router_id, subnet_id in first:
        assert table.next_hops(router_id, subnet_id) == \
            fresh.next_hops(router_id, subnet_id), (router_id, subnet_id)
        assert table.distance(router_id, subnet_id) == \
            fresh.distance(router_id, subnet_id), (router_id, subnet_id)
    assert_matches_reference(topology, table, fresh)


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
        topology = network.topology
        engine = Engine(topology, policy=network.policy)
        schedule = MutationSchedule.generate(
            topology, seed=11, start=0, count=1, kinds=(kind,))
        dynamics = NetworkDynamics(engine, schedule)
        # Each step runs against a table whose states are partial, so the
        # patch has states to keep or drop: a kept state that labelled a
        # changed subnet would answer stale.
        for probes in (0, 10_000):  # the mutation, then flap/reboot recovery
            if dynamics.exhausted:
                break
            table = RoutingTable(topology)
            warmed = warm_partial(topology, table)
            assert [m.kind for m in dynamics.advance(probes)]
            assert_matches_fresh(topology, table, first=warmed)

    @pytest.mark.parametrize("member", ["single-homed", "multi-homed"])
    def test_after_flapping_a_router(self, member):
        """Take every link of one router down, then bring them back, one at
        a time: a single-homed LAN member changes no adjacency; a
        multi-homed transit router goes from transit to single-homed to
        detached and back."""
        topology = build_gauntlet(seed=3).network.topology
        host_subnets = {host.subnet_id for host in topology.hosts.values()}

        def eligible(router_id):
            subnets = topology.routers[router_id].subnet_ids
            if host_subnets.intersection(subnets):
                return False
            if member == "single-homed":
                return len(subnets) == 1 \
                    and len(topology.subnets[subnets[0]].router_ids) > 2
            return len(subnets) >= 3

        # The multi-homed case takes the first router with the fewest
        # (three or more) links: 3 -> 2 -> 1 -> 0 and back.
        router_id = min(sorted(r for r in topology.routers if eligible(r)),
                        key=lambda r: len(topology.routers[r].subnet_ids))
        links = sorted(iface.address
                       for iface in topology.routers[router_id].interfaces)
        down = []
        for address in links:
            table = RoutingTable(topology)
            warmed = warm_partial(topology, table)
            down.append(topology.disconnect(address))
            assert_matches_fresh(topology, table, first=warmed)
        for iface in reversed(down):
            table = RoutingTable(topology)
            warmed = warm_partial(topology, table)
            topology.connect(iface.router_id, iface.subnet_id, iface.address)
            assert_matches_fresh(topology, table, first=warmed)


def all_pairs(topology, table):
    for subnet_id in sorted(topology.subnets):
        for router_id in sorted(topology.routers):
            table.next_hops(router_id, subnet_id)
            table.distance(router_id, subnet_id)


def mutate(engine, kind):
    """Apply one generated ``kind`` mutation, recovery included."""
    schedule = MutationSchedule.generate(
        engine.topology, seed=5, start=0, count=1, kinds=(kind,))
    assert NetworkDynamics(engine, schedule).advance(10_000)


class TestRoutingUnderChurn:
    """A mutation costs what it touched: unchanged rows keep every cache,
    and a BFS state is dropped only when the change reached it."""

    def test_renumber_then_requery_starts_no_bfs_state(self):
        topology = lan_ecmp()
        engine = Engine(topology)
        table = engine.routing
        all_pairs(topology, table)
        states = dict(table._levels)
        runs, version = table.bfs_runs, topology.version
        mutate(engine, "renumber")
        assert topology.version > version
        all_pairs(topology, table)
        assert table.bfs_runs == runs
        assert dict(table._levels) == states
        assert_matches_fresh(topology, table)

    def test_single_homed_member_flap_drops_no_state(self):
        topology = lan_ecmp()
        table = RoutingTable(topology)
        all_pairs(topology, table)
        states = dict(table._levels)
        runs = table.bfs_runs
        (iface,) = topology.routers["H"].interfaces
        topology.disconnect(iface.address)
        all_pairs(topology, table)
        assert table.distance("H", "s4") is None
        assert table.next_hops("H", "s4") == []
        topology.connect("H", iface.subnet_id, iface.address)
        all_pairs(topology, table)
        assert table.bfs_runs == runs
        assert all(table._levels[j] is state for j, state in states.items())
        assert_matches_fresh(topology, table)

    def test_state_short_of_the_change_is_kept(self):
        topology, stub = chain_with_island()
        table = RoutingTable(topology)
        assert table.distance("B", stub.subnet_id) == 0  # depth 0 only
        island = topology.routers["X"].subnet_ids[0]
        assert table.distance("X", island) == 0
        states = dict(table._levels)
        # D leaves D - E: an adjacency change two levels beyond what the
        # stub's state labelled.
        topology.disconnect(topology.routers["D"].interface_on(
            topology.routers["E"].subnet_ids[0]).address)
        assert table.distance("D", stub.subnet_id) == 2
        assert table.distance("E", stub.subnet_id) is None
        assert table.bfs_runs == 2
        assert all(table._levels[j] is state for j, state in states.items())
        assert_matches_fresh(topology, table)

    def test_state_that_labelled_the_change_is_dropped(self):
        topology, stub = chain_with_island()
        table = RoutingTable(topology)
        assert table.distance("E", stub.subnet_id) == 3
        topology.disconnect(topology.routers["D"].interface_on(
            topology.routers["E"].subnet_ids[0]).address)
        assert table.distance("E", stub.subnet_id) is None
        assert table.bfs_runs == 2
        assert_matches_fresh(topology, table)

    def test_next_hops_that_outlived_their_state_are_dropped(self):
        """E's ECMP set was derived from a state the LRU later evicted.  The
        state started afresh for the same destination labels only the
        stub, so it cannot vouch for that set when D - E goes down."""
        topology, stub = chain_with_island()
        table = RoutingTable(topology, distance_cache_size=1)
        assert [h.router_id for h in table.next_hops("E", stub.subnet_id)] \
            == ["D"]
        table.distance("X", topology.routers["X"].subnet_ids[0])  # evicts
        assert table.distance("B", stub.subnet_id) == 0  # depth 0 only
        topology.disconnect(topology.routers["D"].interface_on(
            topology.routers["E"].subnet_ids[0]).address)
        assert table.next_hops("E", stub.subnet_id) == []
        assert_matches_fresh(topology, table)

    def test_change_at_the_frontier_drops_the_state(self):
        """A state's frontier is labelled too.  R joins F, where F and H sit
        at the depth the state reached: no row below that depth changes,
        yet X's cached ECMP set across F must gain R."""
        builder = TopologyBuilder("frontier")
        dest = builder.link("A", "B")
        builder.lan(["B", "P", "R"])  # G, level 1
        far = builder.lan(["P", "X"])  # F, level 2; a /29 with room for R
        builder.link("R", "Y")  # H, level 2
        topology = builder.build()
        table = RoutingTable(topology)
        assert [h.router_id for h in table.next_hops("X", dest.subnet_id)] \
            == ["P"]
        state = table._levels[table._s_index[dest.subnet_id]]
        assert state.depth == 2 and state.frontier
        hosts = far.prefix.host_addresses()
        address = next(a for a in hosts if not far.owns(a))
        topology.connect("R", far.subnet_id, address)
        assert [h.router_id for h in table.next_hops("X", dest.subnet_id)] \
            == ["P", "R"]
        assert table.bfs_runs == 2
        assert_matches_fresh(topology, table)

    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.sampled_from(["down", "up", "renumber", "resize"]),
                  st.integers(0, 63),
                  st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                           max_size=6)),
        min_size=1, max_size=8),
        cache=st.integers(1, 4))
    def test_random_churn_on_lan_ecmp(self, steps, cache):
        """Random link down/up, renumber and resize sequences, with random
        partial queries between them, on a table with a small LRU (so
        next-hop sets outlive evicted states)."""
        topology = lan_ecmp()
        engine = Engine(topology)
        table = RoutingTable(topology, distance_cache_size=cache)
        host_subnets = {host.subnet_id for host in topology.hosts.values()}
        down = []
        for kind, pick, queries in steps:
            routers, subnets = sorted(topology.routers), sorted(topology.subnets)
            asked = [(routers[r % len(routers)], subnets[s % len(subnets)])
                     for r, s in queries]
            for router_id, subnet_id in asked:
                table.next_hops(router_id, subnet_id)
            if kind == "down":
                links = sorted(
                    address for address in topology.all_interface_addresses
                    if topology.interface_at(address).subnet_id
                    not in host_subnets)
                if links:
                    down.append(topology.disconnect(links[pick % len(links)]))
            elif kind == "up":
                if down:
                    iface = down.pop(pick % len(down))
                    try:
                        topology.connect(iface.router_id, iface.subnet_id,
                                         iface.address)
                    except ValueError:
                        pass  # renumbered or resized away meanwhile
            else:
                schedule = MutationSchedule.generate(
                    topology, seed=pick, start=0, count=1, kinds=(kind,))
                NetworkDynamics(engine, schedule).advance(0)
            fresh = RoutingTable(topology)
            for router_id, subnet_id in asked:
                if subnet_id in topology.subnets:
                    assert (table.next_hops(router_id, subnet_id),
                            table.distance(router_id, subnet_id)) == \
                        (fresh.next_hops(router_id, subnet_id),
                         fresh.distance(router_id, subnet_id))
        assert_matches_fresh(topology, table)


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
