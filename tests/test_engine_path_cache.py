"""Unit tests for the engine's resolved-path and route memos.

The engine answers every probe by resolving its flow's path and replaying
the response for the probe's TTL; the memo keeps one resolved path per
flow, derived from one memoized route per destination subnet.  The
contract: the engine is packet-for-packet identical to the
hop-by-hop :class:`~reference_walk.WalkingEngine` — same responses, same
rate-limit bucket drains, same per-packet balancer draws — while a memoized flow is resolved once, not
once per probe, and a destination subnet is routed once, not once per
address.  Flows crossing a per-packet load balancer are never memoized, a
route that crossed a per-flow choice serves only its own address, and
``path_cache=False`` answers exactly like the memo.
"""

from conftest import address_on
from reference_walk import WalkingEngine
from repro.netsim import (
    DEFAULT_TTL,
    Engine,
    LoadBalancer,
    LoadBalancingMode,
    PathTerminal,
    Probe,
    Protocol,
    ResponsePolicy,
    ResponseType,
    TopologyBuilder,
)
from repro.netsim.dynamics import (
    MutationSchedule,
    NetworkDynamics,
    ScheduledMutation,
)


def chain(n=5, policy=None, engine_cls=Engine, **engine_kwargs):
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return engine_cls(topo, policy=policy, **engine_kwargs), topo


def diamond(mode, seed=5, engine_cls=Engine, **engine_kwargs):
    """v - R1 - {R2 | R3} - R4 - R5: one ECMP split at R1."""
    builder = TopologyBuilder("diamond")
    builder.link("R1", "R2")
    builder.link("R1", "R3")
    builder.link("R2", "R4")
    builder.link("R3", "R4")
    builder.link("R4", "R5")
    builder.edge_host("v", "R1")
    topo = builder.build()
    balancer = LoadBalancer(default_mode=mode, seed=seed)
    return engine_cls(topo, balancer=balancer, **engine_kwargs), topo


def lan_tail(engine_cls=Engine, mode=None, **engine_kwargs):
    """v - R1 - {R2 | R3} - R4 - LAN(R4, R5, R6, R7): the LAN's addresses
    share one route, with one ECMP split at R1."""
    builder = TopologyBuilder("lan-tail")
    builder.link("R1", "R2")
    builder.link("R1", "R3")
    builder.link("R2", "R4")
    builder.link("R3", "R4")
    lan = builder.lan(["R4", "R5", "R6", "R7"])
    builder.edge_host("v", "R1")
    topo = builder.build()
    if mode is not None:
        engine_kwargs["balancer"] = LoadBalancer(default_mode=mode, seed=5)
    return engine_cls(topo, **engine_kwargs), topo, lan


def counting_next_hops(engine):
    """Record the router of every ``next_hops`` call the engine makes."""
    calls = []
    next_hops = engine.routing.next_hops

    def counting(router_id, subnet_id):
        calls.append(router_id)
        return next_hops(router_id, subnet_id)

    engine.routing.next_hops = counting
    return calls


def probe(topo, dst, ttl, flow_id=0, protocol=Protocol.ICMP):
    return Probe(src=topo.hosts["v"].address, dst=dst, ttl=ttl,
                 protocol=protocol, flow_id=flow_id)


def signature(response):
    if response is None:
        return None
    return response.kind, response.source, response.responder


class TestCounters:
    def test_first_probe_misses_then_hits(self):
        engine, topo = chain()
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_misses == 1
        assert engine.stats.path_cache_hits == 0
        engine.send(probe(topo, dst, 5))
        engine.send(probe(topo, dst, 1))
        assert engine.stats.path_cache_hits == 2
        assert engine.stats.path_cache_misses == 1

    def test_flows_are_keyed_separately(self):
        engine, topo = chain()
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3, flow_id=0))
        engine.send(probe(topo, dst, 3, flow_id=1))
        assert engine.stats.path_cache_misses == 2
        assert engine.stats.path_cache_hits == 0

    def test_clear_path_cache(self):
        engine, topo = chain()
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        engine.clear_path_cache()
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_misses == 2

    def test_cache_disabled_never_counts(self):
        engine, topo = chain(path_cache=False)
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 3))
        engine.send(probe(topo, dst, 3))
        assert engine.stats.path_cache_misses == 0
        assert engine.stats.path_cache_hits == 0


class TestEquivalence:
    def sweep(self, make_engine, dsts, ttls=range(1, 9), flows=(0, 3)):
        """Send the same probe sequence through the reference walker and a
        memoizing engine; every response must match."""
        slow, topo = make_engine(engine_cls=WalkingEngine)
        fast, _ = make_engine()
        for name in dsts:
            dst = address_on(topo, *name) if isinstance(name, tuple) else name
            for ttl in ttls:
                for flow in flows:
                    a = slow.send(probe(topo, dst, ttl, flow))
                    b = fast.send(probe(topo, dst, ttl, flow))
                    assert signature(a) == signature(b), (
                        f"dst={dst} ttl={ttl} flow={flow}")
        assert fast.stats.path_cache_hits > 0
        return slow, fast

    def test_replay_matches_walk_on_chain(self):
        self.sweep(lambda **kw: chain(**kw),
                   [("R5", "R4"), ("R3", "R2"), ("R1", "R2"), 0x01010101])

    def test_replay_matches_walk_with_per_flow_balancing(self):
        self.sweep(lambda **kw: diamond(LoadBalancingMode.PER_FLOW, **kw),
                   [("R5", "R4"), ("R4", "R5")])

    def test_rate_limit_buckets_drain_identically(self):
        # Replay must draw from the same token bucket, in the same cases,
        # as the walk — including a NIL router that consumes a token and
        # then stays silent.
        def limited(**kw):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=2, refill_per_tick=0.3)
            return chain(policy=policy, **kw)

        slow, topo = limited(engine_cls=WalkingEngine)
        fast, _ = limited()
        dst = address_on(topo, "R5", "R4")
        pattern_slow = [signature(slow.send(probe(topo, dst, 2)))
                        for _ in range(8)]
        pattern_fast = [signature(fast.send(probe(topo, dst, 2)))
                        for _ in range(8)]
        assert pattern_slow == pattern_fast
        assert None in pattern_slow          # the bucket did drain
        assert fast.stats.path_cache_hits > 0


class TestUncacheable:
    def test_per_packet_flows_bypass_the_cache(self):
        engine, topo = diamond(LoadBalancingMode.PER_PACKET)
        dst = address_on(topo, "R5", "R4")
        for _ in range(4):
            engine.send(probe(topo, dst, 4))
        assert engine.stats.path_cache_misses == 1
        assert engine.stats.path_cache_uncacheable == 3
        assert engine.stats.path_cache_hits == 0

    def test_per_packet_distribution_preserved(self):
        # The engine must keep sampling both ECMP branches.
        responders = set()
        engine, topo = diamond(LoadBalancingMode.PER_PACKET)
        dst = address_on(topo, "R5", "R4")
        for _ in range(24):
            response = engine.send(probe(topo, dst, 2))
            responders.add(response.responder)
        assert responders == {"R2", "R3"}

    def test_per_flow_flows_are_cached(self):
        engine, topo = diamond(LoadBalancingMode.PER_FLOW)
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, 4))
        engine.send(probe(topo, dst, 4))
        assert engine.stats.path_cache_hits == 1
        assert engine.stats.path_cache_uncacheable == 0

    def test_per_packet_sweep_matches_walk(self):
        # Live one-off paths draw the balancer PRNG at exactly the hops
        # the walk draws it: equal seeds keep the two engines' responses
        # and balancer state in lockstep after every probe.
        walker, topo = diamond(LoadBalancingMode.PER_PACKET, seed=13,
                               engine_cls=WalkingEngine)
        engine, _ = diamond(LoadBalancingMode.PER_PACKET, seed=13)
        dsts = [address_on(topo, "R5", "R4"), address_on(topo, "R4", "R2"),
                address_on(topo, "R3", "R1"), 0x01010101]
        for _ in range(3):
            for dst in dsts:
                for ttl in range(1, 8):
                    a = walker.send(probe(topo, dst, ttl))
                    b = engine.send(probe(topo, dst, ttl))
                    assert signature(a) == signature(b), (dst, ttl)
                    assert (walker.balancer._rng.getstate()
                            == engine.balancer._rng.getstate())
        assert engine.stats.path_cache_uncacheable > 0


class TestResolveOnce:
    def test_miss_resolves_the_path_once(self):
        engine, topo = chain()
        calls = counting_next_hops(engine)
        dst = address_on(topo, "R5", "R4")
        engine.send(probe(topo, dst, DEFAULT_TTL))
        assert engine.stats.path_cache_misses == 1
        # R1, R2 and R3 forward; R4 delivers across the R4-R5 link.
        assert calls == ["R1", "R2", "R3"]
        engine.send(probe(topo, dst, 2))
        assert calls == ["R1", "R2", "R3"]


class TestCacheOffUnderChurn:
    def test_unmemoized_engine_matches_memoizing_engine(self):
        # NetworkDynamics mutations land mid-stream on a warm memo (a
        # shortcut link flaps, a router reboots): a never-memoize engine
        # and a memoizing one must keep answering identically.
        streams, engines = {}, {}
        for path_cache in (False, True):
            builder = TopologyBuilder("shortcut")
            for i in range(1, 5):
                builder.link(f"R{i}", f"R{i+1}")
            shortcut = builder.link("R1", "R4")
            builder.edge_host("v", "R1")
            topo = builder.build()
            engine = Engine(topo, path_cache=path_cache)
            flap = {"address": [a for a in shortcut.addresses
                                if topo.interface_at(a).router_id == "R1"][0]}
            dynamics = NetworkDynamics(engine, MutationSchedule([
                ScheduledMutation(40, 0, "link-down", "R1", flap),
                ScheduledMutation(80, 1, "router-down", "R2"),
                ScheduledMutation(120, 2, "link-up", "R1", flap),
                ScheduledMutation(160, 3, "router-up", "R2"),
            ]))
            dsts = [address_on(topo, "R5", "R4"), address_on(topo, "R3", "R2"),
                    address_on(topo, "R2", "R3")]
            stream = []
            while len(stream) < 200:
                for dst in dsts:
                    for ttl in range(1, 7):
                        dynamics.advance(len(stream))
                        stream.append(signature(engine.send(
                            probe(topo, dst, ttl))))
            assert dynamics.exhausted
            streams[path_cache] = stream
            engines[path_cache] = engine
        assert streams[False] == streams[True]
        assert streams[True][:36] != streams[True][54:90]   # churn showed
        assert engines[True].stats.path_cache_hits > 0
        assert engines[False].stats.path_cache_hits == 0


class TestDefaultTTL:
    def test_direct_and_indirect_probes_share_one_flow(self):
        engine, topo = chain()
        dst = address_on(topo, "R2", "R1")
        engine.send(probe(topo, dst, DEFAULT_TTL))
        response = engine.send(probe(topo, dst, 2))
        assert engine.stats.path_cache_hits == 1
        assert response.kind == ResponseType.ECHO_REPLY


class TestRouteMemo:
    def test_second_address_in_a_routed_subnet_walks_nothing(self):
        engine, topo, lan = lan_tail()
        calls = counting_next_hops(engine)
        first, second = (address_on(topo, r, "R4") for r in ("R5", "R6"))
        engine.send(probe(topo, first, DEFAULT_TTL))
        # R1, R2 forward; R4 is attached to the LAN.
        assert calls == ["R1", "R2"]
        for ttl in (1, 2, 3, 4, DEFAULT_TTL):
            engine.send(probe(topo, second, ttl))
        assert calls == ["R1", "R2"]
        assert engine.stats.path_cache_misses == 2
        assert len(engine._routes) == 1

    def test_lan_router_owns_its_address_and_delivers_the_rest(self):
        walker, topo, lan = lan_tail(engine_cls=WalkingEngine)
        engine, _, _ = lan_tail()
        own = address_on(topo, "R4", "R5")
        member = address_on(topo, "R5", "R4")
        for dst in (own, member):
            for ttl in range(1, 6):
                a = walker.send(probe(topo, dst, ttl))
                b = engine.send(probe(topo, dst, ttl))
                assert signature(a) == signature(b), (dst, ttl)
        # Both addresses derive from one route ending at R4.
        assert len(engine._routes) == 1
        paths = {key[1]: path for key, path in engine._path_cache.items()}
        assert paths[own].terminal is PathTerminal.OWNS
        assert paths[member].terminal is PathTerminal.LAN
        assert paths[own].router_ids is paths[member].router_ids
        # R4 answers for its own address without decrementing the TTL...
        reply = engine.send(probe(topo, own, 3))
        assert (reply.kind, reply.responder) == (ResponseType.ECHO_REPLY, "R4")
        # ...and forwards to another member across the LAN.
        expired = engine.send(probe(topo, member, 3))
        assert (expired.kind, expired.responder) == (
            ResponseType.TTL_EXCEEDED, "R4")
        reply = engine.send(probe(topo, member, 4))
        assert (reply.kind, reply.responder) == (ResponseType.ECHO_REPLY, "R5")

    def test_per_flow_route_is_not_shared_between_addresses(self):
        # A per-flow balancer hashes the destination address, so two
        # addresses of one subnet can leave R1 on different branches.
        walker, topo, lan = lan_tail(engine_cls=WalkingEngine,
                                     mode=LoadBalancingMode.PER_FLOW)
        engine, _, _ = lan_tail(mode=LoadBalancingMode.PER_FLOW)

        def by_branch(flow):
            """The LAN's addresses keyed by the branch they leave R1 on."""
            scout, _, _ = lan_tail(mode=LoadBalancingMode.PER_FLOW)
            return {scout.send(probe(topo, dst, 2, flow)).responder: dst
                    for dst in lan.addresses}

        flow = next(f for f in range(32) if len(by_branch(f)) == 2)
        pair = (by_branch(flow)["R2"], by_branch(flow)["R3"])
        for dst in pair:
            for ttl in range(1, 6):
                a = walker.send(probe(topo, dst, ttl, flow))
                b = engine.send(probe(topo, dst, ttl, flow))
                assert signature(a) == signature(b), (dst, ttl)
        assert [engine.send(probe(topo, dst, 2, flow)).responder
                for dst in pair] == ["R2", "R3"]
        assert len(engine._path_cache) == 2

    def test_clear_path_cache_drops_routes(self):
        engine, topo, lan = lan_tail()
        calls = counting_next_hops(engine)
        engine.send(probe(topo, address_on(topo, "R5", "R4"), DEFAULT_TTL))
        engine.clear_path_cache()
        assert not engine._routes
        engine.send(probe(topo, address_on(topo, "R6", "R4"), DEFAULT_TTL))
        assert calls == ["R1", "R2", "R1", "R2"]
