"""Tests for the engine's IP-ID models, wire-byte accounting, record-route
plumbing, generator variety knobs, and other substrate details."""


from conftest import address_on
from repro.netsim import Engine, IpIdMode, Probe, Protocol, TopologyBuilder
from repro.netsim.packet import PROBE_WIRE_BYTES, RECORD_ROUTE_SLOTS, wire_bytes
from repro.netsim.router import IndirectConfig
from repro.topogen.spec import NetworkBlueprint, synthesize


def chain(n=4, **engine_kwargs):
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return Engine(topo, **engine_kwargs), topo


def send(engine, topo, dst, ttl=64):
    return engine.send(Probe(src=topo.hosts["v"].address, dst=dst, ttl=ttl))


class TestIpIds:
    def test_shared_counter_increases(self):
        engine, topo = chain()
        dst = address_on(topo, "R2", "R1")
        ids = []
        for _ in range(5):
            response = send(engine, topo, dst)
            ids.append(response.ip_id)
        advances = [(b - a) % 65536 for a, b in zip(ids, ids[1:])]
        assert all(1 <= adv <= 9 for adv in advances)

    def test_counter_shared_across_interfaces(self):
        engine, topo = chain()
        a = address_on(topo, "R2", "R1")
        b = address_on(topo, "R2", "R3")
        first = send(engine, topo, a).ip_id
        second = send(engine, topo, b).ip_id
        assert 1 <= (second - first) % 65536 <= 9

    def test_different_routers_independent(self):
        engine, topo = chain()
        a = send(engine, topo, address_on(topo, "R2", "R1")).ip_id
        b = send(engine, topo, address_on(topo, "R3", "R2")).ip_id
        # Independent random starting offsets: equality would be a fluke.
        assert a != b

    def test_random_mode_scatters(self):
        engine, topo = chain()
        topo.routers["R2"].ip_id_mode = IpIdMode.RANDOM
        dst = address_on(topo, "R2", "R1")
        engine_cacheless_ids = set()
        for _ in range(12):
            engine_cacheless_ids.add(send(engine, topo, dst).ip_id)
        assert len(engine_cacheless_ids) >= 8

    def test_engine_seed_reproducible(self):
        for _ in range(2):
            ids = []
            for seed in (9, 9):
                engine, topo = chain(seed=seed)
                ids.append(send(engine, topo,
                                address_on(topo, "R2", "R1")).ip_id)
            assert ids[0] == ids[1]

    def test_ttl_exceeded_carries_ip_id(self):
        engine, topo = chain()
        response = send(engine, topo, address_on(topo, "R3", "R2"), ttl=2)
        assert response.is_ttl_exceeded
        assert response.ip_id is not None

    def test_noise_zero_gives_unit_steps(self):
        engine, topo = chain(ip_id_noise=0)
        dst = address_on(topo, "R2", "R1")
        first = send(engine, topo, dst).ip_id
        second = send(engine, topo, dst).ip_id
        assert (second - first) % 65536 == 1


class TestWireBytes:
    def test_constants_present(self):
        assert set(PROBE_WIRE_BYTES) == set(Protocol)

    def test_wire_bytes_scales(self):
        assert wire_bytes(Protocol.ICMP, 10) == 10 * PROBE_WIRE_BYTES[Protocol.ICMP]
        assert wire_bytes(Protocol.UDP, 0) == 0


class TestRecordRoutePlumbing:
    def test_stamps_are_outgoing_interfaces(self):
        engine, topo = chain(5)
        host = topo.hosts["v"]
        dst = address_on(topo, "R5", "R4")
        response = engine.send(Probe(src=host.address, dst=dst, ttl=64,
                                     record_route=True))
        assert response.record_route
        for stamp in response.record_route:
            assert topo.interface_at(stamp) is not None
        # The first stamp is the gateway's outgoing interface, which is on
        # the R1-R2 link (not the vantage stub).
        first = topo.interface_at(response.record_route[0])
        assert first.router_id == "R1"

    def test_slot_limit(self):
        builder = TopologyBuilder()
        for i in range(1, 14):
            builder.link(f"R{i}", f"R{i+1}")
        builder.edge_host("v", "R1")
        topo = builder.build()
        engine = Engine(topo)
        dst = address_on(topo, "R14", "R13")
        response = engine.send(Probe(src=topo.hosts["v"].address, dst=dst,
                                     ttl=64, record_route=True))
        assert len(response.record_route) == RECORD_ROUTE_SLOTS

    def test_plain_probe_has_no_stamps(self):
        engine, topo = chain(6)
        response = send(engine, topo, address_on(topo, "R6", "R5"), ttl=3)
        assert response.record_route == ()


class TestGeneratorVariety:
    def _network(self, **kwargs):
        return synthesize(NetworkBlueprint(
            name="variety", seed=3, base="10.0.0.0/16",
            distribution={30: 30, 29: 6}, backbone_routers=5, **kwargs))

    def test_response_config_mix_sampled(self):
        network = self._network(shortest_path_fraction=0.3,
                                default_iface_fraction=0.2)
        configs = {r.indirect_config
                   for r in network.topology.routers.values()}
        assert IndirectConfig.SHORTEST_PATH in configs
        assert IndirectConfig.DEFAULT in configs
        assert IndirectConfig.INCOMING in configs

    def test_random_ip_id_sampled(self):
        network = self._network(random_ip_id_fraction=0.5)
        modes = {r.ip_id_mode for r in network.topology.routers.values()}
        assert modes == {IpIdMode.SHARED, IpIdMode.RANDOM}

    def test_zero_fractions_leave_defaults(self):
        network = self._network(shortest_path_fraction=0.0,
                                default_iface_fraction=0.0,
                                random_ip_id_fraction=0.0)
        for router in network.topology.routers.values():
            assert router.indirect_config == IndirectConfig.INCOMING
            assert router.ip_id_mode == IpIdMode.SHARED

    def test_variety_survey_still_accurate(self):
        """A network with heavy config variety still surveys well: the
        positioning machinery absorbs non-incoming responders."""
        from repro.core import TraceNET
        from repro.evaluation import collected_prefixes, match_subnets
        from repro.topogen.spec import add_vantage
        import random
        network = self._network(shortest_path_fraction=0.25,
                                default_iface_fraction=0.1)
        add_vantage(network, "v")
        network.topology.validate()
        tool = TraceNET(Engine(network.topology, policy=network.policy), "v")
        tool.trace_many(network.pick_targets(random.Random(1)))
        report = match_subnets(network.ground_truth,
                               collected_prefixes(tool.collected_subnets))
        assert report.exact_match_rate() >= 0.8
