"""Tests for wire-byte accounting, generator variety knobs, and other
substrate details."""


from repro.netsim import Engine, Protocol
from repro.netsim.packet import PROBE_WIRE_BYTES, wire_bytes
from repro.netsim.router import IndirectConfig
from repro.topogen.spec import NetworkBlueprint, synthesize


class TestWireBytes:
    def test_constants_present(self):
        assert set(PROBE_WIRE_BYTES) == set(Protocol)

    def test_wire_bytes_scales(self):
        assert wire_bytes(Protocol.ICMP, 10) == 10 * PROBE_WIRE_BYTES[Protocol.ICMP]
        assert wire_bytes(Protocol.UDP, 0) == 0


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

    def test_zero_fractions_leave_defaults(self):
        network = self._network(shortest_path_fraction=0.0,
                                default_iface_fraction=0.0)
        for router in network.topology.routers.values():
            assert router.indirect_config == IndirectConfig.INCOMING

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
