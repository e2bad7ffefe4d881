"""Unit tests for topology/policy/scenario (de)serialization."""

import io
import json

import pytest

from repro.netsim import Engine, Probe, Protocol, ResponsePolicy, TopologyBuilder
from repro.netsim.router import IndirectConfig
from repro.netsim.serialize import (
    load_scenario,
    load_topology,
    policy_from_dict,
    policy_to_dict,
    save_scenario,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topogen import internet2


def sample_topology():
    builder = TopologyBuilder("sample")
    builder.link("R1", "R2")
    lan = builder.lan(["R2", "R3", "R4"], length=29)
    builder.edge_host("v", "R1")
    topo = builder.build()
    topo.routers["R3"].indirect_config = IndirectConfig.SHORTEST_PATH
    return topo, lan


class TestTopologyRoundtrip:
    def test_structure_preserved(self):
        topo, lan = sample_topology()
        rebuilt = topology_from_dict(topology_to_dict(topo))
        assert sorted(rebuilt.routers) == sorted(topo.routers)
        assert sorted(rebuilt.subnets) == sorted(topo.subnets)
        assert (sorted(rebuilt.all_interface_addresses)
                == sorted(topo.all_interface_addresses))
        assert sorted(rebuilt.hosts) == sorted(topo.hosts)
        rebuilt.validate()

    def test_router_configs_preserved(self):
        topo, _ = sample_topology()
        rebuilt = topology_from_dict(topology_to_dict(topo))
        assert rebuilt.routers["R3"].indirect_config == IndirectConfig.SHORTEST_PATH

    def test_export_with_ip_id_modes_still_loads(self):
        """Older exports carry a per-router ``ip_id_mode``; it is ignored."""
        topo, _ = sample_topology()
        payload = topology_to_dict(topo)
        for entry in payload["routers"]:
            entry["ip_id_mode"] = "random"
        rebuilt = topology_from_dict(payload)
        assert topology_to_dict(rebuilt) == topology_to_dict(topo)

    def test_hosts_keep_gateways(self):
        topo, _ = sample_topology()
        rebuilt = topology_from_dict(topology_to_dict(topo))
        assert rebuilt.hosts["v"].gateway_router_id == "R1"

    def test_file_roundtrip(self, tmp_path):
        topo, _ = sample_topology()
        path = str(tmp_path / "topo.json")
        save_topology(path, topo)
        rebuilt = load_topology(path)
        assert rebuilt.summary() == topo.summary()

    def test_file_object_roundtrip(self):
        topo, _ = sample_topology()
        buffer = io.StringIO()
        save_topology(buffer, topo)
        buffer.seek(0)
        payload = json.load(buffer)
        rebuilt = topology_from_dict(payload)
        assert rebuilt.name == "sample"

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            topology_from_dict({"format_version": 999})

    def test_rebuilt_topology_probes_identically(self):
        """An engine over the reloaded topology answers exactly like the
        original (same responders, same sources)."""
        topo, lan = sample_topology()
        rebuilt = topology_from_dict(topology_to_dict(topo))
        host = topo.hosts["v"]
        original_engine = Engine(topo)
        rebuilt_engine = Engine(rebuilt)
        for address in sorted(lan.addresses):
            for ttl in (1, 2, 3, 64):
                a = original_engine.send(Probe(src=host.address, dst=address,
                                               ttl=ttl))
                b = rebuilt_engine.send(Probe(src=host.address, dst=address,
                                              ttl=ttl))
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.kind == b.kind
                    assert a.source == b.source


class TestPolicyRoundtrip:
    def _policy(self):
        policy = ResponsePolicy(seed=4)
        policy.firewall_subnet("s1")
        policy.silence_interface(42)
        policy.silence_router("R9")
        policy.refuse_protocol("R2", Protocol.UDP)
        policy.rate_limit_router("R3", capacity=5, refill_per_tick=0.5)
        return policy

    def test_roundtrip_behaviour(self):
        original = self._policy()
        rebuilt = policy_from_dict(policy_to_dict(original))
        assert rebuilt.subnet_is_firewalled("s1")
        assert rebuilt.interface_is_silent(42)
        assert not rebuilt.router_responds("R9", Protocol.ICMP, now=1)
        assert not rebuilt.router_responds("R2", Protocol.UDP, now=1)
        assert rebuilt.router_responds("R2", Protocol.ICMP, now=1)
        # Rate limiter config restored (bucket starts full).
        for _ in range(5):
            assert rebuilt.router_responds("R3", Protocol.ICMP, now=1)
        assert not rebuilt.router_responds("R3", Protocol.ICMP, now=1)

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            policy_from_dict({"format_version": 0})


class TestScenario:
    def test_scenario_roundtrip(self, tmp_path):
        topo, lan = sample_topology()
        policy = ResponsePolicy().firewall_subnet(lan.subnet_id)
        path = str(tmp_path / "scenario.json")
        save_scenario(path, topo, policy)
        rebuilt_topo, rebuilt_policy = load_scenario(path)
        assert rebuilt_topo.summary() == topo.summary()
        assert rebuilt_policy.subnet_is_firewalled(lan.subnet_id)

    def test_generated_network_roundtrips(self, tmp_path):
        """A full Internet2 ground-truth network survives the format and
        produces the same survey result."""
        from repro.core import TraceNET
        network = internet2.build(seed=5)
        path = str(tmp_path / "internet2.json")
        save_scenario(path, network.topology, network.policy)
        topo, policy = load_scenario(path)

        targets = internet2.targets(network, seed=5)[:30]
        original_tool = TraceNET(
            Engine(network.topology, policy=network.policy), "utdallas")
        original_tool.trace_many(targets)
        rebuilt_tool = TraceNET(Engine(topo, policy=policy), "utdallas")
        rebuilt_tool.trace_many(targets)
        original_blocks = {s.prefix for s in original_tool.collected_subnets}
        rebuilt_blocks = {s.prefix for s in rebuilt_tool.collected_subnets}
        assert original_blocks == rebuilt_blocks
