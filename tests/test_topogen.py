"""Unit tests for the topology generators: blueprints, synthesis, ground
truth bookkeeping, and the named networks."""

import random

import pytest

from repro.netsim import Engine
from repro.topogen import (
    NetworkBlueprint,
    add_vantage,
    build_internet,
    default_profiles,
    figures,
    geant,
    internet2,
    random_topo,
    synthesize,
)
from repro.topogen.isp import scale_profiles


class TestSynthesize:
    def _blueprint(self, **kwargs):
        defaults = dict(
            name="tiny", seed=1, base="10.0.0.0/16",
            distribution={31: 3, 30: 8, 29: 3, 28: 1},
            backbone_routers=4,
        )
        defaults.update(kwargs)
        return NetworkBlueprint(**defaults)

    def test_distribution_matches_ground_truth(self):
        network = synthesize(self._blueprint())
        lengths = sorted(p.length for p in network.ground_truth)
        assert lengths.count(31) == 3
        assert lengths.count(30) == 8
        assert lengths.count(29) == 3
        assert lengths.count(28) == 1

    def test_topology_validates(self):
        network = synthesize(self._blueprint())
        network.topology.validate()

    def test_deterministic_given_seed(self):
        a = synthesize(self._blueprint())
        b = synthesize(self._blueprint())
        assert [str(p) for p in a.ground_truth] == [str(p) for p in b.ground_truth]
        assert sorted(a.topology.routers) == sorted(b.topology.routers)

    def test_different_seed_differs(self):
        a = synthesize(self._blueprint(seed=1))
        b = synthesize(self._blueprint(seed=2))
        assert [str(p) for p in a.ground_truth] != [str(p) for p in b.ground_truth]

    def test_firewalled_subnets_in_policy(self):
        network = synthesize(self._blueprint(firewalled={30: 2}))
        firewalled = [r for r in network.records if r.firewalled]
        assert len(firewalled) == 2
        for record in firewalled:
            assert network.policy.subnet_is_firewalled(record.subnet_id)
            assert record.unresponsive

    def test_partial_subnets_have_silent_interfaces(self):
        network = synthesize(self._blueprint(partial={29: 2}))
        partial = [r for r in network.records if r.partially_silent]
        assert len(partial) == 2
        for record in partial:
            assert record.silent_addresses
            for address in record.silent_addresses:
                assert network.policy.interface_is_silent(address)

    def test_sparse_subnets_have_two_members(self):
        network = synthesize(self._blueprint(sparse={28: 1}))
        sparse = [r for r in network.records if r.sparse][0]
        subnet = network.topology.subnets[sparse.subnet_id]
        assert len(subnet.interfaces) == 2

    def test_underutilized_subnets_cluster(self):
        network = synthesize(self._blueprint(underutilized={28: 1}))
        record = [r for r in network.records if r.underutilized][0]
        subnet = network.topology.subnets[record.subnet_id]
        addresses = sorted(subnet.addresses)
        assert len(addresses) <= subnet.prefix.host_capacity // 2 + 1
        assert addresses[-1] - addresses[0] == len(addresses) - 1  # contiguous

    def test_injection_overflow_rejected(self):
        with pytest.raises(ValueError):
            synthesize(self._blueprint(firewalled={28: 5}))

    def test_multihomed_lan_has_two_anchor_routers(self):
        network = synthesize(self._blueprint(multihomed={29: 1}))
        record = [r for r in network.records if r.multihomed][0]
        subnet = network.topology.subnets[record.subnet_id]
        multi_iface_routers = [
            router_id for router_id in subnet.router_ids
            if len(network.topology.routers[router_id].interfaces) > 1
        ]
        assert len(multi_iface_routers) >= 2

    def test_pick_targets_one_per_subnet(self):
        network = synthesize(self._blueprint())
        targets = network.pick_targets(random.Random(0))
        assert len(targets) == len(network.records)

    def test_pick_targets_prefers_responsive(self):
        network = synthesize(self._blueprint(partial={29: 2}))
        targets = set(network.pick_targets(random.Random(0)))
        silent = {a for r in network.records for a in r.silent_addresses}
        assert not (targets & silent)

    def test_responsive_interface_addresses_excludes_silent(self):
        network = synthesize(self._blueprint(partial={29: 1}))
        responsive = set(network.responsive_interface_addresses())
        silent = {a for r in network.records for a in r.silent_addresses}
        assert not (responsive & silent)


class TestVantage:
    def test_add_vantage_attaches_host(self):
        network = synthesize(NetworkBlueprint(
            name="v", seed=3, base="10.0.0.0/16",
            distribution={30: 6}, backbone_routers=3))
        host = add_vantage(network, "obs")
        assert "obs" in network.topology.hosts
        assert network.vantages["obs"] is host

    def test_vantage_stub_not_in_ground_truth(self):
        network = synthesize(NetworkBlueprint(
            name="v", seed=3, base="10.0.0.0/16",
            distribution={30: 6}, backbone_routers=3))
        host = add_vantage(network, "obs")
        stub_prefix = network.topology.subnets[host.subnet_id].prefix
        assert stub_prefix not in network.ground_truth

    def test_two_vantages_do_not_collide(self):
        network = synthesize(NetworkBlueprint(
            name="v", seed=3, base="10.0.0.0/16",
            distribution={30: 6}, backbone_routers=3))
        add_vantage(network, "a", network.border_router_ids[0])
        add_vantage(network, "b", network.border_router_ids[1])
        network.topology.validate()


class TestNamedNetworks:
    def test_internet2_distribution_matches_table1(self):
        network = internet2.build(seed=5)
        from collections import Counter
        counts = Counter(p.length for p in network.ground_truth)
        assert counts == {k: v for k, v in
                          internet2.ORIGINAL_DISTRIBUTION.items() if v}

    def test_internet2_unresponsive_counts(self):
        network = internet2.build(seed=5)
        firewalled = sum(1 for r in network.records if r.firewalled)
        partial = sum(1 for r in network.records if r.partially_silent)
        assert firewalled == sum(internet2.FIREWALLED.values())
        assert partial == sum(internet2.PARTIALLY_SILENT.values())

    def test_internet2_has_vantage(self):
        network = internet2.build(seed=5)
        assert "utdallas" in network.topology.hosts

    def test_internet2_targets_cover_every_subnet(self):
        network = internet2.build(seed=5)
        targets = internet2.targets(network, seed=5)
        assert len(targets) == 179
        covered = set()
        for target in targets:
            subnet = network.topology.subnet_containing(target)
            assert subnet is not None
            covered.add(subnet.subnet_id)
        assert len(covered) == 179

    def test_geant_distribution_matches_table2(self):
        network = geant.build(seed=5)
        from collections import Counter
        counts = Counter(p.length for p in network.ground_truth)
        assert counts == geant.ORIGINAL_DISTRIBUTION

    def test_geant_heavily_unresponsive(self):
        network = geant.build(seed=5)
        unresponsive = sum(1 for r in network.records if r.unresponsive)
        assert unresponsive == 97 + 25


class TestMultiISP:
    @pytest.fixture(scope="class")
    def internet(self):
        return build_internet(seed=9, scale=0.15)

    def test_four_isps(self, internet):
        assert sorted(internet.isps) == ["abovenet", "level3", "ntt",
                                         "sprintlink"]

    def test_three_vantages(self, internet):
        assert sorted(internet.vantages) == ["rice", "umass", "uoregon"]

    def test_validates(self, internet):
        internet.topology.validate()

    def test_isp_of_address_spaces(self, internet):
        for name, network in internet.isps.items():
            sample = network.ground_truth[0].network
            assert internet.isp_of(sample) == name

    def test_transit_space_unattributed(self, internet):
        for host in internet.vantages.values():
            assert internet.isp_of(host.address) is None

    def test_targets_drawn_per_isp(self, internet):
        targets = internet.targets(seed=1, per_isp=10)
        for name, addresses in targets.items():
            assert len(addresses) == 10
            assert all(internet.isp_of(a) == name for a in addresses)

    def test_reachability_from_every_vantage(self, internet):
        engine = Engine(internet.topology, policy=internet.policy)
        targets = internet.targets(seed=2, per_isp=3)
        for site in internet.vantages:
            for addresses in targets.values():
                for address in addresses:
                    assert engine.hop_distance(site, address) is not None, (
                        site, address)

    def test_scale_parameter_shrinks(self):
        small = default_profiles(0.1)
        full = default_profiles(1.0)
        total = lambda profiles: sum(sum(p.distribution.values())
                                     for p in profiles)
        assert total(small) < total(full)


class TestScaleProfiles:
    def test_budget_too_small_raises(self):
        with pytest.raises(ValueError, match="too small"):
            scale_profiles(500)

    def test_profile_structure(self):
        profiles = scale_profiles(1_000_000)
        assert len(profiles) == 4
        assert [p.base for p in profiles] == [
            "10.0.0.0/12", "10.16.0.0/12", "10.32.0.0/12", "10.48.0.0/12"]
        for profile in profiles:
            # Large LANs dominate the interface budget; the p2p backbone
            # mix is fixed and small.
            assert {20, 21, 22} <= set(profile.distribution)
            assert profile.distribution[31] == 24
            assert profile.distribution[30] == 40
            # Scale builds measure construction + dispatch: no stochastic
            # rate limiting, firewalls, or partial responsiveness.
            assert profile.rate_limited_fraction == 0.0
            assert not profile.firewalled
            assert not profile.partial

    def test_lan_counts_track_the_budget(self):
        small = scale_profiles(100_000)
        large = scale_profiles(1_000_000)
        lans = lambda profiles: sum(
            profiles[0].distribution[length] for length in (20, 21, 22))
        assert 8 * lans(small) <= lans(large) <= 12 * lans(small)

    def test_small_scale_build_is_reachable(self):
        network = build_internet(seed=3, profiles=scale_profiles(4000))
        assert sorted(network.isps) == ["scale0", "scale1", "scale2",
                                        "scale3"]
        engine = Engine(network.topology, policy=network.policy)
        grouped = network.targets_proportional(seed=3, total=8)
        vantage = sorted(network.vantages)[0]
        for addresses in grouped.values():
            assert addresses
            assert engine.hop_distance(vantage, addresses[0]) is not None

    def test_validate_flag_skips_flood_fill(self):
        # validate=False must hand back the same structure (correct by
        # construction) without running the O(interfaces) validation pass.
        checked = build_internet(seed=4, profiles=scale_profiles(4000))
        unchecked = build_internet(seed=4, profiles=scale_profiles(4000),
                                   validate=False)
        assert (sorted(unchecked.topology.routers)
                == sorted(checked.topology.routers))
        assert (sorted(unchecked.topology.subnets)
                == sorted(checked.topology.subnets))
        unchecked.topology.validate()  # still clean when asked


class TestFigures:
    def test_figure2_shared_lan(self):
        net = figures.figure2_network()
        lan = net.topology.subnets[net.landmarks["shared_lan"]]
        assert sorted(lan.router_ids) == ["R2", "R4", "R5", "R8"]

    def test_figure2_hosts(self):
        net = figures.figure2_network()
        assert sorted(net.hosts) == ["A", "B", "C", "D"]
        net.topology.validate()

    def test_figure3_scene(self):
        net = figures.figure3_network()
        lan = net.topology.subnets[net.landmarks["subnet_s"]]
        assert sorted(lan.router_ids) == ["R2", "R3", "R4", "R6"]


class TestRandomTopo:
    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_random_networks_valid(self, seed):
        network = random_topo.build_random(seed)
        network.topology.validate()
        assert "vantage" in network.topology.hosts

    def test_random_blueprint_deterministic(self):
        a = random_topo.random_blueprint(5)
        b = random_topo.random_blueprint(5)
        assert a.distribution == b.distribution


_REFERENCE_BUILDS = {
    "internet2": (internet2, lambda: internet2.build(seed=3)),
    "geant": (geant, lambda: geant.build(seed=3)),
    "random": (random_topo, lambda: random_topo.build_random(3)),
}


class TestReferenceBuildsValidateOnce:
    """A reference build validates its final topology, vantage stub
    included, exactly once."""

    @pytest.mark.parametrize("name", sorted(_REFERENCE_BUILDS))
    def test_one_validation_per_build(self, name, monkeypatch):
        from repro.netsim import Topology

        calls = []
        validate = Topology.validate

        def counted(topology):
            calls.append(topology)
            validate(topology)

        monkeypatch.setattr(Topology, "validate", counted)
        network = _REFERENCE_BUILDS[name][1]()
        assert calls == [network.topology]

    @pytest.mark.parametrize("name", sorted(_REFERENCE_BUILDS))
    def test_disconnected_blueprint_still_raises(self, name, monkeypatch):
        from repro.netsim import PrefixAllocator, TopologyBuilder, \
            TopologyError

        module, build = _REFERENCE_BUILDS[name]
        synthesize_blueprint = module.synthesize

        def disconnected(blueprint, **kwargs):
            network = synthesize_blueprint(blueprint, **kwargs)
            TopologyBuilder.wrap(
                network.topology,
                allocator=PrefixAllocator("172.31.0.0/16"),
            ).link("island-a", "island-b")
            return network

        monkeypatch.setattr(module, "synthesize", disconnected)
        with pytest.raises(TopologyError, match="not connected"):
            build()
