"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TraceNET
from repro.evaluation.matching import Category, match_subnets
from repro.evaluation.similarity import prefix_similarity, size_similarity
from repro.netsim import Engine, Prefix, mate30, mate31
from repro.netsim.addressing import (
    MAX_IPV4,
    common_prefix_length,
    enclosing_prefix,
    format_ip,
    parse_ip,
    same_prefix,
)
from repro.topogen import random_topo

addresses = st.integers(min_value=0, max_value=MAX_IPV4)
prefix_lengths = st.integers(min_value=0, max_value=32)


class TestAddressingProperties:
    @given(addresses)
    def test_parse_format_roundtrip(self, addr):
        assert parse_ip(format_ip(addr)) == addr

    @given(addresses)
    def test_mate31_involution_and_block(self, addr):
        assert mate31(mate31(addr)) == addr
        assert same_prefix(addr, mate31(addr), 31)

    @given(addresses)
    def test_mate30_involution_and_block(self, addr):
        assert mate30(mate30(addr)) == addr
        assert same_prefix(addr, mate30(addr), 30)
        assert mate30(addr) != mate31(addr)

    @given(addresses, addresses)
    def test_common_prefix_symmetric(self, a, b):
        length = common_prefix_length(a, b)
        assert length == common_prefix_length(b, a)
        if length < 32:
            assert same_prefix(a, b, length)
            assert not same_prefix(a, b, length + 1)

    @given(addresses, prefix_lengths)
    def test_prefix_contains_its_network_and_broadcast(self, addr, length):
        block = Prefix.containing(addr, length)
        assert addr in block
        assert block.network in block
        assert block.broadcast in block
        assert block.size == block.broadcast - block.network + 1

    @given(addresses, st.integers(min_value=1, max_value=32))
    def test_parent_contains_child(self, addr, length):
        child = Prefix.containing(addr, length)
        parent = child.parent()
        assert parent.contains_prefix(child)
        assert parent.length == length - 1

    @given(addresses, st.integers(min_value=0, max_value=31))
    def test_halves_partition_block(self, addr, length):
        block = Prefix.containing(addr, length)
        low, high = block.halves()
        assert low.size + high.size == block.size
        assert not low.overlaps(high)
        assert block.contains_prefix(low) and block.contains_prefix(high)

    @given(st.lists(addresses, min_size=1, max_size=12))
    def test_enclosing_prefix_covers_everything(self, addrs):
        block = enclosing_prefix(addrs)
        assert all(a in block for a in addrs)
        # Minimality: the child block containing the first address cannot
        # cover everything unless all addresses coincide.
        if block.length < 32:
            child = Prefix.containing(addrs[0], block.length + 1)
            assert not all(a in child for a in addrs)


class TestMatchingProperties:
    prefixes = st.builds(
        Prefix.containing,
        addresses,
        st.integers(min_value=20, max_value=31),
    )

    @given(st.lists(prefixes, min_size=1, max_size=12, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_every_original_classified_once(self, originals):
        # De-overlap the originals (ground truth never overlaps).
        clean = []
        for block in originals:
            if not any(block.overlaps(other) for other in clean):
                clean.append(block)
        report = match_subnets(clean, clean)
        assert len(report.outcomes) == len(clean)
        assert all(o.category == Category.EXACT for o in report.outcomes)
        assert report.exact_match_rate() == 1.0

    @given(st.lists(prefixes, min_size=1, max_size=10, unique=True),
           st.lists(prefixes, max_size=10, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_similarities_bounded(self, originals, collected):
        clean = []
        for block in originals:
            if not any(block.overlaps(other) for other in clean):
                clean.append(block)
        report = match_subnets(clean, collected)
        assert 0.0 <= prefix_similarity(report) <= 1.0
        assert 0.0 <= size_similarity(report) <= 1.0


class TestTraceNETProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @example(seed=2015)
    @example(seed=4819)
    @settings(max_examples=10, deadline=None)
    def test_random_network_trace_invariants(self, seed):
        """On any random topology: traces terminate, collected subnets
        contain their pivots, members share the observed block, and
        distinct collected subnets never overlap (same-vantage view)."""
        network = random_topo.build_random(seed, max_p2p=10, max_lans=3)
        engine = Engine(network.topology, policy=network.policy)
        tool = TraceNET(engine, "vantage", max_hops=25)
        rng = random.Random(seed)
        targets = network.pick_targets(rng)
        for target in targets[:8]:
            result = tool.trace(target)
            assert len(result.hops) <= 25
        for subnet in tool.collected_subnets:
            assert subnet.pivot in subnet.members
            assert all(member in subnet.prefix for member in subnet.members)
        blocks = [s.prefix for s in tool.collected_subnets if s.size > 1]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.overlaps(b) or a == b, (str(a), str(b))


class TestStoreProperties:
    @given(
        pivot=addresses,
        extra=st.sets(addresses, max_size=6),
        distance=st.integers(min_value=1, max_value=20),
        length=st.one_of(st.none(), st.integers(min_value=20, max_value=32)),
    )
    @settings(max_examples=40, deadline=None)
    def test_subnet_roundtrip(self, pivot, extra, distance, length):
        from repro.core.results import ObservedSubnet
        from repro.mapping import subnet_from_dict, subnet_to_dict

        members = set(extra) | {pivot}
        if length is not None:
            block = Prefix.containing(pivot, length)
            members = {m for m in members if m in block} | {pivot}
        original = ObservedSubnet(pivot=pivot, pivot_distance=distance,
                                  members=set(members), prefix_length=length)
        rebuilt = subnet_from_dict(subnet_to_dict(original))
        assert rebuilt.pivot == original.pivot
        assert rebuilt.members == original.members
        assert rebuilt.prefix == original.prefix


class TestMergeProperties:
    observations = st.lists(
        st.tuples(
            st.sampled_from(["rice", "umass", "uoregon"]),
            addresses,
            st.integers(min_value=24, max_value=31),
        ),
        max_size=12,
    )

    @given(observations)
    @settings(max_examples=40, deadline=None)
    def test_merged_blocks_never_overlap(self, raw):
        from repro.core.results import ObservedSubnet
        from repro.mapping import merge_collections

        collections = {}
        for vantage, pivot, length in raw:
            block = Prefix.containing(pivot, length)
            members = {block.network, block.broadcast, pivot}
            subnet = ObservedSubnet(pivot=pivot, pivot_distance=3,
                                    members=members, prefix_length=length)
            collections.setdefault(vantage, []).append(subnet)
        merged = merge_collections(collections)
        for i, a in enumerate(merged):
            for b in merged[i + 1:]:
                assert not a.prefix.overlaps(b.prefix), (str(a.prefix),
                                                         str(b.prefix))

    @given(observations)
    @settings(max_examples=40, deadline=None)
    def test_every_observer_counted_at_most_once(self, raw):
        from repro.core.results import ObservedSubnet
        from repro.mapping import merge_collections

        collections = {}
        for vantage, pivot, length in raw:
            block = Prefix.containing(pivot, length)
            subnet = ObservedSubnet(pivot=pivot, pivot_distance=3,
                                    members={block.network, pivot},
                                    prefix_length=length)
            collections.setdefault(vantage, []).append(subnet)
        for subnet in merge_collections(collections):
            assert subnet.observers <= set(collections)
            assert subnet.confirmation <= len(collections)
