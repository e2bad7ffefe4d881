"""Unit tests for IPv4 addressing arithmetic."""

import pytest

from repro.netsim.addressing import (
    AddressError,
    Prefix,
    broadcast_of,
    common_prefix_length,
    enclosing_prefix,
    format_ip,
    ip,
    mask_for,
    mate30,
    mate31,
    network_of,
    parse_ip,
    same_prefix,
)


class TestParseFormat:
    def test_parse_simple(self):
        assert parse_ip("10.0.0.1") == (10 << 24) + 1

    def test_parse_zero(self):
        assert parse_ip("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ip("255.255.255.255") == 2**32 - 1

    def test_format_roundtrip(self):
        for text in ("1.2.3.4", "192.168.10.250", "8.8.8.8"):
            assert format_ip(parse_ip(text)) == text

    def test_parse_rejects_three_octets(self):
        with pytest.raises(AddressError):
            parse_ip("10.0.1")

    def test_parse_rejects_large_octet(self):
        with pytest.raises(AddressError):
            parse_ip("10.0.0.256")

    def test_parse_rejects_garbage(self):
        with pytest.raises(AddressError):
            parse_ip("10.0.0.x")

    def test_format_rejects_negative(self):
        with pytest.raises(AddressError):
            format_ip(-1)

    def test_format_rejects_too_large(self):
        with pytest.raises(AddressError):
            format_ip(2**32)

    def test_ip_coerces_string(self):
        assert ip("10.0.0.1") == parse_ip("10.0.0.1")

    def test_ip_passes_int(self):
        assert ip(42) == 42

    def test_ip_rejects_float(self):
        with pytest.raises(AddressError):
            ip(1.5)

    def test_ip_rejects_out_of_range_int(self):
        with pytest.raises(AddressError):
            ip(2**32)


class TestMasks:
    def test_mask_32(self):
        assert mask_for(32) == 2**32 - 1

    def test_mask_0(self):
        assert mask_for(0) == 0

    def test_mask_24(self):
        assert mask_for(24) == parse_ip("255.255.255.0")

    def test_mask_30(self):
        assert mask_for(30) == parse_ip("255.255.255.252")

    def test_mask_rejects_invalid(self):
        with pytest.raises(AddressError):
            mask_for(33)

    def test_network_of(self):
        assert network_of(parse_ip("10.1.2.3"), 24) == parse_ip("10.1.2.0")

    def test_broadcast_of(self):
        assert broadcast_of(parse_ip("10.1.2.3"), 24) == parse_ip("10.1.2.255")

    def test_broadcast_of_slash0(self):
        assert broadcast_of(0, 0) == 2**32 - 1

    def test_same_prefix_true(self):
        assert same_prefix(parse_ip("10.0.0.1"), parse_ip("10.0.0.2"), 30)

    def test_same_prefix_false(self):
        assert not same_prefix(parse_ip("10.0.0.1"), parse_ip("10.0.0.5"), 30)


class TestMates:
    def test_mate31_flips_last_bit(self):
        assert mate31(parse_ip("10.0.0.0")) == parse_ip("10.0.0.1")
        assert mate31(parse_ip("10.0.0.1")) == parse_ip("10.0.0.0")

    def test_mate31_involution(self):
        addr = parse_ip("192.168.3.77")
        assert mate31(mate31(addr)) == addr

    def test_mate30_pairs_usable_hosts(self):
        # In 10.0.0.0/30 the hosts are .1 and .2 — mates of each other.
        assert mate30(parse_ip("10.0.0.1")) == parse_ip("10.0.0.2")
        assert mate30(parse_ip("10.0.0.2")) == parse_ip("10.0.0.1")

    def test_mate30_involution(self):
        addr = parse_ip("172.16.5.9")
        assert mate30(mate30(addr)) == addr

    def test_mates_differ(self):
        addr = parse_ip("10.1.1.1")
        assert mate30(addr) != mate31(addr)

    def test_mates_share_their_blocks(self):
        addr = parse_ip("10.9.8.7")
        assert same_prefix(addr, mate31(addr), 31)
        assert same_prefix(addr, mate30(addr), 30)


class TestCommonPrefixLength:
    def test_identical(self):
        assert common_prefix_length(5, 5) == 32

    def test_adjacent(self):
        assert common_prefix_length(parse_ip("10.0.0.0"), parse_ip("10.0.0.1")) == 31

    def test_disjoint_top_bit(self):
        assert common_prefix_length(0, 1 << 31) == 0

    def test_known_value(self):
        a = parse_ip("10.0.0.1")
        b = parse_ip("10.0.0.6")
        assert common_prefix_length(a, b) == 29


class TestPrefix:
    def test_parse(self):
        p = Prefix.parse("10.0.0.0/30")
        assert p.network == parse_ip("10.0.0.0")
        assert p.length == 30

    def test_parse_rejects_missing_slash(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0")

    def test_normalizes_host_bits(self):
        assert Prefix(parse_ip("10.0.0.3"), 30).network == parse_ip("10.0.0.0")

    def test_rejects_bad_length(self):
        with pytest.raises(AddressError):
            Prefix(0, 40)

    def test_containing(self):
        p = Prefix.containing(parse_ip("10.1.2.3"), 24)
        assert str(p) == "10.1.2.0/24"

    def test_size(self):
        assert Prefix.parse("0.0.0.0/24").size == 256
        assert Prefix.parse("0.0.0.0/31").size == 2
        assert Prefix.parse("0.0.0.0/32").size == 1

    def test_host_capacity_slash29(self):
        assert Prefix.parse("10.0.0.0/29").host_capacity == 6

    def test_host_capacity_slash31_rfc3021(self):
        assert Prefix.parse("10.0.0.0/31").host_capacity == 2

    def test_contains_address(self):
        p = Prefix.parse("10.0.0.0/29")
        assert parse_ip("10.0.0.7") in p
        assert parse_ip("10.0.0.8") not in p

    def test_contains_accepts_strings(self):
        assert "10.0.0.3" in Prefix.parse("10.0.0.0/30")

    @pytest.mark.parametrize("bad", [-1, 2**32, 1.5, None, "10.0.0"])
    def test_contains_rejects_out_of_range_or_ill_typed(self, bad):
        with pytest.raises(AddressError):
            bad in Prefix.parse("0.0.0.0/0")

    def test_contains_prefix_nested(self):
        outer = Prefix.parse("10.0.0.0/24")
        inner = Prefix.parse("10.0.0.128/25")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)

    def test_contains_prefix_self(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.contains_prefix(p)

    def test_overlaps_disjoint(self):
        a = Prefix.parse("10.0.0.0/30")
        b = Prefix.parse("10.0.0.4/30")
        assert not a.overlaps(b)

    def test_overlaps_nested_symmetric(self):
        outer = Prefix.parse("10.0.0.0/24")
        inner = Prefix.parse("10.0.0.0/30")
        assert outer.overlaps(inner)
        assert inner.overlaps(outer)

    def test_addresses_order_and_count(self):
        p = Prefix.parse("10.0.0.4/30")
        addrs = list(p.addresses())
        assert addrs == [parse_ip("10.0.0.4") + i for i in range(4)]

    def test_host_addresses_excludes_boundaries(self):
        p = Prefix.parse("10.0.0.0/29")
        hosts = list(p.host_addresses())
        assert len(hosts) == 6
        assert p.network not in hosts
        assert p.broadcast not in hosts

    def test_host_addresses_slash31_includes_all(self):
        p = Prefix.parse("10.0.0.0/31")
        assert len(list(p.host_addresses())) == 2

    def test_boundary_addresses(self):
        p = Prefix.parse("10.0.0.0/30")
        assert p.boundary_addresses() == [p.network, p.broadcast]

    def test_boundary_addresses_slash31_empty(self):
        assert Prefix.parse("10.0.0.0/31").boundary_addresses() == []

    def test_parent(self):
        p = Prefix.parse("10.0.0.4/30")
        assert str(p.parent()) == "10.0.0.0/29"

    def test_parent_of_slash0_fails(self):
        with pytest.raises(AddressError):
            Prefix.parse("0.0.0.0/0").parent()

    def test_halves(self):
        lo, hi = Prefix.parse("10.0.0.0/29").halves()
        assert str(lo) == "10.0.0.0/30"
        assert str(hi) == "10.0.0.4/30"

    def test_halves_of_slash32_fails(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/32").halves()

    def test_ordering_and_hash(self):
        a = Prefix.parse("10.0.0.0/30")
        b = Prefix.parse("10.0.0.0/30")
        c = Prefix.parse("10.0.0.4/30")
        assert a == b
        assert hash(a) == hash(b)
        assert a < c

    def test_str(self):
        assert str(Prefix.parse("192.168.1.0/24")) == "192.168.1.0/24"


class TestEnclosingPrefix:
    def test_empty(self):
        assert enclosing_prefix([]) is None

    def test_single_address(self):
        p = enclosing_prefix([parse_ip("10.0.0.5")])
        assert str(p) == "10.0.0.5/32"

    def test_pair_in_slash31(self):
        p = enclosing_prefix([parse_ip("10.0.0.0"), parse_ip("10.0.0.1")])
        assert str(p) == "10.0.0.0/31"

    def test_hosts_of_slash30(self):
        p = enclosing_prefix([parse_ip("10.0.0.1"), parse_ip("10.0.0.2")])
        assert str(p) == "10.0.0.0/30"

    def test_spanning_slash29(self):
        addrs = [parse_ip("10.0.0.1"), parse_ip("10.0.0.6")]
        assert str(enclosing_prefix(addrs)) == "10.0.0.0/29"

    def test_covers_all_members(self):
        addrs = [parse_ip("10.0.0.9"), parse_ip("10.0.0.14"), parse_ip("10.0.0.11")]
        block = enclosing_prefix(addrs)
        assert all(a in block for a in addrs)

    def test_max_length_cap(self):
        p = enclosing_prefix([parse_ip("10.0.0.5")], max_length=30)
        assert p.length == 30
