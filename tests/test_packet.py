"""Unit tests for probe/response packet models."""

import dataclasses

import pytest

from repro.netsim.addressing import parse_ip
from repro.netsim.packet import (
    ALIVE_RESPONSES,
    DEFAULT_TTL,
    Probe,
    Protocol,
    Response,
    ResponseType,
)

SRC = parse_ip("192.168.0.2")
DST = parse_ip("10.0.0.1")


class TestProbe:
    def test_defaults(self):
        probe = Probe(src=SRC, dst=DST)
        assert probe.ttl == DEFAULT_TTL
        assert probe.protocol == Protocol.ICMP
        assert probe.flow_id == 0

    def test_probe_ids_increase(self):
        a = Probe(src=SRC, dst=DST)
        b = Probe(src=SRC, dst=DST)
        assert b.probe_id > a.probe_id

    def test_rejects_zero_ttl(self):
        with pytest.raises(ValueError):
            Probe(src=SRC, dst=DST, ttl=0)

    def test_positional_matches_keyword(self):
        fast = Probe(SRC, DST, 3, Protocol.TCP, 4)
        slow = Probe(src=SRC, dst=DST, ttl=3, protocol=Protocol.TCP,
                     flow_id=4)
        assert slow.probe_id == fast.probe_id + 1
        assert dataclasses.replace(fast, probe_id=slow.probe_id) == slow

    def test_zero_ttl_draws_its_id_first(self):
        before = Probe(SRC, DST).probe_id
        with pytest.raises(ValueError, match="probe TTL must be >= 1, got 0"):
            Probe(SRC, DST, 0)
        assert Probe(SRC, DST).probe_id == before + 2

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Probe(SRC, DST).ttl = 1

    def test_is_direct_large_ttl(self):
        assert Probe(src=SRC, dst=DST, ttl=DEFAULT_TTL).is_direct

    def test_is_not_direct_small_ttl(self):
        assert not Probe(src=SRC, dst=DST, ttl=3).is_direct

    def test_describe_mentions_endpoints(self):
        text = Probe(src=SRC, dst=DST, ttl=5).describe()
        assert "192.168.0.2" in text
        assert "10.0.0.1" in text
        assert "ttl=5" in text


class TestResponse:
    def _probe(self, protocol=Protocol.ICMP):
        return Probe(src=SRC, dst=DST, protocol=protocol)

    def test_positional_matches_keyword(self):
        probe = self._probe()
        fast = Response(ResponseType.ECHO_REPLY, DST, probe, "R1")
        slow = Response(kind=ResponseType.ECHO_REPLY, source=DST,
                        probe=probe, responder="R1")
        assert fast == slow
        assert Response(ResponseType.ECHO_REPLY, DST, probe).responder is None

    def test_frozen_and_slotted(self):
        response = Response(ResponseType.ECHO_REPLY, DST, self._probe())
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.source = SRC
        assert not hasattr(response, "__dict__")

    def test_alive_signal_icmp(self):
        response = Response(kind=ResponseType.ECHO_REPLY, source=DST,
                            probe=self._probe())
        assert response.is_alive_signal

    def test_alive_signal_udp_is_port_unreachable(self):
        response = Response(kind=ResponseType.PORT_UNREACHABLE, source=DST,
                            probe=self._probe(Protocol.UDP))
        assert response.is_alive_signal

    def test_alive_signal_tcp_is_rst(self):
        response = Response(kind=ResponseType.TCP_RST, source=DST,
                            probe=self._probe(Protocol.TCP))
        assert response.is_alive_signal

    def test_echo_reply_not_alive_for_udp(self):
        response = Response(kind=ResponseType.ECHO_REPLY, source=DST,
                            probe=self._probe(Protocol.UDP))
        assert not response.is_alive_signal

    def test_ttl_exceeded_flag(self):
        response = Response(kind=ResponseType.TTL_EXCEEDED, source=SRC,
                            probe=self._probe())
        assert response.is_ttl_exceeded
        assert not response.is_alive_signal

    def test_alive_responses_table_is_complete(self):
        assert set(ALIVE_RESPONSES) == set(Protocol)

    def test_describe_mentions_source(self):
        response = Response(kind=ResponseType.TTL_EXCEEDED, source=DST,
                            probe=self._probe())
        assert "10.0.0.1" in response.describe()
