"""Probe and response packet models.

The simulator deals in two packet shapes: a :class:`Probe` sent by a vantage
point and a :class:`Response` generated by a router (or the absence of one,
modelled as ``None``).  The protocol/response-type vocabulary mirrors the
paper's Section 3.1: ICMP ECHO REQUEST, UDP to a likely-unused port, and the
second packet of a TCP handshake, answered respectively by ICMP ECHO REPLY,
ICMP PORT UNREACHABLE, and TCP RESET — or ICMP TTL EXCEEDED when the probe's
TTL expires en route.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .addressing import format_ip

DEFAULT_TTL = 64
UNUSED_UDP_PORT = 33434  # the traceroute convention
RECORD_ROUTE_SLOTS = 9  # RFC 791 option size limit


class Protocol(enum.Enum):
    """Probe transport protocol (paper Section 3.1(i))."""

    ICMP = "icmp"
    UDP = "udp"
    TCP = "tcp"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with ``==``; ``Enum.__hash__`` hashes the name in Python,
    # and protocols key several per-probe dicts (the prober's cache, the
    # engine's path memo and stats, the alive-response table).  Nothing
    # iterates a hash-ordered set of protocols.
    __hash__ = object.__hash__


class ResponseType(enum.Enum):
    """Every response message kind the paper's pseudocode matches on."""

    ECHO_REPLY = "echo-reply"
    TTL_EXCEEDED = "ttl-exceeded"
    PORT_UNREACHABLE = "port-unreachable"
    TCP_RST = "tcp-rst"
    HOST_UNREACHABLE = "host-unreachable"
    NETWORK_UNREACHABLE = "network-unreachable"


#: Response types that signal "the probed address is alive" for a protocol.
ALIVE_RESPONSES = {
    Protocol.ICMP: ResponseType.ECHO_REPLY,
    Protocol.UDP: ResponseType.PORT_UNREACHABLE,
    Protocol.TCP: ResponseType.TCP_RST,
}

#: On-the-wire probe sizes (bytes): IP header + transport header/payload as
#: sent by the standard tools (ping's 64-byte echo, traceroute's UDP probe,
#: a bare TCP SYN/ACK).  Used for bandwidth accounting.
PROBE_WIRE_BYTES = {
    Protocol.ICMP: 64,
    Protocol.UDP: 60,
    Protocol.TCP: 58,
}


def wire_bytes(protocol: Protocol, probes: int) -> int:
    """Bytes put on the wire by ``probes`` probe packets of ``protocol``."""
    return PROBE_WIRE_BYTES[protocol] * probes

_probe_ids = itertools.count(1)


@dataclass(frozen=True)
class Probe:
    """A single probe packet.

    ``flow_id`` stands in for the header fields per-flow load balancers hash
    (ports / ICMP checksum-id); Paris traceroute keeps it constant, classic
    traceroute varies it per hop.
    """

    src: int
    dst: int
    ttl: int = DEFAULT_TTL
    protocol: Protocol = Protocol.ICMP
    flow_id: int = 0
    #: IP record-route option (RFC 791): compliant routers stamp their
    #: outgoing interface, up to 9 slots (the technique of the paper's [20]).
    record_route: bool = False
    probe_id: int = field(default_factory=_probe_ids.__next__)

    def __post_init__(self):
        if self.ttl < 1:
            raise ValueError(f"probe TTL must be >= 1, got {self.ttl}")

    @property
    def is_direct(self) -> bool:
        """Direct probes carry a "large enough" TTL (paper 3.1(i))."""
        return self.ttl >= DEFAULT_TTL

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for wire logs."""
        return (
            f"{self.protocol.value} probe #{self.probe_id} "
            f"{format_ip(self.src)} -> {format_ip(self.dst)} ttl={self.ttl}"
        )


@dataclass(frozen=True)
class Response:
    """A response observed at the vantage point.

    ``source`` is the IP address in the response's source field — the single
    most load-bearing bit of information in the whole system: for
    TTL_EXCEEDED it identifies (one interface of) the router at the expiry
    hop, for ECHO_REPLY it is normally the probed address.  ``responder`` is
    simulator ground truth (the router id) used only by tests and debugging,
    never by tracenet itself.

    ``ip_id`` carries the response's IP identification field.  Routers that
    stamp all their packets from one shared counter are what Ally-style
    alias resolution [Rocketfuel] keys on; the engine models both shared
    and randomized ID behaviours.
    """

    kind: ResponseType
    source: int
    probe: Probe
    responder: Optional[str] = None
    ip_id: Optional[int] = None
    #: record-route stamps echoed back to the prober (when requested)
    record_route: tuple = ()

    @property
    def is_alive_signal(self) -> bool:
        """True when this response proves the probed address is in use."""
        return self.kind == ALIVE_RESPONSES[self.probe.protocol]

    @property
    def is_ttl_exceeded(self) -> bool:
        return self.kind == ResponseType.TTL_EXCEEDED

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for wire logs."""
        return f"{self.kind.value} from {format_ip(self.source)} (probe #{self.probe.probe_id})"
