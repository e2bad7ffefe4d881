"""Router model and router response configurations.

Section 3.1(iii) of the paper enumerates the five response policies observed
on the Internet: *nil*, *probed*, *incoming*, *shortest-path*, and *default*
interface routers.  Responsive routers normally act as probed-interface
routers for direct probes and as one of the other configurations for
indirect probes (a router cannot be a probed-interface router for an
indirect query — the probe never names one of its addresses).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .iface import Interface


class IndirectConfig(enum.Enum):
    """How a router sources its ICMP TTL-Exceeded replies."""

    NIL = "nil"
    INCOMING = "incoming"
    SHORTEST_PATH = "shortest-path"
    DEFAULT = "default"


class DirectConfig(enum.Enum):
    """How a router answers probes destined to one of its own addresses."""

    NIL = "nil"
    PROBED = "probed"


@dataclass
class Router:
    """A router: a named set of interfaces plus its response behaviour.

    Attributes:
        router_id: unique identifier within a topology.
        indirect_config: source-address policy for TTL-Exceeded replies.
        direct_config: reply policy for probes to the router's own addresses.
        default_address: address reported by DEFAULT-configured routers; when
            unset, the numerically lowest interface address is used.
    """

    router_id: str
    indirect_config: IndirectConfig = IndirectConfig.INCOMING
    direct_config: DirectConfig = DirectConfig.PROBED
    default_address: Optional[int] = None
    _interfaces: Dict[int, Interface] = field(default_factory=dict, repr=False)
    # First interface per subnet, kept in step with _interfaces so
    # interface_on() is a dict probe instead of a scan (it sits on the
    # engine's per-hop forwarding path).
    _by_subnet: Dict[str, Interface] = field(default_factory=dict, repr=False)

    def attach(self, interface: Interface) -> None:
        """Register an interface on this router (one address, one slot)."""
        if interface.router_id != self.router_id:
            raise ValueError(
                f"interface {interface} belongs to {interface.router_id}, "
                f"not {self.router_id}"
            )
        if interface.address in self._interfaces:
            raise ValueError(f"duplicate address on {self.router_id}: {interface}")
        self._interfaces[interface.address] = interface
        self._by_subnet.setdefault(interface.subnet_id, interface)

    def detach(self, address: int) -> Interface:
        """Remove (and return) the interface at ``address`` (KeyError when
        absent).  ``_by_subnet`` holds the *first* interface per subnet, so
        detaching that one promotes the router's next interface on the same
        subnet (insertion order), keeping ``interface_on`` consistent."""
        interface = self._interfaces.pop(address)
        if self._by_subnet.get(interface.subnet_id) is interface:
            del self._by_subnet[interface.subnet_id]
            for other in self._interfaces.values():
                if other.subnet_id == interface.subnet_id:
                    self._by_subnet[interface.subnet_id] = other
                    break
        return interface

    @property
    def interfaces(self) -> List[Interface]:
        """All interfaces hosted by this router."""
        return list(self._interfaces.values())

    @property
    def addresses(self) -> List[int]:
        """All addresses assigned to this router's interfaces."""
        return list(self._interfaces.keys())

    @property
    def subnet_ids(self) -> List[str]:
        """Identifiers of the subnets this router attaches to."""
        return [iface.subnet_id for iface in self._interfaces.values()]

    def owns(self, address: int) -> bool:
        """True when ``address`` is assigned to one of this router's interfaces."""
        return address in self._interfaces

    def interface_for(self, address: int) -> Interface:
        """The interface carrying ``address`` (KeyError when absent)."""
        return self._interfaces[address]

    def interface_on(self, subnet_id: str) -> Optional[Interface]:
        """The router's first interface on ``subnet_id``, or None."""
        return self._by_subnet.get(subnet_id)

    def report_address(self) -> Optional[int]:
        """Address a DEFAULT-configured router stamps on replies."""
        if self.default_address is not None:
            return self.default_address
        if not self._interfaces:
            return None
        return min(self._interfaces.keys())

    def __str__(self) -> str:
        return f"Router({self.router_id}, {len(self._interfaces)} ifaces)"
