"""Subnet model.

A subnet is a LAN segment — point-to-point (/31, /30) or multi-access — that
interconnects the routers attached to it.  Its ground-truth identity is its
CIDR :class:`~repro.netsim.addressing.Prefix`; what tracenet *observes* of
it may be smaller (partial responsiveness) or, on inference error, larger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .addressing import Prefix
from .iface import Interface


@dataclass
class Subnet:
    """A LAN segment with its CIDR block and attached interfaces.

    Attributes:
        subnet_id: unique identifier within a topology.
        prefix: the ground-truth CIDR block.
        membership_version: the topology ``version`` at which an interface
            last joined or left this subnet (or it was registered); routing
            reads it to patch only the subnets a mutation touched.
    """

    subnet_id: str
    prefix: Prefix
    _interfaces: Dict[int, Interface] = field(default_factory=dict, repr=False)
    membership_version: int = field(default=0, repr=False, compare=False)

    def attach(self, interface: Interface) -> None:
        """Register an interface on this subnet, validating its address."""
        if interface.subnet_id != self.subnet_id:
            raise ValueError(
                f"interface {interface} belongs to {interface.subnet_id}, "
                f"not {self.subnet_id}"
            )
        if interface.address not in self.prefix:
            raise ValueError(f"{interface} outside subnet block {self.prefix}")
        if self.prefix.length < 31 and interface.address in self.prefix.boundary_addresses():
            raise ValueError(f"{interface} uses a boundary address of {self.prefix}")
        if interface.address in self._interfaces:
            raise ValueError(f"duplicate address on {self.subnet_id}: {interface}")
        self._interfaces[interface.address] = interface

    def detach(self, address: int) -> Interface:
        """Remove (and return) the interface at ``address`` (KeyError when
        absent) — the link-flap / renumbering primitive."""
        return self._interfaces.pop(address)

    @property
    def interfaces(self) -> List[Interface]:
        """All interfaces attached to this subnet."""
        return list(self._interfaces.values())

    @property
    def addresses(self) -> List[int]:
        """All assigned addresses on this subnet."""
        return list(self._interfaces.keys())

    @property
    def router_ids(self) -> List[str]:
        """Identifiers of the routers attached to this subnet (deduplicated,
        first-attachment order).  ``dict.fromkeys`` keeps a 4000-member LAN
        at O(interfaces) instead of the quadratic membership scan."""
        return list(dict.fromkeys(
            iface.router_id for iface in self._interfaces.values()))

    @property
    def is_point_to_point(self) -> bool:
        """True for /31 and /30 blocks — the paper's point-to-point links."""
        return self.prefix.length >= 30

    @property
    def utilization(self) -> float:
        """Fraction of the block's total addresses that are assigned."""
        return len(self._interfaces) / self.prefix.size

    def owns(self, address: int) -> bool:
        """True when ``address`` is assigned on this subnet."""
        return address in self._interfaces

    def interface_for(self, address: int) -> Interface:
        """The interface carrying ``address`` (KeyError when absent)."""
        return self._interfaces[address]

    def __str__(self) -> str:
        return f"Subnet({self.subnet_id}, {self.prefix}, {len(self._interfaces)} ifaces)"
