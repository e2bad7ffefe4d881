"""The router-level topology graph.

A :class:`Topology` is the bipartite router↔subnet graph of Section 3: every
interface binds one router to one subnet.  Vantage points are modelled as
:class:`Host` entries — an address on some subnet plus the gateway router
that forwards for it.  The topology is pure structure; forwarding semantics
live in :mod:`repro.netsim.engine` and path computation in
:mod:`repro.netsim.routing`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .addressing import Prefix, format_ip
from .iface import Interface
from .router import Router
from .subnet import Subnet


class TopologyError(ValueError):
    """Raised for structurally invalid topologies."""


@dataclass(frozen=True)
class Host:
    """An end host (vantage point or probe target) attached to a subnet."""

    host_id: str
    address: int
    subnet_id: str
    gateway_router_id: str

    @property
    def ip_text(self) -> str:
        return format_ip(self.address)


class Topology:
    """Routers, subnets, interfaces and hosts, with fast address lookup."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self.routers: Dict[str, Router] = {}
        self.subnets: Dict[str, Subnet] = {}
        self.hosts: Dict[str, Host] = {}
        self._iface_by_address: Dict[int, Interface] = {}
        self._host_by_address: Dict[int, Host] = {}
        # Sorted (network, broadcast, subnet_id) interval index, maintained
        # incrementally: overlap checks and block lookups are O(log n), so
        # registering n subnets costs O(n log n) instead of the O(n^2)
        # all-pairs scan a million-interface build cannot afford.
        self._blocks: List = []
        # Mutation counter: bumped by every add, connect, disconnect and
        # removal (hosts and bare routers included), so derived caches
        # (routing tables, engine memos) can notice.  Subnets stamp the
        # version of their last membership change, which tells a routing
        # table which rows a bump touched.
        self.version = 0

    # -- construction --------------------------------------------------

    def add_router(self, router: Router) -> Router:
        """Register a router (id must be fresh)."""
        if router.router_id in self.routers:
            raise TopologyError(f"duplicate router id {router.router_id}")
        self.routers[router.router_id] = router
        self.version += 1
        return router

    def add_subnet(self, subnet: Subnet) -> Subnet:
        """Register a subnet; its block must not overlap an existing one."""
        if subnet.subnet_id in self.subnets:
            raise TopologyError(f"duplicate subnet id {subnet.subnet_id}")
        # CIDR blocks either nest or are disjoint, so interval intersection
        # is exactly prefix overlap — checking the sorted neighbours covers
        # every existing block without an O(n) scan.
        entry = (subnet.prefix.network, subnet.prefix.broadcast,
                 subnet.subnet_id)
        position = bisect.bisect_left(self._blocks, entry)
        for neighbor in (position - 1, position):
            if 0 <= neighbor < len(self._blocks):
                network, broadcast, other_id = self._blocks[neighbor]
                if network <= entry[1] and entry[0] <= broadcast:
                    other = self.subnets[other_id]
                    raise TopologyError(
                        f"subnet {subnet.subnet_id} block {subnet.prefix} "
                        f"overlaps {other.subnet_id} block {other.prefix}"
                    )
        self._blocks.insert(position, entry)
        self.subnets[subnet.subnet_id] = subnet
        self.version += 1
        subnet.membership_version = self.version
        return subnet

    def connect(self, router_id: str, subnet_id: str, address: int) -> Interface:
        """Create an interface binding ``router_id`` to ``subnet_id`` at ``address``."""
        if router_id not in self.routers:
            raise TopologyError(f"unknown router {router_id}")
        if subnet_id not in self.subnets:
            raise TopologyError(f"unknown subnet {subnet_id}")
        if address in self._iface_by_address or address in self._host_by_address:
            raise TopologyError(f"address {format_ip(address)} already in use")
        interface = Interface(address=address, router_id=router_id, subnet_id=subnet_id)
        subnet = self.subnets[subnet_id]
        subnet.attach(interface)
        self.routers[router_id].attach(interface)
        self._iface_by_address[address] = interface
        self.version += 1
        subnet.membership_version = self.version
        return interface

    def add_host(self, host_id: str, subnet_id: str, address: int,
                 gateway_router_id: Optional[str] = None) -> Host:
        """Attach an end host to ``subnet_id``.

        When ``gateway_router_id`` is omitted the first router on the subnet
        serves as gateway.
        """
        if host_id in self.hosts:
            raise TopologyError(f"duplicate host id {host_id}")
        if subnet_id not in self.subnets:
            raise TopologyError(f"unknown subnet {subnet_id}")
        subnet = self.subnets[subnet_id]
        if address not in subnet.prefix:
            raise TopologyError(
                f"host address {format_ip(address)} outside {subnet.prefix}"
            )
        if address in self._iface_by_address or address in self._host_by_address:
            raise TopologyError(f"address {format_ip(address)} already in use")
        if gateway_router_id is None:
            router_ids = subnet.router_ids
            if not router_ids:
                raise TopologyError(f"subnet {subnet_id} has no routers to gateway through")
            gateway_router_id = router_ids[0]
        gateway = self.routers.get(gateway_router_id)
        if gateway is None or gateway.interface_on(subnet_id) is None:
            raise TopologyError(
                f"gateway {gateway_router_id} is not attached to {subnet_id}"
            )
        host = Host(host_id=host_id, address=address, subnet_id=subnet_id,
                    gateway_router_id=gateway_router_id)
        self.hosts[host_id] = host
        self._host_by_address[address] = host
        self.version += 1
        return host

    # -- mutation (netsim.dynamics primitives) -------------------------

    def disconnect(self, address: int) -> Interface:
        """Remove the interface at ``address`` from its router and subnet.

        The inverse of :meth:`connect` — the link-flap / renumbering
        primitive.  Returns the removed interface so a flap can restore
        the identical binding later.  Hosts are never disconnected.
        """
        interface = self._iface_by_address.pop(address, None)
        if interface is None:
            raise TopologyError(
                f"no interface at {format_ip(address)} to disconnect")
        subnet = self.subnets[interface.subnet_id]
        subnet.detach(address)
        self.routers[interface.router_id].detach(address)
        self.version += 1
        subnet.membership_version = self.version
        return interface

    def remove_subnet(self, subnet_id: str) -> Subnet:
        """Unregister an *empty* subnet (no interfaces, no hosts).

        Disconnect every interface first; a subnet with attached hosts
        cannot be removed (vantage points must survive churn).
        """
        subnet = self.subnets.get(subnet_id)
        if subnet is None:
            raise TopologyError(f"unknown subnet {subnet_id}")
        if subnet.interfaces:
            raise TopologyError(
                f"subnet {subnet_id} still has interfaces attached")
        if any(host.subnet_id == subnet_id for host in self.hosts.values()):
            raise TopologyError(f"subnet {subnet_id} still hosts end hosts")
        entry = (subnet.prefix.network, subnet.prefix.broadcast, subnet_id)
        position = bisect.bisect_left(self._blocks, entry)
        if position < len(self._blocks) and self._blocks[position] == entry:
            del self._blocks[position]
        del self.subnets[subnet_id]
        self.version += 1
        return subnet

    # -- lookups --------------------------------------------------------

    def interface_at(self, address: int) -> Optional[Interface]:
        """The interface assigned ``address``, or None."""
        return self._iface_by_address.get(address)

    def host_at(self, address: int) -> Optional[Host]:
        """The host assigned ``address``, or None."""
        return self._host_by_address.get(address)

    def subnet_containing(self, address: int) -> Optional[Subnet]:
        """The subnet whose block contains ``address``, or None."""
        iface = self._iface_by_address.get(address)
        if iface is not None:
            return self.subnets[iface.subnet_id]
        host = self._host_by_address.get(address)
        if host is not None:
            return self.subnets[host.subnet_id]
        position = bisect.bisect_right(self._blocks, (address, 2**32, "")) - 1
        if position >= 0:
            network, broadcast, subnet_id = self._blocks[position]
            if network <= address <= broadcast:
                return self.subnets[subnet_id]
        return None

    def router_hosting(self, address: int) -> Optional[Router]:
        """The router owning the interface at ``address``, or None."""
        iface = self._iface_by_address.get(address)
        if iface is None:
            return None
        return self.routers[iface.router_id]

    def neighbors(self, router_id: str) -> List[str]:
        """Router ids one subnet away from ``router_id`` (no duplicates)."""
        seen: Dict[str, None] = {}
        for subnet_id in self.routers[router_id].subnet_ids:
            for other_id in self.subnets[subnet_id].router_ids:
                if other_id != router_id:
                    seen.setdefault(other_id)
        return list(seen)

    @property
    def all_interface_addresses(self) -> List[int]:
        """Every assigned interface address in the topology."""
        return list(self._iface_by_address.keys())

    def ground_truth_prefixes(self) -> List[Prefix]:
        """Every subnet's true CIDR block (the evaluation baseline)."""
        return [subnet.prefix for subnet in self.subnets.values()]

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants the engine relies on.

        Raises TopologyError on: routers or subnets with no interfaces,
        disconnected router graphs, or subnets whose attached routers do not
        form a single LAN broadcast domain (always true by construction, but
        revalidated after manual edits).
        """
        for router in self.routers.values():
            if not router.interfaces:
                raise TopologyError(f"router {router.router_id} has no interfaces")
        for subnet in self.subnets.values():
            if not subnet.interfaces:
                raise TopologyError(f"subnet {subnet.subnet_id} has no interfaces")
        if self.routers and not self._is_connected():
            raise TopologyError(f"topology {self.name} is not connected")

    def _is_connected(self) -> bool:
        # Bipartite flood fill: large LANs cost O(interfaces), not O(members^2).
        start = next(iter(self.routers))
        seen_routers = {start}
        seen_subnets = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for subnet_id in self.routers[current].subnet_ids:
                if subnet_id in seen_subnets:
                    continue
                seen_subnets.add(subnet_id)
                for neighbor in self.subnets[subnet_id].router_ids:
                    if neighbor not in seen_routers:
                        seen_routers.add(neighbor)
                        frontier.append(neighbor)
        return len(seen_routers) == len(self.routers)

    def summary(self) -> str:
        """One-line statistics string for logs and examples."""
        return (
            f"{self.name}: {len(self.routers)} routers, {len(self.subnets)} subnets, "
            f"{len(self._iface_by_address)} interfaces, {len(self.hosts)} hosts"
        )

    def __str__(self) -> str:
        return self.summary()


def merge_names(topologies: Iterable[Topology]) -> str:
    """Helper for benches that report over several topologies at once."""
    return "+".join(t.name for t in topologies)
