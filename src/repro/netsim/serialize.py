"""Topology and policy (de)serialization.

Lets ground-truth networks travel: a scenario can be defined in JSON,
version-controlled next to an experiment, and reloaded bit-identically —
including router response configurations and the responsiveness policy.  Rate-limiter *configuration* is serialized (not
bucket state; a reloaded policy starts with full buckets).
"""

from __future__ import annotations

import json
from typing import Dict, IO, Union

from .addressing import format_ip, parse_ip
from .packet import Protocol
from .responsiveness import ResponsePolicy
from .router import DirectConfig, IndirectConfig, Router
from .subnet import Subnet
from .topology import Topology

from .addressing import Prefix

FORMAT_VERSION = 1


# -- topology -----------------------------------------------------------------


def topology_to_dict(topology: Topology) -> Dict:
    """JSON-ready description of a topology (structure + router configs)."""
    return {
        "format_version": FORMAT_VERSION,
        "name": topology.name,
        "routers": [
            {
                "id": router.router_id,
                "indirect_config": router.indirect_config.value,
                "direct_config": router.direct_config.value,
                "default_address": (format_ip(router.default_address)
                                    if router.default_address is not None
                                    else None),
            }
            for router in sorted(topology.routers.values(),
                                 key=lambda r: r.router_id)
        ],
        "subnets": [
            {"id": subnet.subnet_id, "prefix": str(subnet.prefix)}
            for subnet in sorted(topology.subnets.values(),
                                 key=lambda s: s.prefix.network)
        ],
        "interfaces": [
            {
                "router": iface.router_id,
                "subnet": iface.subnet_id,
                "address": format_ip(iface.address),
            }
            for address in sorted(topology.all_interface_addresses)
            for iface in [topology.interface_at(address)]
        ],
        "hosts": [
            {
                "id": host.host_id,
                "subnet": host.subnet_id,
                "address": host.ip_text,
                "gateway": host.gateway_router_id,
            }
            for host in sorted(topology.hosts.values(),
                               key=lambda h: h.host_id)
        ],
    }


def topology_from_dict(payload: Dict) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version: {version}")
    topology = Topology(payload.get("name", "topology"))
    for entry in payload.get("routers", []):
        default = entry.get("default_address")
        topology.add_router(Router(
            router_id=entry["id"],
            indirect_config=IndirectConfig(entry.get("indirect_config",
                                                     "incoming")),
            direct_config=DirectConfig(entry.get("direct_config", "probed")),
            default_address=parse_ip(default) if default is not None else None,
        ))
    for entry in payload.get("subnets", []):
        topology.add_subnet(Subnet(subnet_id=entry["id"],
                                   prefix=Prefix.parse(entry["prefix"])))
    for entry in payload.get("interfaces", []):
        topology.connect(entry["router"], entry["subnet"],
                         parse_ip(entry["address"]))
    for entry in payload.get("hosts", []):
        topology.add_host(entry["id"], entry["subnet"],
                          parse_ip(entry["address"]),
                          gateway_router_id=entry.get("gateway"))
    return topology


def save_topology(destination: Union[str, IO], topology: Topology) -> None:
    """Write a topology as JSON to a path or file object."""
    payload = topology_to_dict(topology)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(payload, handle, indent=1)
    else:
        json.dump(payload, destination, indent=1)


def load_topology(source: Union[str, IO]) -> Topology:
    """Read a topology from a path or file object and validate it."""
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    topology = topology_from_dict(payload)
    topology.validate()
    return topology


# -- response policy ---------------------------------------------------------------


def policy_to_dict(policy: ResponsePolicy) -> Dict:
    """JSON-ready description of a policy's configuration."""
    return {
        "format_version": FORMAT_VERSION,
        "firewalled_subnets": sorted(policy.firewalled_subnet_ids),
        "silent_interfaces": sorted(
            format_ip(a) for a in policy.silent_interface_addresses),
        "silent_routers": sorted(policy._silent_routers),
        "protocol_refusals": sorted(
            [router_id, protocol.value]
            for router_id, protocol in policy._protocol_refusals
        ),
        "rate_limiters": {
            router_id: {"capacity": bucket.capacity,
                        "refill_per_tick": bucket.refill_per_tick}
            for router_id, bucket in sorted(policy._rate_limiters.items())
        },
    }


def policy_from_dict(payload: Dict, seed: int = 0) -> ResponsePolicy:
    """Rebuild a policy configuration (buckets start full)."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported policy format version: {version}")
    policy = ResponsePolicy(seed=seed)
    policy.firewall_subnets(payload.get("firewalled_subnets", []))
    policy.silence_interfaces(parse_ip(a)
                              for a in payload.get("silent_interfaces", []))
    for router_id in payload.get("silent_routers", []):
        policy.silence_router(router_id)
    for router_id, protocol in payload.get("protocol_refusals", []):
        policy.refuse_protocol(router_id, Protocol(protocol))
    for router_id, config in payload.get("rate_limiters", {}).items():
        policy.rate_limit_router(router_id, capacity=config["capacity"],
                                 refill_per_tick=config["refill_per_tick"])
    return policy


def save_scenario(destination: str, topology: Topology,
                  policy: ResponsePolicy) -> None:
    """Write topology + policy as one scenario document."""
    payload = {
        "format_version": FORMAT_VERSION,
        "topology": topology_to_dict(topology),
        "policy": policy_to_dict(policy),
    }
    with open(destination, "w") as handle:
        json.dump(payload, handle, indent=1)


def load_scenario(source: str, seed: int = 0):
    """Read a scenario document; returns (topology, policy)."""
    with open(source) as handle:
        payload = json.load(handle)
    topology = topology_from_dict(payload["topology"])
    topology.validate()
    policy = policy_from_dict(payload["policy"], seed=seed)
    return topology, policy
