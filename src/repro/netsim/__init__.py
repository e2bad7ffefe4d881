"""Network substrate: a deterministic router-level Internet simulator.

The subpackage stands in for the live Internet the paper probes.  It models
routers, subnets, CIDR addressing, shortest-path routing with ECMP,
TTL-scoped forwarding, router response configurations, firewalls and rate
limiting — everything a scapy-based tracenet would observe from outside.
"""

from .addressing import (
    Prefix,
    common_prefix_length,
    enclosing_prefix,
    format_ip,
    ip,
    mate30,
    mate31,
    parse_ip,
)
from .builder import PrefixAllocator, TopologyBuilder
from .dynamics import (
    MutationSchedule,
    NetworkDynamics,
    ScheduledMutation,
)
from .engine import (
    Engine,
    EngineStats,
    PathTerminal,
    ResolvedPath,
    UnassignedAddressBehavior,
)
from .iface import Interface
from .packet import DEFAULT_TTL, Probe, Protocol, Response, ResponseType
from .responsiveness import ResponsePolicy, fully_responsive
from .router import DirectConfig, IndirectConfig, Router
from .routing import FlowKey, LoadBalancer, LoadBalancingMode, NextHop, RoutingTable
from .serialize import (
    load_scenario,
    load_topology,
    policy_from_dict,
    policy_to_dict,
    save_scenario,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from .subnet import Subnet
from .topology import Host, Topology, TopologyError

__all__ = [
    "DEFAULT_TTL",
    "DirectConfig",
    "Engine",
    "EngineStats",
    "FlowKey",
    "Host",
    "IndirectConfig",
    "Interface",
    "LoadBalancer",
    "LoadBalancingMode",
    "MutationSchedule",
    "NetworkDynamics",
    "NextHop",
    "ScheduledMutation",
    "Prefix",
    "PrefixAllocator",
    "Probe",
    "Protocol",
    "Response",
    "PathTerminal",
    "ResolvedPath",
    "ResponsePolicy",
    "ResponseType",
    "Router",
    "RoutingTable",
    "Subnet",
    "Topology",
    "TopologyBuilder",
    "TopologyError",
    "UnassignedAddressBehavior",
    "common_prefix_length",
    "enclosing_prefix",
    "format_ip",
    "fully_responsive",
    "ip",
    "load_scenario",
    "load_topology",
    "mate30",
    "mate31",
    "parse_ip",
    "policy_from_dict",
    "policy_to_dict",
    "save_scenario",
    "save_topology",
    "topology_from_dict",
    "topology_to_dict",
]
