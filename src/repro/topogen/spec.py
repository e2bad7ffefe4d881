"""Declarative ground-truth network synthesis.

The paper evaluates tracenet against networks whose subnet inventories are
known: Internet2 and GEANT (derived from published data) and four commercial
ISP backbones (cross-validated between vantage points).  This module builds
such networks from a :class:`NetworkBlueprint` — a subnet prefix-length
distribution plus injection counts for the behaviours that shape the
evaluation: firewalled (totally unresponsive) subnets, partially silent
subnets, sparsely utilized subnets, and multi-homed LANs that defeat the
single-ingress assumption.

The synthesis recipe:

* point-to-point plans (/30, /31) first form a backbone ring with chords,
  then grow random trees off it — giving paths of varied length;
* multi-access LAN plans anchor on a random existing router (the ingress)
  and hang new stub routers off the LAN;
* all randomness flows from one seeded PRNG, so a blueprint is a complete,
  reproducible description of an experiment's ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netsim.addressing import Prefix
from ..netsim.builder import PrefixAllocator, TopologyBuilder
from ..netsim.responsiveness import ResponsePolicy
from ..netsim.topology import Host, Topology


@dataclass
class NetworkBlueprint:
    """Everything needed to synthesize one network deterministically."""

    name: str
    seed: int
    distribution: Dict[int, int]
    base: str = "10.0.0.0/8"
    #: per-prefix-length counts of totally unresponsive (firewalled) subnets
    firewalled: Dict[int, int] = field(default_factory=dict)
    #: per-prefix-length counts of partially silent subnets
    partial: Dict[int, int] = field(default_factory=dict)
    #: per-prefix-length counts of sparsely utilized subnets (scattered
    #: addresses; tracenet typically collects nothing larger than /32)
    sparse: Dict[int, int] = field(default_factory=dict)
    #: per-prefix-length counts of under-utilized subnets (one small
    #: contiguous cluster; tracenet collects a smaller observable subnet)
    underutilized: Dict[int, int] = field(default_factory=dict)
    #: per-prefix-length counts of multi-homed LANs
    multihomed: Dict[int, int] = field(default_factory=dict)
    backbone_routers: int = 10
    chords: int = 3
    lan_utilization: Tuple[float, float] = (0.78, 0.95)
    partial_silent_fraction: Tuple[float, float] = (0.35, 0.6)
    sparse_members: int = 2
    #: fraction of routers answering indirect probes with the shortest-path
    #: interface / a default address instead of the incoming interface
    #: (paper §3.1(iii); the rest are incoming-interface routers)
    shortest_path_fraction: float = 0.08
    default_iface_fraction: float = 0.04

    def total_subnets(self) -> int:
        return sum(self.distribution.values())


@dataclass
class SubnetRecord:
    """Ground truth about one synthesized subnet."""

    subnet_id: str
    prefix: Prefix
    kind: str  # "p2p" | "lan"
    firewalled: bool = False
    partially_silent: bool = False
    sparse: bool = False
    underutilized: bool = False
    multihomed: bool = False
    silent_addresses: List[int] = field(default_factory=list)

    @property
    def unresponsive(self) -> bool:
        """True when the subnet's observability is limited by policy, not
        by tracenet (the paper's ``\\unrs`` qualifier)."""
        return self.firewalled or self.partially_silent


@dataclass
class GeneratedNetwork:
    """A synthesized network plus its ground truth and response policy."""

    name: str
    blueprint: NetworkBlueprint
    topology: Topology
    policy: ResponsePolicy
    records: List[SubnetRecord]
    vantages: Dict[str, Host] = field(default_factory=dict)
    border_router_ids: List[str] = field(default_factory=list)

    @property
    def ground_truth(self) -> List[Prefix]:
        """Every planned subnet block (excludes vantage stubs)."""
        return [record.prefix for record in self.records]

    def record_for(self, prefix: Prefix) -> Optional[SubnetRecord]:
        for record in self.records:
            if record.prefix == prefix:
                return record
        return None

    def responsive_interface_addresses(self) -> List[int]:
        """Assigned, un-silenced addresses inside planned subnets."""
        addresses: List[int] = []
        for record in self.records:
            subnet = self.topology.subnets[record.subnet_id]
            for address in subnet.addresses:
                if address not in record.silent_addresses:
                    addresses.append(address)
        return addresses

    def pick_targets(self, rng: random.Random,
                     per_subnet: int = 1,
                     include_firewalled: bool = True) -> List[int]:
        """One (or more) assigned addresses per planned subnet.

        This mirrors the paper's destination-set construction for Internet2
        and GEANT: "a random IP address from each of their original
        subnets".  Firewalled subnets stay in the target set by default —
        their unreachability is part of the experiment.  In partially
        silent subnets the responsive addresses are preferred (a silent
        target would leave the subnet unvisited rather than partially
        collected, which is not what the paper observed).
        """
        targets: List[int] = []
        for record in self.records:
            if record.firewalled and not include_firewalled:
                continue
            subnet = self.topology.subnets[record.subnet_id]
            addresses = sorted(set(subnet.addresses) - set(record.silent_addresses))
            if not addresses:
                addresses = sorted(subnet.addresses)
            count = min(per_subnet, len(addresses))
            targets.extend(rng.sample(addresses, count))
        return targets


def synthesize(blueprint: NetworkBlueprint,
               builder: Optional[TopologyBuilder] = None,
               policy: Optional[ResponsePolicy] = None,
               namespace: Optional[str] = None,
               validate: bool = True) -> GeneratedNetwork:
    """Build a network from a blueprint.

    Passing an existing ``builder``/``policy`` merges several blueprints
    into one internet (used by the multi-ISP experiments); ``namespace``
    prefixes router ids so merged blueprints cannot collide.
    """
    rng = random.Random(blueprint.seed)
    prefix_tag = namespace if namespace is not None else blueprint.name
    own_builder = builder is None
    if own_builder:
        builder = TopologyBuilder(blueprint.name,
                                  allocator=PrefixAllocator(blueprint.base))
        allocator = builder.allocator
    else:
        allocator = PrefixAllocator(blueprint.base)
    if policy is None:
        policy = ResponsePolicy(seed=blueprint.seed)

    plans = _expand_plans(blueprint, rng)
    p2p_plans = [plan for plan in plans if plan["length"] >= 30]
    lan_plans = [plan for plan in plans if plan["length"] < 30]
    rng.shuffle(p2p_plans)
    rng.shuffle(lan_plans)

    records: List[SubnetRecord] = []
    router_counter = [0]

    def new_router() -> str:
        router_counter[0] += 1
        return builder.router(f"{prefix_tag}:r{router_counter[0]}").router_id

    backbone = _build_backbone(blueprint, builder, allocator, p2p_plans,
                               records, new_router, prefix_tag)
    attachable = list(backbone)

    # Remaining point-to-point plans grow random trees off the network.
    for plan in p2p_plans:
        anchor = rng.choice(attachable)
        leaf = new_router()
        block = allocator.allocate(plan["length"])
        subnet = builder.link(anchor, leaf, prefix=block)
        records.append(_record(subnet, "p2p", plan))
        attachable.append(leaf)

    # Multi-access LANs anchor on an existing (ingress) router.
    for plan in lan_plans:
        anchor = rng.choice(attachable)
        block = allocator.allocate(plan["length"])
        members, silent = _plan_lan_membership(blueprint, rng, block, plan)
        assignment: Dict[str, int] = {}
        member_routers: List[str] = []
        anchor_routers = [anchor]
        if plan["multihomed"]:
            second = rng.choice([r for r in attachable if r != anchor])
            anchor_routers.append(second)
        for index, address in enumerate(members):
            if index < len(anchor_routers):
                router_id = anchor_routers[index]
            else:
                router_id = new_router()
                member_routers.append(router_id)
            assignment[router_id] = address
        subnet = builder.lan(assignment, prefix=block)
        record = _record(subnet, "lan", plan)
        record.silent_addresses = silent
        records.append(record)
        attachable.extend(member_routers)

    _apply_policy(policy, builder, records)
    _apply_router_variety(blueprint, builder, rng, prefix_tag)
    network = GeneratedNetwork(
        name=blueprint.name,
        blueprint=blueprint,
        topology=builder.topology,
        policy=policy,
        records=records,
        border_router_ids=list(backbone),
    )
    if own_builder and validate:
        builder.build()
    return network


def add_vantage(network: GeneratedNetwork, host_id: str,
                gateway_router_id: Optional[str] = None,
                stub_base: str = "192.168.0.0/16") -> Host:
    """Attach a vantage point host behind a stub /30 (not ground truth)."""
    builder = TopologyBuilder.wrap(network.topology,
                                   allocator=PrefixAllocator(stub_base))
    # Skip blocks already taken by earlier vantage stubs.
    taken = [s.prefix for s in network.topology.subnets.values()
             if s.prefix.network in builder.allocator.base]
    for _ in taken:
        builder.allocator.allocate(30)
    if gateway_router_id is None:
        gateway_router_id = network.border_router_ids[0]
    host = builder.edge_host(host_id, gateway_router_id)
    network.vantages[host_id] = host
    return host


# -- internals ---------------------------------------------------------------


def _expand_plans(blueprint: NetworkBlueprint, rng: random.Random) -> List[Dict]:
    """Turn the distribution + injection counts into per-subnet plans."""
    plans: List[Dict] = []
    for length, count in sorted(blueprint.distribution.items()):
        flags = (["firewalled"] * blueprint.firewalled.get(length, 0)
                 + ["partial"] * blueprint.partial.get(length, 0)
                 + ["sparse"] * blueprint.sparse.get(length, 0)
                 + ["underutilized"] * blueprint.underutilized.get(length, 0)
                 + ["multihomed"] * blueprint.multihomed.get(length, 0))
        if len(flags) > count:
            raise ValueError(
                f"{blueprint.name}: /{length} injections exceed distribution"
            )
        flags += ["plain"] * (count - len(flags))
        rng.shuffle(flags)
        for flag in flags:
            plans.append({
                "length": length,
                "firewalled": flag == "firewalled",
                "partial": flag == "partial",
                "sparse": flag == "sparse",
                "underutilized": flag == "underutilized",
                "multihomed": flag == "multihomed" and length < 30,
            })
    return plans


def _build_backbone(blueprint: NetworkBlueprint, builder: TopologyBuilder,
                    allocator: PrefixAllocator, p2p_plans: List[Dict],
                    records: List[SubnetRecord], new_router,
                    prefix_tag: str) -> List[str]:
    """Ring + chords consuming point-to-point plans; returns backbone ids."""
    ring_size = min(blueprint.backbone_routers,
                    max(3, len(p2p_plans) - blueprint.chords))
    if len(p2p_plans) < 3:
        # Degenerate blueprint: a single chain is the best we can do.
        ring_size = 0
    backbone = [new_router() for _ in range(max(ring_size, 1))]
    if ring_size >= 3:
        edges = [(backbone[i], backbone[(i + 1) % ring_size])
                 for i in range(ring_size)]
        rng = random.Random(blueprint.seed + 1)
        for _ in range(blueprint.chords):
            if len(backbone) < 4 or len(p2p_plans) <= len(edges):
                break
            a, b = rng.sample(backbone, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
        for a, b in edges:
            if not p2p_plans:
                break
            plan = p2p_plans.pop()
            block = allocator.allocate(plan["length"])
            subnet = builder.link(a, b, prefix=block)
            records.append(_record(subnet, "p2p", plan))
    return backbone


def _plan_lan_membership(blueprint: NetworkBlueprint, rng: random.Random,
                         block: Prefix, plan: Dict):
    """Choose assigned addresses (and silent ones) for a LAN plan."""
    pool = list(block.host_addresses())
    capacity = len(pool)
    if plan["sparse"]:
        member_count = min(blueprint.sparse_members, capacity)
        members = sorted(rng.sample(pool, member_count))
    elif plan["underutilized"]:
        # One small contiguous cluster well under half the block: tracenet
        # observes a smaller subnet (the paper's natural underestimations).
        cluster = max(2, capacity // 4)
        start = rng.randrange(0, max(1, capacity - cluster))
        members = pool[start:start + cluster]
    else:
        lo, hi = blueprint.lan_utilization
        utilization = rng.uniform(lo, hi)
        member_count = max(3, int(round(capacity * utilization)))
        member_count = min(member_count, capacity)
        members = pool[:member_count]
    silent: List[int] = []
    if plan["partial"]:
        lo, hi = blueprint.partial_silent_fraction
        silent_count = max(1, int(round(len(members) * rng.uniform(lo, hi))))
        silent_count = min(silent_count, len(members) - 1)
        silent = sorted(rng.sample(members, silent_count))
    return members, silent


def _record(subnet, kind: str, plan: Dict) -> SubnetRecord:
    return SubnetRecord(
        subnet_id=subnet.subnet_id,
        prefix=subnet.prefix,
        kind=kind,
        firewalled=plan["firewalled"],
        partially_silent=plan["partial"],
        sparse=plan["sparse"],
        underutilized=plan.get("underutilized", False),
        multihomed=plan.get("multihomed", False),
    )


def _apply_policy(policy: ResponsePolicy, builder: TopologyBuilder,
                  records: List[SubnetRecord]) -> None:
    for record in records:
        if record.firewalled:
            policy.firewall_subnet(record.subnet_id)
        for address in record.silent_addresses:
            policy.silence_interface(address)


def _apply_router_variety(blueprint: NetworkBlueprint,
                          builder: TopologyBuilder, rng: random.Random,
                          prefix_tag: str) -> None:
    """Sample indirect response configurations.

    Most routers report the incoming interface (the common case the paper
    observes); a sampled minority report the shortest-path interface or a
    default address, exercising Algorithm 2's mate-pivot branch.
    """
    from ..netsim.router import IndirectConfig

    # Filter before sorting: draws only ever happened for matching routers,
    # so the RNG stream is unchanged, but a merged million-router topology
    # is no longer re-sorted wholesale for every blueprint.
    own = sorted(r for r in builder.topology.routers
                 if r.startswith(prefix_tag))
    for router_id in own:
        router = builder.topology.routers[router_id]
        draw = rng.random()
        if draw < blueprint.shortest_path_fraction:
            router.indirect_config = IndirectConfig.SHORTEST_PATH
        elif draw < (blueprint.shortest_path_fraction
                     + blueprint.default_iface_fraction):
            router.indirect_config = IndirectConfig.DEFAULT
        rng.random()  # the retired IP-ID mode draw; later draws depend on it
