"""Deterministic topology churn: the network that changes under the probe.

Latapy et al.'s "A Radar for the Internet" argues the interesting object is
the *sequence* of maps — which makes mid-survey churn the normal operating
condition, not an error path.  This module provides the seeded, replayable
half of that story:

* :class:`ScheduledMutation` — one network change pinned to a probe-count
  **epoch** (the engine's virtual clock is one tick per probe, so "when"
  is deterministic across runs, platforms and replays);
* :class:`MutationSchedule` — an ordered, serializable list of mutations,
  either hand-built or sampled by :meth:`MutationSchedule.generate` from
  ``(topology, seed)``;
* :class:`NetworkDynamics` — applies due mutations to a live
  :class:`~repro.netsim.engine.Engine`, using only the version-bumping
  topology/policy/balancer primitives so every engine cache (resolved
  paths, bulk index, lazy-BFS routing) invalidates itself before the next
  probe is answered.

The schedule is the single source of truth: the event stream a run emits
(:class:`~repro.events.TopologyMutated`) derives purely from the schedule,
never from the apply outcome, so a journal replay — which has no engine to
mutate — emits the byte-identical stream.

Mutation kinds:

``link-down`` / ``link-up``
    A link flap: one interface detaches from its router and subnet, then
    (optionally) the identical binding is restored.
``router-down`` / ``router-up``
    A router reboot: every interface goes silent via the response policy,
    then responsiveness returns.  A router the policy already silenced
    stays silent after the "reboot" completes.
``renumber``
    A subnet moves wholesale to a fresh CIDR block (same prefix length)
    inside the 198.18.0.0/15 benchmarking range (RFC 2544), with every
    attached interface re-addressed in sorted order.
``resize``
    A subnet shrinks to its lower half (prefix length + 1); interfaces
    falling outside the new host range are disconnected for good.
``ecmp``
    A routing reconvergence stand-in: one router's ECMP tie-breaking mode
    changes, re-splitting flows across equal-cost paths.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .addressing import Prefix, format_ip
from .routing import LoadBalancingMode
from .subnet import Subnet
from .topology import Topology, TopologyError

#: RFC 2544 benchmarking range: renumbered subnets land here, where real
#: topogen profiles never allocate.
SCRATCH_NETWORK = 0xC6120000  # 198.18.0.0
SCRATCH_LENGTH = 15

#: The kinds :meth:`MutationSchedule.generate` samples from, in the order
#: the round-robin walks them.
DEFAULT_KINDS = ("link-flap", "router-reboot", "renumber", "resize", "ecmp")

_ECMP_ROTATION = {
    LoadBalancingMode.NONE: LoadBalancingMode.PER_FLOW,
    LoadBalancingMode.PER_FLOW: LoadBalancingMode.NONE,
    LoadBalancingMode.PER_PACKET: LoadBalancingMode.PER_FLOW,
}


@dataclass(frozen=True)
class ScheduledMutation:
    """One network change, pinned to a probe-count epoch.

    ``detail`` must hold only JSON-stable values (no tuples): it travels
    verbatim inside :class:`~repro.events.TopologyMutated` payloads and
    must round-trip through ``event_to_dict``/``event_from_dict``.
    """

    epoch: int
    sequence: int
    kind: str
    target: str
    detail: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {"epoch": self.epoch, "sequence": self.sequence,
                "kind": self.kind, "target": self.target,
                "detail": dict(self.detail)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "ScheduledMutation":
        return cls(epoch=int(payload["epoch"]),
                   sequence=int(payload["sequence"]),
                   kind=payload["kind"], target=payload["target"],
                   detail=dict(payload.get("detail") or {}))


class MutationSchedule:
    """An ordered, replayable list of :class:`ScheduledMutation`.

    Mutations fire in ``(epoch, sequence)`` order; two runs over the same
    schedule see the identical change at the identical probe count.
    """

    def __init__(self, mutations: Sequence[ScheduledMutation] = ()):
        self.mutations: List[ScheduledMutation] = sorted(
            mutations, key=lambda m: (m.epoch, m.sequence))

    def __len__(self) -> int:
        return len(self.mutations)

    def __iter__(self):
        return iter(self.mutations)

    def __bool__(self) -> bool:
        return bool(self.mutations)

    def to_dict(self) -> Dict:
        return {"mutations": [m.to_dict() for m in self.mutations]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "MutationSchedule":
        return cls([ScheduledMutation.from_dict(entry)
                    for entry in payload.get("mutations", [])])

    # -- sampling ----------------------------------------------------------

    @classmethod
    def generate(cls, topology: Topology, seed: int = 0, *,
                 start: int = 100, interval: int = 100, count: int = 4,
                 recover_after: Optional[int] = None,
                 kinds: Sequence[str] = DEFAULT_KINDS) -> "MutationSchedule":
        """Sample a deterministic schedule from ``(topology, seed)``.

        One mutation fires every ``interval`` probes starting at ``start``;
        flaps and reboots schedule their recovery ``recover_after`` probes
        later (half the interval by default).  Targets are drawn without
        replacement per kind — no subnet or router is mutated twice — so
        applying the schedule can never fail mid-run.  Subnets carrying
        end hosts (vantage points, survey hosts) are never renumbered,
        resized or fully flapped.
        """
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        recover = interval // 2 if recover_after is None else recover_after
        rng = random.Random(seed ^ 0xD15EA5E)
        host_subnets = {host.subnet_id for host in topology.hosts.values()}
        gateway_ids = {host.gateway_router_id
                       for host in topology.hosts.values()}
        used_subnets: set = set(host_subnets)
        used_routers: set = set(gateway_ids)

        flappable = sorted(
            iface.address
            for subnet_id, subnet in topology.subnets.items()
            if subnet_id not in host_subnets and len(subnet.interfaces) >= 2
            for iface in subnet.interfaces)
        mutable_subnets = sorted(
            subnet_id for subnet_id, subnet in topology.subnets.items()
            if subnet_id not in host_subnets and subnet.prefix.length <= 30
            and subnet.interfaces)
        routers = sorted(set(topology.routers) - used_routers)

        mutations: List[ScheduledMutation] = []
        sequence = 0
        cursor = SCRATCH_NETWORK
        epoch = start
        kind_index = 0
        produced = 0
        attempts = 0
        while produced < count and attempts < count * len(kinds) * 2:
            attempts += 1
            kind = kinds[kind_index % len(kinds)]
            kind_index += 1
            made = None
            if kind == "link-flap":
                candidates = [a for a in flappable
                              if topology.interface_at(a) is not None
                              and topology.interface_at(a).subnet_id
                              not in used_subnets]
                if candidates:
                    address = candidates[rng.randrange(len(candidates))]
                    iface = topology.interface_at(address)
                    used_subnets.add(iface.subnet_id)
                    prefix = str(topology.subnets[iface.subnet_id].prefix)
                    made = [
                        ScheduledMutation(
                            epoch, sequence, "link-down", format_ip(address),
                            {"address": address,
                             "subnet": iface.subnet_id,
                             "router": iface.router_id,
                             "prefix": prefix}),
                        ScheduledMutation(
                            epoch + recover, sequence + 1, "link-up",
                            format_ip(address),
                            {"address": address,
                             "subnet": iface.subnet_id,
                             "router": iface.router_id,
                             "prefix": prefix}),
                    ]
            elif kind == "router-reboot":
                candidates = [r for r in routers if r not in used_routers]
                if candidates:
                    router_id = candidates[rng.randrange(len(candidates))]
                    used_routers.add(router_id)
                    attached = sorted(
                        str(topology.subnets[sid].prefix)
                        for sid in topology.routers[router_id].subnet_ids
                        if sid in topology.subnets)
                    made = [
                        ScheduledMutation(epoch, sequence, "router-down",
                                          router_id,
                                          {"prefixes": attached}),
                        ScheduledMutation(epoch + recover, sequence + 1,
                                          "router-up", router_id,
                                          {"prefixes": attached}),
                    ]
            elif kind == "renumber":
                candidates = [s for s in mutable_subnets
                              if s not in used_subnets]
                if candidates:
                    subnet_id = candidates[rng.randrange(len(candidates))]
                    used_subnets.add(subnet_id)
                    old_prefix = topology.subnets[subnet_id].prefix
                    length = old_prefix.length
                    network, cursor = _scratch_alloc(topology, length, cursor)
                    made = [ScheduledMutation(
                        epoch, sequence, "renumber", subnet_id,
                        {"new_network": network, "length": length,
                         "new_prefix": str(Prefix(network, length)),
                         "old_prefix": str(old_prefix)})]
            elif kind == "resize":
                candidates = [s for s in mutable_subnets
                              if s not in used_subnets
                              and topology.subnets[s].prefix.length <= 29]
                if candidates:
                    subnet_id = candidates[rng.randrange(len(candidates))]
                    used_subnets.add(subnet_id)
                    old_prefix = topology.subnets[subnet_id].prefix
                    made = [ScheduledMutation(
                        epoch, sequence, "resize", subnet_id,
                        {"new_length": old_prefix.length + 1,
                         "old_prefix": str(old_prefix),
                         "new_prefix": str(Prefix(old_prefix.network,
                                                  old_prefix.length + 1))})]
            elif kind == "ecmp":
                candidates = [r for r in sorted(topology.routers)
                              if r not in used_routers]
                if candidates:
                    router_id = candidates[rng.randrange(len(candidates))]
                    used_routers.add(router_id)
                    made = [ScheduledMutation(
                        epoch, sequence, "ecmp", router_id,
                        {"mode": LoadBalancingMode.PER_FLOW.value})]
            else:
                raise ValueError(f"unknown mutation kind {kind!r}")
            if made is None:
                continue
            mutations.extend(made)
            sequence += len(made)
            epoch += interval
            produced += 1
        return cls(mutations)


def _scratch_alloc(topology: Topology, length: int,
                   cursor: int) -> Tuple[int, int]:
    """Allocate a free /``length`` block from the RFC 2544 scratch range.

    Candidates start at ``cursor`` rounded up to a multiple of the block
    size: an unaligned network would be masked back onto the block
    allocated before it.
    """
    scratch = Prefix(SCRATCH_NETWORK, SCRATCH_LENGTH)
    size = Prefix(0, length).size
    network = -(-cursor // size) * size
    blocks = topology._blocks
    while network + size - 1 <= scratch.broadcast:
        candidate = Prefix(network, length)
        position = bisect.bisect_left(
            blocks, (candidate.network, candidate.broadcast, ""))
        clear = True
        for neighbor in (position - 1, position):
            if 0 <= neighbor < len(blocks):
                other_net, other_bcast, _ = blocks[neighbor]
                if other_net <= candidate.broadcast \
                        and candidate.network <= other_bcast:
                    clear = False
                    break
        if clear:
            return network, network + size
        network += size
    raise TopologyError(
        f"scratch range exhausted allocating a /{length} block")


class NetworkDynamics:
    """Applies a :class:`MutationSchedule` to a live engine, in order.

    Call :meth:`advance` with the cumulative probe count before answering
    each probe (the churn transport seam does this); every mutation whose
    epoch has been reached is applied through the version-bumping
    primitives and returned so the caller can emit
    :class:`~repro.events.TopologyMutated`.  Apply state (saved bindings
    for flaps, pre-reboot silence) is deterministic given the schedule and
    the engine's construction, so live runs reproduce exactly.
    """

    def __init__(self, engine, schedule: MutationSchedule):
        self.engine = engine
        self.schedule = schedule
        self.applied: List[ScheduledMutation] = []
        self._cursor = 0
        #: address -> saved Interface binding for link-up restores.
        self._down_links: Dict[int, Tuple[str, str]] = {}
        #: router_id -> whether the policy silenced it before the reboot.
        self._pre_reboot_silent: Dict[str, bool] = {}

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.schedule.mutations)

    def next_epoch(self) -> Optional[int]:
        """The probe count at which the next mutation fires (None if done)."""
        if self.exhausted:
            return None
        return self.schedule.mutations[self._cursor].epoch

    def advance(self, probe_count: int) -> List[ScheduledMutation]:
        """Apply every mutation due at or before ``probe_count``."""
        fired: List[ScheduledMutation] = []
        mutations = self.schedule.mutations
        while self._cursor < len(mutations) \
                and mutations[self._cursor].epoch <= probe_count:
            mutation = mutations[self._cursor]
            self._cursor += 1
            self._apply(mutation)
            self.applied.append(mutation)
            fired.append(mutation)
        return fired

    # -- the appliers ------------------------------------------------------

    def _apply(self, mutation: ScheduledMutation) -> None:
        handler = getattr(self, "_apply_" + mutation.kind.replace("-", "_"),
                          None)
        if handler is None:
            raise ValueError(f"unknown mutation kind {mutation.kind!r}")
        handler(mutation)

    def _apply_link_down(self, mutation: ScheduledMutation) -> None:
        address = mutation.detail["address"]
        topology = self.engine.topology
        if topology.interface_at(address) is None:
            return  # already down (idempotent under replayed schedules)
        iface = topology.disconnect(address)
        self._down_links[address] = (iface.router_id, iface.subnet_id)

    def _apply_link_up(self, mutation: ScheduledMutation) -> None:
        address = mutation.detail["address"]
        binding = self._down_links.pop(address, None)
        if binding is None:
            return
        router_id, subnet_id = binding
        topology = self.engine.topology
        if subnet_id in topology.subnets \
                and topology.interface_at(address) is None:
            topology.connect(router_id, subnet_id, address)

    def _apply_router_down(self, mutation: ScheduledMutation) -> None:
        router_id = mutation.target
        policy = self.engine.policy
        self._pre_reboot_silent[router_id] = \
            router_id in policy._silent_routers
        policy.silence_router(router_id)

    def _apply_router_up(self, mutation: ScheduledMutation) -> None:
        router_id = mutation.target
        if not self._pre_reboot_silent.pop(router_id, False):
            self.engine.policy.unsilence_router(router_id)

    def _apply_renumber(self, mutation: ScheduledMutation) -> None:
        subnet_id = mutation.target
        topology = self.engine.topology
        subnet = topology.subnets.get(subnet_id)
        if subnet is None:
            return
        new_prefix = Prefix(mutation.detail["new_network"],
                            mutation.detail["length"])
        old_ifaces = sorted(subnet.interfaces, key=lambda i: i.address)
        for iface in old_ifaces:
            topology.disconnect(iface.address)
        topology.remove_subnet(subnet_id)
        topology.add_subnet(Subnet(subnet_id=subnet_id, prefix=new_prefix))
        hosts = list(new_prefix.host_addresses())
        for iface, address in zip(old_ifaces, hosts):
            topology.connect(iface.router_id, subnet_id, address)

    def _apply_resize(self, mutation: ScheduledMutation) -> None:
        subnet_id = mutation.target
        topology = self.engine.topology
        subnet = topology.subnets.get(subnet_id)
        if subnet is None:
            return
        new_length = mutation.detail["new_length"]
        new_prefix = Prefix(subnet.prefix.network, new_length)
        keep = [iface for iface in subnet.interfaces
                if iface.address in new_prefix
                and iface.address not in new_prefix.boundary_addresses()]
        for iface in sorted(subnet.interfaces, key=lambda i: i.address):
            topology.disconnect(iface.address)
        topology.remove_subnet(subnet_id)
        topology.add_subnet(Subnet(subnet_id=subnet_id, prefix=new_prefix))
        for iface in sorted(keep, key=lambda i: i.address):
            topology.connect(iface.router_id, subnet_id, iface.address)

    def _apply_ecmp(self, mutation: ScheduledMutation) -> None:
        mode = LoadBalancingMode(mutation.detail.get(
            "mode", LoadBalancingMode.PER_FLOW.value))
        balancer = self.engine.balancer
        current = balancer.mode_of(mutation.target)
        if current == mode:
            mode = _ECMP_ROTATION[current]
        balancer.set_mode(mutation.target, mode)


__all__ = [
    "DEFAULT_KINDS",
    "MutationSchedule",
    "NetworkDynamics",
    "SCRATCH_LENGTH",
    "SCRATCH_NETWORK",
    "ScheduledMutation",
]
