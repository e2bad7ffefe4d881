"""Responsiveness policies: firewalls, silent interfaces, protocol bias,
and ICMP rate limiting.

The paper's evaluation is shaped as much by what does *not* answer as by
what does: totally unresponsive subnets produce the ``miss\\unrs`` rows of
Tables 1–2, partially unresponsive subnets the ``undes\\unrs`` rows, and the
per-protocol response bias (routers answer ICMP far more readily than UDP or
TCP [9, 15]) produces Table 3.  Rate limiting (Section 4.2) makes subnets
look different from different vantage points.  This module centralizes all
of it in one deterministic, seedable policy object consulted by the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from .packet import Protocol
from .topology import Topology


@dataclass
class TokenBucket:
    """A token bucket advancing on the engine's virtual probe clock."""

    capacity: float
    refill_per_tick: float
    tokens: float = field(default=None)  # type: ignore[assignment]
    last_tick: int = 0

    def __post_init__(self):
        if self.tokens is None:
            self.tokens = self.capacity

    def try_consume(self, now: int) -> bool:
        """Advance to ``now``, then consume one token if available."""
        elapsed = max(0, now - self.last_tick)
        self.last_tick = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.refill_per_tick)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ResponsePolicy:
    """Decides whether a given router answers a given probe.

    All sampling happens at configuration time (per router / interface /
    subnet), so the silent, firewalled and refusing sets are fixed once
    built.  Rate limiters are not: their :class:`TokenBucket` state lives
    in the policy and drains on the virtual clock of whichever engine
    probes through it.  Two engines built over one rate-limited policy
    therefore share bucket state: the later engine starts against the
    token levels the earlier one left behind, and because its clock
    restarts at 0 the buckets are credited no refill for the gap between
    the runs (``try_consume`` clamps a backwards step to zero elapsed
    ticks).  Engines that must behave identically probe for probe each
    need a fresh policy (:meth:`reset_rate_limiters`, or a
    ``policy_to_dict`` round trip).
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._firewalled_subnets: Set[str] = set()
        self._silent_interfaces: Set[int] = set()
        self._silent_routers: Set[str] = set()
        # (router_id, protocol) -> False marks an explicit refusal;
        # absent means responsive.
        self._protocol_refusals: Set[Tuple[str, Protocol]] = set()
        self._rate_limiters: Dict[str, TokenBucket] = {}
        # Configuration mutation counter: response plans memoized against
        # this policy (the engine's resolved-path cache) go stale when it
        # changes mid-run — router reboots silence/unsilence routers while
        # the topology version stays put.
        self.version = 0

    # -- configuration ---------------------------------------------------

    def firewall_subnet(self, subnet_id: str) -> "ResponsePolicy":
        """Make a subnet totally unresponsive: probes *destined into its
        block* are silently dropped (the paper's firewalled edge subnets)."""
        self._firewalled_subnets.add(subnet_id)
        self.version += 1
        return self

    def silence_interface(self, address: int) -> "ResponsePolicy":
        """Make one interface ignore direct probes (partial unresponsiveness)."""
        self._silent_interfaces.add(address)
        self.version += 1
        return self

    def silence_router(self, router_id: str) -> "ResponsePolicy":
        """Make a router fully reticent (the *nil interface* configuration)."""
        self._silent_routers.add(router_id)
        self.version += 1
        return self

    def unsilence_router(self, router_id: str) -> "ResponsePolicy":
        """Undo :meth:`silence_router` — a rebooted router coming back."""
        self._silent_routers.discard(router_id)
        self.version += 1
        return self

    def unfirewall_subnet(self, subnet_id: str) -> "ResponsePolicy":
        """Undo :meth:`firewall_subnet`."""
        self._firewalled_subnets.discard(subnet_id)
        self.version += 1
        return self

    def unsilence_interface(self, address: int) -> "ResponsePolicy":
        """Undo :meth:`silence_interface`."""
        self._silent_interfaces.discard(address)
        self.version += 1
        return self

    def refuse_protocol(self, router_id: str, protocol: Protocol) -> "ResponsePolicy":
        """Make one router ignore one probe protocol entirely."""
        self._protocol_refusals.add((router_id, protocol))
        self.version += 1
        return self

    def sample_protocol_bias(self, topology: Topology,
                             response_rates: Dict[Protocol, float]) -> "ResponsePolicy":
        """Sample, per router, which protocols it answers.

        ``response_rates`` maps each protocol to the fraction of routers
        that answer it (e.g. ICMP 0.95, UDP 0.4, TCP 0.01 reproduces the
        ordering of Table 3).  Sampling is nested so a router answering TCP
        also answers UDP and ICMP whenever the rates are ordered that way.
        """
        for router_id in sorted(topology.routers):
            draw = self._rng.random()
            for protocol, rate in response_rates.items():
                if draw >= rate:
                    self._protocol_refusals.add((router_id, protocol))
        self.version += 1
        return self

    def rate_limit_router(self, router_id: str, capacity: float,
                          refill_per_tick: float) -> "ResponsePolicy":
        """Attach an ICMP-generation token bucket to a router."""
        self._rate_limiters[router_id] = TokenBucket(
            capacity=capacity, refill_per_tick=refill_per_tick
        )
        self.version += 1
        return self

    def reset_rate_limiters(self) -> "ResponsePolicy":
        """Refill every bucket and rewind its clock.

        Buckets are deliberately stateful across engines — like real
        routers, they do not reset between measurement runs — so repeated
        experiments over one policy see drained state.  Call this (or
        clone the policy via ``policy_from_dict(policy_to_dict(p))``) for
        independent runs.
        """
        for router_id, bucket in list(self._rate_limiters.items()):
            self._rate_limiters[router_id] = TokenBucket(
                capacity=bucket.capacity,
                refill_per_tick=bucket.refill_per_tick,
            )
        return self

    def firewall_subnets(self, subnet_ids: Iterable[str]) -> "ResponsePolicy":
        for subnet_id in subnet_ids:
            self.firewall_subnet(subnet_id)
        return self

    def silence_interfaces(self, addresses: Iterable[int]) -> "ResponsePolicy":
        for address in addresses:
            self.silence_interface(address)
        return self

    # -- queries (engine-facing) -----------------------------------------

    def subnet_is_firewalled(self, subnet_id: str) -> bool:
        return subnet_id in self._firewalled_subnets

    def interface_is_silent(self, address: int) -> bool:
        return address in self._silent_interfaces

    def router_responds(self, router_id: str, protocol: Protocol, now: int) -> bool:
        """True when ``router_id`` would emit any response right now.

        Checks the static configuration first and only then draws from the
        rate-limit bucket, so a silent or protocol-refusing router never
        consumes tokens.
        """
        return (self.router_statically_responds(router_id, protocol)
                and self.rate_limit_allows(router_id, now))

    def router_statically_responds(self, router_id: str, protocol: Protocol) -> bool:
        """The clock-independent half of :meth:`router_responds`: silent
        routers and protocol refusals, both fixed at configuration time."""
        return (router_id not in self._silent_routers
                and (router_id, protocol) not in self._protocol_refusals)

    def rate_limit_allows(self, router_id: str, now: int) -> bool:
        """Draw one token from ``router_id``'s bucket (the clock-dependent
        half of :meth:`router_responds`); unlimited routers always pass."""
        bucket = self._rate_limiters.get(router_id)
        return bucket is None or bucket.try_consume(now)

    @property
    def rate_limited(self) -> bool:
        """Whether any responder currently has a token bucket attached.

        When False, :meth:`rate_limit_allows` is vacuously True for every
        responder and there is no bucket state to advance, so batch fast
        paths may skip the per-probe draw entirely.
        """
        return bool(self._rate_limiters)

    # -- introspection (tests / evaluation) -------------------------------

    @property
    def firewalled_subnet_ids(self) -> Set[str]:
        return set(self._firewalled_subnets)

    @property
    def silent_interface_addresses(self) -> Set[int]:
        return set(self._silent_interfaces)

    def describe(self) -> str:
        """Short summary used in experiment logs."""
        return (
            f"ResponsePolicy(firewalled_subnets={len(self._firewalled_subnets)}, "
            f"silent_interfaces={len(self._silent_interfaces)}, "
            f"silent_routers={len(self._silent_routers)}, "
            f"protocol_refusals={len(self._protocol_refusals)}, "
            f"rate_limited={len(self._rate_limiters)})"
        )


def fully_responsive() -> ResponsePolicy:
    """The permissive default: everything answers everything."""
    return ResponsePolicy()
