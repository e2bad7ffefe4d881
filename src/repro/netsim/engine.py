"""The forwarding engine: hop-by-hop probe simulation.

This is the stand-in for the live Internet.  A probe injected at a vantage
host walks the routed path hop by hop with real TTL semantics: every
intermediate router decrements the TTL and, at zero, answers with an ICMP
TTL-Exceeded sourced according to its response configuration; the router
owning the destination address delivers and answers according to its direct
configuration.  Firewalls, silent interfaces, protocol bias and rate limits
are consulted through the :class:`~repro.netsim.responsiveness.ResponsePolicy`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from dataclasses import replace

from .packet import (
    ALIVE_RESPONSES,
    RECORD_ROUTE_SLOTS,
    Probe,
    Protocol,
    Response,
    ResponseType,
)
from .responsiveness import ResponsePolicy, fully_responsive
from .router import DirectConfig, IndirectConfig, IpIdMode, Router
from .routing import FlowKey, LoadBalancer, RoutingTable
from .topology import Host, Topology


class UnassignedAddressBehavior(enum.Enum):
    """What the last-hop router does for an address with no interface."""

    SILENT = "silent"
    HOST_UNREACHABLE = "host-unreachable"


@dataclass
class WireEvent:
    """One hop of a probe's journey, for debugging and white-box tests."""

    probe_id: int
    router_id: str
    action: str
    detail: str = ""


@dataclass
class EngineStats:
    """Counters the overhead benches read."""

    probes_sent: int = 0
    responses_returned: int = 0
    silent_drops: int = 0
    per_protocol: dict = field(default_factory=dict)
    #: Resolved-path fast-path accounting: a miss walks the topology and
    #: memoizes the path, a hit answers from the memo, an uncacheable probe
    #: belongs to a flow crossing a per-packet load balancer.
    path_cache_hits: int = 0
    path_cache_misses: int = 0
    path_cache_uncacheable: int = 0
    #: Batch-API accounting: calls to :meth:`Engine.send_many` and the
    #: probes they carried (each probe also counts in ``probes_sent``).
    batches: int = 0
    batched_probes: int = 0
    #: Batched resolved-path lookup accounting, so the invariant
    #: ``bulk_lookup_hits + bulk_lookup_misses == batched_probes``
    #: reconciles.  A hit was answered straight from the memoized path; a
    #: miss fell back to the per-probe walk (cache miss, uncacheable flow,
    #: record-route, or cache disabled).
    bulk_lookup_hits: int = 0
    bulk_lookup_misses: int = 0

    def record_probe(self, protocol: Protocol) -> None:
        self.probes_sent += 1
        self.per_protocol[protocol] = self.per_protocol.get(protocol, 0) + 1

    def snapshot(self) -> dict:
        """Flat JSON-able counters (benches, transport backend metrics)."""
        flat = {
            "engine_probes_sent": self.probes_sent,
            "engine_responses_returned": self.responses_returned,
            "engine_silent_drops": self.silent_drops,
            "engine_path_cache_hits": self.path_cache_hits,
            "engine_path_cache_misses": self.path_cache_misses,
            "engine_path_cache_uncacheable": self.path_cache_uncacheable,
            "engine_batches": self.batches,
            "engine_batched_probes": self.batched_probes,
            "engine_bulk_lookup_hits": self.bulk_lookup_hits,
            "engine_bulk_lookup_misses": self.bulk_lookup_misses,
        }
        for protocol, count in sorted(self.per_protocol.items(),
                                      key=lambda item: item[0].value):
            flat[f"engine_probes_{protocol.value}"] = count
        return flat


class PathTerminal(enum.Enum):
    """How a fully resolved path ends when the TTL never expires."""

    OWNS = "owns"            # last router owns the destination address
    LAN = "lan"              # last router delivers across the destination LAN
    NO_ROUTE = "no-route"    # forwarding dead-ends: silence
    HOP_LIMIT = "hop-limit"  # max_hops routers crossed: silence


class ResponsePlan(NamedTuple):
    """Precomputed static half of one response decision.

    Everything clock-independent — firewalls, silent interfaces, silent
    routers, protocol refusals, NIL configs and the reply source address —
    is resolved once per memoized path.  Only the rate-limit bucket draw and
    the IP-ID counter stay live at replay: a plan of None means the static
    checks already failed *before* the walk would have touched the bucket,
    while ``source=None`` means the walk consumes a token and then stays
    silent (a NIL config), so bucket state matches the walk exactly.
    """

    kind: ResponseType
    source: Optional[int]
    responder: str
    ip_id_mode: IpIdMode
    draws_bucket: bool


@dataclass(frozen=True)
class ResolvedPath:
    """The memoized router walk for one (src, dst, protocol, flow) flow.

    ``router_ids[i]`` is the i-th router the probe visits; ``incoming[i]``
    the address of the interface it arrived on (None at unknown entries);
    ``stamps[i]`` the record-route stamp the router adds when forwarding
    (None when it adds none).  ``hop_plans[i]`` is the response plan when
    the TTL expires at hop i and ``terminal_plan`` the plan past the last
    hop; ``expiry_limit`` is the largest TTL that still expires in transit.
    Rate limiters, IP-ID counters and the virtual clock are consulted live
    at replay, so cached and walked probes stay identical packet for packet.
    """

    router_ids: Tuple[str, ...]
    incoming: Tuple[Optional[int], ...]
    stamps: Tuple[Optional[int], ...]
    terminal: PathTerminal
    lan_subnet_id: Optional[str] = None
    hop_plans: Tuple[Optional[ResponsePlan], ...] = ()
    terminal_plan: Optional[ResponsePlan] = None
    expiry_limit: int = 0
    terminal_stamp_upto: int = 0


#: Cache sentinel: the flow crosses a per-packet balancer, never memoize it.
_UNCACHEABLE = None
_MISSING = object()


class Engine:
    """Injects probes into a topology and produces responses.

    The engine owns a virtual clock that ticks once per probe; rate limiters
    run on that clock, so behaviour is reproducible probe for probe.
    """

    def __init__(self, topology: Topology,
                 routing: Optional[RoutingTable] = None,
                 policy: Optional[ResponsePolicy] = None,
                 balancer: Optional[LoadBalancer] = None,
                 max_hops: int = 64,
                 unassigned_behavior: UnassignedAddressBehavior =
                 UnassignedAddressBehavior.SILENT,
                 keep_wire_log: bool = False,
                 seed: int = 0,
                 ip_id_noise: int = 8,
                 path_cache: bool = True):
        self.topology = topology
        self.routing = routing if routing is not None else RoutingTable(topology)
        self.policy = policy if policy is not None else fully_responsive()
        self.balancer = balancer if balancer is not None else LoadBalancer()
        self.max_hops = max_hops
        self.unassigned_behavior = unassigned_behavior
        self.clock = 0
        self.stats = EngineStats()
        self.wire_log: List[WireEvent] = []
        self._keep_wire_log = keep_wire_log
        # IP-ID state: per-responder shared counters (plus noise emulating
        # the router's other traffic) or per-packet random values.
        self._ip_id_rng = random.Random(seed ^ 0x1D5EED)
        self._ip_id_noise = max(0, ip_id_noise)
        self._ip_id_counters: Dict[str, int] = {}
        # Resolved-path fast path: (src, dst, protocol, flow_id) -> the
        # memoized router walk, or _UNCACHEABLE for per-packet flows.
        self.use_path_cache = path_cache
        # Keyed on the Protocol enum itself: enum identity hashing is
        # cheaper than the .value descriptor in the per-probe hot loops.
        self._path_cache: Dict[Tuple[int, int, Protocol, int],
                               Optional[ResolvedPath]] = {}
        # Mutation watch: memoized paths bake in the topology walk, the
        # policy's static response decisions and the balancer's per-flow
        # choices.  Any of the three changing mid-run (netsim.dynamics)
        # must drop the memo before the next probe is answered.
        self._cache_stamp = (topology.version, self.policy.version,
                             self.balancer.version)

    # -- public API --------------------------------------------------------

    def _check_mutations(self) -> None:
        """Drop stale memoized paths after a topology/policy/ECMP mutation.

        Version stamps, never content checks: a mutated network answers
        from a fresh walk on the very next probe (the routing table does
        its own version-driven rebuild).  Cheap enough for the per-send
        hot path — three attribute reads and a tuple compare.
        """
        stamp = (self.topology.version, self.policy.version,
                 self.balancer.version)
        if stamp != self._cache_stamp:
            self._cache_stamp = stamp
            self.clear_path_cache()

    def idle(self, ticks: int = 1) -> None:
        """Advance the virtual clock without sending (retry backoff):
        rate-limit buckets refill as if ``ticks`` probes' worth of time
        passed, deterministically."""
        if ticks > 0:
            self.clock += ticks

    def send(self, probe: Probe) -> Optional[Response]:
        """Inject one probe; return the response seen at the vantage (or None)."""
        self._check_mutations()
        self.clock += 1
        self.stats.record_probe(probe.protocol)
        stamps: Optional[List[int]] = [] if probe.record_route else None
        if self.use_path_cache and not self._keep_wire_log:
            response = self._send_cached(probe, stamps)
        else:
            response = self._walk(probe, stamps)
        if response is not None and probe.record_route and stamps:
            response = replace(response, record_route=tuple(stamps))
        if response is None:
            self.stats.silent_drops += 1
        else:
            self.stats.responses_returned += 1
        return response

    def send_many(self, probes) -> List[Optional[Response]]:
        """Inject a batch of probes; responses positionally, None for silence.

        Packet-for-packet identical to calling :meth:`send` in a loop — the
        clock ticks once per probe in order, rate-limit buckets and IP-ID
        counters advance identically — but cache hits are answered in one
        tight loop that skips the per-call dispatch overhead.  This is the
        simulator's native half of the transport ``send_many`` API and what
        the ``batched`` bench lane measures.
        """
        self._check_mutations()
        stats = self.stats
        stats.batches += 1
        stats.batched_probes += len(probes)
        if not self.use_path_cache or self._keep_wire_log:
            stats.bulk_lookup_misses += len(probes)
            return [self.send(probe) for probe in probes]

        responses: List[Optional[Response]] = []
        append = responses.append
        cache = self._path_cache
        per_protocol = stats.per_protocol
        rate_allows = self.policy.rate_limit_allows
        # The IP-ID draw is inlined below — same RNG calls in the same
        # order as _next_ip_id, without the per-response method dispatch.
        randrange = self._ip_id_rng.randrange
        id_counters = self._ip_id_counters
        id_noise = self._ip_id_noise
        random_mode = IpIdMode.RANDOM
        new_response = Response.__new__
        clock = self.clock
        fast = returned = silent = 0
        run_protocol = None  # run-length per-protocol accounting
        run_count = 0
        for probe in probes:
            path = cache.get((probe.src, probe.dst, probe.protocol,
                              probe.flow_id), _MISSING)
            if probe.record_route or path is _MISSING or path is _UNCACHEABLE:
                # Slow path: misses, uncacheable flows and record-route
                # probes take the ordinary send() with the shared clock.
                self.clock = clock
                append(self.send(probe))
                clock = self.clock
                continue
            clock += 1
            fast += 1
            protocol = probe.protocol
            if protocol is run_protocol:
                run_count += 1
            else:
                if run_count:
                    per_protocol[run_protocol] = (
                        per_protocol.get(run_protocol, 0) + run_count)
                run_protocol = protocol
                run_count = 1
            ttl = probe.ttl
            plan = (path.hop_plans[ttl - 1] if ttl <= path.expiry_limit
                    else path.terminal_plan)
            # Mirror _replay's ordering exactly: the bucket is drawn before
            # the NIL (source=None) check, so a rate-limited NIL router's
            # token state matches a serial run packet for packet.
            if plan is None or (
                    plan.draws_bucket
                    and not rate_allows(plan.responder, clock)
            ) or plan.source is None:
                silent += 1
                append(None)
                continue
            returned += 1
            responder = plan.responder
            if plan.ip_id_mode is random_mode:
                ip_id = randrange(65536)
            else:
                current = id_counters.get(responder)
                if current is None:
                    current = randrange(65536)
                step = 1 + (randrange(id_noise) if id_noise else 0)
                ip_id = (current + step) % 65536
                id_counters[responder] = ip_id
            # Frozen-dataclass bypass: Response.__init__ pays one
            # object.__setattr__ per field; assembling __dict__ directly is
            # the same object at a fraction of the cost.  Keep the key set
            # in lockstep with Response's fields.
            response = new_response(Response)
            fields = response.__dict__
            fields["kind"] = plan.kind
            fields["source"] = plan.source
            fields["probe"] = probe
            fields["responder"] = responder
            fields["ip_id"] = ip_id
            fields["record_route"] = ()
            append(response)
        if run_count:
            per_protocol[run_protocol] = (
                per_protocol.get(run_protocol, 0) + run_count)
        self.clock = clock
        stats.probes_sent += fast
        stats.path_cache_hits += fast
        stats.bulk_lookup_hits += fast
        stats.bulk_lookup_misses += len(probes) - fast
        stats.responses_returned += returned
        stats.silent_drops += silent
        return responses

    def clear_path_cache(self) -> None:
        """Forget every memoized path (e.g. after mutating the topology)."""
        self._path_cache.clear()

    def path_routers(self, src_host_id: str, dst: int) -> List[str]:
        """Ground-truth router path from a host toward ``dst`` (tests only).

        Uses flow id 0, so under per-flow balancing this is *a* stable path;
        under per-packet balancing it is one sample.
        """
        host = self.topology.hosts[src_host_id]
        flow = FlowKey(src=host.address, dst=dst, protocol="icmp", flow_id=0)
        path: List[str] = []
        current_id = host.gateway_router_id
        dest_subnet = self.topology.subnet_containing(dst)
        for _ in range(self.max_hops):
            path.append(current_id)
            router = self.topology.routers[current_id]
            if router.owns(dst):
                return path
            if dest_subnet is not None and router.interface_on(dest_subnet.subnet_id):
                iface = self.topology.interface_at(dst)
                if iface is None:
                    return path
                path.append(iface.router_id)
                return path
            if dest_subnet is None:
                return path
            hops = self.routing.next_hops(current_id, dest_subnet.subnet_id)
            if not hops:
                return path
            current_id = self.balancer.choose(current_id, hops, flow).router_id
        return path

    def hop_distance(self, src_host_id: str, dst: int) -> Optional[int]:
        """Ground-truth hop distance from a host to an interface address."""
        iface = self.topology.interface_at(dst)
        if iface is None:
            return None
        path = self.path_routers(src_host_id, dst)
        if not path or path[-1] != iface.router_id:
            return None
        return len(path)

    # -- internals ----------------------------------------------------------

    def _log(self, probe: Probe, router_id: str, action: str, detail: str = "") -> None:
        if self._keep_wire_log:
            self.wire_log.append(WireEvent(probe.probe_id, router_id, action, detail))

    def _walk(self, probe: Probe, stamps: Optional[List[int]] = None
              ) -> Optional[Response]:
        host = self.topology.host_at(probe.src)
        if host is None:
            raise ValueError(f"probe source {probe.src} is not a registered host")
        flow = FlowKey(src=probe.src, dst=probe.dst,
                       protocol=probe.protocol.value, flow_id=probe.flow_id)
        dest_subnet = self.topology.subnet_containing(probe.dst)
        dest_host = self.topology.host_at(probe.dst)

        current = self.topology.routers[host.gateway_router_id]
        incoming_address: Optional[int] = None
        entry_iface = current.interface_on(host.subnet_id)
        if entry_iface is not None:
            incoming_address = entry_iface.address
        ttl = probe.ttl

        for _ in range(self.max_hops):
            if current.owns(probe.dst):
                self._log(probe, current.router_id, "deliver")
                return self._direct_response(probe, current)

            ttl -= 1
            if ttl == 0:
                self._log(probe, current.router_id, "ttl-exceeded")
                return self._ttl_exceeded(probe, current, incoming_address, host)

            if dest_subnet is not None and current.interface_on(dest_subnet.subnet_id):
                self._stamp(probe, current, dest_subnet.subnet_id, stamps)
                return self._deliver_across_lan(probe, current, dest_subnet.subnet_id,
                                                dest_host)
            if dest_subnet is None:
                self._log(probe, current.router_id, "no-route")
                return None
            hops = self.routing.next_hops(current.router_id, dest_subnet.subnet_id)
            if not hops:
                self._log(probe, current.router_id, "no-route")
                return None
            choice = self.balancer.choose(current.router_id, hops, flow)
            self._stamp(probe, current, choice.via_subnet_id, stamps)
            next_router = self.topology.routers[choice.router_id]
            via_iface = next_router.interface_on(choice.via_subnet_id)
            incoming_address = via_iface.address if via_iface is not None else None
            self._log(probe, current.router_id, "forward",
                      f"-> {choice.router_id} via {choice.via_subnet_id}")
            current = next_router
        self._log(probe, current.router_id, "hop-limit")
        return None

    # -- resolved-path fast path ---------------------------------------------

    def _send_cached(self, probe: Probe, stamps: Optional[List[int]]
                     ) -> Optional[Response]:
        """Answer from the memoized path when one exists, else walk + memoize.

        Per-packet-balanced flows are detected on first contact and marked
        uncacheable; they take the full walk forever after.  Response
        generation (policy checks, rate-limit buckets, IP-ID counters) always
        runs live against the current clock — only the forwarding decision
        sequence is memoized.
        """
        key = (probe.src, probe.dst, probe.protocol, probe.flow_id)
        entry = self._path_cache.get(key, _MISSING)
        if entry is _MISSING:
            self.stats.path_cache_misses += 1
            response = self._walk(probe, stamps)
            self._path_cache[key] = self._resolve_path(probe)
            return response
        if entry is _UNCACHEABLE:
            self.stats.path_cache_uncacheable += 1
            return self._walk(probe, stamps)
        self.stats.path_cache_hits += 1
        return self._replay(probe, entry, stamps)

    def _resolve_path(self, probe: Probe) -> Optional[ResolvedPath]:
        """Walk to the terminal hop ignoring the probe's TTL, with no side
        effects: no rate-limit draws, no PRNG consumption, no stats.  The
        static halves of every possible response (per-hop TTL-Exceeded and
        the terminal delivery) are precomputed into plans here.  Returns
        None when the flow crosses a per-packet load balancer with a real
        choice (the path is random per packet and must not be memoized)."""
        host = self.topology.host_at(probe.src)
        if host is None:
            raise ValueError(f"probe source {probe.src} is not a registered host")
        flow = FlowKey(src=probe.src, dst=probe.dst,
                       protocol=probe.protocol.value, flow_id=probe.flow_id)
        dest_subnet = self.topology.subnet_containing(probe.dst)

        current = self.topology.routers[host.gateway_router_id]
        incoming_address: Optional[int] = None
        entry_iface = current.interface_on(host.subnet_id)
        if entry_iface is not None:
            incoming_address = entry_iface.address

        router_ids: List[str] = []
        incoming: List[Optional[int]] = []
        stamps: List[Optional[int]] = []

        def done(terminal: PathTerminal, lan_subnet_id: Optional[str] = None
                 ) -> ResolvedPath:
            n = len(router_ids)
            hop_plans = tuple(
                self._plan_ttl_exceeded(probe, router_ids[i], incoming[i], host)
                for i in range(n))
            if terminal == PathTerminal.OWNS:
                terminal_plan = self._plan_direct(probe, router_ids[-1])
                expiry_limit = n - 1
                stamp_upto = n - 1
            elif terminal == PathTerminal.LAN:
                terminal_plan = self._plan_lan(probe, router_ids[-1],
                                               lan_subnet_id)
                expiry_limit = n
                stamp_upto = n
            else:
                terminal_plan = None
                expiry_limit = n
                stamp_upto = n
            return ResolvedPath(router_ids=tuple(router_ids),
                                incoming=tuple(incoming),
                                stamps=tuple(stamps),
                                terminal=terminal,
                                lan_subnet_id=lan_subnet_id,
                                hop_plans=hop_plans,
                                terminal_plan=terminal_plan,
                                expiry_limit=expiry_limit,
                                terminal_stamp_upto=stamp_upto)

        for _ in range(self.max_hops):
            router_ids.append(current.router_id)
            incoming.append(incoming_address)
            if current.owns(probe.dst):
                stamps.append(None)
                return done(PathTerminal.OWNS)
            if dest_subnet is not None and current.interface_on(dest_subnet.subnet_id):
                iface = current.interface_on(dest_subnet.subnet_id)
                stamps.append(iface.address if iface is not None else None)
                return done(PathTerminal.LAN, dest_subnet.subnet_id)
            if dest_subnet is None:
                stamps.append(None)
                return done(PathTerminal.NO_ROUTE)
            hops = self.routing.next_hops(current.router_id, dest_subnet.subnet_id)
            if not hops:
                stamps.append(None)
                return done(PathTerminal.NO_ROUTE)
            choice = self.balancer.choose_stable(current.router_id, hops, flow)
            if choice is None:
                return None
            via_iface = current.interface_on(choice.via_subnet_id)
            stamps.append(via_iface.address if via_iface is not None else None)
            next_router = self.topology.routers[choice.router_id]
            next_iface = next_router.interface_on(choice.via_subnet_id)
            incoming_address = next_iface.address if next_iface is not None else None
            current = next_router
        return done(PathTerminal.HOP_LIMIT)

    def _replay(self, probe: Probe, path: ResolvedPath,
                stamps: Optional[List[int]]) -> Optional[Response]:
        """Generate this probe's response from a memoized path.

        Mirrors :meth:`_walk` TTL accounting exactly: the terminal router
        does not decrement for an address it owns, but does before a LAN
        delivery / dead end.  The static response decision was precomputed
        into a plan; only the rate-limit bucket and IP-ID counter run live.
        """
        ttl = probe.ttl
        if ttl <= path.expiry_limit:
            if stamps is not None:
                self._fill_stamps(probe, path, ttl - 1, stamps)
            plan = path.hop_plans[ttl - 1]
        else:
            if stamps is not None:
                self._fill_stamps(probe, path, path.terminal_stamp_upto, stamps)
            plan = path.terminal_plan
        if plan is None:
            return None
        if plan.draws_bucket and not self.policy.rate_limit_allows(
                plan.responder, self.clock):
            return None
        if plan.source is None:
            return None
        return Response(kind=plan.kind, source=plan.source, probe=probe,
                        responder=plan.responder,
                        ip_id=self._next_ip_id(plan.responder, plan.ip_id_mode))

    def _plan_ttl_exceeded(self, probe: Probe, router_id: str,
                           incoming_address: Optional[int],
                           vantage: Host) -> Optional[ResponsePlan]:
        """Static half of :meth:`_ttl_exceeded` for one hop of a path."""
        if not self.policy.router_statically_responds(router_id, probe.protocol):
            return None
        router = self.topology.routers[router_id]
        config = router.indirect_config
        source: Optional[int]
        if config == IndirectConfig.NIL:
            source = None  # the walk consumes a token, then stays silent
        elif config == IndirectConfig.INCOMING:
            source = incoming_address
        elif config == IndirectConfig.SHORTEST_PATH:
            source = self.routing.egress_interface_toward(
                router_id, vantage.subnet_id)
        else:
            source = router.report_address()
        return ResponsePlan(kind=ResponseType.TTL_EXCEEDED, source=source,
                            responder=router_id, ip_id_mode=router.ip_id_mode,
                            draws_bucket=True)

    def _plan_direct(self, probe: Probe, router_id: str
                     ) -> Optional[ResponsePlan]:
        """Static half of :meth:`_direct_response` at the owning router."""
        subnet = self.topology.subnet_containing(probe.dst)
        if subnet is not None and self.policy.subnet_is_firewalled(subnet.subnet_id):
            return None
        if self.policy.interface_is_silent(probe.dst):
            return None
        if not self.policy.router_statically_responds(router_id, probe.protocol):
            return None
        router = self.topology.routers[router_id]
        source = None if router.direct_config == DirectConfig.NIL else probe.dst
        return ResponsePlan(kind=ALIVE_RESPONSES[probe.protocol], source=source,
                            responder=router_id, ip_id_mode=router.ip_id_mode,
                            draws_bucket=True)

    def _plan_lan(self, probe: Probe, last_router_id: str,
                  subnet_id: str) -> Optional[ResponsePlan]:
        """Static half of :meth:`_deliver_across_lan` past the last hop."""
        dest_host = self.topology.host_at(probe.dst)
        if dest_host is not None and dest_host.subnet_id == subnet_id:
            # _host_response: no router_responds call, so no bucket draw.
            if self.policy.subnet_is_firewalled(subnet_id):
                return None
            if self.policy.interface_is_silent(probe.dst):
                return None
            return ResponsePlan(kind=ALIVE_RESPONSES[probe.protocol],
                                source=probe.dst, responder=dest_host.host_id,
                                ip_id_mode=IpIdMode.SHARED, draws_bucket=False)
        iface = self.topology.interface_at(probe.dst)
        if iface is None or iface.subnet_id != subnet_id:
            # _unassigned_response
            if self.unassigned_behavior == UnassignedAddressBehavior.SILENT:
                return None
            if self.policy.subnet_is_firewalled(subnet_id):
                return None
            if not self.policy.router_statically_responds(last_router_id,
                                                          probe.protocol):
                return None
            router = self.topology.routers[last_router_id]
            own_iface = router.interface_on(subnet_id)
            source = own_iface.address if own_iface is not None else None
            return ResponsePlan(kind=ResponseType.HOST_UNREACHABLE,
                                source=source, responder=last_router_id,
                                ip_id_mode=router.ip_id_mode, draws_bucket=True)
        return self._plan_direct(probe, iface.router_id)

    def _fill_stamps(self, probe: Probe, path: ResolvedPath, upto: int,
                     stamps: Optional[List[int]]) -> None:
        """Record-route stamps collected before hop index ``upto``."""
        if stamps is None or not probe.record_route:
            return
        for stamp in path.stamps[:upto]:
            if stamp is None:
                continue
            if len(stamps) >= RECORD_ROUTE_SLOTS:
                return
            stamps.append(stamp)

    def _deliver_across_lan(self, probe: Probe, current: Router,
                            subnet_id: str, dest_host: Optional[Host]
                            ) -> Optional[Response]:
        """Final LAN hop: ``current`` is attached to the destination subnet."""
        if dest_host is not None and dest_host.subnet_id == subnet_id:
            self._log(probe, current.router_id, "deliver-host", dest_host.host_id)
            return self._host_response(probe, dest_host)
        iface = self.topology.interface_at(probe.dst)
        if iface is None or iface.subnet_id != subnet_id:
            self._log(probe, current.router_id, "unassigned", str(probe.dst))
            return self._unassigned_response(probe, current, subnet_id)
        target_router = self.topology.routers[iface.router_id]
        self._log(probe, target_router.router_id, "deliver", "lan")
        return self._direct_response(probe, target_router)

    def _stamp(self, probe: Probe, router: Router, via_subnet_id: str,
               stamps: Optional[List[int]]) -> None:
        """Record-route: a forwarding router stamps its outgoing interface
        (RFC 791, up to 9 slots) — the DisCarte data source."""
        if stamps is None or not probe.record_route:
            return
        if len(stamps) >= RECORD_ROUTE_SLOTS:
            return
        iface = router.interface_on(via_subnet_id)
        if iface is not None:
            stamps.append(iface.address)

    # -- response generation -------------------------------------------------

    def _next_ip_id(self, responder_id: str, mode: IpIdMode) -> int:
        """The IP identification value of the next packet ``responder_id``
        sends: a shared wrapping counter (with noise standing in for the
        router's other traffic) or a fresh random value."""
        if mode == IpIdMode.RANDOM:
            return self._ip_id_rng.randrange(65536)
        current = self._ip_id_counters.get(responder_id)
        if current is None:
            current = self._ip_id_rng.randrange(65536)
        step = 1 + (self._ip_id_rng.randrange(self._ip_id_noise)
                    if self._ip_id_noise else 0)
        value = (current + step) % 65536
        self._ip_id_counters[responder_id] = value
        return value

    def _direct_response(self, probe: Probe, router: Router) -> Optional[Response]:
        subnet = self.topology.subnet_containing(probe.dst)
        if subnet is not None and self.policy.subnet_is_firewalled(subnet.subnet_id):
            return None
        if self.policy.interface_is_silent(probe.dst):
            return None
        if not self.policy.router_responds(router.router_id, probe.protocol, self.clock):
            return None
        if router.direct_config == DirectConfig.NIL:
            return None
        return Response(kind=ALIVE_RESPONSES[probe.protocol], source=probe.dst,
                        probe=probe, responder=router.router_id,
                        ip_id=self._next_ip_id(router.router_id,
                                               router.ip_id_mode))

    def _host_response(self, probe: Probe, host: Host) -> Optional[Response]:
        subnet_id = host.subnet_id
        if self.policy.subnet_is_firewalled(subnet_id):
            return None
        if self.policy.interface_is_silent(probe.dst):
            return None
        return Response(kind=ALIVE_RESPONSES[probe.protocol], source=probe.dst,
                        probe=probe, responder=host.host_id,
                        ip_id=self._next_ip_id(host.host_id, IpIdMode.SHARED))

    def _ttl_exceeded(self, probe: Probe, router: Router,
                      incoming_address: Optional[int],
                      vantage: Host) -> Optional[Response]:
        if not self.policy.router_responds(router.router_id, probe.protocol, self.clock):
            return None
        source: Optional[int]
        if router.indirect_config == IndirectConfig.NIL:
            return None
        if router.indirect_config == IndirectConfig.INCOMING:
            source = incoming_address
        elif router.indirect_config == IndirectConfig.SHORTEST_PATH:
            source = self.routing.egress_interface_toward(
                router.router_id, vantage.subnet_id)
        else:
            source = router.report_address()
        if source is None:
            return None
        if self.policy.interface_is_silent(source):
            # A reticent interface still sources TTL-Exceeded packets; only
            # direct probes to it are filtered.  Keep the reply.
            pass
        return Response(kind=ResponseType.TTL_EXCEEDED, source=source,
                        probe=probe, responder=router.router_id,
                        ip_id=self._next_ip_id(router.router_id,
                                               router.ip_id_mode))

    def _unassigned_response(self, probe: Probe, router: Router,
                             subnet_id: str) -> Optional[Response]:
        if self.unassigned_behavior == UnassignedAddressBehavior.SILENT:
            return None
        if self.policy.subnet_is_firewalled(subnet_id):
            return None
        if not self.policy.router_responds(router.router_id, probe.protocol, self.clock):
            return None
        iface = router.interface_on(subnet_id)
        if iface is None:
            return None
        return Response(kind=ResponseType.HOST_UNREACHABLE, source=iface.address,
                        probe=probe, responder=router.router_id,
                        ip_id=self._next_ip_id(router.router_id,
                                               router.ip_id_mode))
