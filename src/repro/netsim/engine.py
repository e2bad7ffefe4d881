"""The forwarding engine: hop-by-hop probe simulation.

This is the stand-in for the live Internet.  A probe injected at a vantage
host follows the routed path with real TTL semantics: every intermediate
router decrements the TTL and, at zero, answers with an ICMP TTL-Exceeded
sourced according to its response configuration; the router owning the
destination address delivers and answers according to its direct
configuration.  Firewalls, silent interfaces, protocol bias and rate limits
are consulted through the :class:`~repro.netsim.responsiveness.ResponsePolicy`.

Every probe takes one path through the engine: the flow's route is
resolved into a :class:`ResolvedPath`, and the probe's response is replayed
from it for the probe's TTL.  Resolution is memoized at two levels.  A
route toward a destination *subnet* is walked once per (vantage, subnet,
protocol, flow) and holds every transit hop's response plan; a probed
address's path is derived from its subnet's route in O(1) (only the route's
last router can own the address) and memoized per flow.  Flows crossing a
per-packet load balancer are never memoized, and a route that crossed a
per-flow balancer's real choice serves only the address it was walked for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .packet import (
    ALIVE_RESPONSES,
    Probe,
    Protocol,
    Response,
    ResponseType,
)
from .responsiveness import ResponsePolicy, fully_responsive
from .router import DirectConfig, IndirectConfig, Router
from .routing import (
    FlowKey,
    LoadBalancer,
    LoadBalancingMode,
    NextHop,
    RoutingTable,
)
from .topology import Host, Topology


class UnassignedAddressBehavior(enum.Enum):
    """What the last-hop router does for an address with no interface."""

    SILENT = "silent"
    HOST_UNREACHABLE = "host-unreachable"


@dataclass
class EngineStats:
    """Counters the overhead benches read."""

    probes_sent: int = 0
    responses_returned: int = 0
    silent_drops: int = 0
    per_protocol: dict = field(default_factory=dict)
    #: Resolved-path memo accounting: a miss resolves the flow's path and
    #: memoizes it, a hit answers from the memo, an uncacheable probe
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
    #: miss fell back to a per-probe :meth:`Engine.send` (cache miss,
    #: uncacheable flow, or cache disabled).
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
    """How a resolved path ends."""

    OWNS = "owns"            # last router owns the destination address
    LAN = "lan"              # last router delivers across the destination LAN
    NO_ROUTE = "no-route"    # forwarding dead-ends: silence
    HOP_LIMIT = "hop-limit"  # max_hops routers crossed: silence
    EXPIRED = "expired"      # one-off live path cut where the TTL expires


class ResponsePlan(NamedTuple):
    """Precomputed static half of one response decision.

    Everything clock-independent — firewalls, silent interfaces, silent
    routers, protocol refusals, NIL configs and the reply source address —
    is resolved once per path.  Only the rate-limit bucket draw stays live
    at replay: a plan of None means the static checks fail before the
    responder's bucket is touched, while
    ``source=None`` means the responder consumes a token and then stays
    silent (a NIL config or an unknown source address).
    """

    kind: ResponseType
    source: Optional[int]
    responder: str
    draws_bucket: bool


class ResolvedPath(NamedTuple):
    """The router path of one (src, dst, protocol, flow) flow.

    ``router_ids[i]`` is the i-th router the probe visits; ``incoming[i]``
    the address of the interface it arrived on (None at unknown entries).
    ``hop_plans[i]`` is the response plan when the TTL expires at hop i and
    ``terminal_plan`` the plan past the last hop; ``expiry_limit`` is the
    largest TTL that still expires in transit.  Rate limiters and the
    virtual clock are consulted live at replay, so a memoized path answers
    every probe of its flow.  The tuples are shared with the route toward
    the destination subnet the path was derived from.
    """

    router_ids: Tuple[str, ...]
    incoming: Tuple[Optional[int], ...]
    terminal: PathTerminal
    lan_subnet_id: Optional[str] = None
    hop_plans: Tuple[Optional[ResponsePlan], ...] = ()
    terminal_plan: Optional[ResponsePlan] = None
    expiry_limit: int = 0


class _Route(NamedTuple):
    """One walked route toward a destination subnet, shared by every
    address inside it.

    A route that reaches the subnet ends at ``lan_router``, the first
    router attached to it, which owns an address of the subnet or delivers
    across the LAN to it.  Any other route (``NO_ROUTE``, ``HOP_LIMIT``,
    or a live route cut where its TTL expires) reaches no router that owns
    or delivers an address of the subnet, so its one finished ``path``
    answers for all of them.
    """

    router_ids: Tuple[str, ...]
    incoming: Tuple[Optional[int], ...]
    hop_plans: Tuple[Optional[ResponsePlan], ...]
    lan_router: Optional[Router]
    lan_subnet_id: Optional[str]
    path: Optional[ResolvedPath]


#: Cache sentinel: the flow crosses a per-packet balancer, never memoize it.
_UNCACHEABLE = None
_MISSING = object()
#: Route-memo sentinel: the route crossed a per-flow balancer's real
#: choice, which hashes the destination address, so every address of the
#: subnet walks its own route (and its path is memoized per address only).
_PER_ADDRESS = object()


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
                 path_cache: bool = True):
        self.topology = topology
        self.routing = routing if routing is not None else RoutingTable(topology)
        self.policy = policy if policy is not None else fully_responsive()
        self.balancer = balancer if balancer is not None else LoadBalancer()
        self.max_hops = max_hops
        self.unassigned_behavior = unassigned_behavior
        self.clock = 0
        self.stats = EngineStats()
        # Resolved-path memo: (src, dst, protocol, flow_id) -> the flow's
        # ResolvedPath, or _UNCACHEABLE for per-packet flows.
        self.use_path_cache = path_cache
        # Keyed on the Protocol enum itself: enum identity hashing is
        # cheaper than the .value descriptor in the per-probe hot loops.
        self._path_cache: Dict[Tuple[int, int, Protocol, int],
                               Optional[ResolvedPath]] = {}
        # Route memo behind it: (src, subnet_id, protocol, flow_id) -> the
        # _Route every address of the subnet derives its path from,
        # _UNCACHEABLE, or _PER_ADDRESS.
        self._routes: Dict[Tuple[int, Optional[str], Protocol, int],
                           object] = {}
        # Mutation watch: memoized paths and routes bake in the topology's
        # routes, the policy's static response decisions and the
        # balancer's per-flow choices.  Any of the three changing mid-run
        # (netsim.dynamics) must drop both memos before the next probe is
        # answered.
        self._cache_stamp = (topology.version, self.policy.version,
                             self.balancer.version)

    # -- public API --------------------------------------------------------

    def _check_mutations(self) -> None:
        """Drop stale memoized paths and routes after a topology, policy or
        ECMP mutation.

        Version stamps, never content checks: a mutated network answers
        from a freshly resolved path on the very next probe (the routing
        table does its own version-driven rebuild).  Cheap enough for the
        per-send hot path — three attribute reads and a tuple compare.
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
        response = self._replay(probe, self._path_for(probe))
        if response is None:
            self.stats.silent_drops += 1
        else:
            self.stats.responses_returned += 1
        return response

    def send_many(self, probes) -> List[Optional[Response]]:
        """Inject a batch of probes; responses positionally, None for silence.

        Packet-for-packet identical to calling :meth:`send` in a loop — the
        clock ticks once per probe in order and rate-limit buckets advance
        identically — but cache hits are answered in one
        tight loop that skips the per-call dispatch overhead.  This is the
        simulator's native half of the transport ``send_many`` API and what
        the ``batched`` bench lane measures.
        """
        self._check_mutations()
        stats = self.stats
        stats.batches += 1
        stats.batched_probes += len(probes)
        if not self.use_path_cache:
            stats.bulk_lookup_misses += len(probes)
            return [self.send(probe) for probe in probes]

        responses: List[Optional[Response]] = []
        append = responses.append
        cache = self._path_cache
        per_protocol = stats.per_protocol
        rate_allows = self.policy.rate_limit_allows
        clock = self.clock
        fast = returned = silent = 0
        run_protocol = None  # run-length per-protocol accounting
        run_count = 0
        for probe in probes:
            path = cache.get((probe.src, probe.dst, probe.protocol,
                              probe.flow_id), _MISSING)
            if path is _MISSING or path is _UNCACHEABLE:
                # Slow path: misses and uncacheable flows take the ordinary
                # send() with the shared clock.
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
            append(Response(plan.kind, plan.source, probe, plan.responder))
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
        """Forget every memoized path and route (e.g. after mutating the
        topology)."""
        self._path_cache.clear()
        self._routes.clear()

    def path_routers(self, src_host_id: str, dst: int) -> List[str]:
        """Ground-truth router path from a host toward ``dst`` (tests only).

        Uses an ICMP flow with flow id 0, so under per-flow balancing this
        is *a* stable path; under per-packet balancing it is one sample.  A
        path delivered across the destination LAN ends at the router that
        owns ``dst``.
        """
        host = self.topology.hosts[src_host_id]
        router_ids, _, terminal, _ = self._walk(
            host, self._subnet_id_of(dst), (host.address, dst, Protocol.ICMP, 0),
            self.balancer.choose)
        if terminal is PathTerminal.LAN:
            iface = self.topology.interface_at(dst)
            if iface is not None and iface.router_id != router_ids[-1]:
                router_ids.append(iface.router_id)
        return router_ids

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

    def _path_for(self, probe: Probe) -> ResolvedPath:
        """The path that answers ``probe``: the flow's memoized path,
        derived and memoized on a miss, or a one-off live path when the
        flow crosses a per-packet balancer or the cache is off."""
        flow = (probe.src, probe.dst, probe.protocol, probe.flow_id)
        if self.use_path_cache:
            path = self._path_cache.get(flow, _MISSING)
            if path is _MISSING:
                self.stats.path_cache_misses += 1
                path = self._path_cache[flow] = self._memoized_path(probe, flow)
            elif path is _UNCACHEABLE:
                self.stats.path_cache_uncacheable += 1
            else:
                self.stats.path_cache_hits += 1
            if path is not _UNCACHEABLE:
                return path
        # A one-off path for this probe alone: per-packet choices are drawn
        # with LoadBalancer.choose and the route stops where the TTL
        # expires, so the PRNG is drawn at exactly the hops that forward it.
        host = self._vantage(probe)
        subnet_id = self._subnet_id_of(probe.dst)
        walked = self._walk(host, subnet_id, flow, self.balancer.choose,
                            probe.ttl)
        return self._derive(probe, self._route(probe, host, subnet_id, walked,
                                               live=True))

    def _memoized_path(self, probe: Probe, flow: Tuple[int, int, Protocol, int]
                       ) -> Optional[ResolvedPath]:
        """Derive the flow's path from the memoized route toward its
        destination subnet, walking the route first on a route-memo miss.
        None when the route crosses a per-packet load balancer with a real
        choice (the path is random per packet and must not be memoized).

        The stable walk consumes no balancer PRNG.  A route that crossed a
        per-flow balancer's real choice depends on the hashed address, so
        it is walked again for every address of the subnet.
        """
        subnet_id = self._subnet_id_of(probe.dst)
        key = (probe.src, subnet_id, probe.protocol, probe.flow_id)
        route = self._routes.get(key, _MISSING)
        if route is _MISSING or route is _PER_ADDRESS:
            host = self._vantage(probe)
            walked = self._walk(host, subnet_id, flow,
                                self.balancer.choose_stable)
            _, _, terminal, hashed = walked
            fresh = (_UNCACHEABLE if terminal is None
                     else self._route(probe, host, subnet_id, walked))
            if route is _MISSING:
                self._routes[key] = _PER_ADDRESS if hashed else fresh
            route = fresh
        if route is _UNCACHEABLE:
            return _UNCACHEABLE
        return self._derive(probe, route)

    def _vantage(self, probe: Probe) -> Host:
        host = self.topology.host_at(probe.src)
        if host is None:
            raise ValueError(f"probe source {probe.src} is not a registered host")
        return host

    def _subnet_id_of(self, dst: int) -> Optional[str]:
        subnet = self.topology.subnet_containing(dst)
        return subnet.subnet_id if subnet is not None else None

    def _walk(self, host: Host, subnet_id: Optional[str],
              flow: Tuple[int, int, Protocol, int],
              choose: Callable[[str, List[NextHop], FlowKey],
                               Optional[NextHop]],
              ttl: Optional[int] = None):
        """The engine's one forwarding loop, from ``host``'s gateway toward
        the destination subnet ``subnet_id`` (None: no subnet holds the
        destination, a dead end at the gateway).

        Returns ``(router_ids, incoming, terminal, hashed)``: the routers
        visited, the address each was entered on (None when unknown), how
        the route ends, and whether a per-flow
        balancer hashed the flow ``(src, dst, protocol, flow_id)`` among
        two or more next hops.  A ``LAN`` terminal is the first router
        attached to the subnet, whether it owns the destination or delivers
        across the LAN (:meth:`_derive` tells the two apart).  ``choose``
        picks among ECMP next hops; when it declines (returns None) the
        terminal is None.  With ``ttl`` the route stops at the router where
        that TTL expires.
        """
        routers = self.topology.routers
        next_hops = self.routing.next_hops
        current = routers[host.gateway_router_id]
        entry_iface = current.interface_on(host.subnet_id)
        incoming_address = entry_iface.address if entry_iface is not None else None
        router_ids: List[str] = []
        incoming: List[Optional[int]] = []
        flow_key = None
        hashed = False
        for _ in range(self.max_hops):
            router_id = current.router_id
            router_ids.append(router_id)
            incoming.append(incoming_address)
            if subnet_id is None:
                return router_ids, incoming, PathTerminal.NO_ROUTE, hashed
            if current.interface_on(subnet_id) is not None:
                return router_ids, incoming, PathTerminal.LAN, hashed
            if len(router_ids) == ttl:
                return router_ids, incoming, PathTerminal.EXPIRED, hashed
            hops = next_hops(router_id, subnet_id)
            if not hops:
                return router_ids, incoming, PathTerminal.NO_ROUTE, hashed
            if len(hops) == 1:
                choice = hops[0]
            else:
                if flow_key is None:
                    src, dst, protocol, flow_id = flow
                    flow_key = FlowKey(src=src, dst=dst, protocol=protocol.value,
                                       flow_id=flow_id)
                choice = choose(router_id, hops, flow_key)
                if choice is None:
                    return router_ids, incoming, None, hashed
                hashed = hashed or (self.balancer.mode_of(router_id)
                                    is LoadBalancingMode.PER_FLOW)
            current = routers[choice.router_id]
            next_iface = current.interface_on(choice.via_subnet_id)
            incoming_address = next_iface.address if next_iface is not None else None
        return router_ids, incoming, PathTerminal.HOP_LIMIT, hashed

    def _route(self, probe: Probe, host: Host, subnet_id: Optional[str],
               walked, live: bool = False) -> _Route:
        """Precompute the static half of every TTL-Exceeded a walked route
        can draw into plans.  No rate-limit draws, no stats.

        A ``live`` route is cut where its probe's TTL expires, so that
        probe is answered at the last hop or past it: earlier hops need no
        plan.
        """
        router_ids, incoming, terminal, _ = walked
        n = len(router_ids)
        first = n - 1 if live else 0
        hop_plans = (None,) * first + tuple(
            self._plan_indirect(probe, router_ids[i], incoming[i], host)
            for i in range(first, n))
        router_ids = tuple(router_ids)
        incoming = tuple(incoming)
        if terminal is PathTerminal.LAN:
            return _Route(router_ids, incoming, hop_plans,
                          self.topology.routers[router_ids[-1]], subnet_id,
                          None)
        return _Route(router_ids, incoming, hop_plans, None, None,
                      ResolvedPath(router_ids, incoming, terminal, None,
                                   hop_plans, None, n))

    def _derive(self, probe: Probe, route: _Route) -> ResolvedPath:
        """The probed address's path, sharing its subnet route's tuples.

        Exact because addresses are unique and an interface address lies in
        its own interface's subnet: the only router on the route that can
        own ``probe.dst`` is the route's LAN router.  The owner answers
        without decrementing the TTL; any other address is delivered across
        the LAN past the last hop.
        """
        if route.path is not None:
            return route.path
        router = route.lan_router
        n = len(route.router_ids)
        if router.owns(probe.dst):
            return ResolvedPath(route.router_ids, route.incoming,
                                PathTerminal.OWNS, None, route.hop_plans,
                                self._plan_direct(probe, router,
                                                  route.lan_subnet_id),
                                n - 1)
        return ResolvedPath(route.router_ids, route.incoming,
                            PathTerminal.LAN, route.lan_subnet_id,
                            route.hop_plans,
                            self._plan_lan(probe, router, route.lan_subnet_id),
                            n)

    def _replay(self, probe: Probe, path: ResolvedPath) -> Optional[Response]:
        """Generate this probe's response from its resolved path.

        TTL accounting: the terminal router does not decrement for an
        address it owns, but does before a LAN delivery / dead end.  The
        static response decision was precomputed into a plan; only the
        rate-limit bucket runs live.
        """
        ttl = probe.ttl
        plan = (path.hop_plans[ttl - 1] if ttl <= path.expiry_limit
                else path.terminal_plan)
        if plan is None:
            return None
        if plan.draws_bucket and not self.policy.rate_limit_allows(
                plan.responder, self.clock):
            return None
        if plan.source is None:
            return None
        return Response(plan.kind, plan.source, probe, plan.responder)

    def _plan_indirect(self, probe: Probe, router_id: str,
                       incoming_address: Optional[int],
                       vantage: Host) -> Optional[ResponsePlan]:
        """TTL-Exceeded from one hop of a path (paper §3.1 indirect
        configurations).  A reticent interface still sources these replies;
        only direct probes to it are filtered."""
        if not self.policy.router_statically_responds(router_id, probe.protocol):
            return None
        router = self.topology.routers[router_id]
        config = router.indirect_config
        source: Optional[int]
        if config == IndirectConfig.NIL:
            source = None  # consumes a token, then stays silent
        elif config == IndirectConfig.INCOMING:
            source = incoming_address
        elif config == IndirectConfig.SHORTEST_PATH:
            source = self.routing.egress_interface_toward(
                router_id, vantage.subnet_id)
        else:
            source = router.report_address()
        return ResponsePlan(kind=ResponseType.TTL_EXCEEDED, source=source,
                            responder=router_id, draws_bucket=True)

    def _plan_direct(self, probe: Probe, router: Router, subnet_id: str
                     ) -> Optional[ResponsePlan]:
        """The owning router's answer to a direct probe (paper §3.1 direct
        configurations), behind subnet firewalls and silent interfaces.
        ``subnet_id`` is the subnet holding ``probe.dst``."""
        if self.policy.subnet_is_firewalled(subnet_id):
            return None
        if self.policy.interface_is_silent(probe.dst):
            return None
        if not self.policy.router_statically_responds(router.router_id,
                                                      probe.protocol):
            return None
        source = None if router.direct_config == DirectConfig.NIL else probe.dst
        return ResponsePlan(kind=ALIVE_RESPONSES[probe.protocol], source=source,
                            responder=router.router_id, draws_bucket=True)

    def _plan_lan(self, probe: Probe, last_router: Router,
                  subnet_id: str) -> Optional[ResponsePlan]:
        """Delivery across the destination LAN past the last hop: a host
        answers for itself, an assigned address through its owning router,
        and an unassigned one per :class:`UnassignedAddressBehavior`."""
        dest_host = self.topology.host_at(probe.dst)
        if dest_host is not None and dest_host.subnet_id == subnet_id:
            # Hosts have no rate limiter: no bucket draw.
            if self.policy.subnet_is_firewalled(subnet_id):
                return None
            if self.policy.interface_is_silent(probe.dst):
                return None
            return ResponsePlan(kind=ALIVE_RESPONSES[probe.protocol],
                                source=probe.dst, responder=dest_host.host_id,
                                draws_bucket=False)
        iface = self.topology.interface_at(probe.dst)
        if iface is None or iface.subnet_id != subnet_id:
            # Unassigned address: the last router may answer for the LAN.
            if self.unassigned_behavior == UnassignedAddressBehavior.SILENT:
                return None
            if self.policy.subnet_is_firewalled(subnet_id):
                return None
            if not self.policy.router_statically_responds(
                    last_router.router_id, probe.protocol):
                return None
            own_iface = last_router.interface_on(subnet_id)
            source = own_iface.address if own_iface is not None else None
            return ResponsePlan(kind=ResponseType.HOST_UNREACHABLE,
                                source=source, responder=last_router.router_id,
                                draws_bucket=True)
        return self._plan_direct(probe, self.topology.routers[iface.router_id],
                                 subnet_id)
