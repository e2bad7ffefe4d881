"""The tracenet tool: trace collection + subnet positioning + exploration.

Public entry point of the library.  A :class:`TraceNET` instance is bound to
one vantage point on one engine; each :meth:`TraceNET.trace` call walks the
path to a destination hop by hop and, at every hop, grows the subnet
accommodating the address obtained there — returning the sequence of
observed subnets of Figure 1(b).

Subnets already collected by earlier traces from the same instance are
recognized by membership and not re-explored, which is what makes
survey-scale target sets (Section 4.2's 34 084 addresses) affordable — the
same economy the authors' implementation gets from merged heuristics and
response caching.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Union

from ..events import DegradedResult, EventBus, TraceFinished, TraceStarted
from ..netsim.addressing import Prefix
from ..netsim.packet import Protocol
from ..probing.prober import Prober, RetryPolicy
from ..probing.stopset import StopSet
from ..transport import as_transport
from ..transport.churn import find_mutating
from .collection import HopPipeline, collect_hop
from .exploration import (
    DEFAULT_MIN_PREFIX_LENGTH,
    explore_subnet,
    unpositioned_subnet,
)
from .positioning import position_subnet
from .results import ObservedSubnet, TraceHop, TraceResult

#: Consecutive anonymous hops after which a trace gives up.
ANONYMOUS_GAP_LIMIT = 3


class TraceNET:
    """End-to-end subnet-level topology collector.

    Args:
        network: any :class:`~repro.transport.ProbeTransport` (simulator,
            journal replay, fault wrapper, ...) — or a bare
            :class:`~repro.netsim.engine.Engine`, wrapped transparently.
        vantage_host_id: registered host the probes originate from.
        protocol: ICMP (default, least affected by load balancing — Section
            3.7), UDP or TCP.
        max_hops: trace length cap.
        min_prefix_length: exploration growth floor (/20 by default).
        events: session-event bus shared with the prober; defaults to a
            fresh bus reachable as ``tool.events``.
        batch_window: 0 (the default) keeps the serial per-probe loop.
            1 dispatches every ladder probe through the transport batch API
            one at a time — the probe stream (and thus the archive) stays
            byte-identical to the serial path.  > 1 additionally batches
            that many upcoming TTLs (and exploration candidate sweeps) per
            transport round — a speculative, probe-economy-changing mode:
            a trace that stops early has already paid for its window.
        stop_set: a shared :class:`~repro.probing.StopSet` enabling
            Doubletree-style suppression of already-traced path prefixes;
            also probe-economy-changing (probes only ever go down), map-equal
            on the reference networks.
        retries: the prober's retry rule on silence — the evidence-gated
            retry-once by default, ``RetryPolicy(gated=False)`` for the
            paper's retry of every silence.
    """

    def __init__(self, network, vantage_host_id: str,
                 protocol: Protocol = Protocol.ICMP,
                 max_hops: int = 30,
                 min_prefix_length: int = DEFAULT_MIN_PREFIX_LENGTH,
                 reuse_subnets: bool = True,
                 disabled_rules: frozenset = frozenset(),
                 events: Optional[EventBus] = None,
                 batch_window: int = 0,
                 stop_set: Optional[StopSet] = None,
                 retries: Union[int, RetryPolicy] = 1):
        self.transport = as_transport(network)
        self.events = events if events is not None else EventBus()
        self.vantage_host_id = vantage_host_id
        self.prober = Prober(self.transport, vantage_host_id,
                             protocol=protocol, retries=retries,
                             events=self.events)
        self.max_hops = max_hops
        self.min_prefix_length = min_prefix_length
        self.reuse_subnets = reuse_subnets
        self.disabled_rules = disabled_rules
        self.batch_window = max(0, batch_window)
        self.stop_set = stop_set
        self._subnets: List[ObservedSubnet] = []
        self._member_index: Dict[int, ObservedSubnet] = {}
        # The registered subnets' pivots, in order: the nested-block check
        # bisects instead of scanning every subnet.
        self._pivots: List[int] = []
        # Churn awareness: when the transport chain contains a
        # MutatingTransport, its fired-mutation counter is the staleness
        # signal — identical live and replayed, so every decision derived
        # from it replays byte for byte.
        self._churn = find_mutating(self.transport)
        self._synced_epoch = (self._churn.mutation_epoch
                              if self._churn is not None else 0)

    @property
    def engine(self):
        """The underlying simulator engine, when the transport has one."""
        return getattr(self.transport, "engine", None)

    # -- public API ------------------------------------------------------

    def _sync_epoch(self) -> int:
        """Absorb any mutations fired since the last trace.

        The prober's response cache and the shared stop set both describe
        the pre-mutation network; invalidating them here (once per observed
        epoch change, O(1) for the stop set) is what keeps mid-survey churn
        from silently corrupting later traces.  Returns the current epoch.
        """
        if self._churn is None:
            return 0
        epoch = self._churn.mutation_epoch
        if epoch != self._synced_epoch:
            self._synced_epoch = epoch
            self.prober.clear_cache()
            if self.stop_set is not None:
                self.stop_set.advance_epoch()
        return epoch

    def trace(self, destination: int) -> TraceResult:
        """Trace toward ``destination``, exploring each visited subnet."""
        if self.events:
            self.events.record(TraceStarted, destination)
        epoch_at_start = self._sync_epoch()
        before = self.prober.stats_snapshot()
        result = TraceResult(vantage_host_id=self.vantage_host_id,
                             destination=destination)
        previous_address: Optional[int] = None
        anonymous_streak = 0
        seen_addresses = set()
        pipeline: Optional[HopPipeline] = None
        if self.batch_window >= 1 or self.stop_set is not None:
            pipeline = HopPipeline(self.prober, destination, self.max_hops,
                                   window=max(1, self.batch_window),
                                   stop_set=self.stop_set,
                                   churn=self._churn)

        for ttl in range(1, self.max_hops + 1):
            if pipeline is not None:
                observation = pipeline.hop(ttl)
            else:
                observation = collect_hop(self.prober, destination, ttl)

            if observation.is_anonymous:
                anonymous_streak += 1
                result.hops.append(TraceHop(ttl=ttl, address=None))
                previous_address = None
                if anonymous_streak >= ANONYMOUS_GAP_LIMIT:
                    break
                continue
            anonymous_streak = 0

            address = observation.address
            assert address is not None
            hop = TraceHop(ttl=ttl, address=address,
                           is_destination=observation.reached_destination)
            if address in seen_addresses and not observation.reached_destination:
                # Routing loop: record the repeat and stop.
                result.hops.append(hop)
                break
            seen_addresses.add(address)

            hop.subnet = self._subnet_for_hop(previous_address, address, ttl)
            result.hops.append(hop)

            if observation.reached_destination:
                result.reached = True
                break
            previous_address = address

        epoch_at_end = (self._churn.mutation_epoch
                        if self._churn is not None else 0)
        mutations_seen = epoch_at_end - epoch_at_start
        contradictions = pipeline.inconsistencies if pipeline else 0
        if mutations_seen or contradictions:
            # The trace may mix pre- and post-mutation state: keep it, mark
            # it, and never teach the stop set a possibly-chimeric path.
            result.degraded = True
            if mutations_seen:
                result.degraded_reasons.append("topology-mutated")
            if contradictions:
                result.degraded_reasons.append("hop-contradiction")
            result.confidence = round(max(
                0.1, 1.0 - 0.2 * mutations_seen - 0.1 * contradictions), 3)
            if self.events:
                self.events.record(DegradedResult, destination,
                                   ";".join(result.degraded_reasons),
                                   result.confidence)
        if self.stop_set is not None and result.reached \
                and not result.degraded:
            self.stop_set.record(destination, [
                (hop.ttl, hop.address)
                for hop in result.hops if not hop.is_destination
            ])
        result.probes_sent = self.prober.stats.sent - before.sent
        if self.events:
            # Recording TraceFinished hands the trace to the attached folds.
            self.events.record(
                TraceFinished, destination, result.reached, len(result.hops),
                result.probes_sent,
                self.prober.stats.cache_hits - before.cache_hits)
        return result

    def trace_many(self, destinations: Iterable[int]) -> List[TraceResult]:
        """Trace toward every destination, sharing collected subnets."""
        return [self.trace(destination) for destination in destinations]

    @property
    def collected_subnets(self) -> List[ObservedSubnet]:
        """Every distinct subnet observed by this instance so far."""
        return list(self._subnets)

    @property
    def collected_addresses(self) -> set:
        """Every address placed into some observed subnet."""
        return set(self._member_index.keys())

    def evict_subnets(self, predicate) -> List[ObservedSubnet]:
        """Drop registered subnets matching ``predicate`` from reuse.

        Radar rounds call this for prefixes a mutation touched: the next
        trace through them re-positions and re-explores instead of serving
        the pre-mutation subnet from the registry.  Returns the evicted
        subnets (callers may diff against what re-probing finds).
        """
        evicted: List[ObservedSubnet] = []
        keep: List[ObservedSubnet] = []
        for subnet in self._subnets:
            (evicted if predicate(subnet) else keep).append(subnet)
        if evicted:
            self._subnets = keep
            self._member_index = {}
            for subnet in keep:
                for member in subnet.members:
                    self._member_index.setdefault(member, subnet)
            self._pivots = sorted(subnet.pivot for subnet in keep)
        return evicted

    def register_subnet(self, subnet: ObservedSubnet) -> None:
        """Adopt an externally collected subnet into the reuse registry.

        Survey runners use this to seed a resumed instance from a
        checkpoint archive so subnet reuse keeps working across restarts.
        """
        self._subnets.append(subnet)
        for member in subnet.members:
            self._member_index.setdefault(member, subnet)
        insort(self._pivots, subnet.pivot)

    # -- internals ---------------------------------------------------------

    def _subnet_for_hop(self, previous_address: Optional[int], address: int,
                        ttl: int) -> ObservedSubnet:
        if self.reuse_subnets:
            known = self._member_index.get(address)
            if known is not None:
                return known
        position = position_subnet(self.prober, previous_address, address, ttl)
        if position is None:
            subnet = unpositioned_subnet(self.prober, address, ttl)
        else:
            if self.reuse_subnets and position.pivot != address:
                known = self._member_index.get(position.pivot)
                if known is not None:
                    return known
            subnet = explore_subnet(self.prober, position,
                                    min_prefix_length=self.min_prefix_length,
                                    disabled_rules=self.disabled_rules,
                                    batch_window=self.batch_window)
        self._evict_nested(subnet.prefix)
        self.register_subnet(subnet)
        return subnet

    def _evict_nested(self, block: Prefix) -> None:
        """Evict the registered subnets ``block`` strictly contains.

        A sparse LAN explored from inside can first shrink to a false /31;
        a later trace through its ingress collects the true block.  The
        block supersedes what it strictly contains, so the stale piece
        stops being served to the block's members.
        """
        low, high = block.network, block.broadcast
        pivots = self._pivots
        index = bisect_left(pivots, low)
        if block.length < 32 and index < len(pivots) \
                and pivots[index] <= high:
            # A block holding a known pivot is nested, never partial.
            self.evict_subnets(lambda known: low <= known.pivot <= high
                               and known.prefix.length > block.length)
