"""Classic traceroute — the baseline tracenet is compared against.

Sends TTL-scoped probes toward a destination and records the source address
of each ICMP TTL-Exceeded (paper Section 2).  Classic traceroute varies the
flow-identifying header fields probe by probe, which is exactly what makes
it vulnerable to per-flow load balancers; ``vary_flow=False`` pins the flow
identity as Paris traceroute does.
"""

from __future__ import annotations

from typing import Optional

from ..core.collection import collect_hop
from ..core.results import TraceHop, TraceResult
from ..events import EventBus, TraceFinished, TraceStarted
from ..netsim.packet import Protocol
from ..probing.prober import Prober
from ..transport import as_transport

DEFAULT_GAP_LIMIT = 3


class Traceroute:
    """TTL-scoped path tracer returning one address per hop.

    Args:
        network: a :class:`~repro.transport.ProbeTransport` or a bare
            :class:`~repro.netsim.engine.Engine` (wrapped transparently).
        vantage_host_id: probe origin.
        protocol: ICMP / UDP / TCP probes.
        vary_flow: classic behaviour (True) rotates the flow identity per
            probe; False pins it, mimicking Paris traceroute.
    """

    def __init__(self, network, vantage_host_id: str,
                 protocol: Protocol = Protocol.ICMP,
                 max_hops: int = 30,
                 vary_flow: bool = True,
                 gap_limit: int = DEFAULT_GAP_LIMIT,
                 events: EventBus = None):
        self.transport = as_transport(network)
        self.events = events if events is not None else EventBus()
        self.vantage_host_id = vantage_host_id
        self.max_hops = max_hops
        self.vary_flow = vary_flow
        self.gap_limit = gap_limit
        # Classic traceroute never hits the cache: a probe with its own
        # flow_id bypasses it.
        self.prober = Prober(self.transport, vantage_host_id,
                             protocol=protocol, events=self.events)
        self._flow_counter = 0

    @property
    def engine(self):
        """The underlying simulator engine, when the transport has one."""
        return getattr(self.transport, "engine", None)

    def trace(self, destination: int) -> TraceResult:
        """Walk the path toward ``destination`` one TTL at a time."""
        if self.events:
            self.events.record(TraceStarted, destination)
        before = self.prober.stats_snapshot()
        result = TraceResult(vantage_host_id=self.vantage_host_id,
                             destination=destination)
        anonymous_streak = 0
        for ttl in range(1, self.max_hops + 1):
            flow_id = self._next_flow_id() if self.vary_flow else None
            observation = collect_hop(self.prober, destination, ttl,
                                      flow_id=flow_id)
            result.hops.append(TraceHop(
                ttl=ttl,
                address=observation.address,
                is_destination=observation.reached_destination,
            ))
            if observation.reached_destination:
                result.reached = True
                break
            if observation.is_anonymous:
                anonymous_streak += 1
                if anonymous_streak >= self.gap_limit:
                    break
            else:
                anonymous_streak = 0
        result.probes_sent = self.prober.stats.sent - before.sent
        if self.events:
            self.events.record(TraceFinished, destination, result.reached,
                               len(result.hops), result.probes_sent, 0)
        return result

    def _next_flow_id(self) -> Optional[int]:
        self._flow_counter += 1
        return self._flow_counter
