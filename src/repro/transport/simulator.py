"""The simulator backend: a ProbeTransport over :class:`~repro.netsim.engine.Engine`.

This is the only module above the seam that touches the engine; collectors
built from an ``Engine`` are silently wrapped in a
:class:`SimulatorTransport` by :func:`~repro.transport.base.as_transport`,
which keeps probe counts and archives bit-identical to the pre-seam code
path (the wrapper adds nothing but the capability descriptor).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..netsim.engine import Engine
from ..netsim.packet import Probe, Response
from .base import TransportCapabilities

_SIMULATOR_CAPS = TransportCapabilities(name="simulator")


class SimulatorTransport:
    """Adapts the deterministic forwarding engine onto the transport seam."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.batches = 0
        self.batched_probes = 0

    def send(self, probe: Probe) -> Optional[Response]:
        return self.engine.send(probe)

    def send_many(self, probes: Sequence[Probe]) -> List[Optional[Response]]:
        """Batch-serve memoized response plans in one engine call."""
        self.batches += 1
        self.batched_probes += len(probes)
        return self.engine.send_many(probes)

    def capabilities(self) -> TransportCapabilities:
        return _SIMULATOR_CAPS

    def idle(self, ticks: int = 1) -> None:
        """Advance the engine clock without probing (retry backoff)."""
        self.engine.idle(ticks)

    def source_address(self, host_id: str) -> int:
        hosts = self.engine.topology.hosts
        if host_id not in hosts:
            raise ValueError(f"unknown vantage host {host_id!r}")
        return hosts[host_id].address

    def backend_metrics(self) -> dict:
        """Engine counters, fast-path accounting included — the only route
        by which ``engine.stats`` reaches the metrics layer (which is
        sealed off from ``netsim.engine``)."""
        metrics = self.engine.stats.snapshot()
        metrics["transport_batches"] = self.batches
        metrics["transport_batched_probes"] = self.batched_probes
        return metrics

    def close(self) -> None:
        """The engine holds no external resources."""
