"""The ProbeTransport seam: probe in, response out, backend unspecified.

Everything above this line — the prober, tracenet, every baseline — sees
the network exclusively through :class:`ProbeTransport`.  The simulator is
one implementation; a raw-socket or scapy backend, a recorded journal, or
a fault-injecting wrapper are others, and the algorithms cannot tell them
apart.  This is the contract that makes collected data replayable and the
collectors backend-agnostic.
"""

from __future__ import annotations

from typing import List, Optional, Protocol as TypingProtocol, Sequence, \
    runtime_checkable

from ..netsim.packet import Probe, Response


@runtime_checkable
class ProbeTransport(TypingProtocol):
    """Structural interface every probe backend satisfies.

    ``name`` labels the backend in journal headers; a wrapping transport
    nests its inner transport's, e.g. ``fault(simulator)``.
    """

    name: str

    def send(self, probe: Probe) -> Optional[Response]:
        """Emit one probe; return the response seen at the vantage, or None."""
        ...

    def send_many(self, probes: Sequence[Probe]) -> List[Optional[Response]]:
        """Emit a batch of probes; responses positionally, None for silence.

        Semantically identical to ``[self.send(p) for p in probes]`` — the
        batch is a *pipelining* hint, not a reordering license: backends
        must process probes in order so that journals, fault-injection RNG
        draws, and simulator clocks match the serial path exactly.
        """
        ...

    def source_address(self, host_id: str) -> int:
        """The IP address probes from ``host_id`` carry as their source.

        Raises ``ValueError`` for a vantage this backend does not know.
        """
        ...

    def close(self) -> None:
        """Release backend resources (files, sockets); idempotent."""
        ...


def send_batch(transport, probes: Sequence[Probe]) -> List[Optional[Response]]:
    """Dispatch a probe batch through ``send_many`` when the backend has it.

    Third-party transports predating the batch API (anything with just
    ``send``) degrade to a per-probe loop with identical semantics, so
    callers batch unconditionally and never sniff the backend.
    """
    many = getattr(transport, "send_many", None)
    if callable(many):
        return list(many(probes))
    return [transport.send(probe) for probe in probes]


def backend_metrics(transport) -> dict:
    """Flat implementation-detail counters of a transport stack.

    Transports may implement ``backend_metrics() -> Dict[str, int]``
    (wrappers fold their inner transport's dict in); backends without the
    hook report nothing.  These counters are *not* part of the
    deterministic session metrics — a simulator run reports engine
    path-cache figures, a replay run reports journal cursors — which is
    exactly why they live behind this seam-level hook instead of inside
    ``repro.metrics`` (which never imports the engine).
    """
    collect = getattr(transport, "backend_metrics", None)
    return dict(collect()) if callable(collect) else {}


def collect_backend_metrics(registry, transport) -> None:
    """Capture a transport stack's backend counters into a registry scope.

    ``registry`` is duck-typed (anything with ``set_gauge``), normally the
    ``backend`` scope of a :class:`repro.metrics.MetricsRegistry`.  Gauges,
    not counters: the hook reports absolute totals, and re-capturing after
    a longer run must overwrite, not double.
    """
    if registry is None:
        return
    for name, value in sorted(backend_metrics(transport).items()):
        registry.set_gauge(name, value)


def as_transport(network) -> ProbeTransport:
    """Coerce an Engine-or-transport argument onto the seam.

    Every collector constructor funnels its first argument through here, so
    legacy ``Tool(engine, ...)`` call sites keep working while new code
    passes any :class:`ProbeTransport` implementation directly.
    """
    if isinstance(network, ProbeTransport) and not isinstance(network, type):
        return network
    # Engine-shaped: has send() and a topology, but no name.
    if hasattr(network, "send") and hasattr(network, "topology"):
        from .simulator import SimulatorTransport

        return SimulatorTransport(network)
    # Transport-shaped but pre-batch-API: a send/name/source_address
    # trio without send_many (send_batch degrades to a loop for these).
    if not isinstance(network, type) and hasattr(network, "send") \
            and hasattr(network, "name") \
            and hasattr(network, "source_address"):
        return network
    raise TypeError(
        f"expected a ProbeTransport or a netsim Engine, got {type(network).__name__}")
