"""The churn seam: a transport that mutates the network at probe epochs.

:class:`MutatingTransport` wraps any inner transport and counts the probes
flowing through it.  When the cumulative count crosses a
:class:`~repro.netsim.dynamics.MutationSchedule` epoch, the due mutations
fire *before* the next probe is answered: against a live simulator the
attached :class:`~repro.netsim.dynamics.NetworkDynamics` applies them to
the engine (version bumps invalidate every engine cache), and in every
mode a :class:`~repro.events.TopologyMutated` event is emitted per
mutation, derived purely from the schedule.

That derivation rule is the replay contract: a journal replay wraps
:class:`~repro.transport.journal.ReplayTransport` in a
``MutatingTransport`` with the *same schedule and no dynamics* — the
canned responses already reflect the mutated network — and emits the
byte-identical event stream at the byte-identical positions.

Collectors watch :attr:`MutatingTransport.mutation_epoch` (a counter of
fired mutations) to detect mid-trace churn; because the counter advances
identically live and replayed, degradation marking replays exactly too.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..events import EventBus, TopologyMutated
from ..netsim.dynamics import MutationSchedule, NetworkDynamics
from ..netsim.packet import Probe, Response
from .base import TransportCapabilities, backend_metrics, send_batch


class MutatingTransport:
    """Applies a seeded mutation schedule at probe-count epochs.

    Args:
        inner: the transport actually answering probes.
        schedule: the mutation schedule (epochs are cumulative probe
            counts *through this transport*).
        dynamics: the engine applier for live runs; None on replay (the
            journal already reflects the mutated network).
        events: bus for :class:`~repro.events.TopologyMutated` emission;
            None emits nothing (the schedule still applies).
    """

    def __init__(self, inner, schedule: MutationSchedule,
                 dynamics: Optional[NetworkDynamics] = None,
                 events: Optional[EventBus] = None):
        self.inner = inner
        self.schedule = schedule
        self.dynamics = dynamics
        self.events = events
        #: Probes dispatched through this transport so far.
        self.probes = 0
        #: Fired-mutation counter — the staleness signal collectors watch.
        self.mutation_epoch = 0
        self._cursor = 0

    # -- the epoch check ---------------------------------------------------

    def _advance(self) -> None:
        """Fire every mutation due at the current probe count."""
        mutations = self.schedule.mutations
        if self._cursor >= len(mutations) \
                or mutations[self._cursor].epoch > self.probes:
            return
        if self.dynamics is not None:
            self.dynamics.advance(self.probes)
        while self._cursor < len(mutations) \
                and mutations[self._cursor].epoch <= self.probes:
            mutation = mutations[self._cursor]
            self._cursor += 1
            self.mutation_epoch += 1
            if self.events:
                self.events.emit(TopologyMutated(
                    epoch=mutation.epoch, sequence=mutation.sequence,
                    kind=mutation.kind, target=mutation.target,
                    detail=dict(mutation.detail) or None))

    def _next_boundary(self) -> Optional[int]:
        """Probe count at which the next mutation fires (None when done)."""
        if self._cursor >= len(self.schedule.mutations):
            return None
        return self.schedule.mutations[self._cursor].epoch

    # -- ProbeTransport ----------------------------------------------------

    def send(self, probe: Probe) -> Optional[Response]:
        self._advance()
        self.probes += 1
        return self.inner.send(probe)

    def send_many(self, probes: Sequence[Probe]
                  ) -> List[Optional[Response]]:
        """Batch dispatch, split at epoch boundaries.

        A mutation due mid-batch fires between the two probes it falls
        between — exactly where a serial probe loop would have fired it —
        so batched and serial runs see the identical mutated network.
        """
        responses: List[Optional[Response]] = []
        start = 0
        total = len(probes)
        while start < total:
            self._advance()
            boundary = self._next_boundary()
            if boundary is None:
                stop = total
            else:
                stop = min(total, start + max(1, boundary - self.probes))
            chunk = probes[start:stop]
            self.probes += len(chunk)
            responses.extend(send_batch(self.inner, chunk))
            start = stop
        return responses

    def capabilities(self) -> TransportCapabilities:
        return TransportCapabilities(
            name=f"churn({self.inner.capabilities().name})")

    def source_address(self, host_id: str) -> int:
        return self.inner.source_address(host_id)

    def idle(self, ticks: int = 1) -> None:
        """Forward retry-backoff idling (no probes, no epoch advance)."""
        idle = getattr(self.inner, "idle", None)
        if idle is not None:
            idle(ticks)

    def backend_metrics(self) -> dict:
        metrics = backend_metrics(self.inner)
        metrics.update({
            "churn_probes": self.probes,
            "churn_mutations_fired": self.mutation_epoch,
            "churn_mutations_scheduled": len(self.schedule.mutations),
        })
        return metrics

    def close(self) -> None:
        self.inner.close()


def find_mutating(transport) -> Optional[MutatingTransport]:
    """The :class:`MutatingTransport` in a wrapper chain, if any.

    Collectors use this to watch :attr:`MutatingTransport.mutation_epoch`
    through recording/fault wrappers (e.g. ``record(churn(fault(sim)))``).
    """
    seen = set()
    while transport is not None and id(transport) not in seen:
        seen.add(id(transport))
        if isinstance(transport, MutatingTransport):
            return transport
        transport = getattr(transport, "inner", None)
    return None


__all__ = ["MutatingTransport", "find_mutating"]
