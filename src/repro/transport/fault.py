"""Seeded fault injection at the transport seam.

Robustness tests need to answer "what does the collector do when the
network misbehaves *more*?" without hand-crafting a hostile topology every
time.  :class:`FaultInjectingTransport` wraps any backend and drops
responses — uniformly at a seeded rate, in Gilbert–Elliott loss bursts,
for specific blackholed destinations, or on per-destination intermittent
duty cycles — before the prober sees them.  Because the drops happen above
the backend, the same faults can be injected into a simulator run, a
recorded journal, or (eventually) a live transport.

Determinism contract: with only ``drop_rate``/``blackholes`` configured,
the RNG draw sequence is exactly the legacy one (one draw per non-None
response when ``drop_rate > 0``), so pre-existing seeded runs reproduce
byte for byte.  Burst mode adds one chain-transition draw per non-
blackholed probe *only when enabled*; intermittent mode is counter-based
and consumes no randomness at all.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..netsim.packet import Probe, Response
from .base import ProbeTransport, send_batch


class FaultInjectingTransport:
    """Drops responses on top of an inner transport, deterministically.

    Args:
        inner: the real backend.
        drop_rate: probability (seeded) that any response is swallowed
            outside a loss burst.
        blackholes: destination addresses whose probes never get answers —
            the probe still reaches the inner backend (it is "sent"), only
            the answer is suppressed, like a filtering middlebox.
        seed: RNG seed; identical seeds give identical drop sequences.
        burst_enter: per-probe probability of entering the Gilbert–Elliott
            bad state (0 disables burst mode entirely — and skips its RNG
            draws, preserving legacy streams).
        burst_exit: per-probe probability of leaving the bad state.
        burst_drop_rate: drop probability while in the bad state (1.0
            models total outage bursts).
        intermittent: per-destination duty cycles — ``{dst: (up, down)}``
            answers the first ``up`` probes of every ``up + down`` window
            toward ``dst`` and swallows the rest, with no RNG involved.
    """

    def __init__(self, inner: ProbeTransport, drop_rate: float = 0.0,
                 blackholes: Iterable[int] = (), seed: int = 0,
                 burst_enter: float = 0.0, burst_exit: float = 0.5,
                 burst_drop_rate: float = 1.0,
                 intermittent: Optional[Mapping[int, Tuple[int, int]]] = None):
        for name, value in (("drop_rate", drop_rate),
                            ("burst_enter", burst_enter),
                            ("burst_exit", burst_exit),
                            ("burst_drop_rate", burst_drop_rate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.inner = inner
        self.drop_rate = drop_rate
        self.blackholes = frozenset(blackholes)
        self.burst_enter = burst_enter
        self.burst_exit = burst_exit
        self.burst_drop_rate = burst_drop_rate
        self.intermittent: Dict[int, Tuple[int, int]] = {}
        if intermittent:
            for dst, (up, down) in intermittent.items():
                if up < 1 or down < 1:
                    raise ValueError(
                        f"intermittent duty cycle for {dst} needs "
                        f"up >= 1 and down >= 1, got ({up}, {down})")
                self.intermittent[dst] = (up, down)
        self._intermittent_counts: Dict[int, int] = {}
        self._rng = random.Random(seed)
        self._in_burst = False
        self.sends = 0
        self.batches = 0
        self.batched_probes = 0
        self.injected_drops = 0
        self.blackholed = 0
        self.responses_suppressed = 0
        self.bursts = 0
        self.burst_drops = 0
        self.intermittent_drops = 0

    @property
    def engine(self):
        """The wrapped engine, when the inner transport exposes one."""
        return getattr(self.inner, "engine", None)

    def send(self, probe: Probe) -> Optional[Response]:
        response = self.inner.send(probe)
        self.sends += 1
        return self._apply_faults(probe, response)

    def send_many(self, probes: Sequence[Probe]) -> List[Optional[Response]]:
        """Batch through the inner backend, then inject faults per probe.

        Faults are applied in probe order so the RNG draw sequence — and
        therefore which responses get swallowed — is identical to sending
        the same probes one at a time with the same seed.
        """
        self.batches += 1
        self.batched_probes += len(probes)
        responses = send_batch(self.inner, probes)
        self.sends += len(probes)
        return [self._apply_faults(probe, response)
                for probe, response in zip(probes, responses)]

    def _apply_faults(self, probe: Probe,
                      response: Optional[Response]) -> Optional[Response]:
        if probe.dst in self.blackholes:
            self.blackholed += 1
            if response is not None:
                self.responses_suppressed += 1
            return None
        if self.intermittent:
            cycle = self.intermittent.get(probe.dst)
            if cycle is not None:
                count = self._intermittent_counts.get(probe.dst, 0)
                self._intermittent_counts[probe.dst] = count + 1
                up, down = cycle
                if count % (up + down) >= up:
                    self.intermittent_drops += 1
                    if response is not None:
                        self.responses_suppressed += 1
                    return None
        if self.burst_enter > 0.0:
            # Gilbert–Elliott two-state chain: one transition draw per
            # probe, whether or not the inner backend answered, so the
            # burst trajectory depends only on probe order and the seed.
            if self._in_burst:
                if self._rng.random() < self.burst_exit:
                    self._in_burst = False
            elif self._rng.random() < self.burst_enter:
                self._in_burst = True
                self.bursts += 1
            if self._in_burst and response is not None \
                    and (self.burst_drop_rate >= 1.0
                         or self._rng.random() < self.burst_drop_rate):
                self.burst_drops += 1
                self.responses_suppressed += 1
                return None
        if response is not None and self.drop_rate > 0.0 \
                and self._rng.random() < self.drop_rate:
            self.injected_drops += 1
            self.responses_suppressed += 1
            return None
        return response

    def backend_metrics(self) -> dict:
        """Fault-injection accounting, folded over the inner backend's.

        ``fault_responses_suppressed`` counts answers that existed and were
        swallowed; ``fault_blackholed`` counts probes to blackholed
        destinations whether or not the inner backend would have answered;
        ``fault_bursts_total`` counts entries into the Gilbert–Elliott bad
        state (not the per-probe drops, which land in
        ``fault_burst_drops``).
        """
        from .base import backend_metrics

        metrics = backend_metrics(self.inner)
        metrics.update({
            "fault_sends": self.sends,
            "fault_batches": self.batches,
            "fault_batched_probes": self.batched_probes,
            "fault_injected_drops": self.injected_drops,
            "fault_blackholed": self.blackholed,
            "fault_responses_suppressed": self.responses_suppressed,
            "fault_bursts_total": self.bursts,
            "fault_burst_drops": self.burst_drops,
            "fault_intermittent_drops": self.intermittent_drops,
        })
        return metrics

    @property
    def name(self) -> str:
        return f"fault({self.inner.name})"

    def source_address(self, host_id: str) -> int:
        return self.inner.source_address(host_id)

    def idle(self, ticks: int = 1) -> None:
        """Forward retry-backoff idling to the inner backend."""
        idle = getattr(self.inner, "idle", None)
        if idle is not None:
            idle(ticks)

    def close(self) -> None:
        self.inner.close()
