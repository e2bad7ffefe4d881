"""Probe accounting.

Section 3.6 of the paper models tracenet's probing overhead per subnet
(lower bound 4 probes for an on-path point-to-point link, upper bound
``7|S| + 7`` for a hostile off-path LAN).  To check our implementation
against that model we meter every probe, tagged with the phase of the
algorithm that issued it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ProbeStats:
    """Counters for probes issued through one prober.

    ``retries_answered`` counts the retries that drew a response: the
    session's evidence that re-probing silence pays, which the default
    :class:`~repro.probing.prober.RetryPolicy` reads.
    """

    sent: int = 0
    responses: int = 0
    silent: int = 0
    retries: int = 0
    retries_answered: int = 0
    cache_hits: int = 0
    suppressed: int = 0
    by_phase: Dict[str, int] = field(default_factory=dict)

    def record_sent(self, phase: Optional[str]) -> None:
        self.sent += 1
        if phase is not None:
            self.by_phase[phase] = self.by_phase.get(phase, 0) + 1

    def record_cache_hit(self) -> None:
        """One probe answered from the response cache, not the wire."""
        self.cache_hits += 1

    def record_suppressed(self) -> None:
        """One probe never issued at all (stop-set redundancy elimination).

        Suppressed probes are free: no wire traffic, no phase attribution
        — the counter only exists so probe-economy reports can show how
        much the stop sets saved.
        """
        self.suppressed += 1

    def phase_delta(self, earlier: "ProbeStats") -> Dict[str, int]:
        """Per-phase wire probes spent since ``earlier`` (sorted keys).

        This is the per-subnet attribution carried by
        :class:`~repro.events.SubnetGrown` and audited against the
        Section 3.6 bounds.
        """
        delta = {}
        for phase, count in self.by_phase.items():
            spent = count - earlier.by_phase.get(phase, 0)
            if spent:
                delta[phase] = spent
        return dict(sorted(delta.items()))

    def record_outcome(self, answered: bool) -> None:
        if answered:
            self.responses += 1
        else:
            self.silent += 1

    def snapshot(self) -> Dict[str, int]:
        """A flat copy, convenient for bench reports."""
        flat = {
            "sent": self.sent,
            "responses": self.responses,
            "silent": self.silent,
            "retries": self.retries,
            "retries_answered": self.retries_answered,
            "cache_hits": self.cache_hits,
            "suppressed": self.suppressed,
        }
        for phase, count in sorted(self.by_phase.items()):
            flat[f"phase:{phase}"] = count
        return flat

    def diff(self, earlier: "ProbeStats") -> "ProbeStats":
        """Stats accumulated since ``earlier`` (used per-subnet by benches)."""
        delta = ProbeStats(
            sent=self.sent - earlier.sent,
            responses=self.responses - earlier.responses,
            silent=self.silent - earlier.silent,
            retries=self.retries - earlier.retries,
            retries_answered=(self.retries_answered
                              - earlier.retries_answered),
            cache_hits=self.cache_hits - earlier.cache_hits,
            suppressed=self.suppressed - earlier.suppressed,
        )
        for phase, count in self.by_phase.items():
            before = earlier.by_phase.get(phase, 0)
            if count != before:
                delta.by_phase[phase] = count - before
        return delta

    def copy(self) -> "ProbeStats":
        return ProbeStats(
            sent=self.sent,
            responses=self.responses,
            silent=self.silent,
            retries=self.retries,
            retries_answered=self.retries_answered,
            cache_hits=self.cache_hits,
            suppressed=self.suppressed,
            by_phase=dict(self.by_phase),
        )
