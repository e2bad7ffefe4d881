"""The live probe-economy auditor (paper Section 3.6).

The analytic model bounds the probe cost of growing one subnet: 4 probes
for an on-path point-to-point link, ``7|S| + 7`` for a hostile off-path
LAN.  Before this module those bounds were only checked after the fact by
``benchmarks/bench_overhead_model.py``; the auditor checks them *live*, as
each subnet completes, which is what turns a silently degraded probe
economy (the failure mode "Misleading Stars" warns about) into an
observable signal.

The auditor is an :class:`~repro.events.EventBus` sink: on every
:class:`~repro.events.SubnetGrown` it compares the event's ``probes_used``
(with its per-phase attribution) against
:func:`repro.core.overhead.estimate` and, on a violation, records an
:class:`~repro.events.OverheadViolation` on the *same* bus, right after
the subnet's own record.

The bound is taken over ``max(size, candidates_tested)``: the analytic
``7|S| + 7`` assumes every candidate inside the explored block is a
member, so a mostly-silent block (common in the reference networks, whose
response policies mute many interfaces) is charged the worst case over
the candidates the algorithm actually touched rather than the handful
that answered.  A subnet exceeding even that spent more than a fully
hostile LAN of the same explored scope could justify — the "silently
degraded probe economy" signal this auditor exists to raise.  The
violation therefore reaches every other sink — the metrics registry counts
``overhead_violations_total``, a JSONL event log records it durably, and a
replayed run re-derives the identical violation because the auditor is as
deterministic as the events that feed it.
"""

from __future__ import annotations

from ..core.overhead import estimate
from ..events import EventBus, OverheadViolation, SessionEvent, SubnetGrown

#: Measured costs absorb retries-on-silence and boundary probes that the
#: analytic model excludes by assumption; this matches the slack the
#: overhead bench has always granted (`OverheadEstimate.contains`).
DEFAULT_SLACK = 1.25


class ProbeEconomyAuditor:
    """Checks every completed subnet against the ``7|S| + 7`` bound.

    Args:
        bus: the session-event bus to record violations on (normally the
            same bus this sink is subscribed to).
        slack: multiplier on the upper bound before a cost counts as a
            violation; 1.0 audits the literal analytic bound.
    """

    #: Dispatch-mask hint: the bus only routes subnet completions here, so
    #: an attached auditor adds zero cost to the per-probe event stream.
    interests = (SubnetGrown,)

    def __init__(self, bus: EventBus, slack: float = DEFAULT_SLACK):
        if slack <= 0:
            raise ValueError(f"slack must be positive, got {slack}")
        self.bus = bus
        self.slack = slack
        self.checked = 0
        self.violations = 0

    def __call__(self, event: SessionEvent) -> None:
        if not isinstance(event, SubnetGrown):
            return
        self.checked += 1
        bound = estimate(max(1, event.size, event.candidates_tested))
        if bound.contains(event.probes_used, slack=self.slack):
            return
        self.violations += 1
        self.bus.record(OverheadViolation, event.pivot, event.prefix,
                        event.size, event.probes_used, bound.upper,
                        self.slack, event.phase_probes)
