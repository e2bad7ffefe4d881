"""The subnet-authenticity heuristics H1–H9 (paper Section 3.5).

Exploration grows a candidate subnet around the pivot; each candidate
address must run this gauntlet before being admitted.  The heuristics
recognize the three fringe-interface families of Figure 5 — ingress fringe
(H3), far fringe (H7) and close fringe (H8) — plus distance and entry-point
consistency (H2, H4, H6) and the mate-31 shortcut (H5).  H1 (prefix
reduction / stop-and-shrink) and H9 (boundary-address reduction) act on the
subnet as a whole and live in :mod:`repro.core.exploration`.

As in the paper's implementation, the rules are merged to spend the fewest
probes: H3 and H6 share the single probe of the candidate at distance
``jh - 1``, and the prober's response cache makes repeated looks at the
pivot's neighbours free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Set

from ..events import HeuristicFired
from ..netsim.addressing import mate30, mate31
from ..netsim.packet import Response, ResponseType
from ..probing.prober import Prober

PHASE_EXPLORATION = "subnet-exploration"


class Verdict(enum.Enum):
    """Outcome of testing one candidate address."""

    ADD = "add"                      # passes: a member at pivot distance
    ADD_CONTRA = "add-contra-pivot"  # passes: the (single) contra-pivot
    SKIP = "continue-with-next-address"
    STOP = "stop-and-shrink"


@dataclass(frozen=True)
class Judgement:
    """A verdict plus which rule produced it (for logs and tests)."""

    verdict: Verdict
    rule: str
    detail: str = ""


@dataclass
class ExplorationState:
    """Mutable context shared by the heuristics while one subnet grows.

    ``disabled_rules`` supports ablation studies: a rule named there always
    passes (as if its test never fired).  Every judgement is emitted on
    the prober's bus as a :class:`~repro.events.HeuristicFired` event.
    """

    prober: Prober
    pivot: int
    pivot_distance: int
    ingress: Optional[int] = None
    trace_entry: Optional[int] = None
    on_trace_path: Optional[bool] = None
    contra_pivot: Optional[int] = None
    disabled_rules: frozenset = frozenset()

    def rule_enabled(self, rule: str) -> bool:
        return rule not in self.disabled_rules

    def record(self, candidate: int, judgement: "Judgement") -> "Judgement":
        bus = self.prober.events
        if bus:
            bus.record(HeuristicFired, candidate, judgement.rule,
                       judgement.verdict._value_, judgement.detail)
        return judgement

    @property
    def entry_addresses(self) -> Set[int]:
        """Ingress addresses H6 accepts; u counts unless the subnet is
        known to be off the trace path (Section 3.7)."""
        entries: Set[int] = set()
        if self.ingress is not None:
            entries.add(self.ingress)
        if self.trace_entry is not None and self.on_trace_path is not False:
            entries.add(self.trace_entry)
        return entries


def _is_unhelpful(response: Optional[Response]) -> bool:
    """Silence or an unreachable — the cases where H7/H8 fall back to the
    /30 mate (paper: "does not yield any response or yields an ICMP
    Host-Unreachable")."""
    return response is None or response.kind in (
        ResponseType.HOST_UNREACHABLE,
        ResponseType.NETWORK_UNREACHABLE,
    )


def evaluate_candidate(state: ExplorationState, candidate: int) -> Judgement:
    """Run the merged H2–H8 pipeline on one candidate address.

    The caller applies the consequences: ADD/ADD_CONTRA extend the subnet
    (and set ``state.contra_pivot``), SKIP moves on, STOP triggers H1's
    stop-and-shrink.
    """
    judgement = heuristic_h2(state, candidate)
    if judgement is not None:
        return state.record(candidate, judgement)

    if state.rule_enabled("H5"):
        judgement = heuristic_h5(state, candidate)
        if judgement is not None:
            return state.record(candidate, judgement)

    # One probe at jh-1 feeds both H3 (contra-pivot detection) and H6
    # (fixed entry points) — "both H3 and H6 requires the same single
    # probe" (Section 3.6).
    closer: Optional[Response] = None
    if state.pivot_distance > 1:
        closer = state.prober.probe(candidate, state.pivot_distance - 1,
                                    phase=PHASE_EXPLORATION)
        if closer is not None and closer.is_alive_signal:
            if state.rule_enabled("H3"):
                return state.record(candidate, heuristic_h3_h4(state, candidate))
        elif state.rule_enabled("H6"):
            judgement = heuristic_h6(state, closer)
            if judgement is not None:
                return state.record(candidate, judgement)

    if state.rule_enabled("H7"):
        judgement = heuristic_h7(state, candidate)
        if judgement is not None:
            return state.record(candidate, judgement)

    if state.pivot_distance > 1 and state.rule_enabled("H8"):
        judgement = heuristic_h8(state, candidate)
        if judgement is not None:
            return state.record(candidate, judgement)

    return state.record(
        candidate, Judgement(Verdict.ADD, "pipeline", "passed all heuristics"))


# -- individual rules ---------------------------------------------------------


def heuristic_h2(state: ExplorationState, candidate: int) -> Optional[Judgement]:
    """H2 upper-bound subnet contiguity: the candidate must be alive at the
    pivot's distance; a TTL-Exceeded means it lies farther — overgrowth."""
    response = state.prober.probe(candidate, state.pivot_distance,
                                  phase=PHASE_EXPLORATION)
    if response is not None and response.is_alive_signal:
        return None
    if response is not None and response.is_ttl_exceeded:
        return Judgement(Verdict.STOP, "H2", "candidate farther than subnet")
    return Judgement(Verdict.SKIP, "H2", "candidate silent or unreachable")


def heuristic_h5(state: ExplorationState, candidate: int) -> Optional[Judgement]:
    """H5 mate-31 subnet contiguity: the pivot's /31 mate (or /30 mate when
    the /31 mate is unused) is on the subnet by assignment practice.

    When the admitted mate answers one hop closer it *is* the contra-pivot
    (the point-to-point case): recording it keeps H3's single-contra-pivot
    invariant armed against ingress-hosted impostors on sibling links.
    """
    is_mate = candidate == mate31(state.pivot)
    if not is_mate and candidate == mate30(state.pivot):
        is_mate = not state.prober.is_alive(mate31(state.pivot),
                                            phase=PHASE_EXPLORATION)
    if not is_mate:
        return None
    if state.contra_pivot is None and state.pivot_distance > 1:
        closer = state.prober.probe(candidate, state.pivot_distance - 1,
                                    phase=PHASE_EXPLORATION)
        if closer is not None and closer.is_alive_signal:
            return Judgement(Verdict.ADD_CONTRA, "H5",
                             "mate of pivot, one hop closer (contra-pivot)")
    return Judgement(Verdict.ADD, "H5", "mate of pivot")


def heuristic_h3_h4(state: ExplorationState, candidate: int) -> Judgement:
    """H3 single contra-pivot + H4 lower-bound subnet contiguity.

    The candidate answered at ``jh - 1``: it is either *the* contra-pivot
    (one per subnet) or an ingress-fringe interface.  H4 then demands it be
    dead at ``jh - 2`` before trusting it.
    """
    if state.contra_pivot is not None and state.contra_pivot != candidate:
        return Judgement(Verdict.STOP, "H3", "second contra-pivot detected")
    if state.pivot_distance > 2 and state.rule_enabled("H4"):
        two_closer = state.prober.probe(candidate, state.pivot_distance - 2,
                                        phase=PHASE_EXPLORATION)
        if two_closer is not None and two_closer.is_alive_signal:
            return Judgement(Verdict.STOP, "H4",
                             "contra-pivot candidate alive two hops closer")
    return Judgement(Verdict.ADD_CONTRA, "H3", "contra-pivot accepted")


def heuristic_h6(state: ExplorationState, closer: Optional[Response]
                 ) -> Optional[Judgement]:
    """H6 fixed entry points: probes expiring one hop short of the subnet
    must expire at a known ingress (i from positioning, u from trace
    collection).  Anonymous entries keep the rule vacuously valid."""
    if closer is None or not closer.is_ttl_exceeded:
        return None
    entries = state.entry_addresses
    if not entries:
        return None
    if closer.source in entries:
        return None
    return Judgement(Verdict.STOP, "H6",
                     "candidate entered through a foreign router")


def heuristic_h7(state: ExplorationState, candidate: int) -> Optional[Judgement]:
    """H7 upper-bound router contiguity: a far-fringe interface's mate lives
    one hop beyond, so probing the mate at the pivot distance TTL-expires."""
    verdict = _mate_probe_stops(state, candidate, ttl=state.pivot_distance,
                                fatal=ResponseType.TTL_EXCEEDED)
    if verdict:
        return Judgement(Verdict.STOP, "H7", "far-fringe interface detected")
    return None


def heuristic_h8(state: ExplorationState, candidate: int) -> Optional[Judgement]:
    """H8 lower-bound router contiguity: a close-fringe interface's mate
    sits on the ingress router, hence answers at ``jh - 1``.  The
    contra-pivot's own mate relationship is explicitly exempt.

    A TTL-Exceeded here is an en-route expiry — it says nothing about the
    mate address itself — so, like silence, it falls through to the /30
    mate (the informative side when the fringe link is a /30).

    Ordering caveat: when no contra-pivot is known yet, an alive mate at
    ``jh - 1`` is ambiguous — it may be the subnet's own contra-pivot that
    simply has not been examined yet (address order within a level is not
    contra-pivot-first).  In that case the mate is validated H4-style and
    tentatively designated contra-pivot instead of condemning the
    candidate; if a *different* contra-pivot shows up later, H3's
    single-contra-pivot rule still stops the growth.
    """
    for mate in (mate31(candidate), mate30(candidate)):
        if mate == state.contra_pivot or mate == candidate:
            return None
        response = state.prober.probe(mate, state.pivot_distance - 1,
                                      phase=PHASE_EXPLORATION)
        if response is not None and response.is_alive_signal:
            if state.contra_pivot is None and _passes_h4(state, mate):
                state.contra_pivot = mate
                return None
            return Judgement(Verdict.STOP, "H8", "close-fringe interface detected")
        if not _is_unhelpful(response) and not (response is not None
                                                and response.is_ttl_exceeded):
            return None
    return None


def _passes_h4(state: ExplorationState, address: int) -> bool:
    """H4's lower-bound check: not alive two hops short of the pivot."""
    if state.pivot_distance <= 2:
        return True
    two_closer = state.prober.probe(address, state.pivot_distance - 2,
                                    phase=PHASE_EXPLORATION)
    return two_closer is None or not two_closer.is_alive_signal


def _mate_probe_stops(state: ExplorationState, candidate: int, ttl: int,
                      fatal: ResponseType) -> bool:
    """Shared mate-31-then-mate-30 probing pattern of H7."""
    for mate in (mate31(candidate), mate30(candidate)):
        if mate == candidate:
            continue
        response = state.prober.probe(mate, ttl, phase=PHASE_EXPLORATION)
        if response is not None and response.kind == fatal:
            return True
        if not _is_unhelpful(response):
            return False
    return False
