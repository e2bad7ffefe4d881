"""Subnet exploration — Algorithm 1 of the paper.

Starting from the positioned pivot, exploration forms temporary subnets of
decreasing prefix length (/31, /30, …), direct-probes every candidate
address inside each level, and admits candidates through the H2–H8 pipeline.
Any stop-and-shrink verdict executes H1 (shrink to the last intact prefix,
discarding the false positives); a level whose accumulated membership fills
at most half of its block ends the growth (lines 19–21); and H9 strips
boundary addresses from the final subnet.
"""

from __future__ import annotations

from typing import Optional, Set

from ..events import SubnetGrown, SubnetShrunk
from ..netsim.addressing import Prefix
from ..probing.prober import Prober
from .heuristics import (
    PHASE_EXPLORATION,
    ExplorationState,
    Verdict,
    evaluate_candidate,
)
from .positioning import SubnetPosition
from .results import ObservedSubnet

#: Never grow beyond this prefix length (the paper's data bottoms out at /20).
DEFAULT_MIN_PREFIX_LENGTH = 20


def explore_subnet(prober: Prober, position: SubnetPosition,
                   min_prefix_length: int = DEFAULT_MIN_PREFIX_LENGTH,
                   disabled_rules: frozenset = frozenset(),
                   batch_window: int = 1) -> ObservedSubnet:
    """Run Algorithm 1 around a positioned pivot; return the observed subnet.

    ``disabled_rules`` (e.g. ``frozenset({"H7", "H8"})``) turns heuristics
    off for ablation studies; every judgement the pipeline produces is
    emitted on the prober's bus as a :class:`~repro.events.HeuristicFired`
    event.  ``batch_window > 1``
    prefetches each level's H2 sweep probes in transport batches of that
    size (speculative: an early stop-and-shrink has already paid for the
    current chunk, so probe counts can exceed the serial path's).
    """
    state = ExplorationState(
        prober=prober,
        pivot=position.pivot,
        pivot_distance=position.pivot_distance,
        ingress=position.ingress,
        trace_entry=position.trace_entry,
        on_trace_path=position.on_trace_path,
        disabled_rules=disabled_rules,
    )
    before = prober.stats_snapshot()
    members: Set[int] = {position.pivot}
    tested: Set[int] = {position.pivot}
    stop_reason = "prefix-floor"
    observed_length = min_prefix_length

    for level in range(31, min_prefix_length - 1, -1):
        block = Prefix.containing(position.pivot, level)
        shrunk = _explore_level(state, block, members, tested,
                                batch_window=batch_window)
        if shrunk is not None:
            observed_length = min(level + 1, 32)
            _shrink(members, state, position.pivot, observed_length)
            stop_reason = f"shrunk:{shrunk}"
            if prober.events:
                prober.events.record(SubnetShrunk, position.pivot, shrunk,
                                     observed_length)
            break
        if level <= 29 and len(members) <= block.host_capacity // 2:
            # Lines 19-21: the level stayed at most half utilized (over
            # the addresses a subnet of this prefix could accommodate),
            # so the subnet keeps the previous (last sufficiently
            # filled) prefix.
            observed_length = level + 1
            _shrink(members, state, position.pivot, observed_length)
            stop_reason = "under-utilized"
            if prober.events:
                prober.events.record(SubnetShrunk, position.pivot,
                                     "half-utilization", observed_length)
            break

    observed_length = _reduce_boundaries(members, position.pivot,
                                         observed_length)
    if len(members) == 1:
        observed_length = 32  # an un-subnetized address, not a subnet
    if state.contra_pivot is not None and state.contra_pivot not in members:
        state.contra_pivot = None

    after = prober.stats_snapshot()
    if prober.events:
        prober.events.record(
            SubnetGrown, position.pivot,
            str(Prefix.containing(position.pivot, observed_length)),
            len(members), stop_reason, after.sent - before.sent,
            after.phase_delta(before), len(tested))
    return ObservedSubnet(
        pivot=position.pivot,
        pivot_distance=position.pivot_distance,
        members=members,
        contra_pivot=state.contra_pivot,
        ingress=position.ingress,
        trace_entry=position.trace_entry,
        on_trace_path=position.on_trace_path,
        positioned=True,
        stop_reason=stop_reason,
        probes_used=after.sent - before.sent,
        prefix_length=observed_length,
        trace_address=position.trace_address,
    )


def unpositioned_subnet(prober: Prober, address: int, hop: int) -> ObservedSubnet:
    """The /32 fallback when Algorithm 2 cannot place an address.

    These are the "IP addresses for which tracenet failed to grow a subnet"
    counted as un-subnetized in Figure 7.
    """
    return ObservedSubnet(
        pivot=address,
        pivot_distance=hop,
        members={address},
        positioned=False,
        stop_reason="unpositioned",
        trace_address=address,
    )


def _explore_level(state: ExplorationState, block: Prefix,
                   members: Set[int], tested: Set[int],
                   batch_window: int = 1) -> Optional[str]:
    """Probe every untested candidate in ``block``.

    Returns the rule name that demanded stop-and-shrink, or None when the
    level completed cleanly.  With ``batch_window > 1`` the level's H2
    probes (one per candidate, at the pivot distance) are prefetched in
    chunks of that size; the per-candidate pipeline then answers H2 from
    the response cache, so heuristic order and verdicts are unchanged.
    """
    candidates = [c for c in block.addresses() if c not in tested]
    if batch_window > 1:
        for start in range(0, len(candidates), batch_window):
            chunk = candidates[start:start + batch_window]
            state.prober.probe_many(
                [(candidate, state.pivot_distance) for candidate in chunk],
                phase=PHASE_EXPLORATION)
            stop = _judge_candidates(state, chunk, members, tested)
            if stop is not None:
                return stop
        return None
    return _judge_candidates(state, candidates, members, tested)


def _judge_candidates(state: ExplorationState, candidates,
                      members: Set[int], tested: Set[int]) -> Optional[str]:
    for candidate in candidates:
        tested.add(candidate)
        judgement = evaluate_candidate(state, candidate)
        if judgement.verdict == Verdict.ADD:
            members.add(candidate)
        elif judgement.verdict == Verdict.ADD_CONTRA:
            members.add(candidate)
            state.contra_pivot = candidate
        elif judgement.verdict == Verdict.STOP:
            return judgement.rule
    return None


def _shrink(members: Set[int], state: ExplorationState, pivot: int,
            keep_length: int) -> None:
    """H1 prefix reduction: drop every member outside the last valid level."""
    keep_block = Prefix.containing(pivot, min(keep_length, 32))
    for address in list(members):
        if address not in keep_block:
            members.discard(address)
    if state.contra_pivot is not None and state.contra_pivot not in members:
        state.contra_pivot = None


def _reduce_boundaries(members: Set[int], pivot: int, length: int) -> int:
    """H9 boundary address reduction.

    While the observed block (at /30 or shorter) claims its own network or
    broadcast address as a member, split it and keep only the half
    accommodating the pivot.  Returns the final prefix length.

    Besides catching merges across allocation boundaries, this is what
    recovers /31 links: a /31 whose sibling space is silent stops growing
    at /30, where one of its two addresses necessarily sits on a /30
    boundary — one split restores the true /31.
    """
    while length < 31:
        block = Prefix.containing(pivot, length)
        if block.network not in members and block.broadcast not in members:
            return length
        length += 1
        keep = Prefix.containing(pivot, length)
        for address in list(members):
            if address not in keep:
                members.discard(address)
    return length
