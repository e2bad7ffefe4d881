"""Subnet positioning — Algorithm 2 of the paper.

Given the last two addresses ``u`` (hop d-1) and ``v`` (hop d) obtained in
trace-collection mode, positioning (a) measures the true direct distance to
``v``, (b) decides whether the subnet to be explored lies on or off the
trace path, (c) designates the *pivot* interface — ``v`` itself, or its
mate-31/mate-30 when the router reported an interface facing the vantage —
and (d) obtains the *ingress* interface by expiring a probe one hop short of
the pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..events import SubnetPositioned
from ..netsim.addressing import mate30, mate31
from ..probing.prober import Prober

PHASE_POSITIONING = "subnet-positioning"


@dataclass(frozen=True)
class SubnetPosition:
    """Everything exploration needs to start growing a subnet."""

    pivot: int
    pivot_distance: int
    ingress: Optional[int]
    trace_entry: Optional[int]
    on_trace_path: Optional[bool]
    #: the address obtained in trace-collection mode (v); differs from the
    #: pivot when Algorithm 2 promoted v's mate
    trace_address: Optional[int] = None

    @property
    def pivot_is_trace_address(self) -> bool:
        return self.trace_address is not None and self.pivot == self.trace_address

    @property
    def entry_addresses(self) -> set:
        """The valid ingress addresses H6 accepts (i and u, when known)."""
        entries = set()
        if self.ingress is not None:
            entries.add(self.ingress)
        if self.trace_entry is not None:
            entries.add(self.trace_entry)
        return entries


def position_subnet(prober: Prober, u: Optional[int], v: int, d: int
                    ) -> Optional[SubnetPosition]:
    """Run Algorithm 2.  Returns None when ``v`` cannot be positioned.

    ``u`` may be None when hop d-1 was anonymous; the on/off-path decision
    then degrades to "unknown" exactly as the paper tolerates (H6 remains
    valid with anonymous entry points).
    """
    vh = prober.measure_distance(v, hint=d, phase=PHASE_POSITIONING)
    if vh is None:
        if prober.events:
            prober.events.record(SubnetPositioned, v, False, None, None, None)
        return None

    on_trace_path = _decide_on_trace_path(prober, u, v, vh, d)
    pivot, pivot_distance = _designate_pivot(prober, v, vh)
    ingress = _designate_ingress(prober, pivot, pivot_distance)
    if prober.events:
        prober.events.record(SubnetPositioned, v, True, pivot,
                             pivot_distance, on_trace_path)
    return SubnetPosition(
        pivot=pivot,
        pivot_distance=pivot_distance,
        ingress=ingress,
        trace_entry=u,
        on_trace_path=on_trace_path,
        trace_address=v,
    )


def _decide_on_trace_path(prober: Prober, u: Optional[int], v: int,
                          vh: int, d: int) -> Optional[bool]:
    """Algorithm 2 lines 2-10."""
    if vh != d:
        return False
    if vh == 1:
        # The first hop: the probe necessarily passed through the subnet's
        # only upstream side (the vantage gateway).
        return True
    response = prober.probe(v, vh - 1, phase=PHASE_POSITIONING)
    if response is None or not response.is_ttl_exceeded:
        return None
    if u is None:
        return None
    return response.source == u


def _designate_pivot(prober: Prober, v: int, vh: int):
    """Algorithm 2 lines 11-21: mate-31 adjacency decides the pivot."""
    probe_mate = prober.probe(mate31(v), vh, phase=PHASE_POSITIONING)
    if probe_mate is not None and probe_mate.is_ttl_exceeded:
        if prober.is_alive(mate31(v), phase=PHASE_POSITIONING):
            return mate31(v), vh + 1
        if prober.is_alive(mate30(v), phase=PHASE_POSITIONING):
            return mate30(v), vh + 1
        return v, vh
    if probe_mate is None and mate30(v) != mate31(v):
        # The /31 mate was silent; the paper retries the argument with the
        # /30 mate before concluding v itself is the pivot.
        probe_mate30 = prober.probe(mate30(v), vh, phase=PHASE_POSITIONING)
        if (probe_mate30 is not None and probe_mate30.is_ttl_exceeded
                and prober.is_alive(mate30(v), phase=PHASE_POSITIONING)):
            return mate30(v), vh + 1
    return v, vh


def _designate_ingress(prober: Prober, pivot: int, pivot_distance: int
                       ) -> Optional[int]:
    """Algorithm 2 line 22: expire a probe one hop short of the pivot."""
    if pivot_distance <= 1:
        return None
    response = prober.probe(pivot, pivot_distance - 1, phase=PHASE_POSITIONING)
    if response is not None and response.is_ttl_exceeded:
        return response.source
    return None
