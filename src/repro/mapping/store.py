"""Persistence for collected topology data.

A topology collector is only half a tool without a durable output format:
the paper's project published its collected data sets, and downstream
studies (alias resolution, subnet-level mapping) consume them offline.
This module serializes observed subnets and trace results to a compact
JSON document and back, losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Union

from ..core.results import ObservedSubnet, TraceHop, TraceResult
from ..netsim.addressing import format_ip, parse_ip

FORMAT_VERSION = 1


@dataclass
class CollectionArchive:
    """Everything one vantage point collected, ready for disk."""

    vantage: str
    subnets: List[ObservedSubnet] = field(default_factory=list)
    traces: List[TraceResult] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)


# -- observed subnets ---------------------------------------------------------


def subnet_to_dict(subnet: ObservedSubnet) -> Dict:
    """JSON-ready representation of one observed subnet."""
    return {
        "prefix": str(subnet.prefix),
        "prefix_length": subnet.prefix_length,
        "pivot": format_ip(subnet.pivot),
        "pivot_distance": subnet.pivot_distance,
        "members": sorted(format_ip(m) for m in subnet.members),
        "contra_pivot": (format_ip(subnet.contra_pivot)
                         if subnet.contra_pivot is not None else None),
        "ingress": (format_ip(subnet.ingress)
                    if subnet.ingress is not None else None),
        "trace_entry": (format_ip(subnet.trace_entry)
                        if subnet.trace_entry is not None else None),
        "on_trace_path": subnet.on_trace_path,
        "positioned": subnet.positioned,
        "stop_reason": subnet.stop_reason,
        "probes_used": subnet.probes_used,
        "trace_address": (format_ip(subnet.trace_address)
                          if subnet.trace_address is not None else None),
    }


def subnet_from_dict(payload: Dict) -> ObservedSubnet:
    """Rebuild an observed subnet from its JSON representation."""
    def maybe(value: Optional[str]) -> Optional[int]:
        return parse_ip(value) if value is not None else None

    return ObservedSubnet(
        pivot=parse_ip(payload["pivot"]),
        pivot_distance=payload["pivot_distance"],
        members={parse_ip(m) for m in payload["members"]},
        contra_pivot=maybe(payload.get("contra_pivot")),
        ingress=maybe(payload.get("ingress")),
        trace_entry=maybe(payload.get("trace_entry")),
        on_trace_path=payload.get("on_trace_path"),
        positioned=payload.get("positioned", True),
        stop_reason=payload.get("stop_reason", ""),
        probes_used=payload.get("probes_used", 0),
        prefix_length=payload.get("prefix_length"),
        trace_address=maybe(payload.get("trace_address")),
    )


# -- trace results -------------------------------------------------------------


def trace_to_dict(result: TraceResult) -> Dict:
    """JSON-ready representation of a trace (subnets stored by prefix ref).

    Degradation markers appear only on degraded traces — archives collected
    against a quiescent network serialize byte-identically to format
    version 1 files written before radar mode existed.
    """
    payload = {
        "vantage": result.vantage_host_id,
        "destination": format_ip(result.destination),
        "reached": result.reached,
        "probes_sent": result.probes_sent,
        "hops": [
            {
                "ttl": hop.ttl,
                "address": (format_ip(hop.address)
                            if hop.address is not None else None),
                "is_destination": hop.is_destination,
                "subnet": (str(hop.subnet.prefix)
                           if hop.subnet is not None else None),
            }
            for hop in result.hops
        ],
    }
    if result.degraded:
        payload["degraded"] = True
        payload["confidence"] = result.confidence
        payload["degraded_reasons"] = list(result.degraded_reasons)
    return payload


def trace_from_dict(payload: Dict,
                    subnet_index: Optional[Dict[str, ObservedSubnet]] = None
                    ) -> TraceResult:
    """Rebuild a trace; subnet references resolve through ``subnet_index``."""
    result = TraceResult(
        vantage_host_id=payload["vantage"],
        destination=parse_ip(payload["destination"]),
        reached=payload.get("reached", False),
        probes_sent=payload.get("probes_sent", 0),
        confidence=payload.get("confidence", 1.0),
        degraded=payload.get("degraded", False),
        degraded_reasons=list(payload.get("degraded_reasons", [])),
    )
    for hop_payload in payload["hops"]:
        address = hop_payload.get("address")
        subnet_ref = hop_payload.get("subnet")
        subnet = None
        if subnet_ref is not None and subnet_index is not None:
            subnet = subnet_index.get(subnet_ref)
        result.hops.append(TraceHop(
            ttl=hop_payload["ttl"],
            address=parse_ip(address) if address is not None else None,
            is_destination=hop_payload.get("is_destination", False),
            subnet=subnet,
        ))
    return result


# -- archives -------------------------------------------------------------------


def archive_to_dict(archive: CollectionArchive) -> Dict:
    return {
        "format_version": FORMAT_VERSION,
        "vantage": archive.vantage,
        "metadata": archive.metadata,
        "subnets": [subnet_to_dict(s) for s in archive.subnets],
        "traces": [trace_to_dict(t) for t in archive.traces],
    }


def archive_from_dict(payload: Dict) -> CollectionArchive:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported archive format version: {version}")
    subnets = [subnet_from_dict(p) for p in payload.get("subnets", [])]
    index = {str(s.prefix): s for s in subnets}
    traces = [trace_from_dict(p, index) for p in payload.get("traces", [])]
    return CollectionArchive(
        vantage=payload["vantage"],
        subnets=subnets,
        traces=traces,
        metadata=payload.get("metadata", {}),
    )


def archive_signature(archive: CollectionArchive) -> Dict:
    """The map two surveys of one scenario must agree on.

    Subnets (prefix and members) and traces (destination, reached, hop
    addresses).  Probe-count fields (``probes_used``, ``probes_sent``) are
    deliberately excluded: stop-set suppression and checkpoint resume
    change what a survey spends while the collected topology stays the
    same.

    The contract holds only on networks without history-dependent
    responses.  ICMP rate limiters answer according to the probes a router
    has already seen, so a survey that sends a different probe sequence
    can record different traces.
    """
    return {
        "subnets": sorted(
            (str(subnet.prefix), tuple(sorted(subnet.members)))
            for subnet in archive.subnets
        ),
        "traces": sorted(
            (
                trace.destination,
                trace.reached,
                tuple((hop.ttl, hop.address) for hop in trace.hops),
            )
            for trace in archive.traces
        ),
    }


def archives_equivalent(left: CollectionArchive,
                        right: CollectionArchive) -> bool:
    """True when both archives collected the same subnets and traces."""
    return archive_signature(left) == archive_signature(right)


def save_archive(destination: Union[str, IO], archive: CollectionArchive) -> None:
    """Write an archive as JSON to a path or open file object."""
    payload = archive_to_dict(archive)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(payload, handle, indent=1)
    else:
        json.dump(payload, destination, indent=1)


def load_archive(source: Union[str, IO]) -> CollectionArchive:
    """Read an archive from a path or open file object."""
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    return archive_from_dict(payload)


def archive_from_tool(tool, traces: Iterable[TraceResult] = (),
                      **metadata) -> CollectionArchive:
    """Snapshot a TraceNET instance's collection into an archive."""
    return CollectionArchive(
        vantage=tool.vantage_host_id,
        subnets=list(tool.collected_subnets),
        traces=list(traces),
        metadata=dict(metadata),
    )
