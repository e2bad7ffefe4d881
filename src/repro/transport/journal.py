"""Probe journals: record every exchange, replay it without a network.

A journal is a JSONL file — one header line, then one line per vantage
resolution and per probe/response exchange, in wire order.  Recording makes
a collection run fully auditable ("A Radar for the Internet": repeated
measurements are only comparable when each run's probe stream is recorded);
replaying re-serves the journal deterministically with zero simulator (or
network) involvement, so a collection can be re-run, unit-tested, and
debugged offline.  Replay decodes the whole journal once, at load, so a
malformed record raises :class:`JournalError` naming its line before any
probe is served.  Replay is strict: a probe that does not match the next
journaled exchange fails loudly instead of returning a plausible answer.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, IO, List, Optional, Sequence, Union

from ..netsim.addressing import format_ip, parse_ip
from ..netsim.packet import Probe, Protocol, Response, ResponseType
from .base import ProbeTransport, TransportCapabilities, send_batch

JOURNAL_FORMAT = "tracenet-journal"
JOURNAL_VERSION = 1

#: The probe fields replay matches on.  ``probe_id`` is deliberately not
#: one of them: it is a process-global counter with no wire meaning.
MATCHED_PROBE_FIELDS = ("src", "dst", "ttl", "protocol", "flow_id",
                       "record_route")


class JournalError(RuntimeError):
    """A malformed journal file."""


class ReplayMismatch(RuntimeError):
    """A replayed probe diverged from the recorded exchange stream."""


class ReplayExhausted(ReplayMismatch):
    """More probes were sent than the journal recorded."""


# -- wire representation ------------------------------------------------------


def probe_to_dict(probe: Probe) -> Dict:
    return {
        "src": format_ip(probe.src),
        "dst": format_ip(probe.dst),
        "ttl": probe.ttl,
        "protocol": probe.protocol.value,
        "flow_id": probe.flow_id,
        "record_route": probe.record_route,
        "probe_id": probe.probe_id,
    }


def response_to_dict(response: Response) -> Dict:
    return {
        "kind": response.kind.value,
        "source": format_ip(response.source),
        "responder": response.responder,
        "ip_id": response.ip_id,
        "record_route": [format_ip(stamp) for stamp in response.record_route],
    }


# -- recording ----------------------------------------------------------------


class RecordingTransport:
    """Wraps any transport and journals every exchange through it."""

    def __init__(self, inner: ProbeTransport, destination: Union[str, IO],
                 metadata: Optional[Dict] = None):
        self.inner = inner
        if isinstance(destination, str):
            self._fp: IO = open(destination, "w", encoding="utf-8")
            self._owns_fp = True
        else:
            self._fp = destination
            self._owns_fp = False
        self.exchanges = 0
        self.batches = 0
        self.batched_probes = 0
        self._known_vantages: Dict[str, int] = {}
        self._write({
            "kind": "header",
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_VERSION,
            "inner": inner.capabilities().name,
            "metadata": dict(metadata or {}),
        })

    @property
    def engine(self):
        """The wrapped engine, when the inner transport exposes one."""
        return getattr(self.inner, "engine", None)

    def send(self, probe: Probe) -> Optional[Response]:
        response = self.inner.send(probe)
        self.exchanges += 1
        self._write({
            "kind": "exchange",
            "seq": self.exchanges,
            "probe": probe_to_dict(probe),
            "response": (response_to_dict(response)
                         if response is not None else None),
        })
        return response

    def send_many(self, probes: Sequence[Probe]
                  ) -> List[Optional[Response]]:
        """Journal a batch as its equivalent sequence of exchange records.

        Batches are a pipelining detail, not a wire-format concern: the
        journal stays a flat in-order exchange stream, so a batched run's
        journal replays under a serial collector and vice versa.
        """
        self.batches += 1
        self.batched_probes += len(probes)
        responses = send_batch(self.inner, probes)
        for probe, response in zip(probes, responses):
            self.exchanges += 1
            self._write({
                "kind": "exchange",
                "seq": self.exchanges,
                "probe": probe_to_dict(probe),
                "response": (response_to_dict(response)
                             if response is not None else None),
            })
        return responses

    def capabilities(self) -> TransportCapabilities:
        return TransportCapabilities(
            name=f"recording({self.inner.capabilities().name})")

    def source_address(self, host_id: str) -> int:
        address = self.inner.source_address(host_id)
        if self._known_vantages.get(host_id) != address:
            self._known_vantages[host_id] = address
            self._write({
                "kind": "vantage",
                "host": host_id,
                "address": format_ip(address),
            })
        return address

    def backend_metrics(self) -> Dict:
        """Journal accounting, folded over the inner backend's."""
        from .base import backend_metrics

        metrics = backend_metrics(self.inner)
        metrics["journal_exchanges_recorded"] = self.exchanges
        metrics["journal_batches_recorded"] = self.batches
        metrics["journal_batched_probes"] = self.batched_probes
        return metrics

    def close(self) -> None:
        self._fp.flush()
        if self._owns_fp:
            self._fp.close()
        self.inner.close()

    def __enter__(self) -> "RecordingTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write(self, payload: Dict) -> None:
        self._fp.write(json.dumps(payload, sort_keys=True))
        self._fp.write("\n")


# -- replay -------------------------------------------------------------------

_PROTOCOLS = {protocol.value: protocol for protocol in Protocol}
_RESPONSE_KINDS = {kind.value: kind for kind in ResponseType}


class ReplayTransport:
    """Re-serves a recorded journal, exchange by exchange, with no network.

    Each exchange is decoded once, at load, into an immutable key, the
    probe's :data:`MATCHED_PROBE_FIELDS` in wire types, and a response,
    ``None`` or ``(kind, source, responder, ip_id, stamps)``; two parallel
    lists, not pairs, keep one garbage-collected object per exchange off the
    heap.  Probes must arrive in the recorded order and match the key
    exactly — any divergence raises :class:`ReplayMismatch` (or
    :class:`ReplayExhausted` past the end) rather than inventing an answer.
    """

    def __init__(self, source: Union[str, IO]):
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fp:
                records = _decode_journal(fp)
        else:
            records = _decode_journal(source)
        self.header, self._vantages, self._keys, self._responses = records
        self.cursor = 0
        self.batches = 0

    @property
    def metadata(self) -> Dict:
        return self.header.get("metadata", {})

    @property
    def remaining(self) -> int:
        return len(self._keys) - self.cursor

    def send(self, probe: Probe) -> Optional[Response]:
        cursor = self.cursor
        if cursor >= len(self._keys):
            raise ReplayExhausted(
                f"journal exhausted after {len(self._keys)} exchanges; "
                f"unexpected probe {probe.describe()}")
        if self._keys[cursor] != (probe.src, probe.dst, probe.ttl, probe.protocol,
                                  probe.flow_id, probe.record_route):
            raise ReplayMismatch(
                f"probe #{cursor + 1} diverged from the journal: sent {probe_to_dict(probe)!r}, "
                f"recorded {_key_to_dict(self._keys[cursor])!r}")
        self.cursor = cursor + 1
        recorded = self._responses[cursor]
        if recorded is None:
            return None
        kind, source, responder, ip_id, stamps = recorded
        return Response(kind, source, probe, responder, ip_id, stamps)

    def send_many(self, probes: Sequence[Probe]
                  ) -> List[Optional[Response]]:
        """Serve a batch from the flat exchange stream, strictly in order."""
        self.batches += 1
        return [self.send(probe) for probe in probes]

    def capabilities(self) -> TransportCapabilities:
        return TransportCapabilities(name="replay")

    def source_address(self, host_id: str) -> int:
        if host_id not in self._vantages:
            raise ValueError(
                f"unknown vantage host {host_id!r} (journal knows "
                f"{sorted(self._vantages) or 'none'})")
        return self._vantages[host_id]

    def backend_metrics(self) -> Dict:
        """Replay cursor accounting (no engine behind this backend).

        The bulk-lookup gauges are pinned to zero so the metric inventory
        matches the live backends': a replayed run serves every response
        from the journal, never from the engine's resolved-path index.
        """
        return {
            "replay_exchanges_served": self.cursor,
            "replay_exchanges_remaining": self.remaining,
            "replay_batches_served": self.batches,
            "engine_bulk_lookup_hits": 0,
            "engine_bulk_lookup_misses": 0,
        }

    def close(self) -> None:
        """The journal was decoded and its file closed at load; no-op."""

    def assert_drained(self) -> None:
        """Fail when the collection sent fewer probes than were recorded."""
        if self.remaining:
            raise ReplayMismatch(
                f"{self.remaining} recorded exchange(s) were never replayed")


def _key_to_dict(key: tuple) -> Dict:
    """A decoded probe key, rendered back as its journal dict."""
    src, dst, ttl, protocol, flow_id, record_route = key
    return dict(zip(MATCHED_PROBE_FIELDS, (format_ip(src), format_ip(dst), ttl,
                                           protocol.value, flow_id, record_route)))


def _line_number(raw: List[str], index: int) -> int:
    """The file line (from 1) of the ``index``-th non-blank line."""
    return [n for n, line in enumerate(raw, start=1) if line.strip()][index]


def _decode_journal(fp: IO):
    raw = fp.read().split("\n")
    lines = [line for line in raw if line.strip()]
    try:  # one json.loads for the whole journal
        records = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        records = ()
    if len(records) != len(lines):  # name the first line that is not JSON on its own
        for index, line in enumerate(lines):
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(f"journal line {_line_number(raw, index)} is not JSON: {exc}")
    header, vantages, keys, responses = None, {}, [], []
    address = functools.cache(parse_ip)  # a survey has few distinct addresses
    try:
        for index, record in enumerate(records):
            kind = record.get("kind")
            if kind == "exchange":
                probe, response = record["probe"], record["response"]
                keys.append((address(probe["src"]), address(probe["dst"]), probe["ttl"],
                             _PROTOCOLS[probe["protocol"]], probe["flow_id"],
                             probe["record_route"]))
                responses.append(None if response is None else (
                    _RESPONSE_KINDS[response["kind"]], address(response["source"]),
                    response["responder"], response["ip_id"],
                    tuple(map(address, stamps)) if (stamps := response["record_route"]) else ()))
            elif kind == "vantage":
                vantages[record["host"]] = address(record["address"])
            elif kind == "header":
                if record.get("format") != JOURNAL_FORMAT:
                    raise JournalError(
                        f"not a {JOURNAL_FORMAT} file (line {_line_number(raw, index)})")
                if record.get("version") != JOURNAL_VERSION:
                    raise JournalError(f"unsupported journal version {record.get('version')!r}")
                header = record
            else:
                raise JournalError(f"unknown journal record kind {kind!r} "
                                   f"(line {_line_number(raw, index)})")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed record on journal line {_line_number(raw, index)}: "
                           f"{type(exc).__name__}: {exc}")
    if header is None:
        raise JournalError("journal has no header line")
    return header, vantages, keys, responses
