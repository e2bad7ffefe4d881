"""The prober: tracenet's view of the network.

Everything above this layer (tracenet, traceroute) sees the network
exclusively as *probe in, response out* — exactly the contract a raw-socket
or scapy implementation would have.  The prober adds the operational
behaviours the paper describes: re-probing on silence (Section 3.8),
response caching so merged heuristics don't pay twice for the same answer,
stable ICMP header fields (Paris-style flow identity), and probe metering.

The paper re-probes every silence once.  The default :class:`RetryPolicy`
gates that retry on evidence: trace-collection silences are always
retried, while exploration and positioning silences are retried only
while some retry of the session has been answered, or during a warm-up of
``RetryPolicy.WARMUP`` retries.  On a lossless network no retry is ever
answered, so once the warm-up is spent the exploration and positioning
retries stop — about 18% of a reference survey's probes, with the same
map.  Under loss the first answered retry re-arms every phase.  The gate
reads only the prober's own counters, so a replay of a journal makes the
same decisions as the live run.  ``RetryPolicy(gated=False)`` is the
paper's retry-every-silence rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (ClassVar, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from ..events import CacheHit, EventBus, ProbeBatchSent, ProbeRetried, ProbeSent
from ..netsim.packet import DEFAULT_TTL, Probe, Protocol, Response
from ..transport import as_transport, send_batch
from .budget import ProbeBudget, ProbeStats

CacheKey = Tuple[int, int, Protocol]


@dataclass(frozen=True)
class RetryPolicy:
    """How silence is retried: attempt count, idle backoff and the gate.

    ``attempts`` is the number of *re*-probes after the first silent send
    (the paper's implementation re-probes once).  ``backoff_ticks`` idles
    the transport clock before each retry — entry ``i`` before retry
    ``i+1``, the last entry repeating for any further retries.

    ``gated`` (the default) spends a retry on a silence in one of
    :attr:`GATED_PHASES` only while the session has evidence that retries
    pay: some retry has been answered, or fewer than :attr:`WARMUP`
    retries have been sent.  Other phases — trace collection, where an
    anonymous hop ends a decision — are always retried, and they keep
    sampling the retry yield.  ``gated=False`` retries every silence, the
    paper's Section 3.8 rule.
    """

    #: Retries a session sends before an unanswered record closes the gate.
    WARMUP: ClassVar[int] = 64
    #: The phases whose silences the gate may leave unretried (the
    #: ``PHASE_*`` names of :mod:`repro.core`).
    GATED_PHASES: ClassVar[FrozenSet[str]] = frozenset(
        {"subnet-exploration", "subnet-positioning"})

    attempts: int = 1
    backoff_ticks: Tuple[int, ...] = ()
    gated: bool = True

    def __post_init__(self):
        if self.attempts < 0:
            raise ValueError(f"attempts must be >= 0, got {self.attempts}")
        if any(t < 0 for t in self.backoff_ticks):
            raise ValueError("backoff_ticks must be non-negative")

    @classmethod
    def coerce(cls, value: Union[int, "RetryPolicy"]) -> "RetryPolicy":
        """Accept a bare retry count (the legacy knob) or a full policy."""
        if isinstance(value, cls):
            return value
        return cls(attempts=int(value))

    def allows(self, phase: Optional[str], stats: ProbeStats) -> bool:
        """Whether a silence in ``phase`` may be retried, given the
        session's counters so far."""
        return (not self.gated or phase not in self.GATED_PHASES
                or stats.retries_answered > 0 or stats.retries < self.WARMUP)

    def backoff_for(self, attempt: int) -> int:
        """Idle ticks before retry ``attempt`` (1-based); 0 when none."""
        if not self.backoff_ticks:
            return 0
        return self.backoff_ticks[min(attempt - 1, len(self.backoff_ticks) - 1)]


class Prober:
    """Issues direct and indirect probes from one vantage point.

    Args:
        network: any :class:`~repro.transport.ProbeTransport` — or a bare
            :class:`~repro.netsim.engine.Engine`, which is wrapped in a
            :class:`~repro.transport.SimulatorTransport` transparently.
        vantage_host_id: which registered host the probes originate from.
        protocol: probe transport protocol (Section 4.2 compares all three).
        retries: re-probes on silence — a bare int (the paper's
            implementation uses 1; gated as :class:`RetryPolicy` describes)
            or a :class:`RetryPolicy` choosing the gate and idle backoff.
        use_cache: memoize (dst, ttl) -> response, including silence.
        budget: optional hard probe cap.
        flow_id: constant flow identity (vary per probe for classic
            traceroute behaviour under per-flow load balancing).
        events: session-event bus; every wire probe emits
            :class:`~repro.events.ProbeSent` when a sink is attached.
    """

    def __init__(self, network, vantage_host_id: str,
                 protocol: Protocol = Protocol.ICMP,
                 retries: Union[int, RetryPolicy] = 1,
                 use_cache: bool = True,
                 budget: Optional[ProbeBudget] = None,
                 flow_id: int = 0,
                 max_ttl: int = 32,
                 events: Optional[EventBus] = None):
        self.transport = as_transport(network)
        self.vantage_address = self.transport.source_address(vantage_host_id)
        self.vantage_host_id = vantage_host_id
        self.protocol = protocol
        self.retry_policy = RetryPolicy.coerce(retries)
        self.retries = self.retry_policy.attempts
        self.use_cache = use_cache
        self.budget = budget
        self.flow_id = flow_id
        self.max_ttl = max_ttl
        self.events = events if events is not None else EventBus()
        self.stats = ProbeStats()
        self._cache: Dict[CacheKey, Optional[Response]] = {}

    @property
    def engine(self):
        """The underlying simulator engine, when the transport has one."""
        return getattr(self.transport, "engine", None)

    # -- raw probe interface ------------------------------------------------

    def probe(self, dst: int, ttl: int, phase: Optional[str] = None,
              flow_id: Optional[int] = None,
              refresh: bool = False) -> Optional[Response]:
        """Send one probe (plus retries on silence); return the response.

        Identical (dst, ttl) probes are answered from the cache when caching
        is enabled — silence is cached too, after the retry has confirmed it.
        ``refresh=True`` bypasses the cache lookup and overwrites the entry
        with the fresh answer — how the pipeline re-validates a hop after
        the network mutated under it.
        """
        if ttl > DEFAULT_TTL:
            # A TTL beyond DEFAULT_TTL used to alias the direct-probe cache
            # entry even though the engine can walk it differently (hop-limit
            # interplay).  Nothing legitimately sends one: direct probes use
            # exactly DEFAULT_TTL, indirect probes must stay below it.
            raise ValueError(
                f"probe TTL {ttl} exceeds DEFAULT_TTL ({DEFAULT_TTL}); "
                f"use direct_probe() for direct probing")
        key = (dst, ttl, self.protocol)
        if self.use_cache and flow_id is None and not refresh \
                and key in self._cache:
            self.stats.record_cache_hit()
            events = self.events
            if events:
                if events.wants(CacheHit):
                    events.emit(CacheHit(dst, ttl, phase))
                else:
                    events.tally(CacheHit)
            return self._cache[key]
        response = self._send_once(dst, ttl, phase, flow_id)
        attempt = 0
        policy, stats = self.retry_policy, self.stats
        while response is None and attempt < self.retries \
                and policy.allows(phase, stats):
            attempt += 1
            stats.retries += 1
            self._note_retry(dst, ttl, attempt, phase)
            self.backoff(policy.backoff_for(attempt))
            response = self._send_once(dst, ttl, phase, flow_id)
            if response is not None:
                stats.retries_answered += 1
        if self.use_cache and flow_id is None:
            self._cache[key] = response
        return response

    def probe_many(self, requests: Sequence[Tuple[int, int]],
                   phase: Optional[str] = None
                   ) -> List[Optional[Response]]:
        """Probe a batch of independent ``(dst, ttl)`` pairs in one dispatch.

        Per-probe semantics are exactly :meth:`probe`'s — the cache is
        consulted (and populated) identically, the same stats counters move,
        per-probe :class:`~repro.events.ProbeSent` / ``CacheHit`` events
        fire, silence is retried up to ``retries`` times where the retry
        gate allows, the budget is
        charged per wire probe — but the uncached probes travel to the
        transport together through ``send_many``, and each dispatched wire
        batch additionally emits :class:`~repro.events.ProbeBatchSent`.
        A batch of one is indistinguishable from a :meth:`probe` call plus
        its batch event.
        """
        results: List[Optional[Response]] = [None] * len(requests)
        cacheable = self.use_cache
        pending: List[int] = []
        dup_of: Dict[int, int] = {}
        first_seen: Dict[CacheKey, int] = {}
        for index, (dst, ttl) in enumerate(requests):
            if ttl > DEFAULT_TTL:
                raise ValueError(
                    f"probe TTL {ttl} exceeds DEFAULT_TTL ({DEFAULT_TTL}); "
                    f"use direct_probe() for direct probing")
            key = (dst, ttl, self.protocol)
            if cacheable:
                if key in self._cache:
                    self.stats.record_cache_hit()
                    events = self.events
                    if events:
                        if events.wants(CacheHit):
                            events.emit(CacheHit(dst, ttl, phase))
                        else:
                            events.tally(CacheHit)
                    results[index] = self._cache[key]
                    continue
                if key in first_seen:
                    # A (dst, ttl) repeated within the batch: the serial
                    # path would answer the repeat from the cache entry the
                    # first occurrence stores — resolve it after the wire.
                    dup_of[index] = first_seen[key]
                    continue
                first_seen[key] = index
            pending.append(index)

        if pending:
            responses = self._send_many_once(
                [requests[i] for i in pending], phase)
            for index, response in zip(pending, responses):
                results[index] = response
            # Re-probe silence, batch-wide, with per-probe retry budgets;
            # the gate sees each retry counted as :meth:`probe` would.
            policy, stats = self.retry_policy, self.stats
            for attempt in range(1, self.retries + 1):
                silent = []
                for i in pending:
                    if results[i] is None and policy.allows(phase, stats):
                        silent.append(i)
                        stats.retries += 1
                if not silent:
                    break
                for i in silent:
                    dst, ttl = requests[i]
                    self._note_retry(dst, ttl, attempt, phase)
                self.backoff(policy.backoff_for(attempt))
                responses = self._send_many_once(
                    [requests[i] for i in silent], phase)
                for index, response in zip(silent, responses):
                    results[index] = response
                    if response is not None:
                        stats.retries_answered += 1
            if cacheable:
                for index in pending:
                    dst, ttl = requests[index]
                    self._cache[(dst, ttl, self.protocol)] = results[index]

        for index, primary in dup_of.items():
            self.stats.record_cache_hit()
            events = self.events
            if events:
                if events.wants(CacheHit):
                    dst, ttl = requests[index]
                    events.emit(CacheHit(dst, ttl, phase))
                else:
                    events.tally(CacheHit)
            results[index] = results[primary]
        return results

    def _send_many_once(self, requests: Sequence[Tuple[int, int]],
                        phase: Optional[str]) -> List[Optional[Response]]:
        """One wire round for a batch: budget, dispatch, stats, events.

        Budget charges happen per probe, in order, *before* the dispatch;
        when the budget runs out mid-batch the prefix already paid for is
        still sent and accounted (matching the serial path, where earlier
        probes have hit the wire before the failing charge), then the
        exception propagates.
        """
        probes: List[Probe] = []
        charge_error: Optional[Exception] = None
        for dst, ttl in requests:
            if self.budget is not None:
                try:
                    self.budget.charge()
                except Exception as exc:
                    charge_error = exc
                    break
            self.stats.record_sent(phase)
            probes.append(Probe(
                src=self.vantage_address,
                dst=dst,
                ttl=ttl,
                protocol=self.protocol,
                flow_id=self.flow_id,
            ))
        responses: List[Optional[Response]] = []
        if probes:
            responses = send_batch(self.transport, probes)
            events = self.events
            # One wants() check per batch: when nobody needs the payload
            # (counters only) the whole batch tallies as two dict adds.
            wants_probe = bool(events) and events.wants(ProbeSent)
            record_outcome = self.stats.record_outcome
            # ``_value_`` is the enum value as a plain attribute (the
            # ``.value`` property is a Python-level descriptor call).
            protocol = self.protocol._value_
            for probe, response in zip(probes, responses):
                record_outcome(response is not None)
                if wants_probe:
                    events.emit(ProbeSent(
                        probe.dst, probe.ttl, protocol, probe.flow_id, phase,
                        response is not None,
                        None if response is None else response.kind._value_,
                        None if response is None else response.source))
            if events:
                if not wants_probe:
                    events.tally(ProbeSent, len(probes))
                if events.wants(ProbeBatchSent):
                    events.emit(
                        ProbeBatchSent(size=len(probes), phase=phase))
                else:
                    events.tally(ProbeBatchSent)
        if charge_error is not None:
            raise charge_error
        return responses

    def _note_retry(self, dst: int, ttl: int, attempt: int,
                    phase: Optional[str]) -> None:
        events = self.events
        if events:
            if events.wants(ProbeRetried):
                events.emit(ProbeRetried(
                    dst=dst, ttl=ttl, attempt=attempt, phase=phase))
            else:
                events.tally(ProbeRetried)

    def backoff(self, ticks: int) -> None:
        """Idle the transport clock between retry attempts (no probes).

        Also used by the hop pipeline before re-validating a contradicted
        hop — transient churn (reconvergence) gets a beat to settle.
        """
        if ticks <= 0:
            return
        idle = getattr(self.transport, "idle", None)
        if idle is not None:
            idle(ticks)

    def direct_probe(self, dst: int, phase: Optional[str] = None
                     ) -> Optional[Response]:
        """Direct probing (Section 3.1(i)): a large-enough TTL, alive test."""
        return self.probe(dst, DEFAULT_TTL, phase=phase)

    def indirect_probe(self, dst: int, ttl: int, phase: Optional[str] = None,
                       flow_id: Optional[int] = None) -> Optional[Response]:
        """Indirect probing (Section 3.1(ii)): TTL-scoped discovery."""
        if ttl >= DEFAULT_TTL:
            raise ValueError("indirect probes need a small TTL")
        return self.probe(dst, ttl, phase=phase, flow_id=flow_id)

    def _send_once(self, dst: int, ttl: int, phase: Optional[str],
                   flow_id: Optional[int]) -> Optional[Response]:
        if self.budget is not None:
            self.budget.charge()
        self.stats.record_sent(phase)
        probe = Probe(
            src=self.vantage_address,
            dst=dst,
            ttl=ttl,
            protocol=self.protocol,
            flow_id=self.flow_id if flow_id is None else flow_id,
        )
        response = self.transport.send(probe)
        self.stats.record_outcome(response is not None)
        events = self.events
        if events:
            if events.wants(ProbeSent):
                events.emit(ProbeSent(
                    dst, ttl, self.protocol._value_, probe.flow_id, phase,
                    response is not None,
                    None if response is None else response.kind._value_,
                    None if response is None else response.source))
            else:
                events.tally(ProbeSent)
        return response

    # -- measured quantities ---------------------------------------------------

    def is_alive(self, dst: int, phase: Optional[str] = None) -> bool:
        """True when a direct probe proves ``dst`` is in use."""
        response = self.direct_probe(dst, phase=phase)
        return response is not None and response.is_alive_signal

    def measure_distance(self, dst: int, hint: int = 1,
                         phase: Optional[str] = None) -> Optional[int]:
        """The direct hop distance dst(l) of Algorithm 2.

        Starting from ``hint`` (the hop at which the address surfaced), walk
        the TTL forward while probes expire short and backward while they
        still reach, until the minimal reaching TTL is found.  Returns None
        for unresponsive addresses.
        """
        ttl = max(1, min(hint, self.max_ttl))
        response = self.probe(dst, ttl, phase=phase)
        if response is not None and response.is_alive_signal:
            while ttl > 1:
                closer = self.probe(dst, ttl - 1, phase=phase)
                if closer is not None and closer.is_alive_signal:
                    ttl -= 1
                else:
                    break
            return ttl
        if response is not None and response.is_ttl_exceeded:
            while ttl < self.max_ttl:
                ttl += 1
                further = self.probe(dst, ttl, phase=phase)
                if further is not None and further.is_alive_signal:
                    return ttl
                if further is None:
                    return None
            return None
        return None

    # -- bookkeeping -------------------------------------------------------------

    def clear_cache(self) -> None:
        """Forget cached responses (e.g. between independent traces)."""
        self._cache.clear()

    def stats_snapshot(self) -> ProbeStats:
        """A copy of the counters, for per-subnet probe-cost diffs."""
        return self.stats.copy()
