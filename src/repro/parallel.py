"""Shard primitives for the distributed survey service.

The paper's headline experiment traces 34 084 targets from several
vantages under a central scheduler, and every vantage traces the whole
target list.  :mod:`repro.service` is that scheduler: a coordinator leases
each job — one vantage's survey of its whole target list — to a vantage
worker as one shard.  This module holds what a shard *is*, independent of
who runs it:

* :class:`ShardSpec` — one serialized scenario (topology + response
  policy + seeds + collector options).  Every worker rebuilds its private
  :class:`~repro.netsim.engine.Engine` and
  :class:`~repro.core.tracenet.TraceNET` from it, so a shard's results
  depend only on the spec and its targets, never on scheduling;
* :func:`run_shard` — one shard in, one plain payload out (a checkpointing
  survey, or radar rounds when given a radar config);
* :func:`outcome_from_payload` — a payload rehydrated into a typed
  :class:`ShardOutcome`.

A survey shard runs the same :class:`~repro.runner.SurveyRunner` as
``tracenet survey --checkpoint-dir``, so its archive serializes to the
same bytes as that command's ``shard-0.json``.
:func:`archive_signature` defines the map-equality contract (subnets and
traces, probe counts excluded) that resumed and stop-set surveys are held
to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .core.exploration import DEFAULT_MIN_PREFIX_LENGTH
from .core.tracenet import TraceNET
from .events import EventBus
from .mapping.store import (
    CollectionArchive,
    archive_from_dict,
    archive_to_dict,
)
from .netsim.engine import Engine
from .netsim.packet import Protocol
from .netsim.responsiveness import ResponsePolicy
from .netsim.serialize import (
    policy_from_dict,
    policy_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from .netsim.topology import Topology
from .probing.budget import ProbeStats
from .probing.stopset import DEFAULT_STOP_PREFIX_LENGTH, StopSet
from .radar import RadarRunner
from .runner import SurveyRunner
from .runspec import live_transport
from .tracing import SpanBuilder


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its private collector.

    Plain JSON-able payloads only, so the spec crosses process boundaries
    (and could be written next to an experiment) without custom pickling.
    """

    topology: Dict
    policy: Optional[Dict]
    vantage: str
    protocol: str = Protocol.ICMP.value
    engine_seed: int = 0
    policy_seed: int = 0
    ip_id_noise: int = 8
    path_cache: bool = True
    max_hops: int = 30
    min_prefix_length: int = DEFAULT_MIN_PREFIX_LENGTH
    explore: bool = True
    reuse_subnets: bool = True
    #: Probe batching window for each shard's collector (0 = serial loop,
    #: 1 = batch API with a serial-identical stream, > 1 = speculative).
    batch_window: int = 0
    #: Doubletree stop sets: the shard fills one set over its whole target
    #: list and ships it with the result.  Probe-economy-changing.
    use_stop_sets: bool = False
    stop_prefix_length: int = DEFAULT_STOP_PREFIX_LENGTH
    #: Optional serialized :class:`StopSet` seeding the shard (e.g. from
    #: a previous survey's result).
    seed_stop_set: Optional[Dict] = None

    @classmethod
    def from_network(cls, topology: Topology,
                     policy: Optional[ResponsePolicy],
                     vantage: str, **overrides) -> "ShardSpec":
        return cls(
            topology=topology_to_dict(topology),
            policy=policy_to_dict(policy) if policy is not None else None,
            vantage=vantage,
            **overrides,
        )

    def build_tool(self, radar: Optional[Dict] = None) -> TraceNET:
        """Rebuild the collector this spec describes (worker side).

        ``radar`` is a radar-job config dict (``churn_count``,
        ``churn_seed``, ``churn_start``, ``churn_interval``, ``drop_rate``,
        ``fault_seed``): the transport chain is
        :func:`repro.runspec.live_transport`'s, so a radar shard sees the
        loss and churn a CLI radar run with the same config would, and
        every lease attempt replays the identical churn.
        """
        topology = topology_from_dict(self.topology)
        topology.validate()
        policy = (policy_from_dict(self.policy, seed=self.policy_seed)
                  if self.policy is not None else None)
        engine = Engine(topology, policy=policy, seed=self.engine_seed,
                        ip_id_noise=self.ip_id_noise,
                        path_cache=self.path_cache)
        stop_set: Optional[StopSet] = None
        if self.use_stop_sets:
            stop_set = (StopSet.from_dict(self.seed_stop_set)
                        if self.seed_stop_set is not None
                        else StopSet(prefix_length=self.stop_prefix_length))
        events = EventBus()
        transport = live_transport(engine, radar, events)
        return TraceNET(transport, self.vantage,
                        protocol=Protocol(self.protocol),
                        max_hops=self.max_hops,
                        min_prefix_length=self.min_prefix_length,
                        explore=self.explore,
                        reuse_subnets=self.reuse_subnets,
                        batch_window=self.batch_window,
                        stop_set=stop_set,
                        events=events)


def run_shard(spec: ShardSpec, shard_index: int, targets: List[int],
              checkpoint_path: Optional[str] = None,
              checkpoint_every: int = 25,
              sinks: Sequence = (),
              radar: Optional[Dict] = None) -> Dict:
    """Worker entry point: rebuild, survey one shard, return plain dicts.

    * ``sinks`` are extra session-event sinks subscribed before the survey
      starts (service workers stream events to the coordinator this way);
    * ``radar`` is a radar-job config: the collector gets the radar's
      churn/fault transport chain (:meth:`ShardSpec.build_tool`) and a
      :class:`~repro.radar.RadarRunner` drives repeated rounds over the
      whole target list instead of the checkpointing survey.  ``archive`` is
      then the *final* round's map and ``"radar"`` holds the per-round
      summary and diffs.  Radar rounds carry state, so there is no
      checkpoint: fault recovery re-runs the shard, which is
      deterministic in (spec, radar, targets).

    The payload always carries the worker's *timed* span tree under
    ``"spans"``; the deterministic tree and every counter are the
    coordinator's to derive from the committed event stream.
    """
    started = time.perf_counter()
    tool = spec.build_tool(radar=radar)
    tracer = SpanBuilder(clock=time.perf_counter, root_kind="shard",
                         root_name=(f"radar-shard-{shard_index}"
                                    if radar is not None
                                    else f"shard-{shard_index}"),
                         meta={"shard": shard_index})
    tool.events.subscribe(tracer)
    for sink in sinks:
        tool.events.subscribe(sink)
    built = time.perf_counter()
    radar_summary = None
    if radar is not None:
        outcome = RadarRunner(tool, targets,
                              rounds=max(1, radar.get("rounds", 3)),
                              incremental=radar.get("incremental",
                                                    True)).run()
        archive, radar_summary = outcome.final_archive, outcome.to_dict()
    else:
        runner = SurveyRunner(tool, checkpoint_path=checkpoint_path,
                              checkpoint_every=checkpoint_every)
        runner.run(targets)
        archive = runner.archive
    finished = time.perf_counter()
    return {
        "shard": shard_index,
        "archive": archive_to_dict(archive),
        "stats": tool.prober.stats.snapshot(),
        "build_seconds": built - started,
        "survey_seconds": finished - built,
        "stop_set": (tool.stop_set.to_dict()
                     if tool.stop_set is not None else None),
        "spans": tracer.finish().to_dict(timing=True),
        "radar": radar_summary,
    }


def _stats_from_snapshot(snapshot: Dict[str, int]) -> ProbeStats:
    """Inverse of :meth:`ProbeStats.snapshot` (flat dict -> counters)."""
    stats = ProbeStats(
        sent=snapshot.get("sent", 0),
        responses=snapshot.get("responses", 0),
        silent=snapshot.get("silent", 0),
        retries=snapshot.get("retries", 0),
        cache_hits=snapshot.get("cache_hits", 0),
        suppressed=snapshot.get("suppressed", 0),
    )
    for key, count in snapshot.items():
        if key.startswith("phase:"):
            stats.by_phase[key[len("phase:"):]] = count
    return stats


# -- map-equality contract ---------------------------------------------------


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


# -- shard payloads ----------------------------------------------------------


@dataclass
class ShardOutcome:
    """What one shard produced."""

    shard_index: int
    targets: List[int]
    archive: CollectionArchive
    stats: ProbeStats
    build_seconds: float = 0.0
    survey_seconds: float = 0.0
    #: The shard's stop set, deserialized like every other payload field
    #: (None when stop sets were off).
    stop_set: Optional[StopSet] = None
    #: Lease attempt that produced this outcome (1 on the first delivery;
    #: > 1 means the shard was re-leased after a worker death).
    attempt: int = 1
    #: Worker-side timed span tree (``Span.to_dict(timing=True)``), kept
    #: in dict form — worker clocks share no timebase with the caller's.
    spans: Optional[Dict] = None
    #: Radar-job round summary + diffs (``RadarResult.to_dict()``); None
    #: for ordinary survey shards.
    radar: Optional[Dict] = None


def outcome_from_payload(shard_index: int, targets: Sequence[int],
                         payload: Dict, attempt: int = 1) -> ShardOutcome:
    """Rehydrate one :func:`run_shard` payload into a typed outcome.

    Every payload field crosses the service boundary as plain JSON and is
    round-tripped through its own class here: the archive via
    :func:`archive_from_dict`, the counters via :class:`ProbeStats`, and
    the stop set via :meth:`StopSet.from_dict`.
    """
    shard_stop_set = payload.get("stop_set")
    return ShardOutcome(
        shard_index=shard_index,
        targets=list(targets),
        archive=archive_from_dict(payload["archive"]),
        stats=_stats_from_snapshot(payload["stats"]),
        build_seconds=payload.get("build_seconds", 0.0),
        survey_seconds=payload.get("survey_seconds", 0.0),
        stop_set=(StopSet.from_dict(shard_stop_set)
                  if shard_stop_set is not None else None),
        attempt=attempt,
        spans=payload.get("spans"),
        radar=payload.get("radar"),
    )
