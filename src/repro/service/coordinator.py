"""The survey coordinator: leases, heartbeats, streaming, fault recovery.

The coordinator is the long-running brain of the distributed survey
service.  It owns the :class:`~repro.service.jobs.JobQueue` and hands each
accepted job — one vantage's survey of its whole target list — to a
vantage worker as a **lease**, the service's only unit of work.
Parallelism comes from several jobs (one per vantage, say) leased to
different workers; a job's result is a pure function of the job,
independent of the queue's history and the fleet's size.  Everything a
worker does flows back through four calls — :meth:`Coordinator.lease`,
:meth:`Coordinator.heartbeat`, :meth:`Coordinator.stream` and
:meth:`Coordinator.complete`/:meth:`Coordinator.fail` — each of which is
**fenced**: the call must present the lease's worker id and attempt
number, so a worker that was declared dead and re-leased cannot corrupt
the job when it comes back from a long GC pause (its calls raise
:class:`StaleLeaseError` and it abandons the job).

Fault tolerance is heartbeat-driven: workers heartbeat on every survey
target, :meth:`Coordinator.reap` expires leases whose heartbeat is older
than ``heartbeat_timeout`` and marks the job pending again for lease
``attempt + 1``.  The next worker to lease it resumes from the job's
checkpoint file (the ordinary :class:`~repro.runner.SurveyRunner` resume
path), so re-delivery costs only the targets since the last checkpoint.
A job whose leases exceed ``SurveyJob.max_attempts`` fails with an error
naming its target count and its checkpoint.

**Event streaming and the commit log.**  Workers stream serialized
session events in order.  The coordinator treats
:class:`~repro.events.CheckpointWritten` markers as commit points: events
up to the last marker in the stream are *committed* — appended to the
job's event journal with a ``"lease": N`` annotation, fed through the
coordinator's own :class:`~repro.metrics.MetricsSink` and probe-economy
auditor — while the tail stays pending.  When a lease completes, its
remaining tail commits; when it expires, the tail is discarded.  The
committed stream therefore describes exactly the *effective* execution
(work whose results survive in some checkpoint or payload), with no
duplicates and no holes: a crashed lease's committed targets are
precisely the ones its successor skips on resume.  Live streamed totals
and an offline replay of the job journal
(:func:`repro.metrics.registry_from_events`) agree by construction — the
live == replay parity contract, preserved across worker death.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, IO, List, Optional, Sequence

from ..events import (
    CheckpointWritten,
    CounterSink,
    EventBus,
    event_from_dict,
    event_to_dict,
)
from ..mapping.store import CollectionArchive, archive_from_dict
from ..metrics import MetricsRegistry, MetricsSink, ProbeEconomyAuditor
from ..probing.budget import ProbeStats
from ..probing.stopset import StopSet
from ..runner import CHECKPOINT_FILENAME
from ..runspec import RunSpec
from ..tracing import Span
from ..tracing.service import LEASE_KEY, ServiceSpanAssembler
from .jobs import JobQueue, JobState, SurveyJob

#: Leases whose heartbeat is older than this many seconds are reaped.
DEFAULT_HEARTBEAT_TIMEOUT = 5.0


class StaleLeaseError(RuntimeError):
    """A worker acted on a lease the coordinator no longer recognizes.

    Raised on heartbeat/stream/complete/fail calls whose (worker, attempt)
    no longer holds the job — the fencing that keeps a worker presumed
    dead (and already replaced) from corrupting the job if it wakes up.
    The worker's correct response is to abandon the job silently.
    """


@dataclass
class Lease:
    """One job currently delegated to one worker."""

    job_id: str
    worker_id: str
    attempt: int
    leased_at: float
    last_heartbeat: float


@dataclass
class LeaseTask:
    """What a worker receives when a lease is granted."""

    job_id: str
    attempt: int
    spec: RunSpec
    targets: List[int]
    checkpoint_path: Optional[str]
    checkpoint_every: int


@dataclass
class JobResult:
    """The outcome of one finished job: the completing lease's archive,
    probe counters and stop set, plus the coordinator's view of the
    committed event stream."""

    job: SurveyJob
    archive: CollectionArchive
    stats: ProbeStats
    #: The coordinator's streamed registry: a pure function of the
    #: committed event stream, equal to an offline replay of
    #: ``events_path`` — *not* a registry of the job payload, which
    #: covers only the lease that completed (work lost to worker deaths
    #: appears here, in the committed stream, but in no payload).
    metrics: MetricsRegistry
    stop_set: Optional[StopSet]
    #: Leases granted (a value > 1 means a re-lease).
    attempts: int
    event_counts: Dict[str, int]
    events_path: Optional[str] = None
    #: Job → lease → trace span tree assembled from the committed stream;
    #: its deterministic serialization equals
    #: ``span_tree_from_journal(events_path)`` (lease stamps are timing
    #: plane only).
    spans: Optional[Span] = None
    #: The completing worker's own timed span tree (dict form; worker
    #: clocks share no timebase with the coordinator's).
    worker_spans: Optional[Dict] = None
    #: Radar-job round summary + per-round archive diffs
    #: (``RadarResult.to_dict()``); None for ordinary survey jobs.
    radar: Optional[Dict] = None


class _JobRuntime:
    """Coordinator-internal live state of one running job."""

    def __init__(self, job: SurveyJob, events_path: Optional[str],
                 clock=time.monotonic):
        self.job = job
        self.clock = clock
        #: True while the job awaits a (re-)lease.
        self.pending = True
        self.lease: Optional[Lease] = None
        #: Leases granted so far; the current lease's attempt number.
        self.attempts = 0
        #: The current lease's streamed events past its last commit point.
        self.uncommitted: List[Dict] = []
        self.events_path = events_path
        self._events_fp: Optional[IO] = None
        self.committed_events: List[Dict] = []
        # The coordinator-side event pipeline: metrics sink + counter sink
        # + journal writer + ONE auditor for the whole job (the worker
        # runs no auditor, so violations are judged centrally, once).
        self.registry = MetricsRegistry()
        self.bus = EventBus()
        self.bus.subscribe(MetricsSink(self.registry))
        self.counter = CounterSink()
        self.bus.subscribe(self.counter)
        self.bus.subscribe(self._journal_sink)
        # The job span tree, fed in journal order (the deterministic-plane
        # twin of the committed event journal).  Lease lifecycle stamps
        # (timing plane) are applied by the coordinator's lease/complete/
        # reap paths; the root's wall-clock extent is stamped manually so
        # the lease *children* stay untimed on the coordinator side — the
        # worker's own clocked tree rides in the job payload instead.
        self.spans = ServiceSpanAssembler()
        self.spans.root.start = clock()
        #: The lease number of the batch being committed.
        self._committing: Optional[int] = None
        self.bus.subscribe(self._span_sink)
        self.auditor = ProbeEconomyAuditor(self.bus)
        self.bus.subscribe(self.auditor)

    def _span_sink(self, event) -> None:
        if self._committing is not None:
            self.spans.feed_event(event, self._committing)

    def _journal_sink(self, event) -> None:
        payload = event_to_dict(event)
        if self._committing is not None:
            payload[LEASE_KEY] = self._committing
        self.committed_events.append(payload)
        if self.events_path is None:
            return
        if self._events_fp is None:
            parent = os.path.dirname(self.events_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._events_fp = open(self.events_path, "w", encoding="utf-8")
        self._events_fp.write(json.dumps(payload, sort_keys=True))
        self._events_fp.write("\n")

    def commit(self, attempt: int, payloads: Sequence[Dict]) -> None:
        """Feed one lease's committed events through the pipeline.

        ``_committing`` carries the lease number through the dispatch: the
        journal sink writes it as each record's ``lease`` annotation and
        the span sink demuxes on it — including for events the
        *coordinator* originates mid-dispatch (the auditor's nested
        :class:`~repro.events.OverheadViolation` re-emits), which take
        the lease of the committed event that triggered them.
        """
        self._committing = attempt
        try:
            for payload in payloads:
                self.bus.emit(event_from_dict(payload))
        finally:
            self._committing = None
        if self._events_fp is not None:
            self._events_fp.flush()

    def release(self, end: float) -> List[Dict]:
        """End the current lease at ``end``; return its uncommitted tail."""
        self.spans.stamp(self.lease.attempt, end=end)
        tail, self.lease, self.uncommitted = self.uncommitted, None, []
        return tail

    def close(self) -> None:
        if self._events_fp is not None:
            self._events_fp.close()
            self._events_fp = None


class Coordinator:
    """Accepts survey jobs and drives a fleet of vantage workers.

    Args:
        queue: the (possibly journal-backed) job queue; a fresh in-memory
            queue by default.  Mid-flight jobs found in a durable queue
            are demoted back to ``queued`` (crash recovery).
        work_dir: when set, per-job artifacts land under
            ``<work_dir>/<job_id>/`` — the job's checkpoint (unless the
            job names its own directory) and the committed event journal.
        heartbeat_timeout: seconds without a heartbeat before a lease is
            considered dead and its job re-leased.
        clock: injectable monotonic clock (tests).
    """

    def __init__(self, queue: Optional[JobQueue] = None,
                 work_dir: Optional[str] = None,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 clock=time.monotonic):
        self.queue = queue if queue is not None else JobQueue()
        self.work_dir = work_dir
        self.heartbeat_timeout = heartbeat_timeout
        self.clock = clock
        self._lock = threading.RLock()
        self._runtimes: Dict[str, _JobRuntime] = {}
        self._results: Dict[str, JobResult] = {}
        self.queue.recover()

    # -- job intake ------------------------------------------------------

    def submit(self, spec: RunSpec, targets: Sequence[int],
               checkpoint_dir: Optional[str] = None,
               checkpoint_every: int = 25, tenant: str = "default",
               max_attempts: int = 3,
               job_id: Optional[str] = None) -> SurveyJob:
        """Accept one survey job; returns it in ``queued`` state."""
        with self._lock:
            job = SurveyJob(
                job_id=job_id or self.queue.next_job_id(),
                spec=spec,
                targets=list(targets),
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                tenant=tenant,
                max_attempts=max_attempts,
            )
            return self.queue.submit(job)

    def jobs(self) -> List[SurveyJob]:
        with self._lock:
            return list(self.queue.jobs.values())

    def unfinished(self) -> bool:
        """True while any job still needs scheduling or work."""
        with self._lock:
            return bool(self.queue.unfinished())

    def result(self, job_id: str) -> JobResult:
        """The result of a ``done`` job (KeyError otherwise)."""
        with self._lock:
            return self._results[job_id]

    def health_registry(self) -> MetricsRegistry:
        """Fleet health telemetry as a Prometheus-renderable registry.

        A point-in-time operational surface, rebuilt per call: job counts
        by state, queue depth, active lease count, and per-lease age /
        heartbeat lag (the reap predictor: a lag approaching
        ``heartbeat_timeout`` is a worker about to be declared dead).
        Operational, not archival — nothing here participates in the
        replay-parity contract.
        """
        registry = MetricsRegistry()
        registry.describe("service_jobs", "Jobs by lifecycle state")
        registry.describe("service_queue_depth",
                          "Jobs accepted but not yet activated")
        registry.describe("service_leases_active",
                          "Leases currently held by workers")
        registry.describe("service_lease_age_seconds",
                          "Seconds since each active lease was granted")
        registry.describe("service_heartbeat_lag_seconds",
                          "Seconds since each active lease last heartbeat")
        now = self.clock()
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self.queue.jobs.values():
                counts[job.state.value] = counts.get(job.state.value, 0) + 1
            for state in JobState:
                registry.set_gauge("service_jobs",
                                   counts.get(state.value, 0),
                                   state=state.value)
            registry.set_gauge("service_queue_depth",
                               len(self.queue.queued()))
            active = 0
            for job_id, runtime in self._runtimes.items():
                lease = runtime.lease
                if lease is None:
                    continue
                active += 1
                registry.set_gauge("service_lease_age_seconds",
                                   max(0.0, now - lease.leased_at),
                                   job=job_id)
                registry.set_gauge("service_heartbeat_lag_seconds",
                                   max(0.0, now - lease.last_heartbeat),
                                   job=job_id)
            registry.set_gauge("service_leases_active", active)
        return registry

    # -- the worker-facing API -------------------------------------------

    def lease(self, worker_id: str) -> Optional[LeaseTask]:
        """Grant the next pending job to ``worker_id`` (None when idle).

        Prefers re-leasing already-running jobs (FIFO by submission);
        activates the next queued job only when nothing is pending.
        """
        with self._lock:
            runtime = self._next_pending_runtime()
            if runtime is None:
                return None
            job = runtime.job
            runtime.pending = False
            runtime.attempts += 1
            now = self.clock()
            runtime.lease = Lease(
                job_id=job.job_id,
                worker_id=worker_id,
                attempt=runtime.attempts,
                leased_at=now,
                last_heartbeat=now,
            )
            runtime.spans.stamp(runtime.attempts, start=now)
            return LeaseTask(
                job_id=job.job_id,
                attempt=runtime.attempts,
                spec=job.spec,
                targets=list(job.targets),
                checkpoint_path=self._checkpoint_path(job),
                checkpoint_every=job.checkpoint_every,
            )

    def heartbeat(self, worker_id: str, job_id: str, attempt: int) -> None:
        """Refresh a lease (fenced; raises :class:`StaleLeaseError`)."""
        with self._lock:
            lease = self._check_lease(worker_id, job_id, attempt)
            lease.last_heartbeat = self.clock()

    def stream(self, worker_id: str, job_id: str, attempt: int,
               events: Sequence[Dict]) -> None:
        """Ingest a batch of streamed events.

        Events accumulate per lease; everything up to (and including) the
        last :class:`CheckpointWritten` marker in the accumulated stream
        commits immediately — the marker proves the corresponding results
        are durable in the job's checkpoint, so a later crash cannot
        invalidate them.  The tail past the last marker stays pending
        until the lease completes (commit) or expires (discard).
        """
        with self._lock:
            lease = self._check_lease(worker_id, job_id, attempt)
            lease.last_heartbeat = self.clock()
            runtime = self._runtimes[job_id]
            buffer = runtime.uncommitted
            # The pending tail holds no marker (it would have committed),
            # so only the new records need scanning.
            scanned = len(buffer)
            buffer.extend(events)
            cut = _last_checkpoint_marker(buffer, start=scanned)
            if cut is not None:
                runtime.commit(attempt, buffer[:cut + 1])
                del buffer[:cut + 1]

    def complete(self, worker_id: str, job_id: str, attempt: int,
                 payload: Dict) -> None:
        """Accept a finished lease's payload (fenced) and finish the job."""
        with self._lock:
            self._check_lease(worker_id, job_id, attempt)
            runtime = self._runtimes[job_id]
            runtime.commit(attempt, runtime.release(end=self.clock()))
            self._finish(runtime, payload)

    def fail(self, worker_id: str, job_id: str, attempt: int,
             error: str) -> None:
        """A worker reports a job exception: requeue or fail the job."""
        with self._lock:
            self._check_lease(worker_id, job_id, attempt)
            runtime = self._runtimes[job_id]
            runtime.release(end=self.clock())
            self._requeue_or_fail(runtime, error)

    def reap(self, now: Optional[float] = None) -> List[Lease]:
        """Expire leases with missed heartbeats; re-lease their jobs.

        Returns the expired leases.  Call this from the fleet loop (or a
        monitor thread) at a cadence well below ``heartbeat_timeout``.
        """
        now = self.clock() if now is None else now
        expired: List[Lease] = []
        with self._lock:
            for runtime in list(self._runtimes.values()):
                lease = runtime.lease
                if runtime.job.state is not JobState.RUNNING \
                        or lease is None \
                        or now - lease.last_heartbeat < self.heartbeat_timeout:
                    continue
                expired.append(lease)
                # Discard the lease's uncommitted tail: its results never
                # reached a checkpoint, so the re-leased run re-executes
                # (and re-streams) those targets.
                runtime.release(end=now)
                self._requeue_or_fail(
                    runtime,
                    f"worker {lease.worker_id!r} missed heartbeats "
                    f"(attempt {lease.attempt})")
        return expired

    def abort_unfinished(self, reason: str) -> List[SurveyJob]:
        """Fail every non-terminal job (fleet shutdown with work left)."""
        aborted = []
        with self._lock:
            for job in self.queue.unfinished():
                runtime = self._runtimes.get(job.job_id)
                if runtime is not None:
                    runtime.close()
                self.queue.transition(job.job_id, JobState.FAILED,
                                      error=reason)
                aborted.append(job)
        return aborted

    # -- internals -------------------------------------------------------

    def _next_pending_runtime(self) -> Optional[_JobRuntime]:
        for job in self.queue.unfinished():
            runtime = self._runtimes.get(job.job_id)
            if runtime is not None and runtime.pending:
                return runtime
        for job in self.queue.queued():
            return self._activate(job)
        return None

    def _activate(self, job: SurveyJob) -> _JobRuntime:
        events_path = None
        if self.work_dir is not None:
            events_path = os.path.join(self.work_dir, job.job_id,
                                       "events.jsonl")
        runtime = _JobRuntime(job, events_path, clock=self.clock)
        self._runtimes[job.job_id] = runtime
        self.queue.transition(job.job_id, JobState.RUNNING)
        return runtime

    def _checkpoint_path(self, job: SurveyJob) -> Optional[str]:
        directory = job.checkpoint_dir
        if directory is None and self.work_dir is not None:
            # The directory name predates one-lease jobs; keeping it lets
            # an interrupted job in an existing queue resume.
            directory = os.path.join(self.work_dir, job.job_id, "shards")
        if directory is None:
            return None
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, CHECKPOINT_FILENAME)

    def _check_lease(self, worker_id: str, job_id: str,
                     attempt: int) -> Lease:
        runtime = self._runtimes.get(job_id)
        # A job that left RUNNING (aborted/failed) voids its lease.
        lease = (runtime.lease if runtime is not None
                 and runtime.job.state is JobState.RUNNING else None)
        if (lease is None or lease.worker_id != worker_id
                or lease.attempt != attempt):
            raise StaleLeaseError(
                f"worker {worker_id!r} no longer holds job {job_id} "
                f"(attempt {attempt})")
        return lease

    def _requeue_or_fail(self, runtime: _JobRuntime, error: str) -> None:
        job = runtime.job
        if runtime.attempts >= job.max_attempts:
            runtime.close()
            self.queue.transition(
                job.job_id, JobState.FAILED,
                error=(f"exhausted {job.max_attempts} attempts over "
                       f"{len(job.targets)} targets "
                       f"(checkpoint {self._checkpoint_path(job)}): "
                       f"{error}"))
            return
        runtime.pending = True

    def _finish(self, runtime: _JobRuntime, payload: Dict) -> None:
        """Rehydrate the lease's plain payload into the job's result.

        Runs under the coordinator lock, so the job moves from running to
        done without an observable state in between.
        """
        job = runtime.job
        runtime.close()
        spans_root = runtime.spans.finish()
        spans_root.end = self.clock()
        stop_set = payload.get("stop_set")
        self._results[job.job_id] = JobResult(
            job=job,
            archive=archive_from_dict(payload["archive"]),
            stats=ProbeStats.from_snapshot(payload["stats"]),
            metrics=runtime.registry,
            stop_set=(StopSet.from_dict(stop_set)
                      if stop_set is not None else None),
            attempts=runtime.attempts,
            event_counts=dict(runtime.counter.counts),
            events_path=runtime.events_path,
            spans=spans_root,
            worker_spans=payload.get("spans"),
            radar=payload.get("radar"),
        )
        self.queue.transition(job.job_id, JobState.DONE)


def _last_checkpoint_marker(payloads: Sequence[Dict],
                            start: int = 0) -> Optional[int]:
    """Index of the last CheckpointWritten in ``payloads[start:]``."""
    marker = CheckpointWritten.__name__
    for index in range(len(payloads) - 1, start - 1, -1):
        if payloads[index].get("event") == marker:
            return index
    return None


__all__ = [
    "Coordinator",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "JobResult",
    "Lease",
    "LeaseTask",
    "StaleLeaseError",
]
