"""Vantage workers: the probing half of the distributed survey service.

A :class:`VantageWorker` is one measurement vantage in the fleet.  Its
loop is deliberately dumb — everything stateful lives in the coordinator:

1. ask the coordinator for a lease on a job;
2. build the run the leased :class:`~repro.runspec.RunSpec` describes
   over the job's targets — the same ``spec.build(...).execute(...)``
   call ``tracenet survey``/``tracenet radar`` make, so a job's archive
   is the bytes that command writes;
3. execute it (a checkpointing survey, or radar rounds for a radar
   job), streaming session events back to the coordinator and
   heartbeating on every completed target;
4. deliver the plain job payload; repeat until no work is left.

Workers run as daemon threads under :class:`ServiceFleet`.  Threads (not
processes) because the coordinator protocol is plain method calls and the
deterministic simulator is pure Python — a socketed or multiprocess fleet
would implement the same four coordinator calls over a wire; the lease
fencing (:class:`~repro.service.coordinator.StaleLeaseError`) and the
checkpoint-aligned commit protocol are designed for exactly that.

Worker death is first-class: ``fail_after_targets`` makes a worker raise
:class:`WorkerCrashed` mid-job and die *silently* — no fail() call, no
cleanup — which is how the tests and the CI smoke lane exercise the
missed-heartbeat → re-lease → checkpoint-resume recovery path end to end.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..events import CheckpointWritten, SessionEvent, SurveyProgressed, \
    TraceFinished, event_to_dict
from ..mapping.store import archive_to_dict
from ..tracing import SpanBuilder
from .coordinator import Coordinator, LeaseTask, StaleLeaseError

#: Flush the event stream to the coordinator at least this often.
DEFAULT_STREAM_EVERY = 256


class WorkerCrashed(RuntimeError):
    """Injected worker death (simulates a killed vantage process)."""


class StreamingEventSink:
    """Buffers serialized session events; flushes batches to a callback.

    The worker-side half of the streaming protocol.  Events are serialized
    in emission order; the buffer flushes when it reaches ``every`` events
    and, crucially, on every :class:`CheckpointWritten` — synchronously,
    before the survey proceeds — so the coordinator's commit log always
    holds the events backing any checkpoint that exists on disk.
    """

    #: The flush callback raises StaleLeaseError to fence a dead worker —
    #: control flow, not a sink defect; the bus must not swallow it.
    propagate_errors = True

    def __init__(self, flush: Callable[[List[Dict]], None],
                 every: int = DEFAULT_STREAM_EVERY):
        if every < 1:
            raise ValueError(f"flush cadence must be >= 1, got {every}")
        self._flush = flush
        self.every = every
        self.buffer: List[Dict] = []

    def __call__(self, event: SessionEvent) -> None:
        self.buffer.append(event_to_dict(event))
        if len(self.buffer) >= self.every or isinstance(event,
                                                        CheckpointWritten):
            self.flush()

    def flush(self) -> None:
        if not self.buffer:
            return
        batch, self.buffer = self.buffer, []
        self._flush(batch)


class VantageWorker:
    """One vantage point of the fleet: lease, survey, stream, repeat.

    Args:
        worker_id: stable identity used in leases and logs.
        coordinator: the coordinator this worker serves.
        poll_interval: idle sleep between lease attempts.
        stream_every: event-stream flush cadence (checkpoints always
            flush regardless).
        fail_after_targets: when set, the worker raises
            :class:`WorkerCrashed` after completing this many targets of
            its current job and dies without telling the coordinator —
            fault-injection for the re-lease/resume path.
    """

    def __init__(self, worker_id: str, coordinator: Coordinator,
                 poll_interval: float = 0.02,
                 stream_every: int = DEFAULT_STREAM_EVERY,
                 fail_after_targets: Optional[int] = None):
        self.worker_id = worker_id
        self.coordinator = coordinator
        self.poll_interval = poll_interval
        self.stream_every = stream_every
        self.fail_after_targets = fail_after_targets
        self.crashed = False

    # -- the fleet loop --------------------------------------------------

    def run(self) -> None:
        """Serve until every job is terminal (thread entry point)."""
        while True:
            if self.crashed:
                return
            task = self.coordinator.lease(self.worker_id)
            if task is None:
                if not self.coordinator.unfinished():
                    return
                time.sleep(self.poll_interval)
                continue
            try:
                self._run_task(task)
            except StaleLeaseError:
                # The coordinator gave this job away (we were presumed
                # dead).  Abandon it: the new holder's results win.
                continue
            except WorkerCrashed:
                # Die silently, exactly like a killed process: no fail()
                # report, the lease expires by missed heartbeats.
                self.crashed = True
                return

    # -- one leased job --------------------------------------------------

    def _run_task(self, task: LeaseTask) -> None:
        stream = StreamingEventSink(
            lambda events: self.coordinator.stream(
                self.worker_id, task.job_id, task.attempt, events),
            every=self.stream_every)
        sinks = [stream, self._heartbeat_sink(task)]
        if self.fail_after_targets is not None:
            sinks.append(_CrashAfter(self.fail_after_targets))
        try:
            payload = _execute(task, sinks)
        except (StaleLeaseError, WorkerCrashed):
            raise
        except Exception as exc:
            self.coordinator.fail(self.worker_id, task.job_id, task.attempt,
                                  f"{type(exc).__name__}: {exc}")
            return
        stream.flush()
        self.coordinator.complete(self.worker_id, task.job_id, task.attempt,
                                  payload)

    def _heartbeat_sink(self, task: LeaseTask):
        # Radar jobs run through RadarRunner, which emits no
        # SurveyProgressed/CheckpointWritten — heartbeat per finished
        # trace instead so long radar jobs don't get reaped mid-round.
        kinds = ((SurveyProgressed, CheckpointWritten, TraceFinished)
                 if task.spec.shape == "radar"
                 else (SurveyProgressed, CheckpointWritten))

        def sink(event: SessionEvent) -> None:
            if isinstance(event, kinds):
                self.coordinator.heartbeat(self.worker_id, task.job_id,
                                           task.attempt)
        # StaleLeaseError from a fenced heartbeat is control flow, not a
        # sink defect — it must reach the worker loop.
        sink.propagate_errors = True
        return sink


def _execute(task: LeaseTask, sinks: Sequence) -> Dict:
    """Run one leased job; return its plain payload.

    A radar job's ``archive`` is its final round's map and ``"radar"``
    holds the round summary and diffs.  Radar rounds carry state, so there
    is no checkpoint: recovery re-runs the job, which is deterministic
    in (spec, targets).  Violations are judged and counters kept once,
    centrally, over the job's committed event stream; the payload ships
    only the worker's clocked span tree.
    """
    radar = task.spec.shape == "radar"
    run = task.spec.build(targets=task.targets)
    tracer = SpanBuilder(clock=time.perf_counter, root_kind="job",
                         root_name=task.job_id)
    outcome = run.execute(checkpoint_path=task.checkpoint_path,
                          checkpoint_every=task.checkpoint_every,
                          sinks=sinks, tracer=tracer)
    stop_set = run.tool.stop_set
    return {
        "archive": archive_to_dict(outcome.final_archive if radar
                                   else outcome),
        "stats": run.tool.prober.stats.snapshot(),
        "stop_set": stop_set.to_dict() if stop_set is not None else None,
        "spans": tracer.finish().to_dict(timing=True),
        "radar": outcome.to_dict() if radar else None,
    }


class _CrashAfter:
    """Event sink that kills the worker after N completed targets."""

    #: The injected WorkerCrashed must escape the bus's sink isolation.
    propagate_errors = True

    def __init__(self, targets: int):
        self.targets = targets

    def __call__(self, event: SessionEvent) -> None:
        if isinstance(event, SurveyProgressed) and \
                event.completed >= self.targets:
            raise WorkerCrashed(
                f"injected crash after {event.completed} targets")


class ServiceFleet:
    """Runs a coordinator and its vantage workers on local threads.

    The fleet loop owns liveness: it reaps expired leases at a cadence
    well below the coordinator's heartbeat timeout, aborts cleanly when
    every worker has died with work remaining, and enforces a wall-clock
    timeout so a wedged fleet cannot hang a service (or a CI lane)
    forever.
    """

    def __init__(self, coordinator: Coordinator,
                 workers: Sequence[VantageWorker]):
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        self.coordinator = coordinator
        self.workers = list(workers)

    def run(self, reap_interval: float = 0.05,
            timeout: float = 300.0,
            on_tick: Optional[Callable[[], None]] = None) -> None:
        """Drive the fleet until every job reaches a terminal state.

        ``on_tick`` is invoked once per reap-loop iteration (and once
        after the loop exits) — the hook ``tracenet serve --health-out``
        uses to publish the coordinator's health exposition while the
        fleet runs.
        """
        threads = [
            threading.Thread(target=worker.run, daemon=True,
                             name=f"vantage-{worker.worker_id}")
            for worker in self.workers
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + timeout
        try:
            while self.coordinator.unfinished():
                self.coordinator.reap()
                if on_tick is not None:
                    on_tick()
                if not any(thread.is_alive() for thread in threads):
                    self.coordinator.abort_unfinished(
                        "every worker exited with work remaining")
                    break
                if time.monotonic() > deadline:
                    self.coordinator.abort_unfinished(
                        f"fleet timed out after {timeout:.0f}s")
                    break
                time.sleep(reap_interval)
        finally:
            for thread in threads:
                thread.join(timeout=5.0)
            if on_tick is not None:
                on_tick()


__all__ = [
    "DEFAULT_STREAM_EVERY",
    "ServiceFleet",
    "StreamingEventSink",
    "VantageWorker",
    "WorkerCrashed",
]
