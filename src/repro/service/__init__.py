"""The distributed survey service.

The one runtime that distributes surveys: a :class:`Coordinator`
accepts :class:`SurveyJob`s onto a durable :class:`JobQueue` and leases
each job — one vantage's survey of its whole target list — to a fleet of
:class:`VantageWorker`s that stream session events back.  A job is a
:class:`~repro.runspec.RunSpec` plus its targets, and a worker runs it
through ``RunSpec.build`` → ``Run.execute`` like ``tracenet survey``,
so a job's :class:`JobResult` archive is the same bytes a ``tracenet
survey --checkpoint-dir`` run of the scenario writes.  Worker death is
survived by missed-heartbeat reaping, re-leasing, and checkpoint resume.

Layering: the service sits strictly *above* the collector — it imports
:mod:`repro.runspec`, :mod:`repro.events`, :mod:`repro.metrics` and
:mod:`repro.mapping`, and nothing in the sealed core imports it.
"""

from .coordinator import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    Coordinator,
    JobResult,
    Lease,
    LeaseTask,
    StaleLeaseError,
)
from .jobs import (
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    JobQueue,
    JobState,
    SurveyJob,
)
from .worker import (
    DEFAULT_STREAM_EVERY,
    ServiceFleet,
    StreamingEventSink,
    VantageWorker,
    WorkerCrashed,
)

__all__ = [
    "Coordinator",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_STREAM_EVERY",
    "InvalidTransition",
    "JobQueue",
    "JobResult",
    "JobState",
    "Lease",
    "LeaseTask",
    "ServiceFleet",
    "StaleLeaseError",
    "StreamingEventSink",
    "SurveyJob",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "VantageWorker",
    "WorkerCrashed",
]
