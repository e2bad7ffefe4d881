"""The distributed survey service.

The one runtime that shards a survey.  It composes the shard primitives
of :mod:`repro.parallel` into a coordinator/worker service: a
:class:`Coordinator` accepts :class:`SurveyJob`s onto a durable
:class:`JobQueue`, leases shards to a fleet of :class:`VantageWorker`s
that stream session events and incremental metrics snapshots back, and
merges the delivered shards into one :class:`JobResult` whose archive is
equivalent to a serial run.  Worker death is survived by missed-heartbeat
reaping, re-leasing, and per-shard checkpoint resume; discovered subnets
are shared fleet-wide through a
:class:`~repro.mapping.store.SubnetDedupeStore`.

Layering: the service sits strictly *above* the collector — it imports
:mod:`repro.parallel`, :mod:`repro.events`, :mod:`repro.metrics` and
:mod:`repro.mapping`, and nothing in the sealed core imports it.
"""

from .coordinator import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    Coordinator,
    JobResult,
    ShardLease,
    ShardTask,
    StaleLeaseError,
)
from .jobs import (
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    JobQueue,
    JobState,
    SurveyJob,
    shard_attempt_summary,
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
    "ServiceFleet",
    "ShardLease",
    "ShardTask",
    "StaleLeaseError",
    "StreamingEventSink",
    "SurveyJob",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "VantageWorker",
    "WorkerCrashed",
    "shard_attempt_summary",
]
