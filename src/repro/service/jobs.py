"""Survey jobs and the durable job queue.

A :class:`SurveyJob` is the unit of work the distributed survey service
accepts: one run description (a :class:`~repro.runspec.RunSpec`, the
same description a probe journal's header records) — one vantage — its
whole target list, and scheduling options (checkpoint cadence, tenant,
re-lease budget).  A job runs under one lease at a time; parallelism
comes from several jobs, for example one per vantage.  Jobs move through
a small state machine::

    queued -> running -> done
       \\         \\
        +---------+--> failed

The :class:`JobQueue` keeps the job table in memory and journals every
submission and state transition to an append-only JSONL file, so a
restarted coordinator rebuilds exactly the queue it crashed with.  Jobs
that were mid-flight (``running``) at the crash are demoted back to
``queued`` by :meth:`JobQueue.recover` — re-scheduling is cheap because
the job resumes from its checkpoint file.

The queue itself is not thread-safe; the coordinator serializes access
under its own lock.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from ..core.exploration import DEFAULT_MIN_PREFIX_LENGTH
from ..probing.stopset import DEFAULT_STOP_PREFIX_LENGTH
from ..runspec import RunSpec


class JobState(str, Enum):
    """Lifecycle of one survey job."""

    QUEUED = "queued"      # accepted, not leased yet
    RUNNING = "running"    # leased (or awaiting a re-lease)
    DONE = "done"          # result available
    FAILED = "failed"      # gave up (see SurveyJob.error)


#: States a job can move to from each state.  ``running`` may fall back
#: to ``queued`` only through crash recovery.
VALID_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.DONE, JobState.FAILED,
                                 JobState.QUEUED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
}

TERMINAL_STATES = (JobState.DONE, JobState.FAILED)


def _job_state(value: str) -> JobState:
    """A journaled state.  Older queues could record ``merging`` between a
    job's last lease and its result; it reads as ``running``, so
    :meth:`JobQueue.recover` demotes it like any mid-flight job."""
    return JobState.RUNNING if value == "merging" else JobState(value)


class InvalidTransition(ValueError):
    """A job was asked to move along an edge the state machine forbids."""


@dataclass
class SurveyJob:
    """One accepted survey: run description + targets + scheduling."""

    job_id: str
    spec: RunSpec
    targets: List[int]
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 25
    tenant: str = "default"
    #: How many times the job may be (re-)leased before it fails.
    max_attempts: int = 3
    state: JobState = JobState.QUEUED
    error: Optional[str] = None

    def to_dict(self) -> Dict:
        """Plain-JSON representation, invertible by :meth:`from_dict`."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.header(),
            "targets": list(self.targets),
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_every": self.checkpoint_every,
            "tenant": self.tenant,
            "max_attempts": self.max_attempts,
            "state": self.state.value,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SurveyJob":
        """Inverse of :meth:`to_dict`.  Queues written when a job split
        into several shards carry a ``"shards"`` count; it is ignored.
        Records whose spec embeds a topology convert through
        :func:`_spec_from_shard_spec`."""
        spec = payload["spec"]
        return cls(
            job_id=payload["job_id"],
            spec=(_spec_from_shard_spec(payload) if "topology" in spec
                  else RunSpec.from_header(spec)),
            targets=list(payload["targets"]),
            checkpoint_dir=payload.get("checkpoint_dir"),
            checkpoint_every=payload.get("checkpoint_every", 25),
            tenant=payload.get("tenant", "default"),
            max_attempts=payload.get("max_attempts", 3),
            state=_job_state(payload.get("state", "queued")),
            error=payload.get("error"),
        )


#: The embedded-topology job spec's fields ``tracenet submit`` set.
_SHARD_SPEC_SET = frozenset({"topology", "policy", "vantage", "batch_window",
                             "use_stop_sets"})

#: The defaults of the fields it never set (None where not listed): a
#: record holding anything else describes a run a RunSpec cannot rebuild.
_SHARD_SPEC_DEFAULTS = {
    "protocol": "icmp", "engine_seed": 0, "policy_seed": 0,
    "ip_id_noise": 8, "path_cache": True, "max_hops": 30,
    "min_prefix_length": DEFAULT_MIN_PREFIX_LENGTH, "explore": True,
    "reuse_subnets": True, "stop_prefix_length": DEFAULT_STOP_PREFIX_LENGTH,
}


def _spec_from_shard_spec(payload: Dict) -> RunSpec:
    """The RunSpec of a job record written when job specs embedded their
    serialized topology: the network and seed come from the record's
    metadata, the vantage and collector options from its spec and the
    shape from its radar config.  Such a job predates the retry gate, so
    its description records no retry rule: it runs retry-once."""
    job_id, old = payload["job_id"], payload["spec"]
    network = (payload.get("metadata") or {}).get("network")
    if network is None:
        raise ValueError(f"job {job_id}: its embedded-topology spec names "
                         f"no network, so it cannot be rebuilt")
    for name, value in sorted(old.items()):
        if name not in _SHARD_SPEC_SET and \
                value != _SHARD_SPEC_DEFAULTS.get(name):
            raise ValueError(f"job {job_id}: its spec sets {name}="
                             f"{value!r}, which a run description "
                             f"cannot express")
    radar = payload.get("radar")
    spec = RunSpec.from_flags(
        "radar" if radar is not None else "survey", network=network,
        seed=payload["metadata"].get("seed"), vantage=old["vantage"],
        batch_window=old.get("batch_window"),
        stop_sets=old.get("use_stop_sets"), **(radar or {}))
    collector = {name: value for name, value in spec.collector.items()
                 if name != "retry"}
    return dataclasses.replace(spec, collector=collector)


class JobQueue:
    """In-memory job table with an append-only JSONL journal.

    Args:
        journal_path: when given, every submission and state transition is
            appended there, and an existing journal is replayed on open —
            the durability contract that lets ``tracenet submit`` and
            ``tracenet serve`` run as separate processes.  ``None`` keeps
            the queue purely in memory (unit tests, inline fleets).
    """

    def __init__(self, journal_path: Optional[str] = None):
        self.journal_path = journal_path
        self.jobs: Dict[str, SurveyJob] = {}
        if journal_path is not None and os.path.exists(journal_path):
            self._replay(journal_path)

    # -- the public queue API -------------------------------------------

    def submit(self, job: SurveyJob) -> SurveyJob:
        """Accept a job (journaled before it becomes visible)."""
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        self._append({"record": "job", "job": job.to_dict()})
        self.jobs[job.job_id] = job
        return job

    def get(self, job_id: str) -> SurveyJob:
        return self.jobs[job_id]

    def queued(self) -> List[SurveyJob]:
        """Jobs awaiting scheduling, in submission order."""
        return [job for job in self.jobs.values()
                if job.state is JobState.QUEUED]

    def unfinished(self) -> List[SurveyJob]:
        """Jobs not yet in a terminal state, in submission order."""
        return [job for job in self.jobs.values()
                if job.state not in TERMINAL_STATES]

    def transition(self, job_id: str, state: JobState,
                   error: Optional[str] = None) -> SurveyJob:
        """Move a job along the state machine (journaled)."""
        job = self.jobs[job_id]
        if state not in VALID_TRANSITIONS[job.state]:
            raise InvalidTransition(
                f"job {job_id}: {job.state.value} -> {state.value}")
        self._append({"record": "state", "job_id": job_id,
                      "state": state.value, "error": error})
        job.state = state
        job.error = error
        return job

    def recover(self) -> List[SurveyJob]:
        """Demote jobs that were mid-flight when the last serve died.

        ``running`` jobs are put back to ``queued`` so the next fleet
        re-schedules them; their checkpoints make the re-run resume
        instead of restart.  Returns the demoted jobs.
        """
        demoted = []
        for job in self.jobs.values():
            if job.state is JobState.RUNNING:
                self.transition(job.job_id, JobState.QUEUED)
                demoted.append(job)
        return demoted

    def next_job_id(self, hint: str = "job") -> str:
        """A fresh sequential job id (``job-0001`` style)."""
        index = len(self.jobs) + 1
        while f"{hint}-{index:04d}" in self.jobs:
            index += 1
        return f"{hint}-{index:04d}"

    # -- journal internals ----------------------------------------------

    def _append(self, record: Dict) -> None:
        if self.journal_path is None:
            return
        parent = os.path.dirname(self.journal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.journal_path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record, sort_keys=True))
            fp.write("\n")
            fp.flush()

    def _replay(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fp:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("record")
                if kind == "job":
                    job = SurveyJob.from_dict(record["job"])
                    self.jobs[job.job_id] = job
                elif kind == "state":
                    job = self.jobs.get(record["job_id"])
                    if job is not None:
                        job.state = _job_state(record["state"])
                        job.error = record.get("error")
                else:
                    raise ValueError(
                        f"unknown job-queue record kind {kind!r}")


__all__ = [
    "InvalidTransition",
    "JobQueue",
    "JobState",
    "SurveyJob",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
]
