"""Tests for the distributed survey service (repro.service).

Four layers of coverage:

* protocol units — job state machine, durable queue journal, lease
  fencing, and the checkpoint-aligned event commit log, all driven
  deterministically with a manual clock and no threads;
* the fault-tolerance proof — a real two-worker fleet where one worker
  dies mid-job, asserting the job completes via re-lease + checkpoint
  resume, the archive matches a serial run, and the coordinator's
  streamed registry equals an offline replay of the committed event
  journal (live == replay parity across worker death);
* determinism — a job's archive is a pure function of the job: identical
  jobs give identical bytes on any fleet size, and jobs over different
  networks reproduce their own ``Run.execute``;
* compatibility — queues written when jobs split into several shards,
  when job specs embedded a serialized topology, or when a job could be
  recorded ``merging``, still load and run.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core import TraceNET
from repro.events import replay_events
from repro.mapping import archive_to_dict, archives_equivalent, load_archive
from repro.metrics import registry_from_events, stats_from_events
from repro.netsim import Engine, policy_to_dict, topology_to_dict
from repro.probing import RetryPolicy
from repro.runner import SurveyRunner
from repro.runspec import RunSpec
from repro.service import (
    Coordinator,
    InvalidTransition,
    JobQueue,
    JobState,
    ServiceFleet,
    StaleLeaseError,
    SurveyJob,
    VantageWorker,
)
from repro.topogen import internet2


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:24]


@pytest.fixture(scope="module")
def spec():
    return RunSpec.from_flags("survey", network="internet2", seed=13)


@pytest.fixture(scope="module")
def serial_archive(network, targets):
    return serial_survey(network, targets)


def serial_survey(network, targets, **options):
    tool = TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas", **options)
    runner = SurveyRunner(tool)
    runner.run(targets)
    return runner.archive


def make_job(spec, targets, **overrides):
    options = dict(job_id="job-0001", spec=spec, targets=list(targets))
    options.update(overrides)
    return SurveyJob(**options)


class TestJobQueue:
    def test_state_machine_rejects_invalid_edges(self, spec, targets):
        queue = JobQueue()
        queue.submit(make_job(spec, targets))
        with pytest.raises(InvalidTransition):
            queue.transition("job-0001", JobState.DONE)
        queue.transition("job-0001", JobState.RUNNING)
        queue.transition("job-0001", JobState.DONE)
        with pytest.raises(InvalidTransition):
            queue.transition("job-0001", JobState.FAILED)

    def test_duplicate_job_id_rejected(self, spec, targets):
        queue = JobQueue()
        queue.submit(make_job(spec, targets))
        with pytest.raises(ValueError):
            queue.submit(make_job(spec, targets))

    def test_journal_round_trip(self, spec, targets, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets, checkpoint_every=5,
                              tenant="probe-lab", max_attempts=7))
        queue.transition("job-0001", JobState.RUNNING)
        reopened = JobQueue(path)
        job = reopened.get("job-0001")
        assert job.state is JobState.RUNNING
        assert job.tenant == "probe-lab"
        assert job.max_attempts == 7
        assert job.checkpoint_every == 5
        assert job.targets == list(targets)
        assert job.spec == reopened.get("job-0001").spec

    def test_recover_demotes_mid_flight_jobs(self, spec, targets, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, targets))
        queue.transition("job-0001", JobState.RUNNING)
        reopened = JobQueue(path)
        demoted = reopened.recover()
        assert [job.job_id for job in demoted] == ["job-0001"]
        assert reopened.get("job-0001").state is JobState.QUEUED
        # recovery is journaled too: a third open sees queued directly
        assert JobQueue(path).get("job-0001").state is JobState.QUEUED


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestLeaseProtocol:
    """Deterministic single-thread protocol tests (manual clock)."""

    def make_coordinator(self, spec, targets, tmp_path, **submit_options):
        clock = FakeClock()
        coordinator = Coordinator(work_dir=str(tmp_path / "work"),
                                  heartbeat_timeout=5.0, clock=clock)
        job = coordinator.submit(spec, targets, **submit_options)
        return coordinator, clock, job

    def test_lease_grants_distinct_jobs(self, spec, targets, tmp_path):
        # A job is leased whole, over its whole target list; a second job
        # is the next distinct lease a second worker can take.
        coordinator, _, job = self.make_coordinator(spec, targets, tmp_path)
        other = coordinator.submit(spec, targets)
        first = coordinator.lease("w0")
        second = coordinator.lease("w1")
        assert [first.job_id, second.job_id] == [job.job_id, other.job_id]
        assert first.targets == list(targets)
        assert first.attempt == 1
        assert coordinator.lease("w2") is None
        assert coordinator.queue.get(job.job_id).state is JobState.RUNNING

    def test_reap_requeues_and_fences_the_dead_worker(self, spec, targets,
                                                      tmp_path):
        coordinator, clock, job = self.make_coordinator(
            spec, targets, tmp_path)
        task = coordinator.lease("w0")
        clock.now += 3.0
        coordinator.heartbeat("w0", task.job_id, task.attempt)
        clock.now += 6.0  # beyond the 5s timeout
        expired = coordinator.reap()
        assert [lease.worker_id for lease in expired] == ["w0"]
        # the job is pending again for attempt 2; the old attempt is fenced
        retaken = coordinator.lease("w1")
        assert retaken.job_id == task.job_id
        assert retaken.attempt == 2
        with pytest.raises(StaleLeaseError):
            coordinator.heartbeat("w0", task.job_id, task.attempt)
        with pytest.raises(StaleLeaseError):
            coordinator.fail("w0", task.job_id, task.attempt, "boom")
        with pytest.raises(StaleLeaseError):
            coordinator.stream("w0", task.job_id, task.attempt, [])
        with pytest.raises(StaleLeaseError):
            coordinator.complete("w0", task.job_id, task.attempt, {})
        assert coordinator.queue.get(job.job_id).state is JobState.RUNNING

    def test_exhausted_attempts_fail_the_job(self, spec, targets, tmp_path):
        coordinator, clock, job = self.make_coordinator(
            spec, targets, tmp_path, max_attempts=2)
        for expected_attempt in (1, 2):
            task = coordinator.lease("w0")
            assert task.attempt == expected_attempt
            clock.now += 10.0
            coordinator.reap()
        failed = coordinator.queue.get(job.job_id)
        assert failed.state is JobState.FAILED
        assert "2 attempts" in failed.error
        assert f"{len(targets)} targets" in failed.error
        assert "checkpoint" in failed.error
        assert "shard-0.json" in failed.error

    def test_worker_fail_report_requeues(self, spec, targets, tmp_path):
        coordinator, _, job = self.make_coordinator(spec, targets, tmp_path)
        task = coordinator.lease("w0")
        coordinator.fail("w0", task.job_id, task.attempt, "ValueError: boom")
        retaken = coordinator.lease("w0")
        assert retaken.job_id == task.job_id
        assert retaken.attempt == 2

    def test_stream_commits_only_up_to_checkpoint_marker(self, spec,
                                                         targets, tmp_path):
        coordinator, clock, job = self.make_coordinator(
            spec, targets, tmp_path)
        task = coordinator.lease("w0")
        probe = {"event": "ProbeSent", "dst": 1, "ttl": 1,
                 "protocol": "icmp", "flow_id": 0, "phase": "trace",
                 "answered": True, "response_kind": "ttl-exceeded",
                 "response_source": 2}
        marker = {"event": "CheckpointWritten", "path": "x.json",
                  "completed_targets": 1, "traces": 1}
        coordinator.stream("w0", task.job_id, task.attempt,
                           [probe, marker, probe])
        runtime = coordinator._runtimes[task.job_id]
        assert len(runtime.committed_events) == 2    # probe + marker
        assert runtime.uncommitted == [probe]
        # The commit log annotates every record with the lease that
        # produced it, under a key no event field uses.
        assert [record.pop("lease") for record in
                runtime.committed_events] == [task.attempt] * 2
        assert runtime.committed_events == [probe, marker]
        # lease expiry discards the uncommitted tail
        clock.now += 10.0
        coordinator.reap()
        assert runtime.uncommitted == []
        assert len(runtime.committed_events) == 2

    def test_stream_cut_lands_after_marker_in_later_batch(self, spec,
                                                          targets, tmp_path):
        coordinator, _, _ = self.make_coordinator(spec, targets, tmp_path)
        task = coordinator.lease("w0")
        probes = [{"event": "ProbeSent", "dst": 1, "ttl": ttl,
                   "protocol": "icmp", "flow_id": 0, "phase": "trace",
                   "answered": True, "response_kind": "ttl-exceeded",
                   "response_source": 2} for ttl in range(1, 6)]
        marker = {"event": "CheckpointWritten", "path": "x.json",
                  "completed_targets": 1, "traces": 1}

        def stream(batch):
            coordinator.stream("w0", task.job_id, task.attempt, batch)

        runtime = coordinator._runtimes[task.job_id]
        # A marker-less batch stays pending in full.
        stream(probes[:3])
        assert runtime.committed_events == []
        assert len(runtime.uncommitted) == 3
        # The next batch's mid-batch marker commits everything up to and
        # including it: the three pending probes, one new probe, the marker.
        stream([probes[3], marker, probes[4]])
        assert [record["event"] for record in runtime.committed_events] == \
            ["ProbeSent"] * 4 + ["CheckpointWritten"]
        assert [record["ttl"] for record in runtime.uncommitted] == [5]


class TestServiceEndToEnd:
    def run_fleet(self, spec, targets, tmp_path, fail_after=None,
                  heartbeat_timeout=1.5):
        queue = JobQueue(str(tmp_path / "queue.jsonl"))
        coordinator = Coordinator(queue=queue,
                                  work_dir=str(tmp_path / "work"),
                                  heartbeat_timeout=heartbeat_timeout)
        job = coordinator.submit(spec, targets, checkpoint_every=3)
        workers = [
            VantageWorker("w0", coordinator, stream_every=8,
                          fail_after_targets=fail_after),
            VantageWorker("w1", coordinator, stream_every=8),
        ]
        ServiceFleet(coordinator, workers).run(reap_interval=0.05,
                                               timeout=120.0)
        return coordinator, job, workers

    def test_healthy_fleet_matches_serial(self, spec, targets, tmp_path,
                                          serial_archive):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        assert coordinator.queue.get(job.job_id).state is JobState.DONE
        result = coordinator.result(job.job_id)
        assert archive_to_dict(result.archive) == \
            archive_to_dict(serial_archive)
        assert result.attempts == 1
        assert result.stats.sent > 0
        # The coordinator's streamed registry totals the job.
        assert result.metrics.value("probes_sent_total") == result.stats.sent
        assert result.metrics.value("traces_finished_total") == len(targets)

    def test_worker_death_survived_with_parity(self, spec, targets,
                                               tmp_path, serial_archive):
        """The PR's fault-tolerance proof.

        Worker w0 dies silently mid-job.  The coordinator must detect it
        by missed heartbeats, re-lease the job, and the successor must
        resume from the job's checkpoint — ending with (a) an archive
        equivalent to the serial run and (b) a streamed registry
        equal to an offline replay of the committed event journal.
        """
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path,
                                                   fail_after=4)
        assert workers[0].crashed
        job = coordinator.queue.get(job.job_id)
        assert job.state is JobState.DONE, job.error
        result = coordinator.result(job.job_id)
        assert result.attempts > 1, "expected a re-lease"
        assert archives_equivalent(serial_archive, result.archive)
        # live == replay parity over the committed event journal
        replayed = registry_from_events(
            replay_events(result.events_path), audit=False)
        assert result.metrics.snapshot() == replayed.snapshot()
        # the offline analytics entry point agrees too (tracenet stats)
        offline = stats_from_events(result.events_path)
        assert offline.registry.snapshot() == result.metrics.snapshot()
        # no economy violations slipped in through the resume path
        counters = result.metrics.snapshot().get("counters", {})
        assert counters.get("overhead_violations_total", 0) == 0

    def test_durable_queue_survives_serve_restart(self, spec, targets,
                                                  tmp_path):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        reopened = JobQueue(str(tmp_path / "queue.jsonl"))
        assert reopened.get(job.job_id).state is JobState.DONE

    def test_event_journal_is_valid_jsonl(self, spec, targets, tmp_path):
        coordinator, job, workers = self.run_fleet(spec, targets, tmp_path)
        result = coordinator.result(job.job_id)
        assert os.path.exists(result.events_path)
        with open(result.events_path, "r", encoding="utf-8") as fp:
            lines = [json.loads(line) for line in fp if line.strip()]
        assert lines, "committed journal must not be empty"
        assert all("event" in record for record in lines)
        # the journal is the committed stream: its per-kind totals are
        # exactly the coordinator's live event counts
        journal_counts = {}
        for record in lines:
            journal_counts[record["event"]] = journal_counts.get(
                record["event"], 0) + 1
        assert journal_counts == dict(result.event_counts)


def drain(coordinator, workers):
    fleet = [VantageWorker(f"w{index}", coordinator)
             for index in range(workers)]
    ServiceFleet(coordinator, fleet).run(reap_interval=0.05, timeout=120.0)


class TestJobDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_jobs_give_identical_bytes(self, spec, targets,
                                                 tmp_path, serial_archive,
                                                 workers):
        """No job sees another job's discoveries, and no fleet size
        changes what a job probes."""
        coordinator = Coordinator(work_dir=str(tmp_path / "work"))
        jobs = [coordinator.submit(spec, targets) for _ in range(2)]
        drain(coordinator, workers)
        results = [coordinator.result(job.job_id) for job in jobs]
        payloads = [archive_to_dict(result.archive) for result in results]
        assert payloads[0] == payloads[1] == archive_to_dict(serial_archive)
        assert results[0].stats.sent == results[1].stats.sent

    def test_named_network_jobs_reproduce_their_own_runs(self, tmp_path):
        """Three jobs over two networks and two seeds, drained by 2
        workers: each job's archive is the bytes its own ``Run.execute``
        collects."""
        specs = [RunSpec("survey", network=network, seed=seed,
                         vantage="utdallas", limit=24)
                 for network, seed in (("internet2", 7), ("geant", 7),
                                       ("internet2", 13))]
        coordinator = Coordinator(work_dir=str(tmp_path / "work"))
        jobs = [coordinator.submit(spec, spec.targets(spec.load_network()))
                for spec in specs]
        drain(coordinator, 2)
        for spec, job in zip(specs, jobs):
            run = spec.build()
            archive = run.execute()
            result = coordinator.result(job.job_id)
            assert archive_to_dict(result.archive) == \
                archive_to_dict(archive), (spec.network, spec.seed)
            assert result.stats.sent == run.tool.prober.stats.sent


class TestQueueRecords:
    def test_job_record_holds_no_topology(self, tmp_path):
        """A job's queue line is its run description and target list: a
        full GEANT seed-7 job stays under 10 KB."""
        spec = RunSpec("survey", network="geant", seed=7, vantage="utdallas")
        path = str(tmp_path / "queue.jsonl")
        queue = JobQueue(path)
        queue.submit(make_job(spec, spec.targets(spec.load_network())))
        with open(path, "rb") as fp:
            line = fp.readline()
        assert b'"topology"' not in line
        assert len(line) < 10_000
        assert JobQueue(path).get("job-0001").spec == spec

class TestOldQueues:
    def test_queue_with_shard_counts_loads_and_runs(self, spec, targets,
                                                    tmp_path,
                                                    serial_archive, capsys):
        """A queue journal from when a job split into several shards: its
        ``"shards"`` count is ignored and its unfinished job runs."""
        job = make_job(spec, targets).to_dict()
        job["shards"] = 3
        records = [{"record": "job", "job": job},
                   {"record": "state", "job_id": "job-0001",
                    "state": "running", "error": None}]
        (tmp_path / "queue.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records))
        assert main(["serve", "--queue", str(tmp_path),
                     "--workers", "1"]) == 0
        assert JobQueue(str(tmp_path / "queue.jsonl")).get(
            "job-0001").state is JobState.DONE
        archive = load_archive(str(tmp_path / "job-0001" / "archive.json"))
        assert archive_to_dict(archive) == archive_to_dict(serial_archive)
        capsys.readouterr()
        assert main(["jobs", "--queue", str(tmp_path)]) == 0
        assert "job-0001  done" in capsys.readouterr().out

    def test_job_record_without_retry_rule_runs_retry_once(self, spec,
                                                          targets):
        """Job records written before the retry gate carry no rule; they
        run the paper's retry of every silence, as they did then."""
        job = make_job(spec, targets).to_dict()
        assert job["spec"]["collector"].pop("retry") == "gated"
        old = SurveyJob.from_dict(job).spec
        assert old.tool_kwargs()["retries"] == RetryPolicy(gated=False)
        assert spec.tool_kwargs()["retries"] == RetryPolicy()

    def test_merging_state_record_recovers_and_serves(
            self, spec, targets, tmp_path, serial_archive):
        """A queue journal that recorded the ``merging`` state (between a
        job's last lease and its result) when the serve died: the job
        loads as mid-flight, recovery demotes it to queued, and it serves
        to done."""
        records = [{"record": "job", "job": make_job(spec, targets).to_dict()},
                   {"record": "state", "job_id": "job-0001",
                    "state": "running", "error": None},
                   {"record": "state", "job_id": "job-0001",
                    "state": "merging", "error": None}]
        path = tmp_path / "queue.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in records))
        queue = JobQueue(str(path))
        assert queue.get("job-0001").state is JobState.RUNNING
        assert [job.job_id for job in queue.recover()] == ["job-0001"]
        assert queue.get("job-0001").state is JobState.QUEUED
        assert main(["serve", "--queue", str(tmp_path),
                     "--workers", "1"]) == 0
        assert JobQueue(str(path)).get("job-0001").state is JobState.DONE
        archive = load_archive(str(tmp_path / "job-0001" / "archive.json"))
        assert archive_to_dict(archive) == archive_to_dict(serial_archive)

    def _embedded_topology_queue(self, network, targets, tmp_path,
                                 metadata, radar=None, **spec_fields):
        """A queue journal as written when a job's spec embedded its
        serialized topology and policy."""
        spec = {"topology": topology_to_dict(network.topology),
                "policy": policy_to_dict(network.policy),
                "vantage": "utdallas", "protocol": "icmp",
                "engine_seed": 0, "policy_seed": 0, "ip_id_noise": 8,
                "path_cache": True, "max_hops": 30, "min_prefix_length": 20,
                "explore": True, "reuse_subnets": True, "batch_window": 0,
                "use_stop_sets": False, "stop_prefix_length": 28,
                "seed_stop_set": None, **spec_fields}
        job = {"job_id": "job-0001", "spec": spec, "targets": list(targets),
               "checkpoint_dir": None, "checkpoint_every": 25,
               "tenant": "default", "max_attempts": 3, "state": "queued",
               "error": None, "metadata": metadata, "radar": radar}
        (tmp_path / "queue.jsonl").write_text(
            json.dumps({"record": "job", "job": job}) + "\n")

    def test_embedded_topology_job_serves_like_survey(self, network,
                                                      tmp_path, capsys):
        """The job records no retry rule, so it runs the paper's retry of
        every silence: the bytes of that serial survey, the map of
        ``tracenet survey``."""
        service = tmp_path / "service"
        service.mkdir()
        targets = internet2.targets(network, seed=13)
        self._embedded_topology_queue(network, targets, service,
                                      {"network": "internet2", "seed": 13})
        job = JobQueue(str(service / "queue.jsonl")).get("job-0001")
        assert job.spec == RunSpec("survey", network="internet2", seed=13,
                                   vantage="utdallas")
        assert job.targets == targets
        assert main(["serve", "--queue", str(service),
                     "--workers", "1"]) == 0
        serial = tmp_path / "serial"
        assert main(["survey", "--network", "internet2", "--seed", "13",
                     "--checkpoint-dir", str(serial)]) == 0
        capsys.readouterr()
        archive = load_archive(str(service / "job-0001" / "archive.json"))
        assert archive_to_dict(archive) == archive_to_dict(serial_survey(
            network, targets, retries=RetryPolicy(gated=False)))
        assert archives_equivalent(
            archive, load_archive(str(serial / "shard-0.json")))

    def test_embedded_topology_radar_job_converts(self, network, targets,
                                                  tmp_path):
        radar = RunSpec.from_flags("radar", drop_rate=0.05).radar
        self._embedded_topology_queue(network, targets, tmp_path,
                                      {"network": "geant", "seed": 7},
                                      radar=radar, batch_window=4)
        job = JobQueue(str(tmp_path / "queue.jsonl")).get("job-0001")
        assert job.spec == RunSpec("radar", network="geant", seed=7,
                                   vantage="utdallas", radar=radar,
                                   collector={"batch_window": 4})

    @pytest.mark.parametrize("metadata, spec_fields, complaint", [
        ({}, {}, "names no network"),
        ({"network": "internet2", "seed": 13}, {"max_hops": 20},
         "max_hops=20"),
        ({"network": "internet2", "seed": 13},
         {"seed_stop_set": {"prefix_length": 28, "paths": {}}},
         "seed_stop_set="),
    ], ids=["no-network", "non-default-field", "seeded-stop-set"])
    def test_unconvertible_embedded_topology_job_is_named(
            self, network, targets, tmp_path, capsys, metadata,
            spec_fields, complaint):
        self._embedded_topology_queue(network, targets, tmp_path, metadata,
                                      **spec_fields)
        capsys.readouterr()
        assert main(["serve", "--queue", str(tmp_path)]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert "job job-0001" in error and complaint in error
