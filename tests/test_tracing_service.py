"""Span stitching across the service seam: the distributed parity proof.

The deterministic job span tree the coordinator assembles live at commit
time must equal, bit for bit, the tree ``tracenet spans`` derives from
the committed event journal offline — for a healthy fleet AND across a
killed worker, where the committed tree describes exactly the effective
execution (the crashed lease's span holds only its checkpointed prefix;
the re-lease holds the rest).
"""

import json
from dataclasses import fields

import pytest

from repro.cli import main
from repro.events import EVENT_TYPES, ProbeRetried
from repro.metrics import render_prometheus
from repro.service import (
    Coordinator,
    JobQueue,
    JobState,
    ServiceFleet,
    VantageWorker,
)
from repro.runspec import RunSpec
from repro.topogen import internet2
from repro.tracing import (
    LEASE_KEY,
    Span,
    chrome_trace_for_service,
    span_tree_from_journal,
)


@pytest.fixture(scope="module")
def network():
    return internet2.build(seed=13)


@pytest.fixture(scope="module")
def targets(network):
    return internet2.targets(network, seed=13)[:24]


@pytest.fixture(scope="module")
def spec():
    return RunSpec("survey", network="internet2", seed=13,
                   vantage="utdallas")


def run_fleet(spec, targets, tmp_path, fail_after=None):
    queue = JobQueue(str(tmp_path / "queue.jsonl"))
    coordinator = Coordinator(queue=queue,
                              work_dir=str(tmp_path / "work"),
                              heartbeat_timeout=1.5)
    job = coordinator.submit(spec, targets, checkpoint_every=3)
    workers = [
        VantageWorker("w0", coordinator, stream_every=8,
                      fail_after_targets=fail_after),
        VantageWorker("w1", coordinator, stream_every=8),
    ]
    ServiceFleet(coordinator, workers).run(reap_interval=0.05,
                                           timeout=120.0)
    assert coordinator.queue.get(job.job_id).state is JobState.DONE, \
        coordinator.queue.get(job.job_id).error
    return coordinator, coordinator.result(job.job_id), workers


@pytest.fixture(scope="module")
def geant_crash(tmp_path_factory):
    """The CI crash smoke's job: GEANT seed 7, 18 targets, a checkpoint
    every 3 targets, the first worker killed after 4."""
    spec = RunSpec("survey", network="geant", seed=7, vantage="utdallas",
                   limit=18)
    _, result, workers = run_fleet(
        spec, spec.targets(spec.load_network()),
        tmp_path_factory.mktemp("geant-crash"), fail_after=4)
    assert workers[0].crashed
    return spec, result


def load_journal(path):
    with open(path, "r", encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


class TestCommittedJournal:
    def test_lease_annotation_names_no_event_field(self):
        for cls in EVENT_TYPES.values():
            assert LEASE_KEY not in {f.name for f in fields(cls)}, cls

    def test_records_carry_only_their_event_and_lease(self, geant_crash):
        _, result = geant_crash
        for record in load_journal(result.events_path):
            cls = EVENT_TYPES[record["event"]]
            extra = set(record) - {f.name for f in fields(cls)} - {"event"}
            assert extra == {LEASE_KEY}, record

    def test_committed_retries_keep_the_worker_attempt(self, geant_crash):
        """The lease annotation must not overwrite ``ProbeRetried.attempt``:
        the committed retries carry the attempts a serial run emits, also
        those the re-lease committed."""
        spec, result = geant_crash
        committed = [record for record in load_journal(result.events_path)
                     if record["event"] == "ProbeRetried"]
        serial = []
        spec.build().execute(sinks=[lambda event: serial.append(event)
                                    if isinstance(event, ProbeRetried)
                                    else None])
        assert serial
        assert {record["attempt"] for record in committed} == \
            {event.attempt for event in serial}
        assert any(record[LEASE_KEY] > 1 for record in committed)

    def test_parent_format_journal_gives_the_same_tree(self, geant_crash,
                                                       tmp_path, capsys):
        """A journal written before the ``lease`` key — each record
        annotated ``shard: 0`` and the lease number under ``attempt`` —
        still demuxes into the same leases with the same probe counts,
        through ``span_tree_from_journal`` and ``tracenet spans``."""
        _, result = geant_crash
        old = tmp_path / "events.jsonl"
        with open(old, "w", encoding="utf-8") as fp:
            for record in load_journal(result.events_path):
                lease = record.pop(LEASE_KEY)
                fp.write(json.dumps({**record, "shard": 0, "attempt": lease},
                                    sort_keys=True) + "\n")

        def leases(tree):
            return [(span.name, span.meta, span.total("probes"))
                    for span in tree.children]

        new_tree = span_tree_from_journal(result.events_path)
        old_tree = span_tree_from_journal(str(old))
        assert [name for name, _, _ in leases(new_tree)] == \
            [f"lease-{n}" for n in range(1, result.attempts + 1)]
        assert leases(old_tree) == leases(new_tree)
        assert old_tree.to_dict() == new_tree.to_dict()
        capsys.readouterr()
        assert main(["spans", str(old), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == new_tree.to_dict()


class TestServiceSpanParity:
    def test_healthy_fleet_live_equals_offline(self, spec, targets,
                                               tmp_path):
        _, result, _ = run_fleet(spec, targets, tmp_path)
        assert result.spans is not None
        offline = span_tree_from_journal(result.events_path)
        assert result.spans.to_dict() == offline.to_dict()
        leases = [s for s in result.spans.children if s.kind == "lease"]
        assert [(s.name, s.meta["lease"]) for s in leases] == \
            [("lease-1", 1)]
        # Every committed probe is attributed to some lease subtree.
        committed_probes = result.event_counts.get("ProbeSent", 0)
        assert result.spans.total("probes") == committed_probes

    def test_killed_worker_tree_matches_effective_execution(
            self, spec, targets, tmp_path):
        _, result, workers = run_fleet(spec, targets, tmp_path,
                                          fail_after=4)
        assert workers[0].crashed
        assert result.attempts > 1, "expected a re-lease"
        offline = span_tree_from_journal(result.events_path)
        assert result.spans.to_dict() == offline.to_dict()
        # The committed tree is the effective execution: the re-leased
        # attempt appears, and probe totals equal the committed stream
        # (work lost past the crashed attempt's last checkpoint is in
        # neither).
        leases = {s.meta["lease"]
                  for s in result.spans.children if s.kind == "lease"}
        assert any(lease > 1 for lease in leases)
        assert result.spans.total("probes") == \
            result.event_counts.get("ProbeSent", 0)

    def test_lease_stamps_stay_out_of_the_deterministic_plane(
            self, spec, targets, tmp_path):
        _, result, _ = run_fleet(spec, targets, tmp_path)
        # The coordinator stamped lease grant/completion times...
        leases = [s for s in result.spans.children if s.kind == "lease"]
        assert all(s.duration is not None and s.duration >= 0
                   for s in leases)
        assert result.spans.duration is not None
        # ...but none of it reaches the deterministic serialization.
        payload = result.spans.to_dict()

        def no_stamps(node):
            assert "start" not in node and "end" not in node
            for child in node["children"]:
                no_stamps(child)

        no_stamps(payload)

    def test_worker_spans_ship_and_export(self, spec, targets, tmp_path):
        _, result, _ = run_fleet(spec, targets, tmp_path)
        tree = Span.from_dict(result.worker_spans)
        assert (tree.kind, tree.name) == ("job", result.job.job_id)
        assert tree.duration is not None
        doc = chrome_trace_for_service(result.spans, result.worker_spans)
        pids = {event["pid"] for event in doc["traceEvents"]}
        # pid 0 = coordinator job/leases; pid 1 = the worker's timebase.
        assert pids == {0, 1}


class TestFleetHealthTelemetry:
    def test_gauges_reflect_an_idle_coordinator(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue.jsonl"))
        coordinator = Coordinator(queue=queue,
                                  work_dir=str(tmp_path / "work"))
        registry = coordinator.health_registry()
        text = render_prometheus(registry)
        assert 'tracenet_service_jobs{state="running"} 0' in text
        assert "tracenet_service_queue_depth 0" in text
        assert "tracenet_service_leases_active 0" in text

    def test_gauges_mid_job_and_after_completion(self, spec, targets,
                                                 tmp_path):
        coordinator, _, _ = run_fleet(spec, targets, tmp_path)
        text = render_prometheus(coordinator.health_registry())
        assert 'tracenet_service_jobs{state="done"} 1' in text
        assert 'tracenet_service_jobs{state="failed"} 0' in text
        assert "tracenet_service_leases_active 0" in text

    def test_lease_age_and_heartbeat_lag_track_the_clock(self, spec,
                                                         targets,
                                                         tmp_path):
        queue = JobQueue(str(tmp_path / "queue.jsonl"))
        coordinator = Coordinator(queue=queue,
                                  work_dir=str(tmp_path / "work"),
                                  heartbeat_timeout=1e9)
        job = coordinator.submit(spec, targets)
        task = coordinator.lease("w0")
        assert task is not None
        text = render_prometheus(coordinator.health_registry())
        assert "tracenet_service_leases_active 1" in text
        prefix = f'tracenet_service_lease_age_seconds{{job="{job.job_id}"}}'
        assert any(line.startswith(prefix)
                   for line in text.splitlines()), text
        lag = f'tracenet_service_heartbeat_lag_seconds{{job="{job.job_id}"}}'
        assert any(line.startswith(lag) for line in text.splitlines())
