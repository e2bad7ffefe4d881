"""Span stitching across the service seam: the distributed parity proof.

The deterministic job span tree the coordinator assembles live at commit
time must equal, bit for bit, the tree ``tracenet spans`` derives from
the committed event journal offline — for a healthy fleet AND across a
killed worker, where the committed tree describes exactly the effective
execution (the crashed attempt's lease span holds only its checkpointed
prefix; the re-lease attempt holds the rest).
"""

import pytest

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


class TestServiceSpanParity:
    def test_healthy_fleet_live_equals_offline(self, spec, targets,
                                               tmp_path):
        _, result, _ = run_fleet(spec, targets, tmp_path)
        assert result.spans is not None
        offline = span_tree_from_journal(result.events_path)
        assert result.spans.to_dict() == offline.to_dict()
        leases = [s for s in result.spans.children if s.kind == "lease"]
        assert [(s.meta["shard"], s.meta["attempt"]) for s in leases] == \
            [(0, 1)]
        # Every committed probe is attributed to some lease subtree.
        committed_probes = result.event_counts.get("ProbeSent", 0)
        assert result.spans.total("probes") == committed_probes

    def test_killed_worker_tree_matches_effective_execution(
            self, spec, targets, tmp_path):
        _, result, workers = run_fleet(spec, targets, tmp_path,
                                          fail_after=4)
        assert workers[0].crashed
        assert max(result.attempts.values()) > 1, "expected a re-lease"
        offline = span_tree_from_journal(result.events_path)
        assert result.spans.to_dict() == offline.to_dict()
        # The committed tree is the effective execution: the re-leased
        # attempt appears, and probe totals equal the committed stream
        # (work lost past the crashed attempt's last checkpoint is in
        # neither).
        attempts = {(s.meta["shard"], s.meta["attempt"])
                    for s in result.spans.children if s.kind == "lease"}
        assert any(attempt > 1 for _, attempt in attempts)
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
        assert set(result.worker_spans) == {0}
        for shard, payload in result.worker_spans.items():
            tree = Span.from_dict(payload)
            assert tree.kind == "shard"
            assert tree.duration is not None
        doc = chrome_trace_for_service(result.spans, result.worker_spans)
        pids = {event["pid"] for event in doc["traceEvents"]}
        # pid 0 = coordinator job/leases; pid 1+shard = worker timebase.
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
        prefix = (f'tracenet_service_lease_age_seconds{{'
                  f'job="{job.job_id}",shard="{task.shard_index}"}}')
        assert any(line.startswith(prefix)
                   for line in text.splitlines()), text
        lag = (f'tracenet_service_heartbeat_lag_seconds{{'
               f'job="{job.job_id}",shard="{task.shard_index}"}}')
        assert any(line.startswith(lag) for line in text.splitlines())
