"""Seeded network dynamics: schedules, engine invalidation, churn seam.

The robustness contract under test: a network mutating *mid-survey* must
never leave the engine serving stale cached paths (differential tests
against a freshly built engine), must keep the batched probe path
byte-identical to the serial one across mutation epochs, and must keep
every fault/retry/stop-set knob deterministic and replayable.
"""

from __future__ import annotations

import random

import pytest

from repro.core import TraceNET
from repro.events import EventBus, ProbeRetried, TopologyMutated
from repro.netsim import Engine, TopologyBuilder
from repro.netsim.addressing import Prefix
from repro.netsim.dynamics import (
    MutationSchedule,
    NetworkDynamics,
    ScheduledMutation,
)
from repro.netsim.packet import Probe
from repro.netsim.serialize import (
    policy_from_dict,
    policy_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.probing import Prober, RetryPolicy, StopSet
from repro.topogen import geant
from repro.transport import (
    FaultInjectingTransport,
    MutatingTransport,
    RecordingTransport,
    SimulatorTransport,
)
from repro.transport.churn import find_mutating


@pytest.fixture(scope="module")
def geant_network():
    return geant.build(seed=2010)


def _schedule(topology, seed=7, count=4, start=50, interval=60):
    return MutationSchedule.generate(topology, seed=seed, start=start,
                                     interval=interval, count=count)


class TestMutationSchedule:
    def test_generation_is_deterministic(self, geant_network):
        first = _schedule(geant_network.topology)
        second = _schedule(geant_network.topology)
        assert first.to_dict() == second.to_dict()
        assert len(first) > 0

    def test_seed_changes_schedule(self, geant_network):
        assert (_schedule(geant_network.topology, seed=1).to_dict()
                != _schedule(geant_network.topology, seed=2).to_dict())

    def test_round_trip(self, geant_network):
        schedule = _schedule(geant_network.topology)
        restored = MutationSchedule.from_dict(schedule.to_dict())
        assert restored.to_dict() == schedule.to_dict()

    def test_mutations_ordered_by_epoch(self, geant_network):
        schedule = _schedule(geant_network.topology)
        epochs = [(m.epoch, m.sequence) for m in schedule]
        assert epochs == sorted(epochs)

    def test_details_name_dirty_prefixes(self, geant_network):
        """Every non-global mutation tells the radar what it touched."""
        schedule = MutationSchedule.generate(
            geant_network.topology, seed=3, count=10, start=10, interval=10)
        for mutation in schedule:
            if mutation.kind in ("link-down", "link-up"):
                assert "prefix" in mutation.detail
            elif mutation.kind in ("router-down", "router-up"):
                assert mutation.detail.get("prefixes")
            elif mutation.kind == "renumber":
                assert "old_prefix" in mutation.detail
                assert "new_prefix" in mutation.detail
            elif mutation.kind == "resize":
                assert "old_prefix" in mutation.detail
                assert "new_prefix" in mutation.detail

    def test_renumber_blocks_are_aligned_and_disjoint(self):
        """Regression: the scratch cursor was not aligned to the next
        block's size, so a second renumber masked back onto the first and
        applying the schedule raised TopologyError."""
        network = geant.build(seed=7)
        schedule = MutationSchedule.generate(
            network.topology, seed=7, start=100, interval=400, count=12)
        blocks = []
        for mutation in schedule:
            if mutation.kind == "renumber":
                network_address = mutation.detail["new_network"]
                block = Prefix(network_address, mutation.detail["length"])
                # Aligned: constructing the prefix masked nothing away.
                assert block.network == network_address
                assert str(block) == mutation.detail["new_prefix"]
                blocks.append(block)
        assert len(blocks) >= 2
        for index, block in enumerate(blocks):
            for other in blocks[index + 1:]:
                assert (block.broadcast < other.network
                        or other.broadcast < block.network), (block, other)
        dynamics = NetworkDynamics(Engine(network.topology,
                                          policy=network.policy), schedule)
        dynamics.advance(10 ** 9)
        assert dynamics.exhausted
        for block in blocks:
            assert network.topology.subnet_containing(block.network + 1)

    def test_scheduled_mutation_round_trip(self):
        mutation = ScheduledMutation(epoch=5, sequence=1, kind="ecmp",
                                     target="R1", detail={"mode": "rotate"})
        assert ScheduledMutation.from_dict(mutation.to_dict()) == mutation


def _battery(topology, source):
    """Probes to every interface at a ladder of TTLs."""
    probes = []
    for dst in sorted(topology.all_interface_addresses):
        for ttl in (1, 3, 8, 30):
            probes.append(Probe(src=source, dst=dst, ttl=ttl))
    return probes


def _response_keys(responses):
    return [(r.kind.name, r.source, r.responder)
            if r is not None else None for r in responses]


class TestEngineInvalidation:
    """Differential: a mutated engine answers like a freshly built one."""

    @pytest.fixture()
    def mutated(self, geant_network):
        # Private clones: the schedule mutates the topology in place and
        # the rate limiters are stateful — the shared fixture stays pure.
        topology = topology_from_dict(topology_to_dict(
            geant_network.topology))
        policy = policy_from_dict(policy_to_dict(geant_network.policy))
        # Exercise the rate-limit plane too: a drained/stale bucket must
        # survive mutation-driven cache invalidation identically.
        router_id = sorted(topology.routers)[0]
        policy.rate_limit_router(router_id, capacity=4, refill_per_tick=0.5)
        engine = Engine(topology, policy=policy)
        dynamics = NetworkDynamics(engine, _schedule(topology, count=6))
        source = engine.topology.hosts["utdallas"].address
        # Drive real probes between epochs so mutations land on a warm
        # path cache — the staleness the version stamps must catch.
        rng = random.Random(9)
        addresses = sorted(engine.topology.all_interface_addresses)
        fired = 0
        for count in range(0, 600, 25):
            fired += len(dynamics.advance(count))
            probe = Probe(src=source, dst=rng.choice(addresses),
                          ttl=rng.randrange(1, 30))
            engine.send(probe)
        fired += len(dynamics.advance(10_000))
        assert fired == len(dynamics.schedule)
        return engine, source, dynamics

    def _fresh_twin(self, engine, dynamics):
        """A new engine built from the mutated network's serialized state."""
        topology = topology_from_dict(topology_to_dict(engine.topology))
        policy = policy_from_dict(policy_to_dict(engine.policy))
        twin = Engine(topology, policy=policy)
        # ECMP mode flips live on the balancer, outside the serialized
        # state — replay them so the twin routes the same flows.
        for mutation in dynamics.applied:
            if mutation.kind == "ecmp":
                twin.balancer.set_mode(
                    mutation.target,
                    engine.balancer.mode_of(mutation.target))
        twin.idle(engine.clock)
        return twin

    def test_send_matches_fresh_engine(self, mutated):
        engine, source, dynamics = mutated
        engine.policy.reset_rate_limiters()
        twin = self._fresh_twin(engine, dynamics)
        battery = _battery(engine.topology, source)
        assert _response_keys([engine.send(p) for p in battery]) == \
            _response_keys([twin.send(p) for p in battery])

    def test_send_many_matches_fresh_engine(self, mutated):
        engine, source, dynamics = mutated
        engine.policy.reset_rate_limiters()
        twin = self._fresh_twin(engine, dynamics)
        battery = _battery(engine.topology, source)
        assert _response_keys(engine.send_many(battery)) == \
            _response_keys(twin.send_many(battery))


class TestMutatingTransport:
    def _build(self, network, events=None, count=4):
        engine = Engine(network.topology, policy=network.policy)
        schedule = _schedule(network.topology, count=count)
        dynamics = NetworkDynamics(engine, schedule)
        return MutatingTransport(SimulatorTransport(engine), schedule,
                                 dynamics=dynamics, events=events), engine

    def test_batched_equals_serial_across_epochs(self):
        """send_many split at mutation boundaries == one-by-one sends."""
        network = geant.build(seed=2010)
        serial, engine_a = self._build(network)
        batched, _ = self._build(geant.build(seed=2010))
        source = engine_a.topology.hosts["utdallas"].address
        battery = _battery(engine_a.topology, source)
        serial_responses = [serial.send(p) for p in battery]
        batched_responses = batched.send_many(battery)
        assert _response_keys(serial_responses) == \
            _response_keys(batched_responses)
        assert serial.mutation_epoch == batched.mutation_epoch > 0

    def test_events_derive_from_schedule(self, geant_network):
        """Live apply and dynamics-free replay emit the same events."""
        seen_live, seen_replay = [], []
        live_bus, replay_bus = EventBus(), EventBus()
        live_bus.subscribe(seen_live.append)
        replay_bus.subscribe(seen_replay.append)

        live, engine = self._build(geant.build(seed=2010), events=live_bus)
        schedule = MutationSchedule.from_dict(live.schedule.to_dict())
        # Replay side: no engine, no dynamics — the journal would answer.
        replay = MutatingTransport(_NullTransport(), schedule,
                                   dynamics=None, events=replay_bus)
        source = engine.topology.hosts["utdallas"].address
        battery = _battery(engine.topology, source)
        for probe in battery:
            live.send(probe)
            replay.send(probe)
        live_events = [(e.epoch, e.sequence, e.kind, e.target, e.detail)
                       for e in seen_live
                       if isinstance(e, TopologyMutated)]
        replay_events = [(e.epoch, e.sequence, e.kind, e.target, e.detail)
                         for e in seen_replay
                         if isinstance(e, TopologyMutated)]
        assert live_events == replay_events
        assert live_events  # churn actually fired

    def test_find_mutating_walks_wrapper_chain(self, geant_network):
        engine = Engine(geant_network.topology, policy=geant_network.policy)
        schedule = _schedule(geant_network.topology)
        churn = MutatingTransport(
            FaultInjectingTransport(SimulatorTransport(engine),
                                    drop_rate=0.1),
            schedule, dynamics=NetworkDynamics(engine, schedule))
        recording = RecordingTransport(churn, _DevNull())
        assert find_mutating(recording) is churn
        assert find_mutating(SimulatorTransport(engine)) is None


class _NullTransport:
    """Answers every probe with silence (stands in for a journal)."""

    def send(self, probe):
        return None

    def send_many(self, probes):
        return [None] * len(probes)


class _DevNull:
    def write(self, text):
        return len(text)

    def flush(self):
        pass

    def close(self):
        pass


class TestFaultBursts:
    def _line_transport(self, line_engine, **kwargs):
        return FaultInjectingTransport(SimulatorTransport(line_engine),
                                       **kwargs)

    def _probe(self, line_engine, ttl=3):
        source = line_engine.topology.hosts["vantage"].address
        dst = max(line_engine.topology.all_interface_addresses)
        return Probe(src=source, dst=dst, ttl=ttl)

    def test_burst_off_matches_legacy_stream(self, line_topology):
        """burst_enter=0 must not perturb the legacy drop RNG stream."""
        legacy = self._line_transport(Engine(line_topology), drop_rate=0.3,
                                      seed=11)
        extended = self._line_transport(Engine(line_topology), drop_rate=0.3,
                                        seed=11, burst_exit=0.9,
                                        burst_drop_rate=0.5)
        probes = [self._probe(legacy.engine) for _ in range(200)]
        assert _response_keys([legacy.send(p) for p in probes]) == \
            _response_keys([extended.send(p) for p in probes])

    def test_bursts_are_deterministic_and_counted(self, line_topology):
        kwargs = dict(burst_enter=0.2, burst_exit=0.3, seed=4)
        first = self._line_transport(Engine(line_topology), **kwargs)
        second = self._line_transport(Engine(line_topology), **kwargs)
        probes = [self._probe(first.engine) for _ in range(300)]
        assert _response_keys([first.send(p) for p in probes]) == \
            _response_keys([second.send(p) for p in probes])
        metrics = first.backend_metrics()
        assert metrics["fault_bursts_total"] > 0
        assert metrics["fault_burst_drops"] > 0
        assert first.burst_drops == metrics["fault_burst_drops"]

    def test_intermittent_duty_cycle(self, line_topology):
        engine = Engine(line_topology)
        dst = max(engine.topology.all_interface_addresses)
        transport = self._line_transport(engine,
                                         intermittent={dst: (2, 3)})
        probe = self._probe(engine, ttl=30)
        pattern = [transport.send(probe) is not None for _ in range(10)]
        assert pattern == [True, True, False, False, False] * 2
        assert transport.intermittent_drops == 6

    def test_intermittent_validation(self, line_engine):
        with pytest.raises(ValueError):
            self._line_transport(line_engine, intermittent={1: (0, 3)})

    def test_burst_rate_validation(self, line_engine):
        with pytest.raises(ValueError):
            self._line_transport(line_engine, burst_enter=1.5)


class TestRetryPolicy:
    def test_coerce_accepts_legacy_int(self):
        assert RetryPolicy.coerce(2) == RetryPolicy(attempts=2)
        policy = RetryPolicy(attempts=3, backoff_ticks=(2, 5))
        assert RetryPolicy.coerce(policy) is policy

    def test_backoff_schedule_repeats_last_entry(self):
        policy = RetryPolicy(attempts=4, backoff_ticks=(2, 5))
        assert [policy.backoff_for(a) for a in (1, 2, 3, 4)] == [2, 5, 5, 5]
        assert RetryPolicy().backoff_for(1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_ticks=(-3,))

    def test_default_policy_is_budget_identical(self, geant_network):
        """RetryPolicy() collects the byte-identical archive retries=1 did."""
        from repro.mapping import archive_to_dict
        from repro.runner import SurveyRunner

        targets = geant.targets(geant_network, seed=2010)[:6]
        archives = []
        for retries in (1, RetryPolicy()):
            engine = Engine(geant_network.topology,
                            policy=policy_from_dict(
                                policy_to_dict(geant_network.policy)))
            # Real loss so the retry path actually runs in both variants.
            lossy = FaultInjectingTransport(SimulatorTransport(engine),
                                            drop_rate=0.15, seed=3)
            tool = TraceNET(lossy, "utdallas")
            tool.prober.retry_policy = RetryPolicy.coerce(retries)
            tool.prober.retries = tool.prober.retry_policy.attempts
            runner = SurveyRunner(tool)
            runner.run(targets)
            archives.append(archive_to_dict(runner.archive))
        assert archives[0] == archives[1]

    def test_backoff_idles_transport_and_emits_retry(self, line_topology):
        engine = Engine(line_topology)
        lossy = FaultInjectingTransport(SimulatorTransport(engine),
                                        drop_rate=1.0, seed=0)
        events = EventBus()
        retried = []
        events.subscribe(retried.append)
        prober = Prober(lossy, "vantage", events=events,
                        retries=RetryPolicy(attempts=2, backoff_ticks=(7,)))
        dst = max(engine.topology.all_interface_addresses)
        before = engine.clock
        assert prober.probe(dst, 2) is None
        # One tick per wire probe plus 7 idle ticks before each retry.
        assert engine.clock - before == 3 + 2 * 7
        attempts = [e.attempt for e in retried
                    if isinstance(e, ProbeRetried)]
        assert attempts == [1, 2]


class TestStopSetEpochs:
    def test_advance_epoch_invalidates_lazily(self):
        stop = StopSet()
        ip_a = 0x0A000001
        stop.record(ip_a, [(1, 0x0A000101), (2, 0x0A000201)])
        assert stop.lookup(ip_a) is not None
        stop.advance_epoch()
        assert stop.lookup(ip_a) is None
        assert stop.invalidated == 1
        # Re-recording after the epoch bump works and serves again.
        stop.record(ip_a, [(1, 0x0A000102)])
        assert stop.lookup(ip_a) == ((1, 0x0A000102),)

    def test_churn_advances_collector_stop_set(self):
        """Regression: a flapped link's stale path must not keep
        suppressing probes after the mutation (the pre-epoch bug hid
        post-churn path changes behind Doubletree entries)."""
        builder = TopologyBuilder("stub")
        builder.link("R1", "R2")
        builder.link("R2", "R3")
        stub = builder.lan(["R3", "R4"], length=29)
        builder.edge_host("vantage", "R1")
        topology = builder.build()
        engine = Engine(topology)
        schedule = MutationSchedule(
            [ScheduledMutation(epoch=1, sequence=0, kind="ecmp",
                               target="R2", detail={})])
        dynamics = NetworkDynamics(engine, schedule)
        churn = MutatingTransport(SimulatorTransport(engine), schedule,
                                  dynamics=dynamics)
        stop = StopSet()
        tool = TraceNET(churn, "vantage", stop_set=stop)
        target = min(stub.addresses)
        tool.trace(target)
        first_epoch = stop.epoch
        tool.trace(target)
        assert stop.epoch == first_epoch + 1
