"""The benchmark's workloads: seeded inputs and one cold survey per call.

Every call to :func:`survey` builds its topology, engine, transport and
collector from scratch, so the routing BFS and the engine's path cache
fill inside the timed collection, as they do for a user's survey.  One
collector, one vantage, one probe in flight: a closed loop with no
threads or pools.

A survey is made of *parts*, one per surveyed network (Internet2 and
GEANT, or the single 10^5-interface internet).  Each part records its
set-up time, its collection time, the latency of every
``TraceNET.trace`` call and a digest of the archive it produced.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core import TraceNET
from repro.evaluation import annotate_unresponsive, collected_prefixes, \
    match_subnets
from repro.evaluation.matching import Category
from repro.events import CounterSink, EventBus
from repro.mapping.store import CollectionArchive, archive_to_dict
from repro.metrics import MetricsRegistry, instrument
from repro.netsim import Engine, MutationSchedule, NetworkDynamics
from repro.radar import RadarRunner
from repro.runner import SurveyRunner
from repro.topogen import geant, internet2
from repro.topogen.isp import build_internet, scale_profiles
from repro.tracing import SpanBuilder
from repro.transport import (
    FaultInjectingTransport,
    MutatingTransport,
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
    collect_backend_metrics,
)

WORKLOADS = ("reference-survey", "isp-scale", "radar-chaos", "journal-replay")
#: Workloads carrying the CI radar lane's instrumentation (metrics
#: registry + probe-economy auditor + clocked span builder).
INSTRUMENTED = frozenset({"radar-chaos", "journal-replay"})

#: Seeded instances of the workload one run cycles through: the
#: network, target, churn and fault seeds of the instances all derive from
#: the run's ``--seed``, and averaging over several instances keeps one
#: unlucky topology from moving a run's figures.
SEEDS_PER_RUN = 4

VANTAGE = "utdallas"
REFERENCE = (("internet2", internet2), ("geant", geant))

#: The scale lane of ``benchmarks/bench_survey_throughput.py``: a 10^5
#: interface internet, ``targets_proportional(total=50)`` (48 targets
#: after rounding), the first vantage, ``batch_window=1``.
SCALE_INTERFACES = 100_000
SCALE_TARGET_TOTAL = 50

#: ``tracenet radar`` defaults plus the CI radar lane's 5% loss.  The
#: churn count stays at the CLI default of 4: ``MutationSchedule.generate``
#: cycles through its kinds, so 4 mutations schedule one renumber, and two
#: renumbers (count >= 8) trip the scratch-block overlap defect recorded
#: in perfbench/README.md.
RADAR_ROUNDS = 3
CHURN_COUNT = 4
CHURN_START = 200
CHURN_INTERVAL = 400
DROP_RATE = 0.05


@dataclass
class Part:
    """One network's share of a survey: timings, outcome and live objects."""

    name: str
    targets: List[int]
    setup_s: float = 0.0
    build_s: float = 0.0
    parse_s: float = 0.0
    collection_s: float = 0.0
    digest_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None
    digest: str = ""
    wire_probes: int = 0
    # Live objects, kept for the correctness checks and the ledger.
    network: object = None
    tool: Optional[TraceNET] = None
    engine: Optional[Engine] = None
    replay: Optional[ReplayTransport] = None
    fault: Optional[FaultInjectingTransport] = None
    registry: Optional[MetricsRegistry] = None
    counter: Optional[CounterSink] = None
    radar: object = None
    archives: List[CollectionArchive] = field(default_factory=list)
    diffs: list = field(default_factory=list)


# -- inputs ---------------------------------------------------------------


def run_seeds(workload: str, seed: int) -> List[int]:
    """The instance seeds of run ``seed``: disjoint across runs.

    ``isp-scale`` runs one instance: its surveys take about 14 s each.
    """
    if workload == "isp-scale":
        return [seed]
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


def scale_targets(network, seed: int) -> Tuple[str, List[int]]:
    grouped = network.targets_proportional(seed=seed,
                                           total=SCALE_TARGET_TOTAL)
    targets = sorted(address for addresses in grouped.values()
                     for address in addresses)[:SCALE_TARGET_TOTAL]
    return sorted(network.vantages)[0], targets


def record_reference_journals(seed: int) -> Dict[str, Dict]:
    """The journal-replay inputs: the reference survey, recorded live.

    Returns, per network, the journal text, the target list and the
    digest of the live archive the recording produced.
    """
    journals = {}
    for name, module in REFERENCE:
        network = module.build(seed=seed)
        targets = module.targets(network, seed=seed)
        buffer = io.StringIO()
        transport = RecordingTransport(
            SimulatorTransport(Engine(network.topology,
                                      policy=network.policy)),
            buffer, metadata={"network": name, "seed": seed,
                              "vantage": VANTAGE})
        runner = SurveyRunner(TraceNET(transport, VANTAGE))
        runner.run(targets)
        transport.close()
        journals[name] = {
            "journal": buffer.getvalue(),
            "targets": targets,
            "live_digest": archive_digest(runner.archive),
        }
    return journals


# -- archives and exactness -----------------------------------------------


def archive_digest(*archives: CollectionArchive, diffs=()) -> str:
    """SHA-256 of the canonical JSON of archives (and radar diffs)."""
    payload = {"archives": [archive_to_dict(a) for a in archives],
               "diffs": [d.to_dict() for d in diffs]}
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def exact_counts(records, topology, targets, subnets) -> Tuple[int, int]:
    """(exact matches, eligible originals) as ``experiments.run_survey``.

    Originals are the ground-truth subnets holding at least one target,
    at their current prefix (radar churn renumbers and resizes), and
    unresponsive subnets are excluded.  On Internet2 and GEANT every
    original holds exactly one target, so this is the Tables 1-2 rate;
    the check in ``run.py`` compares it with ``experiments``.
    """
    target_set = sorted(set(targets))
    current = []
    for record in records:
        subnet = topology.subnets.get(record.subnet_id)
        if subnet is None:
            continue
        prefix = subnet.prefix
        lo = bisect.bisect_left(target_set, prefix.network)
        if lo < len(target_set) and target_set[lo] <= prefix.broadcast:
            current.append(replace(record, prefix=prefix))
    report = match_subnets([r.prefix for r in current],
                           collected_prefixes(subnets))
    annotate_unresponsive(report, current)
    eligible = len(report.outcomes) - sum(
        1 for outcome in report.outcomes if outcome.unresponsive)
    exact = sum(1 for outcome in report.outcomes
                if outcome.category == Category.EXACT)
    return exact, eligible


# -- one survey -------------------------------------------------------------


@dataclass
class Mode:
    """How a survey is observed."""

    #: Time every ``TraceNET.trace`` call (the untraced run's latencies).
    latencies: bool = True
    #: The traced run's :class:`ledger.Ledger`: collections become its
    #: root spans.
    ledger: object = None
    #: Subscribe a :class:`~repro.events.CounterSink` last on each bus.
    counter: bool = False


def _reference_setup(name, module, seed):
    clock = time.perf_counter
    start = clock()
    network = module.build(seed=seed)
    built = clock()
    targets = module.targets(network, seed=seed)
    resumed = clock()
    engine = Engine(network.topology, policy=network.policy)
    tool = TraceNET(SimulatorTransport(engine), VANTAGE)
    runner = SurveyRunner(tool)
    ready = clock()
    part = Part(name=name, targets=targets, network=network, tool=tool,
                engine=engine, build_s=built - start,
                setup_s=(built - start) + (ready - resumed))
    return part, lambda: _run_survey(part, runner)


def _scale_setup(seed):
    clock = time.perf_counter
    start = clock()
    network = build_internet(seed=seed,
                             profiles=scale_profiles(SCALE_INTERFACES),
                             validate=False)
    built = clock()
    vantage, targets = scale_targets(network, seed)
    resumed = clock()
    engine = Engine(network.topology, policy=network.policy,
                    path_cache=True)
    tool = TraceNET(SimulatorTransport(engine), vantage, batch_window=1)
    runner = SurveyRunner(tool)
    ready = clock()
    part = Part(name="scale", targets=targets, network=network, tool=tool,
                engine=engine, build_s=built - start,
                setup_s=(built - start) + (ready - resumed))
    return part, lambda: _run_survey(part, runner)


def _radar_setup(name, module, seed):
    """``tracenet radar`` with --drop-rate, --metrics-out and --spans-out."""
    clock = time.perf_counter
    start = clock()
    network = module.build(seed=seed)
    built = clock()
    targets = module.targets(network, seed=seed)
    schedule = MutationSchedule.generate(
        network.topology, seed=seed, start=CHURN_START,
        interval=CHURN_INTERVAL, count=CHURN_COUNT)
    resumed = clock()
    engine = Engine(network.topology, policy=network.policy)
    fault = FaultInjectingTransport(SimulatorTransport(engine),
                                    drop_rate=DROP_RATE, seed=seed)
    bus = EventBus()
    transport = MutatingTransport(fault, schedule,
                                  dynamics=NetworkDynamics(engine, schedule),
                                  events=bus)
    tool = TraceNET(transport, VANTAGE, events=bus)
    tracer = SpanBuilder(clock=time.perf_counter)
    bus.subscribe(tracer)
    registry = MetricsRegistry()
    instrument(bus, registry=registry)
    radar = RadarRunner(tool, targets, rounds=RADAR_ROUNDS)
    ready = clock()
    part = Part(name=name, targets=targets, network=network, tool=tool,
                engine=engine, fault=fault, registry=registry,
                build_s=built - start,
                setup_s=(built - start) + (ready - resumed))

    def run():
        with registry.time("collection_seconds"):
            part.radar = radar.run()
        tracer.finish()
        collect_backend_metrics(registry.backend, transport)
        part.archives = [r.archive for r in part.radar.rounds]
        part.diffs = part.radar.diffs

    return part, run


def _replay_setup(name, payload):
    """``tracenet survey --replay`` with --metrics-out and --spans-out."""
    clock = time.perf_counter
    start = clock()
    replay = ReplayTransport(io.StringIO(payload["journal"]))
    parsed = clock()
    tool = TraceNET(replay, VANTAGE)
    registry = MetricsRegistry()
    tracer = SpanBuilder(clock=time.perf_counter)
    runner = SurveyRunner(tool, metrics=registry, tracer=tracer)
    ready = clock()
    part = Part(name=name, targets=list(payload["targets"]), tool=tool,
                replay=replay, registry=registry, parse_s=parsed - start,
                setup_s=ready - start)

    def run():
        _run_survey(part, runner)
        collect_backend_metrics(registry.backend, replay)
        replay.assert_drained()

    return part, run


def _run_survey(part: Part, runner: SurveyRunner) -> None:
    runner.run(part.targets)
    part.archives = [runner.archive]


def _setups(workload: str, seed: int, journals: Optional[Dict]):
    """Per part, a callable doing its timed set-up: ``(part, collect)``."""
    if workload == "reference-survey":
        return [lambda n=name, m=module: _reference_setup(n, m, seed)
                for name, module in REFERENCE]
    if workload == "isp-scale":
        return [lambda: _scale_setup(seed)]
    if workload == "radar-chaos":
        return [lambda n=name, m=module: _radar_setup(n, m, seed)
                for name, module in REFERENCE]
    if workload == "journal-replay":
        return [lambda n=name: _replay_setup(n, journals[n])
                for name, _ in REFERENCE]
    raise ValueError(f"unknown workload {workload!r}")


def _in_span(ledger, layer: str, fn, tag: Optional[str] = None):
    return fn() if ledger is None else ledger.span(layer, fn, tag=tag)


def _time_traces(part: Part, latencies: bool) -> None:
    """Shadow ``tool.trace`` with a counter (and a timer) on the instance."""
    trace = part.tool.trace
    samples = part.latencies
    clock = time.perf_counter

    if latencies:
        def timed(destination):
            part.calls += 1
            start = clock()
            result = trace(destination)
            samples.append(clock() - start)
            return result
    else:
        def timed(destination):
            part.calls += 1
            return trace(destination)
    part.tool.trace = timed


def _survey_part(setup, mode: Mode) -> Part:
    part, collect = setup()
    if mode.counter:
        part.counter = part.tool.events.subscribe(CounterSink())
    _time_traces(part, mode.latencies)
    ledger = mode.ledger
    clock = time.perf_counter
    start = clock()
    try:
        # With a ledger, the collection is the traced run's root span: the
        # time no layer span covers lands in the ``bench`` layer.
        _in_span(ledger, "bench", collect)
    except Exception as exc:  # a failed trace is counted, not fatal
        part.error = f"{type(exc).__name__}: {exc}"
    part.collection_s = clock() - start
    targets = set(part.targets)
    if part.error is not None:
        part.failed = len(targets)
        part.attempted = max(part.calls, len(targets))
        return part
    part.attempted = part.calls
    done = {trace.destination for trace in part.archives[-1].traces}
    part.failed = len(targets - done)
    start = clock()
    part.digest = _in_span(ledger, "bench", lambda: _in_span(
        ledger, "mapping",
        lambda: archive_digest(*part.archives, diffs=part.diffs),
        tag="mapping.archive"))
    part.digest_s = clock() - start
    part.wire_probes = part.tool.prober.stats.sent
    return part


def survey(workload: str, seed: int, journals: Optional[Dict] = None,
           mode: Optional[Mode] = None) -> List[Part]:
    """One cold survey of ``workload``; returns its parts in order."""
    mode = mode if mode is not None else Mode()
    return [_survey_part(setup, mode)
            for setup in _setups(workload, seed, journals)]


def setup_only(workload: str, seed: int,
               journals: Optional[Dict] = None) -> float:
    """One survey's set-up without its collection: summed seconds."""
    return sum(setup()[0].setup_s
               for setup in _setups(workload, seed, journals))


def exactness(workload: str, seed: int, parts: List[Part]) -> Tuple[int, int]:
    """Pooled (exact matches, eligible originals) over a survey's parts."""
    exact = eligible = 0
    for part in parts:
        network = part.network
        if network is None:  # journal replay: rebuild the ground truth
            network = dict(REFERENCE)[part.name].build(seed=seed)
        if workload == "isp-scale":
            records = [record for isp in network.isps.values()
                       for record in isp.records]
        else:
            records = network.records
        subnets = part.archives[-1].subnets if part.archives else []
        matched, total = exact_counts(records, network.topology,
                                      part.targets, subnets)
        exact += matched
        eligible += total
    return exact, eligible
