"""One run description: what a journal header records, and the one builder.

:class:`RunSpec` is a probe journal's header metadata: the run shape (a
``trace``, a ``survey`` or a ``radar``), scenario or network and seed,
vantage, destination, protocol, the ``collector`` options that change the
probe stream, the ``radar`` config and the target ``limit``.  The
networks are the Table 1-2 ``internet2`` and ``geant`` and the Section 4.2
four-ISP ``isp`` internet, whose header also records its ``scale`` and
``per_isp`` target draw.  :meth:`RunSpec.build` maps it to a collector
over Simulator → Fault → Mutating → Recording (live) or Replay → Mutating
without dynamics (the journal already holds the loss and the mutated
network's answers), and :meth:`Run.execute` runs the shape with the
requested sinks.  The CLI's live and ``--replay`` runs, ``tracenet stats``,
``tracenet spans`` and every survey of :mod:`repro.experiments` go through
here.  Under replay the header is authoritative: a caller's
value only fills what it does not record, and a contradicting one raises
:class:`RunSpecError` naming the recorded value.

A survey records its retry rule, ``"retry": "gated"``, among the collector
options (see :class:`~repro.probing.RetryPolicy`).  A header without one —
a trace, a radar, or any journal or queue record written before the gate
existed — runs the paper's retry of every silence, so those journals keep
replaying byte for byte.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .core.tracenet import TraceNET
from .events import EventBus, JsonlEventSink
from .netsim.addressing import format_ip, parse_ip
from .netsim.dynamics import MutationSchedule, NetworkDynamics
from .netsim.engine import Engine
from .netsim.packet import Protocol
from .probing import RetryPolicy
from .radar import RadarRunner
from .runner import SurveyRunner
from .topogen import build_internet, figures, geant, internet2
from .transport import (
    FaultInjectingTransport,
    MutatingTransport,
    RecordingTransport,
    SimulatorTransport,
    collect_backend_metrics,
)

#: Every radar config key, with the value a config without it means.
RADAR_DEFAULTS: Dict = {
    "rounds": 3, "churn_count": 0, "churn_seed": 0, "churn_start": 200,
    "churn_interval": 400, "drop_rate": 0.0, "fault_seed": 0,
    "incremental": True,
}

#: What each command runs when a flag is not given.
COMMAND_DEFAULTS: Dict[str, Dict] = {
    "trace": {"scenario": "figure3", "protocol": "icmp"},
    "survey": {"network": "internet2", "seed": 7, "vantage": "utdallas"},
    "radar": {"network": "geant", "seed": 7, "vantage": "utdallas",
              **RADAR_DEFAULTS, "churn_count": 4, "churn_seed": 7},
}

_NETWORKS = {"internet2": internet2, "geant": geant}
_SCENARIOS = {"figure2": figures.figure2_network,
              "figure3": figures.figure3_network}

#: The single-valued fields of a description (the rest are the dicts).
_SCALARS = ("vantage", "destination", "scenario", "network", "seed",
            "protocol", "limit", "scale", "per_isp")

#: Fields a caller may supply when the header does not record them.
_FILLABLE = frozenset({"vantage", "destination", "scenario", "network"})

#: The command-line flag behind a field, where it is not ``--field-name``.
_FLAG_NAMES = {"vantage": "--source", "destination": "--dest",
               "incremental": "--full"}


class RunSpecError(ValueError):
    """A run description that cannot be built, or that a flag contradicts."""


def churn_schedule(topology, radar: Optional[Dict]
                   ) -> Optional[MutationSchedule]:
    """The radar's seeded mutation schedule, or None without churn: a
    function of (topology, config) alone, so replays regenerate it."""
    config = {**RADAR_DEFAULTS, **(radar or {})}
    if config["churn_count"] <= 0:
        return None
    return MutationSchedule.generate(
        topology, seed=config["churn_seed"],
        start=max(1, config["churn_start"]),
        interval=max(1, config["churn_interval"]),
        count=config["churn_count"])


def live_transport(engine: Engine, radar: Optional[Dict] = None,
                   events: Optional[EventBus] = None):
    """Simulator → Fault → Mutating: the live chain a radar config asks
    for, deterministic in (topology, config) like every run of it."""
    transport = SimulatorTransport(engine)
    config = {**RADAR_DEFAULTS, **(radar or {})}
    if config["drop_rate"] > 0.0:
        transport = FaultInjectingTransport(
            transport, drop_rate=config["drop_rate"],
            seed=config["fault_seed"])
    schedule = churn_schedule(engine.topology, radar)
    if schedule is not None:
        transport = MutatingTransport(
            transport, schedule, dynamics=NetworkDynamics(engine, schedule),
            events=events)
    return transport


@dataclass(frozen=True)
class RunSpec:
    """The description of one collection run (a journal header's content)."""

    shape: str                      # "trace", "survey" or "radar"
    vantage: Optional[str] = None
    destination: Optional[int] = None
    scenario: Optional[str] = None
    network: Optional[str] = None
    seed: int = 7
    protocol: str = Protocol.ICMP.value
    collector: Dict = field(default_factory=dict)
    radar: Optional[Dict] = None
    limit: Optional[int] = None
    scale: float = 1.0              # the "isp" network's size
    per_isp: Optional[int] = None   # "isp" targets per ISP (None: every one)

    @classmethod
    def from_flags(cls, shape: str, **given) -> "RunSpec":
        """A live run of ``shape``; flags given as None take the defaults."""
        values = {**COMMAND_DEFAULTS[shape],
                  **{k: v for k, v in given.items() if v is not None}}
        collector: Dict = {}
        if (values.get("batch_window") or 0) >= 1:
            collector["batch_window"] = values["batch_window"]
        if values.get("stop_sets"):
            collector["stop_sets"] = True
        if values.get("disabled_rules"):
            collector["disabled_rules"] = sorted(values["disabled_rules"])
        if shape == "survey":
            collector["retry"] = "gated"
        radar = ({key: values[key] for key in RADAR_DEFAULTS}
                 if shape == "radar" else None)
        return cls(shape, collector=collector, radar=radar,
                   **{k: values[k] for k in _SCALARS if k in values})

    @classmethod
    def from_header(cls, metadata: Dict, shape: Optional[str] = None,
                    **given) -> "RunSpec":
        """The run a journal header describes.

        ``shape`` is the run the caller expects: a header recording another
        shape is an error, and it decides the shape of a header recording
        neither a destination nor a network.  ``given`` values (None = not
        given) fill fields the header does not record; one that differs
        from a recorded value raises :class:`RunSpecError` naming both.
        """
        recorded = ("radar" if "radar" in metadata
                    else "trace" if "destination" in metadata
                    else "survey" if "network" in metadata else None)
        if shape is not None and recorded not in (None, shape):
            raise RunSpecError(
                f"the journal records a {recorded} run, not a {shape}")
        shape = recorded or shape
        if shape is None:
            raise RunSpecError(
                "journal metadata names neither a destination nor a "
                "network; pass destination= or targets= explicitly")
        scalars = {k: metadata[k] for k in _SCALARS if k in metadata}
        scalars["vantage"] = metadata.get("source") or metadata.get("vantage")
        if "destination" in metadata:
            scalars["destination"] = parse_ip(metadata["destination"])
        spec = cls(shape, collector=dict(metadata.get("collector") or {}),
                   radar=(dict(metadata["radar"]) if "radar" in metadata
                          else None), **scalars)
        held = spec.values()
        fills = {}
        for name, value in given.items():
            if value is None:
                continue
            if held[name] is None and name in _FILLABLE:
                fills[name] = value
            elif held[name] != value:
                show = format_ip if name == "destination" else repr
                raise RunSpecError(
                    f"{_FLAG_NAMES.get(name, '--' + name.replace('_', '-'))}"
                    f" contradicts the journal header: it records "
                    f"{name}={show(held[name])}, the command asked for "
                    f"{show(value)}")
        return dataclasses.replace(spec, **fills)

    def values(self) -> Dict:
        """Every field a flag can set, flat, with the defaults spelled out."""
        return {**{k: getattr(self, k) for k in _SCALARS},
                "batch_window": self.collector.get("batch_window") or 0,
                "stop_sets": bool(self.collector.get("stop_sets")),
                **RADAR_DEFAULTS, **(self.radar or {})}

    def header(self) -> Dict:
        """The metadata a recording of this run writes into its journal."""
        if self.shape == "trace":
            metadata = {"scenario": self.scenario, "source": self.vantage,
                        "destination": format_ip(self.destination),
                        "protocol": self.protocol}
        else:
            metadata = {"network": self.network, "seed": self.seed,
                        "vantage": self.vantage}
            if self.network == "isp":
                metadata.update(scale=self.scale, per_isp=self.per_isp)
            if self.protocol != Protocol.ICMP.value:
                metadata["protocol"] = self.protocol
            if self.radar is not None:
                metadata["radar"] = dict(self.radar)
            if self.limit is not None:
                metadata["limit"] = self.limit
        if self.collector:
            metadata["collector"] = dict(self.collector)
        return metadata

    def tool_kwargs(self) -> Dict:
        """TraceNET keyword arguments: the protocol and collector options
        (no recorded retry rule means the ungated retry-once)."""
        retry = self.collector.get("retry")
        if retry not in (None, "gated"):
            raise RunSpecError(f"unknown retry rule {retry!r}")
        kwargs: Dict = {"protocol": Protocol(self.protocol),
                        "retries": RetryPolicy(gated=retry == "gated")}
        if self.collector.get("disabled_rules"):
            kwargs["disabled_rules"] = frozenset(
                self.collector["disabled_rules"])
        if self.collector.get("batch_window"):
            kwargs["batch_window"] = int(self.collector["batch_window"])
        if self.collector.get("stop_sets"):
            from .probing.stopset import StopSet

            prefix_length = self.collector.get("stop_prefix_length")
            kwargs["stop_set"] = (StopSet(prefix_length=int(prefix_length))
                                  if prefix_length else StopSet())
        return kwargs

    def load_network(self):
        """The figure scenario or generated network this run probes."""
        if self.shape == "trace" and self.scenario in _SCENARIOS:
            return _SCENARIOS[self.scenario]()
        if self.shape != "trace" and self.network == "isp":
            return build_internet(seed=self.seed, scale=self.scale)
        if self.shape != "trace" and self.network in _NETWORKS:
            return _NETWORKS[self.network].build(seed=self.seed)
        raise RunSpecError(f"unknown scenario or network "
                           f"{self.scenario or self.network!r}")

    def targets(self, network) -> List[int]:
        """The target list the network and seed generate, cut to limit.

        The ISP internet's are its per-ISP groups, flattened: every target
        with ``per_isp`` None, else ``per_isp`` x ISPs drawn in proportion
        to each ISP's subnet count."""
        if self.network == "isp":
            grouped = (network.targets(seed=self.seed) if self.per_isp is None
                       else network.targets_proportional(
                           seed=self.seed,
                           total=self.per_isp * len(network.isps)))
            targets = [t for group in grouped.values() for t in group]
        else:
            targets = _NETWORKS[self.network].targets(network, seed=self.seed)
        if self.limit is not None:
            targets = targets[:max(0, self.limit)]
        if not targets:
            raise RunSpecError("no targets to survey (check --limit)")
        return targets

    def build(self, record=None, transport=None,
              targets: Optional[Sequence[int]] = None) -> "Run":
        """The collector this description runs: served from ``transport``
        (normally a ``ReplayTransport``) when given, else live, journaled
        to ``record`` when given.  ``targets`` replaces the target list the
        network and seed would regenerate."""
        live, spec = transport is None, self
        churn = {**RADAR_DEFAULTS, **(spec.radar or {})}["churn_count"] > 0
        network = (spec.load_network() if live or churn or (
            spec.shape != "trace" and targets is None) else None)
        if live and spec.shape == "trace":
            spec = spec._resolve_endpoints(network)
        if spec.vantage is None:
            raise RunSpecError("the journal names no vantage; pass the "
                               "vantage (--source) explicitly")
        if spec.shape == "trace":
            if spec.destination is None:
                raise RunSpecError("the journal names no destination; pass "
                                   "the destination (--dest) explicitly")
            targets = []
        elif targets is None:
            targets = spec.targets(network)
        bus = EventBus()
        if live:
            engine = Engine(network.topology,
                            policy=getattr(network, "policy", None))
            transport = live_transport(engine, spec.radar, bus)
            if record is not None:
                transport = RecordingTransport(transport, record,
                                               metadata=spec.header())
        elif churn:
            transport = MutatingTransport(
                transport, churn_schedule(network.topology, spec.radar),
                dynamics=None, events=bus)
        tool = TraceNET(transport, spec.vantage, events=bus,
                        **spec.tool_kwargs())
        return Run(spec=spec, tool=tool, network=network,
                   targets=list(targets))

    def _resolve_endpoints(self, scenario) -> "RunSpec":
        """A live trace's vantage (default: the scenario's first host) and
        destination (default: the interface farthest from it)."""
        vantage = self.vantage or next(iter(scenario.hosts))
        if vantage not in scenario.topology.hosts:
            raise RunSpecError(f"unknown source host {vantage!r}")
        destination = self.destination
        if destination is None:
            engine = scenario.engine()
            rng = random.Random(0)
            destination = max(
                scenario.topology.all_interface_addresses,
                key=lambda a: (engine.hop_distance(vantage, a) or 0,
                               rng.random()))
        return dataclasses.replace(self, vantage=vantage,
                                   destination=destination)


@dataclass
class Run:
    """A built run: the collector, the network behind it, its targets."""

    spec: RunSpec
    tool: TraceNET
    network: Optional[object] = None
    targets: List[int] = field(default_factory=list)

    def execute(self, events_path: Optional[str] = None,
                sinks: Sequence = (), tracer=None, registry=None,
                checkpoint_path: Optional[str] = None,
                checkpoint_every: int = 25, slack=None):
        """Run the shape: a trace returns its ``TraceResult``, a survey its
        ``CollectionArchive``, a radar its ``RadarResult``.

        Sinks subscribe in order: the JSONL event sink at
        ``events_path``, ``sinks``, then the auditor of ``registry``.
        ``tracer`` and the metrics fold feeding ``registry`` attach to
        the session log; the registry's backend scope gets the
        transport's counters after the run.  Sinks with ``close()`` and
        the transport close.
        A survey checkpoints to ``checkpoint_path`` every
        ``checkpoint_every`` targets and resumes from it.
        """
        bus = self.tool.events
        attached = list(sinks)
        if events_path is not None:
            attached.insert(0, JsonlEventSink(events_path))
        for sink in attached:
            bus.subscribe(sink)
        if tracer is not None:
            bus.attach(tracer)
        if registry is not None:
            from .metrics import DEFAULT_SLACK, instrument

            instrument(bus, registry=registry,
                       slack=DEFAULT_SLACK if slack is None else slack)
        try:
            with (registry.time("collection_seconds")
                  if registry is not None else nullcontext()):
                outcome = self._run_shape(checkpoint_path, checkpoint_every)
            if registry is not None:
                collect_backend_metrics(registry.backend, self.tool.transport)
        finally:
            for sink in attached:
                if hasattr(sink, "close"):
                    sink.close()
            self.tool.transport.close()
        return outcome

    def _run_shape(self, checkpoint_path: Optional[str],
                   checkpoint_every: int):
        if self.spec.shape == "trace":
            return self.tool.trace(self.spec.destination)
        if self.spec.shape == "survey":
            runner = SurveyRunner(self.tool, checkpoint_path=checkpoint_path,
                                  checkpoint_every=checkpoint_every)
            runner.run(self.targets)
            return runner.archive
        config = {**RADAR_DEFAULTS, **self.spec.radar}
        return RadarRunner(self.tool, self.targets,
                           rounds=max(1, config["rounds"]),
                           incremental=config["incremental"]).run()


__all__ = ["COMMAND_DEFAULTS", "RADAR_DEFAULTS", "Run", "RunSpec",
           "RunSpecError", "churn_schedule", "live_transport"]
