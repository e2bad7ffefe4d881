"""TraceNET reproduction: an Internet topology data collector.

Reproduces *Tozal & Sarac, "TraceNET: An Internet Topology Data Collector",
IMC 2010* on a deterministic router-level network simulator.

Quickstart::

    from repro import TraceNET, Engine, TopologyBuilder, ip

    builder = TopologyBuilder("demo")
    builder.link("R1", "R2")
    builder.lan(["R2", "R3", "R4"], length=29)
    stub = builder.link("R4", "R5")
    vantage = builder.edge_host("vantage", "R1")
    engine = Engine(builder.build())

    tool = TraceNET(engine, "vantage")
    result = tool.trace(min(stub.addresses))
    print(result.describe())
"""

from .core import ObservedSubnet, TraceHop, TraceNET, TraceResult
from .events import (
    CounterSink,
    EventBus,
    JsonlEventSink,
    SessionEvent,
)
from .netsim import (
    Engine,
    LoadBalancer,
    LoadBalancingMode,
    Prefix,
    PrefixAllocator,
    Probe,
    Protocol,
    Response,
    ResponsePolicy,
    ResponseType,
    Topology,
    TopologyBuilder,
    format_ip,
    ip,
)
from .probing import Prober
from .radar import RadarResult, RadarRound, RadarRunner
from .runner import SurveyProgress, SurveyRunner
from .transport import (
    FaultInjectingTransport,
    ProbeTransport,
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
)

__version__ = "1.0.0"

__all__ = [
    "CounterSink",
    "Engine",
    "EventBus",
    "FaultInjectingTransport",
    "JsonlEventSink",
    "LoadBalancer",
    "LoadBalancingMode",
    "ObservedSubnet",
    "Prefix",
    "PrefixAllocator",
    "Probe",
    "Prober",
    "ProbeTransport",
    "Protocol",
    "RadarResult",
    "RadarRound",
    "RadarRunner",
    "RecordingTransport",
    "ReplayTransport",
    "SessionEvent",
    "SimulatorTransport",
    "SurveyProgress",
    "SurveyRunner",
    "Response",
    "ResponsePolicy",
    "ResponseType",
    "Topology",
    "TopologyBuilder",
    "TraceHop",
    "TraceNET",
    "TraceResult",
    "format_ip",
    "ip",
]
