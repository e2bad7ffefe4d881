"""Unit tests for the ProbeTransport seam and its backends."""

import io

import pytest

from repro.baselines import Traceroute
from repro.netsim import Engine
from repro.core import TraceNET
from repro.netsim.packet import DEFAULT_TTL, Probe
from repro.probing import Prober
from repro.transport import (
    FaultInjectingTransport,
    ProbeTransport,
    RecordingTransport,
    ReplayTransport,
    SimulatorTransport,
    as_transport,
)


@pytest.fixture()
def transport(line_engine):
    return SimulatorTransport(line_engine)


class TestSimulatorTransport:
    def test_satisfies_protocol(self, transport):
        assert isinstance(transport, ProbeTransport)

    def test_send_matches_engine(self, line_engine, transport):
        probe = Probe(src=transport.source_address("vantage"),
                      dst=transport.source_address("vantage"),
                      ttl=DEFAULT_TTL)
        direct = line_engine.send(probe)
        assert transport.send(probe).kind == direct.kind

    def test_capabilities(self, transport):
        assert transport.name == "simulator"

    def test_unknown_vantage(self, transport):
        with pytest.raises(ValueError, match="unknown vantage"):
            transport.source_address("nobody")


class TestAsTransport:
    def test_engine_is_wrapped(self, line_engine):
        wrapped = as_transport(line_engine)
        assert isinstance(wrapped, SimulatorTransport)
        assert wrapped.engine is line_engine

    def test_transport_passes_through(self, transport):
        assert as_transport(transport) is transport

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="ProbeTransport"):
            as_transport(42)


class TestCollectorsOnTheSeam:
    """Acceptance criterion: every collector builds from a ProbeTransport
    and keeps working when handed a bare Engine."""

    def test_prober(self, line_engine, transport):
        from_engine = Prober(line_engine, "vantage")
        from_transport = Prober(transport, "vantage")
        assert from_engine.vantage_address == from_transport.vantage_address

    def test_tracenet(self, lan_engine, lan_network, transport):
        destination = min(
            min(r.addresses) for r in lan_network.topology.routers.values())
        seam_tool = TraceNET(SimulatorTransport(lan_engine), "vantage")
        assert seam_tool.trace(destination).hops
        assert seam_tool.engine is lan_engine

    def test_baselines(self, line_engine, line_topology):
        destination = max(line_topology.all_interface_addresses)
        for vary_flow in (True, False):
            result = Traceroute(SimulatorTransport(line_engine), "vantage",
                                vary_flow=vary_flow).trace(destination)
            assert result.hops


class TestFaultInjection:
    def test_zero_rate_is_transparent(self, line_topology):
        hops = []
        for wrap in (False, True):
            engine = Engine(line_topology)
            transport = SimulatorTransport(engine)
            network = (FaultInjectingTransport(transport, drop_rate=0.0)
                       if wrap else transport)
            tool = TraceNET(network, "vantage")
            dst = max(engine.topology.all_interface_addresses)
            hops.append([h.address for h in tool.trace(dst).hops])
        assert hops[0] == hops[1]

    def test_blackhole_silences_target(self, transport, line_topology):
        dst = max(line_topology.all_interface_addresses)
        faulty = FaultInjectingTransport(transport, blackholes={dst})
        tool = Traceroute(faulty, "vantage", vary_flow=False)
        result = tool.trace(dst)
        assert not result.reached
        assert faulty.blackholed > 0

    def test_seeded_drops_are_deterministic(self, line_topology):
        def run(seed):
            engine = Engine(line_topology)
            faulty = FaultInjectingTransport(SimulatorTransport(engine),
                                             drop_rate=0.4, seed=seed)
            tool = Traceroute(faulty, "vantage", vary_flow=False)
            dst = max(engine.topology.all_interface_addresses)
            return [h.address for h in tool.trace(dst).hops]

        assert run(3) == run(3)

    def test_drop_rate_validated(self, transport):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultInjectingTransport(transport, drop_rate=1.5)

    def test_capability_name_nests(self, transport):
        faulty = FaultInjectingTransport(transport, drop_rate=0.1)
        assert faulty.name == "fault(simulator)"


class TestRecordingWrapsAnything:
    def test_capabilities_and_engine_passthrough(self, line_engine, transport):
        recorder = RecordingTransport(transport, io.StringIO())
        assert recorder.name == "recording(simulator)"
        assert recorder.engine is line_engine

    def test_replay_capabilities(self, transport):
        buffer = io.StringIO()
        with RecordingTransport(transport, buffer):
            pass
        buffer.seek(0)
        replay = ReplayTransport(buffer)
        assert replay.name == "replay"
        assert replay.header["inner"] == "simulator"
