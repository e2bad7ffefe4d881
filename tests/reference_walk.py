"""Differential reference: the hop-by-hop walking engine.

:class:`repro.netsim.Engine` answers every probe by resolving the flow's
path once and replaying the response plan for the probe's TTL.
:class:`WalkingEngine` answers the same probes the old way, by walking the
routed path hop by hop and building each response live.  It shares the
engine's clock, statistics, rate limiters and load balancer, so the two
must agree packet for packet: same responses, same rate-limit bucket
drains and the same per-packet balancer PRNG draws.  Test-only; never
memoizes.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.engine import Engine, UnassignedAddressBehavior
from repro.netsim.packet import ALIVE_RESPONSES, Probe, Response, ResponseType
from repro.netsim.router import DirectConfig, IndirectConfig, Router
from repro.netsim.routing import FlowKey
from repro.netsim.topology import Host


class WalkingEngine(Engine):
    """An :class:`Engine` whose every probe walks the topology hop by hop."""

    def __init__(self, *args, **kwargs):
        # No memo: send_many falls back to this send() probe by probe.
        kwargs["path_cache"] = False
        super().__init__(*args, **kwargs)

    def send(self, probe: Probe) -> Optional[Response]:
        self._check_mutations()
        self.clock += 1
        self.stats.record_probe(probe.protocol)
        response = self._walk(probe)
        if response is None:
            self.stats.silent_drops += 1
        else:
            self.stats.responses_returned += 1
        return response

    def _walk(self, probe: Probe) -> Optional[Response]:
        host = self.topology.host_at(probe.src)
        if host is None:
            raise ValueError(f"probe source {probe.src} is not a registered host")
        flow = FlowKey(src=probe.src, dst=probe.dst,
                       protocol=probe.protocol.value, flow_id=probe.flow_id)
        dest_subnet = self.topology.subnet_containing(probe.dst)
        dest_host = self.topology.host_at(probe.dst)

        current = self.topology.routers[host.gateway_router_id]
        incoming_address: Optional[int] = None
        entry_iface = current.interface_on(host.subnet_id)
        if entry_iface is not None:
            incoming_address = entry_iface.address
        ttl = probe.ttl

        for _ in range(self.max_hops):
            if current.owns(probe.dst):
                return self._direct_response(probe, current)

            ttl -= 1
            if ttl == 0:
                return self._ttl_exceeded(probe, current, incoming_address, host)

            if dest_subnet is not None and current.interface_on(dest_subnet.subnet_id):
                return self._deliver_across_lan(probe, current, dest_subnet.subnet_id,
                                                dest_host)
            if dest_subnet is None:
                return None
            hops = self.routing.next_hops(current.router_id, dest_subnet.subnet_id)
            if not hops:
                return None
            choice = self.balancer.choose(current.router_id, hops, flow)
            next_router = self.topology.routers[choice.router_id]
            via_iface = next_router.interface_on(choice.via_subnet_id)
            incoming_address = via_iface.address if via_iface is not None else None
            current = next_router
        return None

    def _deliver_across_lan(self, probe: Probe, current: Router,
                            subnet_id: str, dest_host: Optional[Host]
                            ) -> Optional[Response]:
        """Final LAN hop: ``current`` is attached to the destination subnet."""
        if dest_host is not None and dest_host.subnet_id == subnet_id:
            return self._host_response(probe, dest_host)
        iface = self.topology.interface_at(probe.dst)
        if iface is None or iface.subnet_id != subnet_id:
            return self._unassigned_response(probe, current, subnet_id)
        target_router = self.topology.routers[iface.router_id]
        return self._direct_response(probe, target_router)

    def _direct_response(self, probe: Probe, router: Router) -> Optional[Response]:
        subnet = self.topology.subnet_containing(probe.dst)
        if subnet is not None and self.policy.subnet_is_firewalled(subnet.subnet_id):
            return None
        if self.policy.interface_is_silent(probe.dst):
            return None
        if not self.policy.router_responds(router.router_id, probe.protocol, self.clock):
            return None
        if router.direct_config == DirectConfig.NIL:
            return None
        return Response(kind=ALIVE_RESPONSES[probe.protocol], source=probe.dst,
                        probe=probe, responder=router.router_id)

    def _host_response(self, probe: Probe, host: Host) -> Optional[Response]:
        subnet_id = host.subnet_id
        if self.policy.subnet_is_firewalled(subnet_id):
            return None
        if self.policy.interface_is_silent(probe.dst):
            return None
        return Response(kind=ALIVE_RESPONSES[probe.protocol], source=probe.dst,
                        probe=probe, responder=host.host_id)

    def _ttl_exceeded(self, probe: Probe, router: Router,
                      incoming_address: Optional[int],
                      vantage: Host) -> Optional[Response]:
        if not self.policy.router_responds(router.router_id, probe.protocol, self.clock):
            return None
        source: Optional[int]
        if router.indirect_config == IndirectConfig.NIL:
            return None
        if router.indirect_config == IndirectConfig.INCOMING:
            source = incoming_address
        elif router.indirect_config == IndirectConfig.SHORTEST_PATH:
            source = self.routing.egress_interface_toward(
                router.router_id, vantage.subnet_id)
        else:
            source = router.report_address()
        if source is None:
            return None
        # A reticent interface still sources TTL-Exceeded packets; only
        # direct probes to it are filtered.  Keep the reply.
        return Response(kind=ResponseType.TTL_EXCEEDED, source=source,
                        probe=probe, responder=router.router_id)

    def _unassigned_response(self, probe: Probe, router: Router,
                             subnet_id: str) -> Optional[Response]:
        if self.unassigned_behavior == UnassignedAddressBehavior.SILENT:
            return None
        if self.policy.subnet_is_firewalled(subnet_id):
            return None
        if not self.policy.router_responds(router.router_id, probe.protocol, self.clock):
            return None
        iface = router.interface_on(subnet_id)
        if iface is None:
            return None
        return Response(kind=ResponseType.HOST_UNREACHABLE, source=iface.address,
                        probe=probe, responder=router.router_id)
