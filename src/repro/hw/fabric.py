"""The OmniPath fabric: wire latency between HFIs.

Serialization time is modeled at the sending HFI (PIO copy or SDMA engine
drain), so the fabric itself only adds the one-way wire+switch latency and
hands the packet to the destination HFI.  Loopback (same node) skips the
wire.
"""

from __future__ import annotations

from typing import Dict

from ..config import PLANES
from ..errors import ReproError
from ..obs.spans import track_of
from ..params import NicParams
from ..sim import Simulator
from .hfi import HFIDevice, Packet


class Fabric:
    """A full crossbar of nodes (OFP's fat tree is latency-flat at the
    scales the paper reports; hop count is folded into ``wire_latency``)."""

    def __init__(self, sim: Simulator, params: NicParams):
        self.sim = sim
        self.params = params
        self._hfis: Dict[int, HFIDevice] = {}
        #: optional :class:`repro.faults.FaultInjector` (chaos runs only)
        self.injector = None

    def attach(self, hfi: HFIDevice) -> None:
        """Connect a node's HFI to the fabric."""
        if hfi.node_id in self._hfis:
            raise ReproError(f"node {hfi.node_id} already attached")
        self._hfis[hfi.node_id] = hfi
        hfi.fabric = self

    def __len__(self) -> int:
        return len(self._hfis)

    def transmit(self, packet: Packet) -> None:
        """Deliver a packet after the one-way wire latency (loopback is free)."""
        if packet.dst_node not in self._hfis:
            raise ReproError(f"packet for unknown node {packet.dst_node}")
        inj = self.injector
        if inj is not None and inj.fires("fabric.drop"):
            return
        if inj is not None and inj.fires("fabric.corrupt"):
            packet = packet.replace(csum=(packet.csum ^ 0x5A5A5A5A
                                          if packet.csum is not None else -1))
        dst = self._hfis[packet.dst_node]
        if packet.dst_node == packet.src_node:
            dst.receive(packet)
            return
        if PLANES.trace is not None:
            wire = PLANES.trace.complete_span(
                "fabric.wire", track_of(self), self.sim.now,
                self.sim.now + self.params.wire_latency, cat="wire",
                args={"kind": packet.kind, "nbytes": packet.nbytes,
                      "src": packet.src_node, "dst": packet.dst_node},
                flow_from=packet.trace)
            packet = packet.replace(trace=wire)
        self.sim.timeout(self.params.wire_latency).add_callback(
            lambda _evt: dst.receive(packet))
