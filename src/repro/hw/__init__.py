"""Simulated hardware: physical memory, page tables, cores, the HFI NIC
and the OmniPath fabric."""

from .cpu import Core, CpuSet
from .fabric import Fabric
from .hfi import (DescriptorChain, HFIDevice, Packet, RcvContext,
                  SdmaDescriptor, SdmaRequestGroup, TidEntry)
from .memory import Extent, FrameAllocator, SharedHeap
from .node import Node
from .pagetable import Mapping, PageTable

__all__ = [
    "Core", "CpuSet", "DescriptorChain", "Extent", "Fabric", "FrameAllocator",
    "HFIDevice", "Mapping", "Node", "Packet", "PageTable", "RcvContext",
    "SdmaDescriptor", "SdmaRequestGroup", "SharedHeap", "TidEntry",
]
