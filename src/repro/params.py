"""Calibration parameters for the simulated hardware/software stack.

Every latency, bandwidth and per-item overhead the simulator consumes lives
here, in one place, so the relationship between a constant and the paper
effect it produces is auditable (see DESIGN.md section 4).

The defaults are calibrated so that the *shape* of the paper's results holds:

* ``link_bandwidth`` + ``sdma_desc_overhead`` reproduce Figure 4: with the
  Linux driver's 4KB descriptors a 4MB transfer lands near 10GB/s, while
  the PicoDriver's 10KB descriptors land ~15% higher.
* The IKC constants make one uncontended offloaded syscall cost a few
  microseconds more than a native one — harmless for ping-pong, ruinous
  when 32-64 ranks contend for 4 Linux CPUs (UMT2013/HACC collapse).
* Noise constants give Linux app cores a small residual jitter
  (nohz_full configured, daemons confined to OS cores) that collectives
  amplify at scale.

Absolute numbers are synthetic; they are chosen to be *plausible* for KNL +
OmniPath but no claim is made beyond shape fidelity (EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .units import KiB, MiB, GiB, PAGE_SIZE, USEC, NSEC


@dataclass(frozen=True)
class NicParams:
    """Host Fabric Interface (HFI) and OmniPath fabric characteristics."""

    #: PSM switches from PIO to SDMA at this message size (paper section 2.2.1).
    pio_threshold: int = 64 * KiB
    #: Number of SDMA engines per HFI (paper section 2.2.1).
    sdma_engines: int = 16
    #: Descriptor ring capacity per SDMA engine.
    sdma_ring_size: int = 128
    #: Per-message PIO injection overhead (doorbell + header build).
    pio_overhead: float = 0.55 * USEC
    #: PIO copy bandwidth (store to write-combining window).
    pio_bandwidth: float = 3.2e9
    #: Raw link payload bandwidth (OmniPath 100Gbit/s, payload-efficient).
    link_bandwidth: float = 12.3e9
    #: One-way wire + switch latency between any two nodes.
    wire_latency: float = 0.9 * USEC
    #: SDMA engine per-descriptor fetch/setup overhead. The key Figure 4
    #: constant: 1024 x 4KB descriptors for 4MB cost ~84us on top of the
    #: ~340us of wire time, vs ~420 x 10KB descriptors costing ~34us.
    sdma_desc_overhead: float = 60 * NSEC
    #: The hardware accepts SDMA requests up to this size if the physical
    #: range is contiguous (paper section 3.4).
    sdma_max_request: int = 10 * KiB
    #: The Linux HFI1 driver only ever submits PAGE_SIZE requests
    #: (paper section 3.4: "utilizes only up to PAGE_SIZE long SDMA requests").
    linux_max_request: int = PAGE_SIZE
    #: RcvArray (expected receive) entries per context.
    rcv_array_entries: int = 2048
    #: Cost to program / unprogram one RcvArray entry (MMIO write).
    tid_program_cost: float = 70 * NSEC
    #: Largest physically-contiguous span one RcvArray entry can cover.
    tid_max_span: int = 2 * MiB
    #: Receiver-side memcpy bandwidth for eager messages (PSM copies from
    #: library-internal buffers to application buffers, section 2.2.1).
    eager_copy_bandwidth: float = 10.0e9
    #: Intra-node (shared memory) transport: PSM never touches the driver
    #: for ranks on the same node, which is why single-node runs show OS
    #: parity in Figures 5-7.
    shm_latency: float = 0.6 * USEC
    shm_bandwidth: float = 8.0e9
    #: Interrupt delivery latency (IRQ raise to handler start).
    irq_latency: float = 1.4 * USEC
    #: Completion handler fixed cost (callback dispatch + metadata cleanup).
    irq_handler_cost: float = 0.9 * USEC
    #: SDMA engine drain/reinit time after a halt (the hfi1 driver's
    #: S10_HW_START_UP_HALT_WAIT dwell: descriptor queue flush + CSR
    #: reprogramming before the engine re-enters S99_RUNNING).
    sdma_restart_cost: float = 40 * USEC
    #: Submit-side bound on waiting for a halted engine to return to
    #: S99_RUNNING (covers several back-to-back restart cycles); when it
    #: elapses the slow path surfaces a typed :class:`DeviceTimeout`
    #: instead of hanging the submitter on an engine that never recovers.
    sdma_wait_timeout: float = 400 * USEC


@dataclass(frozen=True)
class SyscallParams:
    """Per-syscall cost building blocks (native execution)."""

    #: Kernel entry/exit (trap, save/restore) on Linux.
    linux_entry: float = 0.28 * USEC
    #: Kernel entry/exit on McKernel (leaner path, no audit/seccomp).
    lwk_entry: float = 0.12 * USEC
    #: get_user_pages() per-page cost in the Linux driver (lookup + pin).
    gup_per_page: float = 40 * NSEC
    #: McKernel page-table iteration cost per *physical span* — pinned
    #: memory means no page references are taken (paper section 3.4).
    ptwalk_per_span: float = 18 * NSEC
    #: Building one SDMA descriptor (request structure + ring write).
    desc_build: float = 26 * NSEC
    #: writev() fixed handler cost in the Linux HFI1 driver (iovec copy,
    #: validation, engine reservation).
    writev_base: float = 0.85 * USEC
    #: writev() fixed cost in the HFI PicoDriver fast path.
    writev_base_pico: float = 0.38 * USEC
    #: ioctl(TID_UPDATE) fixed handler cost (Linux driver).
    tid_ioctl_base: float = 0.95 * USEC
    #: ioctl(TID_UPDATE) fixed cost in the PicoDriver fast path.
    tid_ioctl_base_pico: float = 0.34 * USEC
    #: Misc slow-path syscalls (always Linux-served).
    open_cost: float = 4.5 * USEC
    close_cost: float = 1.2 * USEC
    read_cost: float = 0.9 * USEC
    poll_cost: float = 1.6 * USEC
    mmap_cost: float = 2.8 * USEC
    munmap_cost: float = 3.4 * USEC
    nanosleep_cost: float = 1.1 * USEC
    #: per-process PicoDriver initialization (kernel-level mappings of
    #: driver internals, DWARF-layout setup) — the MPI_Init inflation the
    #: paper observes for McKernel+HFI in Table 1.
    pico_init_cost: float = 350 * USEC
    #: installing one page-table entry during mmap.
    page_map_cost: float = 25 * NSEC
    #: tearing down one page-table entry (incl. amortized TLB shootdown) —
    #: the munmap cost that dominates QBOX's residual kernel time (Fig. 9).
    page_unmap_cost: float = 48 * NSEC


@dataclass(frozen=True)
class PsmParams:
    """PSM library protocol parameters (section 2.2.1)."""

    #: messages above the PIO threshold but at most this size are sent
    #: eager over SDMA (receiver copies out of library buffers); larger
    #: messages use expected receive with TID registration.
    expected_threshold: int = 192 * KiB
    #: rendezvous window: one TID registration + one writev per window.
    window_size: int = 256 * KiB
    #: expected-receive windows registered ahead of the incoming data.
    prefetch_windows: int = 3
    #: RTS/CTS control message size (PIO, user-space driven).
    ctrl_bytes: int = 64
    #: library-side bookkeeping per MQ operation.
    mq_overhead: float = 0.25 * USEC
    #: receiver progress-engine work per rendezvous window (rcvhdrq
    #: polling, header validation, completion bookkeeping) — identical on
    #: every OS configuration.
    rndv_window_overhead: float = 6.0 * USEC
    #: base reliability timeout: an un-ACKed eager send, an unanswered
    #: RTS, or a CTS whose data never lands is retransmitted after this
    #: long (chosen well above the worst uncontended transfer time of one
    #: 256KB window so the zero-fault path never spuriously retries).
    retry_timeout: float = 400 * USEC
    #: exponential backoff multiplier applied per retransmission.
    retry_backoff: float = 2.0
    #: bounded retransmit budget before a typed DeviceTimeout /
    #: TransferCorrupt surfaces to the application.
    max_retries: int = 6


@dataclass(frozen=True)
class IkcParams:
    """Inter-kernel communication (syscall offloading) costs."""

    #: Marshal request + enqueue on the IKC channel.
    request_cost: float = 0.50 * USEC
    #: Inter-processor interrupt to wake the Linux-side worker.
    ipi_cost: float = 1.30 * USEC
    #: Linux-side dequeue + proxy-process context dispatch.
    dispatch_cost: float = 1.50 * USEC
    #: Marshal response + notify the LWK core.
    response_cost: float = 1.00 * USEC
    #: Effective per-dispatch disturbance when more proxy processes are
    #: runnable than there are OS CPUs: direct context switch plus cache/
    #: TLB pollution and IPI/scheduler storms on slow in-order KNL cores.
    #: This is the paper's section 4.3 amplification: "substantially lower
    #: number of Linux CPUs than the number of MPI ranks ... introduces
    #: high contention on a few Linux CPUs for driver processing".  The
    #: magnitude is derived from the paper's own Table 1 (McKernel spends
    #: ~80% of UMT runtime in MPI on modest message counts, implying
    #: effective per-offload service of hundreds of microseconds under
    #: full 32-rank thrash); see DESIGN.md section 4.
    context_switch_cost: float = 75.0 * USEC
    #: Cap on the queue-depth-per-CPU multiplier of the switch penalty.
    contention_cap: float = 8.0

    @property
    def round_trip(self) -> float:
        """Uncontended offload overhead on top of the handler itself."""
        return (self.request_cost + self.ipi_cost
                + self.dispatch_cost + self.response_cost)


@dataclass(frozen=True)
class NoiseParams:
    """Residual OS noise on Linux application cores.

    OFP's production Linux runs nohz_full on app cores, so the residual
    noise is small: rare timer ticks plus occasional kworker activity.
    McKernel app cores are tickless and noise-free.
    """

    #: Residual tick rate on nohz_full cores (housekeeping still fires).
    tick_rate_hz: float = 10.0
    #: Cost of one residual tick.
    tick_cost: float = 4.0 * USEC
    #: Rate of heavier asynchronous events (kworker, RCU callbacks).
    burst_rate_hz: float = 3.5
    #: Log-normal parameters of burst duration (median ~60us, heavy tail).
    burst_log_median: float = 90.0 * USEC
    burst_log_sigma: float = 0.9

    @property
    def mean_fraction(self) -> float:
        """Expected fraction of CPU stolen by noise (first-order)."""
        import math
        burst_mean = self.burst_log_median * math.exp(self.burst_log_sigma ** 2 / 2)
        return (self.tick_rate_hz * self.tick_cost
                + self.burst_rate_hz * burst_mean)


@dataclass(frozen=True)
class NodeParams:
    """A KNL compute node as configured in the paper's evaluation."""

    #: Total CPU cores (Xeon Phi 7250; dev nodes have 64-core 7210).
    total_cores: int = 68
    #: Cores given to the application (power-of-two, paper section 4.1).
    app_cores: int = 64
    #: Cores reserved for OS activity / Linux in multi-kernel mode.
    os_cores: int = 4
    #: Hardware threads per core.
    hw_threads: int = 4
    #: MCDRAM capacity.
    mcdram_bytes: int = 16 * GiB
    #: DDR4 capacity.
    ddr_bytes: int = 96 * GiB
    #: NUMA domains in SNC-4 flat mode (4 MCDRAM + 4 DDR).
    numa_domains: int = 8


@dataclass(frozen=True)
class MemParams:
    """Memory-management policies that differ between the kernels."""

    #: Linux anonymous pages: effectively random 4KB frames (fragmented
    #: after boot); probability two virtually-adjacent pages are also
    #: physically adjacent.
    linux_contig_prob: float = 0.02
    #: McKernel backs anonymous mappings with large pages / contiguous
    #: runs whenever possible (paper section 3.4).
    lwk_large_page_prob: float = 0.97
    #: kmalloc per-object allocator cost (both kernels, same order).
    kmalloc_cost: float = 90 * NSEC
    #: kfree cost on the owning core.
    kfree_cost: float = 60 * NSEC
    #: Extra cost of McKernel kfree invoked from a *Linux* CPU
    #: (foreign-core free list insertion, paper section 3.3).
    foreign_free_cost: float = 150 * NSEC


@dataclass(frozen=True)
class BlkParams:
    """The modeled pxd block device and its backing replicas.

    ``replicas`` defaults to 0: no machine grows a block device unless a
    storage experiment opts in, which is what keeps the paper figures
    bit-identical to the pre-PicoBlock tree.
    """

    #: Backing replicas each write is cloned to (0 = no block device).
    replicas: int = 0
    #: Sector size of the backing media.
    sector_size: int = 512
    #: Sectors per backing store (capacity = sectors * sector_size).
    #: Capacity costs no host memory until it is written: a replica
    #: stores only the sectors written, and the rest read as zeros.
    sectors: int = 4096
    #: Completion-queue depth per replica; doubles as the congestion
    #: gate capacity (px-fuse ``qdepth`` / ``nr_congestion_on``).
    qdepth: int = 32
    #: Fixed media access latency per IO (NVMe-class flash).
    media_latency: float = 8.0 * USEC
    #: Media streaming bandwidth.
    media_bandwidth: float = 2.0e9
    #: Fixed submit-side cost in the Linux pxd slow path (bio build,
    #: tracker clone, per-replica queueing).
    submit_base: float = 0.9 * USEC
    #: Fixed submit cost in the pxd PicoDriver fast path.
    submit_base_pico: float = 0.4 * USEC
    #: Copy bandwidth of the resync scrubber that re-mirrors an evicted
    #: replica from a healthy survivor before re-admission.
    resync_bandwidth: float = 1.2e9


@dataclass(frozen=True)
class Params:
    """Top-level parameter bundle handed to every simulator component."""

    nic: NicParams = field(default_factory=NicParams)
    psm: PsmParams = field(default_factory=PsmParams)
    syscall: SyscallParams = field(default_factory=SyscallParams)
    ikc: IkcParams = field(default_factory=IkcParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    node: NodeParams = field(default_factory=NodeParams)
    mem: MemParams = field(default_factory=MemParams)
    blk: BlkParams = field(default_factory=BlkParams)
    #: Root seed for all random streams (deterministic runs).
    seed: int = 20180611  # HPDC'18 opening day

    def with_overrides(self, **sections) -> "Params":
        """Return a copy with whole sections replaced, e.g.
        ``params.with_overrides(nic=replace(params.nic, sdma_engines=8))``.
        """
        return replace(self, **sections)


def default_params(seed: int = 20180611) -> Params:
    """The calibrated defaults used by all experiments."""
    return Params(seed=seed)
