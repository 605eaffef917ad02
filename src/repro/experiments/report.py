"""The paper's claims as one table, and the measured report that reads it.

Each ``CLAIMS`` row declares one claim once: an id, its figure, the
paper's statement, an extractor measuring one value, the band the value
must fall in (or the name expected) and, for a known deviation, why.
``python -m repro report``, ``tests/experiments/test_claims.py`` and the
claim tables of EXPERIMENTS.md (copies of the report's) all read it.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..apps import NEKBONE, QBOX, UMT2013
from ..apps.imb import PingPong
from ..cluster import simulate_app
from ..config import ALL_CONFIGS, OSConfig
from ..core.mlx_pico import MlxMemRegPicoDriver
from ..linux.mlx import MLX_CMD_REG_MR, MlxDriver
from ..linux.scheduler import derived_switch_cost
from ..params import Params, default_params
from ..units import KiB, MiB, PAGE_SIZE, USEC
from .common import build_machine
from .contention import run_contention
from .fig4 import DEFAULT_SIZES, run_fig4
from .fig5 import run_fig5a, run_fig5b
from .fig6 import run_fig6a, run_fig6b
from .fig7 import run_fig7
from .fig8_9 import run_fig8, run_fig9
from .scale_projection import run_projection
from .sloc import run_sloc
from .table1 import run_table1

LINUX, MCK, HFI = ALL_CONFIGS
Value = Union[float, str]


class Claim(NamedTuple):
    """One claim; it holds when the measured value lies strictly inside
    ``lo``..``hi`` (either end open) or, for a name, equals ``expect``."""

    id: str
    figure: str
    statement: str
    measure: Callable[[SimpleNamespace], Value]
    lo: Optional[float] = None
    hi: Optional[float] = None
    expect: Optional[str] = None
    deviation: str = ""

    def holds(self, value: Value) -> bool:
        """Whether ``value`` falls in this claim's band."""
        if self.expect is not None:
            return value == self.expect
        return ((self.lo is None or value > self.lo)
                and (self.hi is None or value < self.hi))

    def band(self) -> str:
        """The band as the report prints it."""
        if self.expect is not None:
            return self.expect
        if self.lo is None or self.hi is None:
            return f"< {self.hi:g}" if self.lo is None else f"> {self.lo:g}"
        return f"{self.lo:g}–{self.hi:g}"


def _tweak(section: str, **fields) -> Params:
    """The default parameters with some fields of one section replaced."""
    params = default_params()
    return params.with_overrides(
        **{section: replace(getattr(params, section), **fields)})


def _rel(spec, n_nodes: int, config: OSConfig, params: Params) -> float:
    """Figure of merit of ``config`` relative to Linux's."""
    return (simulate_app(spec, n_nodes, config, params=params).figure_of_merit
            / simulate_app(spec, n_nodes, LINUX,
                           params=params).figure_of_merit)


def _pingpong(config: OSConfig, params: Optional[Params] = None):
    """(bandwidth, machine) of a 4 MiB ping-pong on a fresh machine."""
    machine = build_machine(2, config, params=params)
    return (PingPong(machine, repetitions=3).run([4 * MiB])[4 * MiB],
            machine)


def _window(window: int) -> float:
    """McKernel/Linux 4 MiB bandwidth with this rendezvous window."""
    params = _tweak("psm", window_size=window)
    return _pingpong(MCK, params)[0] / _pingpong(LINUX, params)[0]


def _umt8(section: str, **fields) -> float:
    """UMT2013 McKernel/Linux at 8 nodes with some parameters replaced."""
    return _rel(UMT2013, 8, MCK, _tweak(section, **fields))


def _reg_mr(config: OSConfig) -> Tuple[float, int]:
    """(latency, MTT entries) of one 16 MiB mlx5 memory registration."""
    machine = build_machine(1, config)
    mlx = MlxDriver()
    machine.nodes[0].linux.load_driver(mlx)
    if config is HFI:
        machine.nodes[0].mckernel.register_picodriver(
            MlxMemRegPicoDriver(mlx))
    task = machine.spawn_rank(0, 0)

    def body():
        fd = yield from task.syscall("open", mlx.device_path)
        buf = yield from task.syscall("mmap", 16 * MiB)
        t0 = machine.sim.now
        yield from task.syscall("ioctl", fd, MLX_CMD_REG_MR,
                                {"vaddr": buf, "length": 16 * MiB})
        return machine.sim.now - t0, mlx.mtt_entries_used

    return machine.sim.run(until=machine.sim.process(body()))


def _driver_share(breakdown) -> float:
    return breakdown.share("ioctl") + breakdown.share("writev")


def _multi(result, config: OSConfig):
    """``config``'s relative performance on the multi-node runs."""
    return [v for n, v in result.relative[config].items() if n > 1]


def _quiet(spec, n_nodes: int) -> float:
    """HFI/Linux with Linux's residual noise switched off."""
    return _rel(spec, n_nodes, HFI,
                _tweak("noise", tick_rate_hz=0.0, burst_rate_hz=0.0))


CLAIMS: Tuple[Claim, ...] = (
    Claim("fig4.pio_parity", "Figure 4", "the three configurations are "
          "identical up to 64 KB, the PIO threshold (largest gap to 1)",
          lambda r: max(abs(r.fig4.ratio(c, s) - 1) for c in (MCK, HFI)
                        for s in DEFAULT_SIZES if s <= 64 * KiB), hi=1e-6),
    Claim("fig4.mck_4mb", "Figure 4", "McKernel reaches only ~90% of Linux "
          "on large messages (McKernel/Linux, 4 MB)",
          lambda r: r.fig4.ratio(MCK, 4 * MiB), 0.80, 0.97),
    Claim("fig4.hfi_4mb", "Figure 4", "McKernel+HFI beats Linux by up to "
          "15% on 4 MB buffers (HFI/Linux)",
          lambda r: r.fig4.ratio(HFI, 4 * MiB), 1.08, 1.30),
    Claim("fig4.hfi_peak", "Figure 4", "… peaking at 4 MB (top HFI/Linux)",
          lambda r: max(r.fig4.ratio(HFI, s) for s in DEFAULT_SIZES),
          1.38, 1.44, deviation="the gain peaks at 256 KB, one rendezvous "
          "window: fixed per-message costs understate mid-size protocol work"),
    Claim("fig4.size_step", "Figure 4", "bandwidth grows with message size "
          "(smallest ratio of consecutive sizes, any configuration)",
          lambda r: min(r.fig4.series[c][b] / r.fig4.series[c][a]
                        for c in ALL_CONFIGS
                        for a, b in zip(DEFAULT_SIZES, DEFAULT_SIZES[1:])),
          0.82, 0.86, deviation="128 KB is under the 192 KB expected_threshold"
          " (eager over SDMA); 256 KB first pays a TID registration"),
    Claim("fig4.pico_desc_kib", "Figure 4", "the PicoDriver uses the 10 KB "
          "maximum SDMA request, Linux 4 KB pages (mean KiB, 4 MB)",
          lambda r: _pingpong(HFI)[1].tracer.get_mean("hfi.sdma_desc_bytes")
          / KiB, lo=9.5),
    Claim("fig4.linux_4mb_gbs", "Figure 4", "Linux peaks near 10 GB/s "
          "(GB/s at 4 MB)",
          lambda r: r.fig4.series[LINUX][4 * MiB] / 1e9, 9.0, 11.0),
    Claim("fig5a.mck", "Figure 5a", "LAMMPS on McKernel performs like "
          "Linux (largest gap of McKernel/Linux to 1)",
          lambda r: max(abs(v - 1) for v in r.fig5a.series(MCK)), hi=0.06),
    Claim("fig5a.hfi", "Figure 5a", "the HFI PicoDriver introduces no "
          "regression (largest gap of HFI/Linux to 1)",
          lambda r: max(abs(v - 1) for v in r.fig5a.series(HFI)), hi=0.06),
    Claim("fig5b.mck_max", "Figure 5b", "Nekbone gains a little on McKernel "
          "from the beginning on (highest McKernel/Linux)",
          lambda r: max(r.fig5b.series(MCK)), lo=1.0),
    Claim("fig5b.min", "Figure 5b", "… and never loses more than 3% "
          "(lowest McKernel or HFI/Linux)",
          lambda r: min(r.fig5b.series(MCK) + r.fig5b.series(HFI)), lo=0.97),
    Claim("fig5b.hfi_max", "Figure 5b", "McKernel+HFI performs like the "
          "original, often slightly better (highest HFI/Linux)",
          lambda r: max(r.fig5b.series(HFI)), lo=1.0),
    Claim("fig5b.hfi_vs_mck", "Figure 5b", "… (largest HFI to McKernel gap)",
          lambda r: max(abs(h - m) for h, m in zip(r.fig5b.series(HFI),
                                                   r.fig5b.series(MCK))),
          hi=0.01),
    Claim("fig6a.one_node", "Figure 6a", "UMT2013 is on par with Linux on "
          "one node (largest gap of McKernel or HFI/Linux to 1)",
          lambda r: max(abs(r.fig6a.relative[c][1] - 1) for c in (MCK, HFI)),
          hi=0.07),
    Claim("fig6a.mck_128", "Figure 6a", "the original McKernel falls under "
          "20% of Linux past 4 nodes (McKernel/Linux, 128 nodes)",
          lambda r: r.fig6a.relative[MCK][128], hi=0.25),
    Claim("fig6a.mck_4_8", "Figure 6a", "… (highest McKernel/Linux, 4–8 "
          "nodes)", lambda r: max(r.fig6a.relative[MCK][n] for n in (4, 8)),
          0.30, 0.36, deviation="milder than the paper's collapse at 4–8 "
          "nodes; it deepens with scale, under 20% from 128 nodes"),
    Claim("fig6a.hfi_min", "Figure 6a", "McKernel+HFI consistently beats "
          "Linux (lowest multi-node HFI/Linux)",
          lambda r: min(_multi(r.fig6a, HFI)), lo=1.0),
    Claim("fig6a.hfi_128", "Figure 6a", "… (HFI/Linux, 128 nodes)",
          lambda r: r.fig6a.relative[HFI][128], lo=1.05),
    Claim("fig6a.hfi_peak", "Figure 6a", "… by up to 20% (highest HFI/Linux)",
          lambda r: max(r.fig6a.series(HFI)), 1.06, 1.11,
          deviation="sustained sweeps are wire-bound, which caps the gain "
          "near the descriptor-overhead ratio (~13%)"),
    Claim("fig6b.mck_1node", "Figure 6b", "HACC is on par with Linux on one "
          "node (McKernel/Linux)",
          lambda r: r.fig6b.relative[MCK][1], 0.95, 1.10),
    Claim("fig6b.mck_avg", "Figure 6b", "the original McKernel attains only "
          "71% of Linux on average (multi-node mean)",
          lambda r: sum(_multi(r.fig6b, MCK)) / len(_multi(r.fig6b, MCK)),
          0.60, 0.85),
    Claim("fig6b.hfi_min", "Figure 6b", "McKernel+HFI is above Linux "
          "(lowest multi-node HFI/Linux)",
          lambda r: min(_multi(r.fig6b, HFI)), lo=1.0),
    Claim("fig7.mck_min", "Figure 7", "QBOX on the original McKernel is not "
          "significantly below Linux (lowest McKernel/Linux)",
          lambda r: min(r.fig7.series(MCK)), lo=0.65),
    Claim("fig7.hfi_256", "Figure 7", "McKernel+HFI speeds QBOX up by up to "
          "30% (HFI/Linux, 256 nodes)",
          lambda r: r.fig7.relative[HFI][256], lo=1.10),
    Claim("fig7.hfi_growth", "Figure 7", "… growing with scale (256 over 4 "
          "nodes)", lambda r: r.fig7.relative[HFI][256]
          / r.fig7.relative[HFI][4], lo=1.0),
    Claim("table1.umt_wait_blowup", "Table 1", "the original McKernel spends "
          "~10× more in UMT2013's MPI_Wait (McKernel/Linux)",
          lambda r: r.table1.time_in("UMT2013", MCK, "Wait")
          / r.table1.time_in("UMT2013", LINUX, "Wait"), lo=4.0),
    Claim("table1.umt_mck_top", "Table 1", "MPI_Wait is where McKernel's "
          "time goes (UMT2013 top call)",
          lambda r: r.table1.top("UMT2013", MCK, 1)[0].call, expect="Wait"),
    Claim("table1.umt_hfi_wait", "Table 1", "McKernel+HFI spends less in "
          "MPI_Wait than Linux (UMT2013, HFI/Linux)",
          lambda r: r.table1.time_in("UMT2013", HFI, "Wait")
          / r.table1.time_in("UMT2013", LINUX, "Wait"), hi=1.0),
    Claim("table1.hacc_linux_top", "Table 1", "HACC's dominant Linux cost is "
          "MPI_Cart_create (top call)", expect="Cart_create",
          measure=lambda r: r.table1.top("HACC", LINUX, 1)[0].call),
    Claim("table1.umt_linux_top", "Table 1", "Linux UMT2013 is "
          "Barrier-dominated, Wait second (top call)",
          lambda r: r.table1.top("UMT2013", LINUX, 1)[0].call, expect="Wait",
          deviation="the sweep wire wait is charged to MPI_Wait, not folded "
          "into barrier imbalance"),
    Claim("fig8.mck_driver_share", "Figure 8", "ioctl() + writev() are over "
          "70% of the original McKernel's kernel time",
          lambda r: _driver_share(r.fig8.mckernel), lo=0.70),
    Claim("fig8.hfi_driver_share", "Figure 8", "with the PicoDriver they "
          "drop below 30%",
          lambda r: _driver_share(r.fig8.mckernel_hfi), hi=0.30),
    Claim("fig8.kernel_time", "Figure 8", "McKernel+HFI kernel time is 7% "
          "of the original's", lambda r: r.fig8.kernel_time_ratio, hi=0.15),
    Claim("fig9.hfi_driver_share", "Figure 9", "QBOX sees the same ioctl() "
          "+ writev() reduction (McKernel+HFI share)",
          lambda r: _driver_share(r.fig9.mckernel_hfi), hi=0.30),
    Claim("fig9.hfi_top", "Figure 9", "munmap() dominates the remaining "
          "kernel time (McKernel+HFI top syscall)",
          lambda r: r.fig9.mckernel_hfi.dominant(), expect="munmap"),
    Claim("fig9.kernel_time", "Figure 9", "McKernel+HFI kernel time is 25% "
          "of the original's", lambda r: r.fig9.kernel_time_ratio, 0.50,
          0.55, deviation="the direction holds (QBOX keeps far more kernel "
          "time than UMT2013); the share is twice the paper's"),
    Claim("contention.parity", "Section 4.3 contention", "offload latency "
          "holds while ranks ≤ Linux CPUs (4 ranks over 1)",
          lambda r: r.contention.amplification(4), 0.95, 1.05),
    Claim("contention.amplification", "Section 4.3 contention", "… and "
          "explodes past them (32 ranks over 1)",
          lambda r: r.contention.amplification(32), lo=100.0),
    Claim("projection.umt_mck", "Section 6 projection", "UMT2013's McKernel "
          "collapse persists to 2,048 nodes (highest McKernel/Linux)",
          lambda r: max(r.projection.series("UMT2013", MCK)), hi=0.25),
    Claim("projection.umt_hfi", "Section 6 projection", "… and so does the "
          "HFI advantage (lowest HFI/Linux)",
          lambda r: min(r.projection.series("UMT2013", HFI)), lo=1.0),
    Claim("projection.nekbone_growth", "Section 6 projection", "Nekbone's "
          "McKernel edge widens (2,048 over 256 nodes)",
          lambda r: r.projection.series("Nekbone", MCK)[-1]
          / r.projection.series("Nekbone", MCK)[0], lo=1.0),
    Claim("projection.qbox_growth", "Section 6 projection", "QBOX's HFI "
          "gain keeps growing (2,048 over 256 nodes)",
          lambda r: r.projection.series("QBOX", HFI)[-1]
          / r.projection.series("QBOX", HFI)[0], lo=1.0),
    Claim("mlx.offload", "Section 6 InfiniBand", "offloaded 16 MB reg_mr is "
          "slower than Linux (McKernel/Linux latency)",
          lambda r: _reg_mr(MCK)[0] / _reg_mr(LINUX)[0], lo=1.0),
    Claim("mlx.pico", "Section 6 InfiniBand", "the reg_mr fast path beats "
          "Linux (HFI/Linux latency)",
          lambda r: _reg_mr(HFI)[0] / _reg_mr(LINUX)[0], hi=1.0),
    Claim("mlx.mtt", "Section 6 InfiniBand", "… with a sliver of Linux's "
          "MTT entries (fast path/Linux)",
          lambda r: _reg_mr(HFI)[1] / _reg_mr(LINUX)[1], hi=0.05),
    Claim("sloc.pico", "Porting effort", "less than 3K SLOC are ported "
          "(HFI PicoDriver SLOC)", lambda r: r.sloc.pico_sloc, hi=3000),
    Claim("sloc.fraction", "Porting effort", "… a small fraction of the "
          "driver, ~6% (over the Linux-resident stack)",
          lambda r: r.sloc.sloc_fraction, hi=0.5),
    Claim("sloc.ioctls", "Porting effort", "only the performance-critical "
          "ioctl commands are claimed", expect="3 of 13", measure=lambda r:
          f"{r.sloc.claimed_ioctls} of {r.sloc.total_ioctls}"),
    Claim("ablation.desc_cap", "DESIGN 4.1", "capping SDMA requests at "
          "PAGE_SIZE removes the gain (drop of 4 MB HFI/Linux)",
          lambda r: r.fig4.ratio(HFI, 4 * MiB) - _pingpong(HFI, _tweak(
              "nic", sdma_max_request=PAGE_SIZE))[0]
          / r.fig4.series[LINUX][4 * MiB], lo=0.05),
    Claim("ablation.switch_cost", "DESIGN 4.2", "the per-dispatch "
          "disturbance drives the UMT2013 collapse (0 over 75 µs)",
          lambda r: _umt8("ikc", context_switch_cost=0.0)
          / _umt8("ikc", context_switch_cost=75 * USEC), lo=2.5),
    Claim("ablation.os_cores_monotone", "DESIGN 4.2", "more Linux CPUs "
          "soften the collapse monotonically (smallest step, 2–16 CPUs)",
          lambda r: min(_umt8("node", os_cores=2 * n)
                        / _umt8("node", os_cores=n) for n in (2, 4, 8)),
          lo=1.0),
    Claim("ablation.os_cores_16", "DESIGN 4.2", "… and substantially (16 "
          "over 2 CPUs)", lambda r: _umt8("node", os_cores=16)
          / _umt8("node", os_cores=2), lo=2.0),
    Claim("ablation.window", "DESIGN 4.2", "smaller rendezvous windows mean "
          "more offloads (McKernel/Linux, 1 MB over 64 KB window)", lo=1.0,
          measure=lambda r: _window(1 * MiB) / _window(64 * KiB)),
    Claim("sched.single", "DESIGN 4.2", "one proxy per core pays only its "
          "cold switch (derived µs)",
          lambda r: derived_switch_cost(1) / USEC, hi=5.0),
    Claim("sched.thrash", "DESIGN 4.2", "eight proxies per core thrash "
          "(derived µs at 8 − 10 × at 1)",
          lambda r: (derived_switch_cost(8) - 10 * derived_switch_cost(1))
          / USEC, lo=50.0),
    Claim("sched.saturates", "DESIGN 4.2", "… and it saturates (gap from 8 "
          "to 32, µs)", hi=20.0, measure=lambda r: abs(
              derived_switch_cost(8) - derived_switch_cost(32)) / USEC),
    Claim("sched.calibrated", "DESIGN 4.2", "the calibrated "
          "context_switch_cost is in the derived regime (at 4 over it)",
          lambda r: derived_switch_cost(4)
          / default_params().ikc.context_switch_cost, hi=2.0),
    Claim("ablation.noise_nekbone", "DESIGN 4.4", "Linux noise gives Nekbone "
          "its McKernel+HFI edge (128 nodes, noisy − quiet)",
          lambda r: r.fig5b.relative[HFI][128] - _quiet(NEKBONE, 128),
          lo=0.0),
    Claim("ablation.noise_qbox", "DESIGN 4.4", "… and QBOX its gain at scale "
          "(256 nodes, noisy − quiet)",
          lambda r: r.fig7.relative[HFI][256] - _quiet(QBOX, 256), lo=0.05),
)


def evaluate() -> Tuple[SimpleNamespace, Dict[str, Value]]:
    """Run each default experiment once and measure every claim on it:
    the results (for their ``render()``) and each claim id's value."""
    runs = SimpleNamespace(
        fig4=run_fig4(), fig5a=run_fig5a(), fig5b=run_fig5b(),
        fig6a=run_fig6a(), fig6b=run_fig6b(), fig7=run_fig7(),
        table1=run_table1(), fig8=run_fig8(), fig9=run_fig9(),
        contention=run_contention(), projection=run_projection(),
        sloc=run_sloc())
    return runs, {claim.id: claim.measure(runs) for claim in CLAIMS}


def claims_table(figure: str, values: Dict[str, Value]) -> str:
    """The markdown table of one figure's claims with measured values."""
    lines = ["| id | claim | measured | band | verdict |",
             "|---|---|---|---|---|"]
    for claim in CLAIMS:
        if claim.figure == figure:
            value = values[claim.id]
            verdict = ("❌" if not claim.holds(value)
                       else f"deviation: {claim.deviation}"
                       if claim.deviation else "✅")
            shown = value if isinstance(value, str) else f"{value:.3g}"
            lines.append(f"| `{claim.id}` | {claim.statement} | {shown} "
                         f"| {claim.band()} | {verdict} |")
    return "\n".join(lines)


def generate_report() -> str:
    """Run everything once; the measured markdown report."""
    runs, values = evaluate()
    texts = {"Figure 4": runs.fig4.render(),
             "Figure 5a": runs.fig5a.render(),
             "Figure 5b": runs.fig5b.render(),
             "Figure 6a": runs.fig6a.render(),
             "Figure 6b": runs.fig6b.render(),
             "Figure 7": runs.fig7.render(),
             "Table 1": runs.table1.render(),
             "Figure 8": runs.fig8.render("Figure 8"),
             "Figure 9": runs.fig9.render("Figure 9"),
             "Section 4.3 contention": runs.contention.render(),
             "Section 6 projection": runs.projection.render(),
             "Porting effort": runs.sloc.render()}
    out = ["# PicoDriver reproduction — measured report"]
    for figure in dict.fromkeys(claim.figure for claim in CLAIMS):
        out += ["", f"## {figure}", ""]
        if figure in texts:
            out += ["```", texts[figure], "```", ""]
        out.append(claims_table(figure, values))
    return "\n".join(out)
