"""Per-layer metrics from the traced pass, measured from outside the program.

Two instruments, neither of which changes a simulated output:

* one round under ``cProfile``: host self time aggregated per
  ``repro.<pkg>``, call counts at named boundary functions, and the
  counters every machine built during the round left on its tracers (the
  machines are captured through the PicoTune ``on_machine_built`` hook);
* for the ping-pong workloads, one round under a ``SpanCollector``, whose
  critical path (``repro.obs.critical_path``) splits one message's
  simulated time into per-category segments.

cProfile charges a cost to every Python call, so layers that make many
small calls look larger than they are: ``host.*.self_pct`` attributes
time, it never supports a speed-up claim.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.config import ALL_CONFIGS, enable_tracing, enable_tune_probe
from repro.obs import (SpanCollector, breakdown_by_category, critical_path,
                       message_completion)
from repro.sim import Tracer

#: the simulated-path packages self time is attributed to; everything
#: else (stdlib, numpy, experiments, the benchmark itself) is "other"
PACKAGES = ("apps", "mpi", "psm", "kernels", "mckernel", "ihk", "core",
            "linux", "hw", "sim", "faults", "guard", "cluster")

#: boundary functions whose call counts the profile reports
BOUNDARIES = {
    "events": ("repro.sim.engine", "Simulator._step_fast"),
    "deliver": ("repro.sim.process", "Process._deliver"),
    "timeouts": ("repro.sim.engine", "Timeout.__init__"),
    "pt_lookups": ("repro.hw.pagetable", "PageTable.lookup"),
    "pt_pages": ("repro.hw.pagetable", "PageTable.pages"),
    "sdma_builds": ("repro.linux.hfi1.sdma", "build_descs_from_pages"),
    "tid_updates": ("repro.linux.hfi1.driver", "Hfi1Driver._tid_update"),
    "tracer_record": ("repro.sim.trace", "Tracer.record"),
    "tracer_count": ("repro.sim.trace", "Tracer.count"),
    "simulate_app": ("repro.cluster.run", "simulate_app"),
}

#: critical-path span categories, in path order
CP_CATEGORIES = ("psm", "pio", "wire", "syscall", "offload", "fastpath",
                 "driver", "sdma")

Metrics = Dict[str, Tuple[float, str]]


class MachineRecorder:
    """PicoTune probe that keeps every machine built while installed."""

    def __init__(self) -> None:
        self.machines: List[object] = []

    def on_machine_built(self, machine) -> None:
        """Hook called by ``Machine.__init__``."""
        self.machines.append(machine)


def profile_round(workload, seed: int):
    """Run one round under cProfile; returns (round, profile stats,
    machines built)."""
    recorder = MachineRecorder()
    prof = cProfile.Profile()
    enable_tune_probe(recorder)
    try:
        prof.enable()
        out = workload.run_round(seed)
        prof.disable()
    finally:
        enable_tune_probe(None)
    return out, pstats.Stats(prof).stats, recorder.machines


def span_round(workload, seed: int):
    """Run one round with span tracing on; returns (round, cp metrics,
    problems)."""
    collector = SpanCollector()
    enable_tracing(collector)
    try:
        out = workload.run_round(seed)
    finally:
        enable_tracing(None)
    collector.finalize()
    breakdowns = {}
    problems = []
    for config in ALL_CONFIGS:
        target = message_completion(collector, config.label,
                                    workload.cp_nbytes)
        if target is None:
            problems.append(f"span pass: no completed {workload.cp_nbytes} B "
                            f"message for {config.label}")
        else:
            breakdowns[config] = breakdown_by_category(
                critical_path(collector, target))
    return out, cp_metrics(breakdowns), problems


def cp_metrics(breakdowns) -> Metrics:
    """``cp.<config>.<cat>_us`` from per-config critical-path seconds per
    category; a config or category without time reads 0."""
    return {f"cp.{c.value}.{cat}_us":
            (breakdowns.get(c, {}).get(cat, 0.0) * 1e6, "sim_us")
            for c in ALL_CONFIGS for cat in CP_CATEGORIES}


def _code_key(module: str, qualname: str) -> Optional[tuple]:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(stats) -> Dict[str, int]:
    """Calls per boundary function in one profile (0 if it is gone)."""
    out = {}
    for name, (module, qualname) in BOUNDARIES.items():
        entry = stats.get(_code_key(module, qualname))
        out[name] = entry[1] if entry else 0
    return out


def self_time_shares(stats) -> Dict[str, float]:
    """Percent of profiled self time per ``repro.<pkg>`` (plus other)."""
    root = Path(repro.__file__).resolve().parent
    totals = dict.fromkeys(PACKAGES + ("other",), 0.0)
    for (filename, _line, _name), entry in stats.items():
        pkg = "other"
        try:
            rel = Path(filename).resolve().relative_to(root).parts
        except ValueError:
            rel = ()
        if len(rel) > 1 and rel[0] in totals:
            pkg = rel[0]
        totals[pkg] += entry[2]
    grand = sum(totals.values()) or 1.0
    return {pkg: 100.0 * t / grand for pkg, t in totals.items()}


def _syscalls(tracer: Tracer) -> int:
    return sum(n for name, n in tracer.counters.items()
               if name.startswith("syscall.") and name.endswith(".calls"))


def tracer_totals(machines) -> Tuple[Tracer, Dict[str, int],
                                     Dict[str, float]]:
    """Merge every tracer of the captured machines.

    Returns the merged tracer, syscalls served per kernel and the mean
    SDMA descriptor size in KiB per OS configuration.  On Linux the
    machine tracer is the kernel's own; on McKernel each node's Linux
    keeps a private tracer (proxied syscalls, IKC) and the machine tracer
    holds the LWK's accounting.
    """
    merged = Tracer()
    syscalls = {"linux": 0, "mckernel": 0}
    desc: Dict[str, List[float]] = {c.value: [0.0, 0.0] for c in ALL_CONFIGS}
    for machine in machines:
        linux_tracers = {id(n.linux.tracer): n.linux.tracer
                         for n in machine.nodes}
        tracers = dict(linux_tracers)
        tracers[id(machine.tracer)] = machine.tracer
        for tracer in tracers.values():
            merged.merge(tracer)
        syscalls["linux"] += sum(map(_syscalls, linux_tracers.values()))
        if machine.os_config.is_multikernel:
            syscalls["mckernel"] += _syscalls(machine.tracer)
        acc = machine.tracer.accs.get("hfi.sdma_desc_bytes")
        if acc is not None:
            desc[machine.os_config.value][0] += acc.total
            desc[machine.os_config.value][1] += acc.count
    kib = {c: (t / n / 1024 if n else 0.0) for c, (t, n) in desc.items()}
    return merged, syscalls, kib


def layer_metrics(out, stats, machines, round_s: float,
                  traced_s: float) -> Metrics:
    """Every per-layer metric except ``cp.*``, ``setup.*`` and
    ``host.calib_ms`` (which the harness measures itself)."""
    ops = out.ops
    calls = call_counts(stats)
    tr, syscalls, desc_kib = tracer_totals(machines)
    c = tr.get_count

    def per_op(n):
        return (n / ops, "count")

    def prefixed(prefix):
        return sum(n for name, n in tr.counters.items()
                   if name.startswith(prefix))

    m: Metrics = {}
    for pkg, pct in self_time_shares(stats).items():
        m[f"host.{pkg}.self_pct"] = (pct, "%")
    events = calls["events"]
    m["sim.events_per_op"] = per_op(events)
    m["sim.deliver_per_op"] = per_op(calls["deliver"])
    m["sim.timeouts_per_op"] = per_op(calls["timeouts"])
    m["sim.tracer_calls_per_op"] = per_op(calls["tracer_record"]
                                          + calls["tracer_count"])
    m["sim.events_per_host_s"] = (events / round_s, "1/s")
    m["hw.pt_lookups_per_op"] = per_op(calls["pt_lookups"])
    m["hw.pt_pages_per_op"] = per_op(calls["pt_pages"])
    m["hw.sdma_descs_per_op"] = per_op(c("hfi.sdma_descs"))
    m["hw.pio_msgs_per_op"] = per_op(c("hfi.pio_msgs"))
    m["hw.tids_per_op"] = per_op(c("hfi.tids_programmed"))
    m["hw.sdma_halts_per_op"] = per_op(c("hfi.sdma_halts"))
    m["hw.blk_ops_per_op"] = per_op(
        sum(n for name, n in tr.counters.items()
            if name.startswith("blk.r") and name.endswith(".submits")))
    for config, kib in desc_kib.items():
        m[f"hw.sdma_desc_kib.{config}"] = (kib, "KiB")
    m["linux.sdma_build_per_op"] = per_op(calls["sdma_builds"])
    m["linux.tid_update_per_op"] = per_op(calls["tid_updates"])
    m["linux.syscalls_per_op"] = per_op(syscalls["linux"])
    m["linux.pxd_writes_per_op"] = per_op(c("pxd.writes"))
    m["linux.pxd_evictions_per_op"] = per_op(c("pxd.evictions"))
    fast = prefixed("pico.fast.")
    fallbacks = c("pico.fallbacks")
    m["core.fast_sends_per_op"] = per_op(c("pico.sdma_sends"))
    m["core.fast_tid_updates_per_op"] = per_op(c("pico.tid_updates"))
    m["core.fastpath_ratio"] = (
        fast / (fast + fallbacks) if fast + fallbacks else 0.0, "ratio")
    eager = c("psm.eager_sends") + c("psm.eager_sdma_sends")
    rndv = c("psm.rndv_sends")
    retransmits = c("psm.retransmits")
    m["psm.eager_sends_per_op"] = per_op(eager)
    m["psm.rndv_sends_per_op"] = per_op(rndv)
    m["psm.retransmits_per_op"] = per_op(retransmits)
    m["psm.first_try_ratio"] = (
        max(0.0, 1 - retransmits / (eager + rndv)) if eager + rndv else 0.0,
        "ratio")
    ikc_calls = c("ikc.calls")
    m["mckernel.offloads_per_op"] = per_op(c("offload.calls"))
    m["mckernel.syscalls_per_op"] = per_op(syscalls["mckernel"])
    m["ihk.ikc_calls_per_op"] = per_op(ikc_calls)
    m["ihk.cpu_wait_us"] = (
        tr.get_total("ikc.cpu_wait") / ikc_calls * 1e6 if ikc_calls else 0.0,
        "sim_us")
    m["kernels.syscalls_per_op"] = per_op(sum(syscalls.values()))
    m["faults.fired_per_op"] = per_op(prefixed("faults."))
    m["guard.routed_offload_per_op"] = per_op(c("guard.routed_offload"))
    m["cluster.simulate_app_per_host_s"] = (calls["simulate_app"] / round_s,
                                            "1/s")
    for app in ("umt2013", "qbox"):
        m[f"cluster.kernel_time_ratio.{app}"] = (
            out.kernel_time_ratio.get(app, 0.0), "ratio")
    m["trace.cprofile_x"] = (traced_s / round_s, "ratio")
    m["result.lat_us"] = (out.lat_us, "sim_us")
    m["result.MBps"] = (out.mbps, "MB/s")
    return m
