"""Tests for the InfiniBand memory-registration extension — the paper's
future-work port, exercising the same framework contract as the HFI
PicoDriver."""

import pytest

from repro.config import OSConfig
from repro.core.mlx_pico import MlxMemRegPicoDriver
from repro.errors import DriverError, LayoutError
from repro.experiments import build_machine
from repro.linux.mlx import (MEMREG_COMMANDS, MLX_CMD_CREATE_PD,
                             MLX_CMD_DEREG_MR, MLX_CMD_QUERY_DEVICE,
                             MLX_CMD_REG_MR, MlxDriver)
from repro.linux.mlx.debuginfo import build_module
from repro.units import MiB, PAGE_SIZE


def machine_with_ib(cfg):
    machine = build_machine(1, cfg)
    mlx = MlxDriver()
    machine.nodes[0].linux.load_driver(mlx)
    pico = None
    if cfg is OSConfig.MCKERNEL_HFI:
        pico = MlxMemRegPicoDriver(mlx)
        machine.nodes[0].mckernel.register_picodriver(pico)
    return machine, mlx, pico


def run(machine, body):
    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run(until=proc)
    return proc.value


def reg_dereg(machine, mlx, nbytes=4 * MiB):
    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        buf = yield from task.syscall("mmap", nbytes)
        keys = yield from task.syscall("ioctl", fd, MLX_CMD_REG_MR,
                                       {"vaddr": buf, "length": nbytes})
        used = mlx.mtt_entries_used
        yield from task.syscall("ioctl", fd, MLX_CMD_DEREG_MR,
                                {"lkey": keys["lkey"]})
        yield from task.syscall("close", fd)
        return keys, used

    return run(machine, body)


@pytest.mark.parametrize("cfg", list(OSConfig), ids=lambda c: c.value)
def test_reg_mr_roundtrip(cfg):
    machine, mlx, _ = machine_with_ib(cfg)
    keys, used = reg_dereg(machine, mlx)
    assert keys["rkey"] == keys["lkey"] + 1
    assert used > 0
    assert mlx.mtt_entries_used == 0  # dereg returned everything


def test_linux_programs_one_mtt_entry_per_page():
    machine, mlx, _ = machine_with_ib(OSConfig.LINUX)
    _, used = reg_dereg(machine, mlx, nbytes=1 * MiB)
    assert used == 1 * MiB // PAGE_SIZE      # 256 entries


def test_pico_programs_one_mtt_entry_per_span():
    """McKernel's contiguous memory collapses the MTT footprint."""
    machine, mlx, pico = machine_with_ib(OSConfig.MCKERNEL_HFI)
    _, used = reg_dereg(machine, mlx, nbytes=1 * MiB)
    assert used <= 4                          # contiguous spans, not pages
    assert machine.tracer.get_count("pico.mlx_reg_mr") == 1


def test_pico_claims_only_memreg_commands():
    machine, mlx, pico = machine_with_ib(OSConfig.MCKERNEL_HFI)
    assert pico.claims("ioctl", (3, MLX_CMD_REG_MR, None)).handled
    assert pico.claims("ioctl", (3, MLX_CMD_DEREG_MR, None)).handled
    assert not pico.claims("ioctl", (3, MLX_CMD_CREATE_PD, None)).handled
    assert not pico.claims("ioctl", (3, MLX_CMD_QUERY_DEVICE, None)).handled
    assert not pico.claims("writev", (3, [])).handled
    assert len(MEMREG_COMMANDS) == 2


def test_admin_commands_still_offload():
    machine, mlx, _ = machine_with_ib(OSConfig.MCKERNEL_HFI)

    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        info = yield from task.syscall("ioctl", fd, MLX_CMD_QUERY_DEVICE,
                                       None)
        return info

    info = run(machine, body)
    assert info["max_mr_size"] == 1 << 40


def test_dereg_unknown_key_rejected():
    machine, mlx, _ = machine_with_ib(OSConfig.MCKERNEL_HFI)

    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        yield from task.syscall("ioctl", fd, MLX_CMD_DEREG_MR,
                                {"lkey": 0xBEEF})

    task = machine.spawn_rank(0, 1)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)


def test_attach_requires_unified_address_space():
    machine = build_machine(1, OSConfig.MCKERNEL)   # original layout
    mlx = MlxDriver()
    machine.nodes[0].linux.load_driver(mlx)
    with pytest.raises(LayoutError):
        machine.nodes[0].mckernel.register_picodriver(
            MlxMemRegPicoDriver(mlx))


def test_attach_requires_matching_driver_version():
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    mlx = MlxDriver()
    machine.nodes[0].linux.load_driver(mlx)
    pico = MlxMemRegPicoDriver(mlx)
    pico.module = build_module("4.4-2.0.7")   # stale extraction source
    with pytest.raises(DriverError, match="re-run dwarf-extract-struct"):
        machine.nodes[0].mckernel.register_picodriver(pico)


def test_mlx_dwarf_version_drift():
    from repro.core import dwarf_extract_struct
    old = dwarf_extract_struct(build_module("4.3-1.0.1"), "mlx5_ib_mr",
                               ["lkey"])
    new = dwarf_extract_struct(build_module("4.4-2.0.7"), "mlx5_ib_mr",
                               ["lkey"])
    assert old.field("lkey").offset != new.field("lkey").offset


def test_two_picodrivers_coexist():
    """The HFI and InfiniBand fast paths register side by side."""
    machine, mlx, pico = machine_with_ib(OSConfig.MCKERNEL_HFI)
    mck = machine.nodes[0].mckernel
    assert len(mck.pico) == 2
    assert mck.pico.lookup("/dev/hfi1_0") is not None
    assert mck.pico.lookup(mlx.device_path) is pico


def test_mtt_exhaustion():
    machine, mlx, _ = machine_with_ib(OSConfig.LINUX)
    mlx.devdata.set("mtt_entries_max", 8)

    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        buf = yield from task.syscall("mmap", 1 * MiB)
        yield from task.syscall("ioctl", fd, MLX_CMD_REG_MR,
                                {"vaddr": buf, "length": 1 * MiB})

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)


# --- PicoGuard dispatch and typed-error regression ---------------------------

def test_base_claims_surfaces_typed_driver_error():
    """The framework base class itself is typed: a PicoDriver with no
    claims() must raise DriverError, never bare NotImplementedError."""
    from repro.core.picodriver import PicoDriver
    with pytest.raises(DriverError, match="claims"):
        PicoDriver().claims("ioctl", (3, MLX_CMD_REG_MR, None))


def test_unsupported_fast_command_surfaces_typed_error():
    """A command the mlx fast path does not support surfaces as a typed
    DriverError through the McKernel dispatcher — the app can catch it;
    a bare NotImplementedError would escape the syscall layer."""
    machine, mlx, pico = machine_with_ib(OSConfig.MCKERNEL_HFI)
    from repro.core.picodriver import FastPathDecision
    # rig dispatch: claim every ioctl, including unsupported commands
    pico.claims = lambda syscall, args: FastPathDecision.claim("rigged")

    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        yield from task.syscall("ioctl", fd, MLX_CMD_QUERY_DEVICE, None)

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)
    assert not isinstance(proc.exception, NotImplementedError)


def test_claimed_but_unimplemented_syscall_surfaces_typed_error():
    """Claiming a syscall with no fast_<name> handler is a porting bug
    the dispatcher reports as a typed DriverError."""
    machine, mlx, pico = machine_with_ib(OSConfig.MCKERNEL_HFI)
    from repro.core.picodriver import FastPathDecision
    pico.claims = lambda syscall, args: FastPathDecision.claim("rigged")

    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        yield from task.syscall("poll", fd)

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)
    assert "fast_poll" in str(proc.exception)


def test_mtt_exhaustion_feeds_memreg_breaker_and_routes_offload():
    """With PicoGuard attached, MTT exhaustion on the memreg fast path
    trips its breaker and later registrations route straight to the
    offloaded slow path — still failing typed, but without fast-path
    exception churn."""
    from repro.guard import GuardPolicy
    from repro.guard.manager import GuardManager
    from repro.units import USEC

    policy = GuardPolicy(failure_window=4, failure_threshold=1,
                         probe_successes=1, probe_backoff=50 * USEC)
    machine, mlx, pico = machine_with_ib(OSConfig.MCKERNEL_HFI)
    # the memreg driver is loaded by hand, so its manager is too: the
    # fast path tests only the handle it finds on the driver
    mlx.guard = GuardManager(machine.sim, policy, 1,
                             machine.tracer, label="node0.mlx",
                             path_prefix="memreg",
                             data_syscalls=("ioctl",))
    # zero MTT capacity: even the span-collapsed fast path is refused
    mlx.devdata.set("mtt_entries_max", 0)
    outcomes = []

    def body(task):
        fd = yield from task.syscall("open", mlx.device_path)
        buf = yield from task.syscall("mmap", 1 * MiB)
        for _attempt in range(2):
            try:
                yield from task.syscall(
                    "ioctl", fd, MLX_CMD_REG_MR,
                    {"vaddr": buf, "length": 1 * MiB})
                outcomes.append("ok")
            except DriverError:
                outcomes.append("typed")

    task = machine.spawn_rank(0, 0)
    proc = machine.sim.process(body(task))
    machine.sim.run()
    assert proc.exception is None
    assert outcomes == ["typed", "typed"]
    # the first failure tripped the hair-trigger breaker out of
    # CLOSED (by end of run the probe backoff has moved it OPEN ->
    # PROBING, so check the FSM left CLOSED, not a frozen state)...
    from repro.guard.breaker import BREAKER_CLOSED
    assert mlx.guard.breakers["memreg0"].state != BREAKER_CLOSED
    # ...so the second attempt was routed to offload at dispatch
    assert machine.tracer.get_count("guard.routed_offload.ioctl") >= 1
