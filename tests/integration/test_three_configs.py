"""End-to-end integration: PSM ping-pong across the three OS
configurations, verifying both behaviour (data delivery, protocol
invariants) and the mechanisms behind the paper's results."""

from dataclasses import replace

import pytest

from repro.config import ALL_CONFIGS, OSConfig
from repro.errors import BadSyscall, DriverError
from repro.experiments import build_machine
from repro.linux.hfi1 import ioctls as ioc
from repro.params import default_params
from repro.psm import Endpoint, TagMatcher
from repro.units import KiB, MiB, PAGE_SIZE


def make_pair(cfg, params=None):
    machine = build_machine(2, cfg, params=params)
    sim = machine.sim
    t0 = machine.spawn_rank(0, 0, 0)
    t1 = machine.spawn_rank(1, 0, 1)
    ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi, t0,
                   tracer=machine.tracer)
    ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi, t1,
                   tracer=machine.tracer)
    return machine, (t0, ep0), (t1, ep1)


def transfer_once(machine, sender, receiver, nbytes, payload="PAYLOAD"):
    """One open+mmap+send / open+mmap+recv exchange; returns elapsed."""
    sim = machine.sim
    (t0, ep0), (t1, ep1) = sender, receiver
    done = {}

    def tx():
        yield from ep0.open()
        buf = yield from t0.syscall("mmap", max(nbytes, 4 * KiB))
        while ep1.addr is None:
            yield sim.timeout(1e-6)
        t_start = sim.now
        yield from ep0.mq_send(ep1.addr, "tag", buf, nbytes, payload)
        done["send"] = sim.now - t_start

    def rx():
        yield from ep1.open()
        buf = yield from t1.syscall("mmap", max(nbytes, 4 * KiB))
        req = ep1.mq_irecv(TagMatcher(tag="tag"), (buf, max(nbytes, 4 * KiB)))
        got = yield req.event
        done["recv"] = (got.nbytes, got.payload, sim.now)

    p_rx = sim.process(rx())
    p_tx = sim.process(tx())
    sim.run(until=p_rx)
    sim.run(until=p_tx)
    return done


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
@pytest.mark.parametrize("nbytes", [1 * KiB, 128 * KiB, 2 * MiB],
                         ids=["pio", "eager-sdma", "expected"])
def test_payload_delivered_intact(cfg, nbytes):
    machine, s, r = make_pair(cfg)
    done = transfer_once(machine, s, r, nbytes, payload=("blob", nbytes))
    assert done["recv"][0] == nbytes
    assert done["recv"][1] == ("blob", nbytes)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_tids_are_reclaimed_after_rendezvous(cfg):
    machine, s, r = make_pair(cfg)
    transfer_once(machine, s, r, 2 * MiB)
    machine.sim.run()
    assert machine.nodes[1].node.hfi.tids_in_use == 0


def test_linux_uses_page_sized_descriptors():
    machine, s, r = make_pair(OSConfig.LINUX)
    transfer_once(machine, s, r, 2 * MiB)
    assert machine.tracer.get_mean("hfi.sdma_desc_bytes") == 4096


def test_mckernel_offload_uses_page_sized_descriptors():
    """Offloading does not change driver behaviour — same 4KB requests
    even over McKernel's contiguous memory."""
    machine, s, r = make_pair(OSConfig.MCKERNEL)
    transfer_once(machine, s, r, 2 * MiB)
    assert machine.tracer.get_mean("hfi.sdma_desc_bytes") == 4096


def test_pico_uses_10kb_descriptors():
    """Section 3.4: the PicoDriver consistently utilizes the maximum SDMA
    request size when memory is contiguous."""
    machine, s, r = make_pair(OSConfig.MCKERNEL_HFI)
    transfer_once(machine, s, r, 2 * MiB)
    mean = machine.tracer.get_mean("hfi.sdma_desc_bytes")
    assert mean > 2 * 4096


def test_pico_tid_entries_collapse_with_large_pages():
    machine, s, r = make_pair(OSConfig.MCKERNEL_HFI)
    transfer_once(machine, s, r, 2 * MiB)
    # 2MB contiguous window -> handfuls of TIDs, not one per 4KB page
    assert machine.tracer.get_mean("psm.tids_per_window") <= 2
    machine2, s2, r2 = make_pair(OSConfig.LINUX)
    transfer_once(machine2, s2, r2, 2 * MiB)
    assert machine2.tracer.get_mean("psm.tids_per_window") == 64


def test_pico_fast_path_claims_only_three_ioctls():
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    pico = machine.nodes[0].pico
    from repro.linux.hfi1 import ALL_IOCTLS, TID_IOCTLS
    claimed = [c for c in ALL_IOCTLS
               if pico.claims("ioctl", (3, c, None))]
    assert set(claimed) == set(TID_IOCTLS)
    assert len(claimed) == 3 and len(ALL_IOCTLS) == 13
    assert pico.claims("writev", (3, []))
    assert not pico.claims("open", ("/dev/hfi1_0",))
    assert not pico.claims("mmap", (3, 100))


def test_pico_completion_uses_foreign_free():
    """SDMA completions run on Linux CPUs and free McKernel metadata via
    the foreign-CPU kfree path (section 3.3)."""
    machine, s, r = make_pair(OSConfig.MCKERNEL_HFI)
    transfer_once(machine, s, r, 2 * MiB)
    machine.sim.run()
    mck = machine.nodes[0].mckernel
    assert mck.alloc.foreign_frees >= 8       # one per window writev
    assert mck.alloc.live_objects() == 0      # no leaks


def test_pico_syscalls_do_not_offload():
    machine, s, r = make_pair(OSConfig.MCKERNEL_HFI)
    transfer_once(machine, s, r, 2 * MiB)
    mck_tracer = machine.tracer
    assert mck_tracer.get_count("pico.fast.writev") >= 8
    assert mck_tracer.get_count("pico.fast.ioctl") >= 8
    # only slow-path calls offloaded (open/mmap/ASSIGN_CTXT)
    assert mck_tracer.get_count("pico.offload.writev") == 0


def test_mckernel_offloads_everything():
    machine, s, r = make_pair(OSConfig.MCKERNEL)
    transfer_once(machine, s, r, 2 * MiB)
    assert machine.tracer.get_count("pico.fast.writev") == 0
    assert machine.tracer.get_count("offload.calls") > 10


def test_pico_refuses_to_attach_without_unified_address_space():
    """Registering the PicoDriver on an original-layout LWK must fail the
    section-3.1 prerequisite check."""
    from repro.core.hfi_pico import HFIPicoDriver
    from repro.errors import LayoutError
    machine = build_machine(1, OSConfig.MCKERNEL)   # original layout
    mck = machine.nodes[0].mckernel
    pico = HFIPicoDriver(machine.nodes[0].driver)
    with pytest.raises(LayoutError):
        mck.register_picodriver(pico)


def test_pico_refuses_stale_driver_version():
    """A PicoDriver whose layouts were extracted from a different driver
    release must refuse to attach (section 3.2)."""
    from repro.core.hfi_pico import HFIPicoDriver
    from repro.linux.hfi1.debuginfo import build_module
    machine = build_machine(1, OSConfig.MCKERNEL_HFI)
    mck = machine.nodes[0].mckernel
    mck.pico.unregister("/dev/hfi1_0")
    pico = HFIPicoDriver(machine.nodes[0].driver)
    pico.module = build_module("1.1.1")     # stale extraction source
    with pytest.raises(DriverError, match="re-run dwarf-extract-struct"):
        mck.register_picodriver(pico)


def test_bandwidth_ordering_matches_figure4():
    """The headline shape: pico > linux > mckernel for large messages."""
    times = {}
    for cfg in ALL_CONFIGS:
        machine, s, r = make_pair(cfg)
        done = transfer_once(machine, s, r, 4 * MiB)
        times[cfg] = done["send"]
    assert times[OSConfig.MCKERNEL_HFI] < times[OSConfig.LINUX]
    assert times[OSConfig.LINUX] < times[OSConfig.MCKERNEL]
    # ratios in the paper's ballpark
    assert 0.80 < times[OSConfig.LINUX] / times[OSConfig.MCKERNEL] < 0.97
    assert 1.05 < times[OSConfig.LINUX] / times[OSConfig.MCKERNEL_HFI] < 1.30


def test_small_messages_identical_across_configs():
    """Below the PIO threshold everything is user-space driven."""
    times = {}
    for cfg in ALL_CONFIGS:
        machine, s, r = make_pair(cfg)
        done = transfer_once(machine, s, r, 8 * KiB)
        times[cfg] = done["send"]
    assert times[OSConfig.LINUX] == pytest.approx(
        times[OSConfig.MCKERNEL], rel=1e-9)
    assert times[OSConfig.LINUX] == pytest.approx(
        times[OSConfig.MCKERNEL_HFI], rel=1e-9)


def test_sdma_lock_serializes_both_kernels():
    machine, s, r = make_pair(OSConfig.MCKERNEL_HFI)
    transfer_once(machine, s, r, 2 * MiB)
    lock = machine.nodes[0].driver.sdma_lock
    assert not lock.locked


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
@pytest.mark.parametrize("offset,length", [(0, -PAGE_SIZE), (0, 0),
                                           (100, 0)],
                         ids=["negative", "empty-aligned", "empty-unaligned"])
def test_tid_update_rejects_non_positive_length(cfg, offset, length):
    """Linux, offloaded and fast-path TID_UPDATE all refuse a length
    <= 0 with a DriverError before pinning anything, as writev does."""
    machine = build_machine(1, cfg)
    task = machine.spawn_rank(0, 0, 0)

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 16 * KiB)
        yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
                                {"vaddr": buf + offset, "length": length})

    proc = machine.sim.process(body())
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)
    assert "length" in str(proc.exception)
    assert machine.nodes[0].node.hfi.tids_in_use == 0


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_tid_update_with_no_entry_span_is_a_driver_error(cfg):
    """With ``tid_max_span`` 0 no span fits an RcvArray entry: every
    TID_UPDATE path refuses the registration with a DriverError and
    programs nothing (the fast path's span split used to loop forever)."""
    params = default_params()
    params = params.with_overrides(nic=replace(params.nic, tid_max_span=0))
    machine = build_machine(1, cfg, params=params)
    task = machine.spawn_rank(0, 0, 0)

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 16 * KiB)
        yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
                                {"vaddr": buf, "length": 8 * KiB})

    proc = machine.sim.process(body())
    machine.sim.run()
    assert isinstance(proc.exception, DriverError)
    assert machine.nodes[0].node.hfi.tids_in_use == 0


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_writev_without_data_iovec_is_a_bad_syscall(cfg):
    """A header and no data iovec: Linux, offloaded and fast-path writev
    all refuse it with the same BadSyscall before building anything."""
    machine = build_machine(1, cfg)
    task = machine.spawn_rank(0, 0, 0)

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("writev", fd, [{}])

    proc = machine.sim.process(body())
    machine.sim.run()
    assert type(proc.exception) is BadSyscall
    assert "header iovec" in str(proc.exception)
    assert machine.tracer.get_count("hfi.sdma_descs") == 0


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_ioctl_without_command_is_a_bad_syscall(cfg):
    """An ioctl naming no command is refused with the slow path's
    BadSyscall on every config: the fast path does not claim it."""
    machine = build_machine(1, cfg)
    task = machine.spawn_rank(0, 0, 0)

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        yield from task.syscall("ioctl", fd)

    proc = machine.sim.process(body())
    machine.sim.run()
    assert type(proc.exception) is BadSyscall
    assert "ioctl expects 3 args" in str(proc.exception)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_tids_belong_to_the_context_that_registered_them(cfg):
    """Two opens, one receive context each: the second open's TID_FREE
    of the first open's TIDs fails typed and frees nothing, the owner
    then frees them, and each file's ``tid_used`` counts only the
    entries its own context holds."""
    machine = build_machine(1, cfg)
    hfi = machine.nodes[0].node.hfi
    driver = machine.nodes[0].driver
    task = machine.spawn_rank(0, 0, 0)
    seen = []

    def note():
        seen.append((hfi.tids_in_use, [state.fdata.get("tid_used")
                                       for state in driver._files.values()]))

    def body():
        fd_a = yield from task.syscall("open", "/dev/hfi1_0")
        fd_b = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 4 * MiB)
        tids_a = yield from task.syscall("ioctl", fd_a,
                                         ioc.HFI1_IOCTL_TID_UPDATE,
                                         {"vaddr": buf, "length": 2 * MiB})
        tids_b = yield from task.syscall("ioctl", fd_b,
                                         ioc.HFI1_IOCTL_TID_UPDATE,
                                         {"vaddr": buf + 2 * MiB,
                                          "length": 2 * MiB})
        note()
        refused = None
        try:
            yield from task.syscall("ioctl", fd_b, ioc.HFI1_IOCTL_TID_FREE,
                                    {"tids": tids_a})
        except DriverError as exc:
            refused = str(exc)
        note()
        yield from task.syscall("ioctl", fd_a, ioc.HFI1_IOCTL_TID_FREE,
                                {"tids": tids_a})
        note()
        return tids_a, tids_b, refused

    proc = machine.sim.process(body())
    machine.sim.run(until=proc)
    tids_a, tids_b, refused = proc.value
    a, b = len(tids_a), len(tids_b)
    assert refused is not None
    assert refused.endswith(f"TID_FREE of unowned tid {tids_a[0]}")
    assert seen == [(a + b, [a, b]), (a + b, [a, b]), (b, [0, b])]


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_tid_free_names_first_unowned_tid_and_frees_nothing(cfg):
    machine = build_machine(1, cfg)
    task = machine.spawn_rank(0, 0, 0)

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 16 * KiB)
        tids = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_TID_UPDATE,
                                       {"vaddr": buf, "length": 16 * KiB})
        try:
            yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_FREE,
                                    {"tids": [tids[0], 778, 777]})
        except DriverError as exc:
            return str(exc), len(tids)

    proc = machine.sim.process(body())
    machine.sim.run(until=proc)
    message, programmed = proc.value
    assert message.endswith("TID_FREE of unowned tid 778")
    assert machine.nodes[0].node.hfi.tids_in_use == programmed


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_tid_free_of_part_of_a_registration_then_the_rest(cfg):
    """TID_UPDATE a 4 MiB buffer (at least two TIDs on every config),
    TID_FREE a range from its middle, then the rest as a list.  After
    each step the RcvArray, the driver's shared ``tid_used`` field and
    the ``hfi.tids_unprogrammed`` counter agree."""
    machine = build_machine(1, cfg)
    hfi = machine.nodes[0].node.hfi
    driver = machine.nodes[0].driver
    task = machine.spawn_rank(0, 0, 0)
    seen = []

    def note():
        (state,) = driver._files.values()
        seen.append((hfi.tids_in_use, state.fdata.get("tid_used"),
                     hfi.tracer.counters.get("hfi.tids_unprogrammed", 0)))

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 4 * MiB)
        tids = yield from task.syscall("ioctl", fd,
                                       ioc.HFI1_IOCTL_TID_UPDATE,
                                       {"vaddr": buf, "length": 4 * MiB})
        note()
        lo = len(tids) // 2
        hi = lo + max(1, len(tids) // 4)
        freed = yield from task.syscall("ioctl", fd,
                                        ioc.HFI1_IOCTL_TID_FREE,
                                        {"tids": tids[lo:hi]})
        note()
        rest = list(tids[:lo]) + list(tids[hi:])
        yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_FREE,
                                {"tids": rest})
        note()
        return len(tids), freed

    proc = machine.sim.process(body())
    machine.sim.run(until=proc)
    n, freed = proc.value
    assert n >= 2 and 1 <= freed < n
    assert seen == [(n, n, 0), (n - freed, n - freed, freed), (0, 0, n)]


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.value)
def test_concurrent_tid_updates_on_one_fd_free_in_any_order(cfg):
    """Two TID_UPDATEs issued together on one fd: on Linux and McKernel
    the smaller one is charged less and returns first, so the later
    TIDs come back first.  Each range still frees, and the context's
    RcvArray records and ``tid_used`` end empty."""
    machine = build_machine(1, cfg)
    sim = machine.sim
    task = machine.spawn_rank(0, 0, 0)
    done = []

    def body():
        fd = yield from task.syscall("open", "/dev/hfi1_0")
        buf = yield from task.syscall("mmap", 128 * KiB)

        def update(offset, length):
            tids = yield from task.syscall(
                "ioctl", fd, ioc.HFI1_IOCTL_TID_UPDATE,
                {"vaddr": buf + offset, "length": length})
            done.append(tids)

        big = sim.process(update(0, 64 * KiB))
        small = sim.process(update(64 * KiB, 4 * KiB))
        yield big
        yield small
        for tids in done:
            yield from task.syscall("ioctl", fd, ioc.HFI1_IOCTL_TID_FREE,
                                    {"tids": tids})
        (state,) = machine.nodes[0].driver._files.values()
        return len(state.ctxt.tids), state.fdata.get("tid_used")

    proc = sim.process(body())
    sim.run(until=proc)
    assert proc.value == (0, 0)
    assert machine.nodes[0].node.hfi.tids_in_use == 0
    if cfg is not OSConfig.MCKERNEL_HFI:
        assert done[0][0] > done[1][0]
