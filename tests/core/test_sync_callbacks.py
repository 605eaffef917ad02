"""Tests for cross-kernel spinlocks and the callback registry (sec 3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (CallbackRegistry, CrossKernelSpinLock, linux_layout,
                        mckernel_original_layout, mckernel_unified_layout)
from repro.errors import DriverError, PageFault, ReproError
from repro.hw import SharedHeap
from repro.sim import Simulator


def make_lock():
    sim = Simulator()
    heap = SharedHeap(4096)  # default base: the shared direct map
    lock = CrossKernelSpinLock(sim, heap, name="sdma")
    return sim, heap, lock


def test_lock_word_lives_in_shared_heap():
    sim, heap, lock = make_lock()
    assert heap.contains(lock.word_addr)
    assert not lock.locked


def test_acquire_release_updates_word():
    sim, heap, lock = make_lock()
    linux = linux_layout()

    def body():
        yield from lock.acquire("linux", linux)
        assert lock.locked and lock.held_by("linux")
        assert heap.read_u(lock.word_addr, 4) == 1
        lock.release("linux")
        assert not lock.locked
        assert heap.read_u(lock.word_addr, 4) == 0

    sim.run(until=sim.process(body()))


def test_mutual_exclusion_and_spin_accounting():
    sim, heap, lock = make_lock()
    linux = linux_layout()
    mck = mckernel_unified_layout()
    order = []

    def holder():
        yield from lock.acquire("linux", linux)
        order.append(("linux", sim.now))
        yield sim.timeout(5.0)
        lock.release("linux")

    def waiter():
        yield sim.timeout(1.0)
        yield from lock.acquire("mckernel", mck)
        order.append(("mckernel", sim.now))
        lock.release("mckernel")

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert order == [("linux", 0.0), ("mckernel", 5.0)]
    # the waiter spun for 4 seconds (Linux can't wake it across kernels)
    assert lock.tracer.get_total("spin.sdma") == pytest.approx(4.0)


def test_non_unified_mckernel_faults_on_lock_word():
    sim, heap, lock = make_lock()
    mck_orig = mckernel_original_layout()

    def body():
        yield from lock.acquire("mckernel", mck_orig)

    proc = sim.process(body())
    sim.run()
    assert isinstance(proc.exception, PageFault)


def test_incompatible_spinlock_implementation_rejected():
    sim, heap, lock = make_lock()

    def body():
        yield from lock.acquire("mckernel", mckernel_unified_layout(),
                                impl="mckernel-legacy-ticketlock")

    proc = sim.process(body())
    sim.run()
    assert isinstance(proc.exception, DriverError)


def test_release_by_non_holder_rejected():
    sim, heap, lock = make_lock()

    def body():
        yield from lock.acquire("linux", linux_layout())

    sim.run(until=sim.process(body()))
    with pytest.raises(ReproError):
        lock.release("mckernel")
    with pytest.raises(ReproError):
        lock.release("linux") or lock.release("linux")


def test_double_release_raises_driver_error():
    sim, heap, lock = make_lock()

    def body():
        yield from lock.acquire("linux", linux_layout())

    sim.run(until=sim.process(body()))
    lock.release("linux")
    with pytest.raises(DriverError, match="double release of sdma"):
        lock.release("linux")
    # the failed release must not corrupt the lock: still re-acquirable
    def again():
        yield from lock.acquire("mckernel", mckernel_unified_layout())
        lock.release("mckernel")

    sim.run(until=sim.process(again()))
    assert not lock.locked


def test_release_by_non_holder_names_both_kernels():
    sim, heap, lock = make_lock()

    def body():
        yield from lock.acquire("linux", linux_layout())

    sim.run(until=sim.process(body()))
    with pytest.raises(DriverError,
                       match="mckernel releasing sdma held by linux"):
        lock.release("mckernel")
    # ownership is untouched: linux still holds and can release
    assert lock.held_by("linux")
    lock.release("linux")
    assert not lock.locked


def test_impl_mismatch_leaves_lock_untaken():
    sim, heap, lock = make_lock()

    def bad():
        yield from lock.acquire("mckernel", mckernel_unified_layout(),
                                impl="mckernel-legacy-ticketlock")

    proc = sim.process(bad())
    sim.run()
    assert isinstance(proc.exception, DriverError)
    assert "implementation mismatch" in str(proc.exception)
    assert not lock.locked and lock.holder is None

    def good():
        yield from lock.acquire("mckernel", mckernel_unified_layout())
        lock.release("mckernel")

    sim.run(until=sim.process(good()))


def test_page_fault_on_acquire_leaves_lock_free():
    """A non-unified McKernel faults on the lock word *before* joining
    the FIFO queue — Linux must still be able to take the lock."""
    sim, heap, lock = make_lock()

    def faulting():
        yield from lock.acquire("mckernel", mckernel_original_layout())

    proc = sim.process(faulting())
    sim.run()
    assert isinstance(proc.exception, PageFault)
    assert not lock.locked and lock.holder is None

    def linux_body():
        yield from lock.acquire("linux", linux_layout())
        lock.release("linux")

    sim.run(until=sim.process(linux_body()))
    assert not lock.locked


@given(n_contenders=st.integers(2, 10), hold=st.floats(0.1, 2.0))
@settings(max_examples=25)
def test_lock_is_fifo_fair_under_contention(n_contenders, hold):
    sim = Simulator()
    heap = SharedHeap(65536)
    lock = CrossKernelSpinLock(sim, heap)
    aspace = linux_layout()
    granted = []

    def contender(i):
        yield sim.timeout(i * 0.001)  # deterministic arrival order
        yield from lock.acquire("linux", aspace)
        granted.append(i)
        yield sim.timeout(hold)
        lock.release("linux")

    for i in range(n_contenders):
        sim.process(contender(i))
    sim.run()
    assert granted == list(range(n_contenders))


# --- callbacks ---------------------------------------------------------------

def make_registry(unified=True):
    linux = linux_layout()
    mck = mckernel_original_layout()
    if unified:
        from repro.core import unify_address_spaces
        unify_address_spaces(linux, mck)
    return CallbackRegistry({"linux": linux, "mckernel": mck})


def test_callback_address_is_in_owner_text():
    reg = make_registry()
    addr = reg.register("mckernel", lambda: None)
    assert reg.owner_of(addr) == "mckernel"
    from repro.core.address_space import MCK_UNIFIED_TEXT_BASE, MCK_IMAGE_SIZE
    assert MCK_UNIFIED_TEXT_BASE <= addr < MCK_UNIFIED_TEXT_BASE + MCK_IMAGE_SIZE


def test_linux_invokes_mckernel_callback_when_unified():
    reg = make_registry(unified=True)
    hits = []
    addr = reg.register("mckernel", lambda x: hits.append(x) or "ret")
    assert reg.invoke("linux", addr, 42) == "ret"
    assert hits == [42]


def test_linux_cannot_invoke_mckernel_callback_without_unification():
    reg = make_registry(unified=False)
    addr = reg.register("mckernel", lambda: None)
    with pytest.raises(PageFault):
        reg.invoke("linux", addr)


def test_unknown_callback_address_rejected():
    reg = make_registry()
    with pytest.raises(ReproError):
        reg.invoke("linux", 0x1234)
    with pytest.raises(ReproError):
        reg.owner_of(0x1234)


def test_unknown_kernel_rejected():
    reg = make_registry()
    with pytest.raises(ReproError):
        reg.register("plan9", lambda: None)
    addr = reg.register("linux", lambda: None)
    with pytest.raises(ReproError):
        reg.invoke("plan9", addr)


def test_distinct_callbacks_get_distinct_addresses():
    reg = make_registry()
    addrs = {reg.register("mckernel", lambda: None) for _ in range(10)}
    assert len(addrs) == 10


# --- recursion detection (lockdep) -------------------------------------------

def test_recursive_acquire_raises_instead_of_spinning_forever():
    """A context re-acquiring its own spinlock would spin forever (it can
    never observe its own release); the lock turns that hang into a
    typed error at acquire time."""
    sim, heap, lock = make_lock()
    linux = linux_layout()

    def body():
        yield from lock.acquire("linux", linux)
        yield from lock.acquire("linux", linux)

    proc = sim.process(body())
    sim.run()
    assert isinstance(proc.exception, DriverError)
    assert "recursive acquisition of sdma" in str(proc.exception)
    # the original hold is intact and still releasable
    assert lock.held_by("linux")
    lock.release("linux")


def test_recursive_acquire_detected_through_helper_frames():
    """The holder frame sits deeper in the ``yield from`` chain: the
    re-acquire happens inside a helper the holder delegates to."""
    sim, heap, lock = make_lock()
    linux = linux_layout()

    def helper():
        yield from lock.acquire("linux", linux)

    def body():
        yield from lock.acquire("linux", linux)
        yield from helper()

    proc = sim.process(body())
    sim.run()
    assert isinstance(proc.exception, DriverError)
    assert "recursive acquisition" in str(proc.exception)


def test_same_kernel_distinct_contexts_still_queue():
    """Recursion detection keys on the holder *frame*, not the kernel
    name: a second McKernel core contending for the lock is legal and
    must queue, not trip the recursion check."""
    sim, heap, lock = make_lock()
    mck = mckernel_unified_layout()
    order = []

    def contender(idx):
        yield from lock.acquire("mckernel", mck)
        order.append(idx)
        yield sim.timeout(1.0)
        lock.release("mckernel")

    procs = [sim.process(contender(i)) for i in range(3)]
    sim.run()
    assert all(p.exception is None for p in procs)
    assert order == [0, 1, 2]


def test_misuse_is_rejected_with_lockdep_monitor_installed():
    """The double-release and wrong-kernel-release guards predate the
    validator; installing one must not swallow or reorder them."""
    from repro.analysis.lockdep import LockdepValidator

    sim, heap, lock = make_lock()
    linux = linux_layout()
    validator = LockdepValidator(sim)
    heap.add_monitor(validator)

    def body():
        yield from lock.acquire("linux", linux)
        lock.release("linux")

    sim.run(until=sim.process(body()))
    with pytest.raises(DriverError, match="double release of sdma"):
        lock.release("linux")
    assert validator.reports == []
    assert "1 acquisition(s)" in validator.summary()

    def body2():
        yield from lock.acquire("linux", linux)

    sim.run(until=sim.process(body2()))
    with pytest.raises(DriverError,
                       match="mckernel releasing sdma held by linux"):
        lock.release("mckernel")
    # the failed release left the validator's held-stack untouched
    lock.release("linux")
    assert "2 acquisition(s)" in validator.summary()


# --- rcu ---------------------------------------------------------------------

def test_rcu_synchronize_is_explicitly_unsupported():
    from repro.core.sync import rcu_synchronize
    with pytest.raises(NotImplementedError):
        rcu_synchronize()
