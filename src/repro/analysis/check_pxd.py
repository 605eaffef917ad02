"""PicoCheck scenario for the pxd fast path and replica-eviction FSM.

Runs a guarded two-replica McKernel+HFI1 machine through a short run
of the storage campaign's write train
(:class:`~repro.experiments.storage.WriteTrain`) — with a mid-train
fast-path suspend/resume so every run crosses the fastpath -> slowpath
fallback seam — while the explorer
enumerates schedules and adversarial storage-fault placements
(``media.write_error`` / ``media.torn_write`` / ``media.read_error`` /
``pxd.path_loss`` / ``blk.irq_lost`` landing on any opportunity).  With
a hair-trigger guard policy a single placed fault walks a replica
around the full inservice -> evicted -> probing -> inservice cycle
inside the smoke step budget, and the oracles check that no
interleaving breaks the storage contract:

* every write is acknowledged or fails typed (:class:`MediaError`),
  and every acknowledged write reads back byte-intact
  (read-your-writes) or fails typed,
* every acknowledged write is byte-intact on *every* in-service
  replica at quiescence (the replication invariant),
* replica-FSM legality (only the four legal edges, judged as each is
  taken into :attr:`~repro.linux.pxd.driver.PxdDriver.violations`)
  plus the guard plane's breaker FSM and runtime invariants,
* quiescence at the step bound, KSan races and lockdep hazards,
* the fallback seam really ran: at least one fast-path write and at
  least one suspended-fallback offload per run (harness-rot guard).
"""

from __future__ import annotations

from typing import List

from ..config import planes
from ..experiments.common import build_machine
from ..experiments.storage import WriteTrain, _storage_params
from ..guard import GuardPolicy
from ..linux.pxd import ioctls as ioc
from .check import CHECK_POLICY_KW, _OS_BY_NAME, RunResult, \
    install_scheduler, judge_run


class PxdFallbackScenario:
    """pxd fallback + replica FSM legality under adversarial faults."""

    name = "pxd-fallback"
    description = ("guarded pxd write train with mid-train fast-path "
                   "suspend; replica FSM and read-your-writes under "
                   "adversarial fault placement")
    configs = ("mckernel_hfi",)
    expect_violation = False
    n_writes = 6
    #: write index run with the fast path suspended (SET_SUSPEND(1)
    #: before it, SET_SUSPEND(0) before the next write): this write and
    #: its read-back take the slow path through the dispatcher fallback
    #: seam
    suspend_at = 2

    def run(self, config: str, schedule, bounds) -> RunResult:
        """One controlled execution of the guarded pxd write train."""
        with planes(guard=GuardPolicy(**CHECK_POLICY_KW)):
            # two replicas: the smallest set where eviction leaves a
            # survivor to serve reads and seed the re-admission resync
            machine = build_machine(1, _OS_BY_NAME[config],
                                    params=_storage_params(replicas=2))
            scheduler = install_scheduler(machine, schedule)

            def toggle_suspend(i):
                if i in (self.suspend_at, self.suspend_at + 1):
                    yield from train.task.syscall(
                        "ioctl", train.fd, ioc.PXD_IOCTL_SET_SUSPEND,
                        int(i == self.suspend_at))

            train = WriteTrain(machine, self.n_writes, before=toggle_suspend)

            def contract() -> List[str]:
                violations = train.violations(self.name)
                violations.extend(train.audit(self.name))
                counters = machine.tracer.counters
                if counters.get("pico.pxd_writes", 0) < 1:
                    violations.append(
                        "fast path never ran: pico.pxd_writes == 0 "
                        "(dispatch seam rotted)")
                if counters.get("pico.pxd_suspended", 0) < 1:
                    violations.append(
                        "fallback seam never ran: pico.pxd_suspended == 0 "
                        "(SET_SUSPEND toggle rotted)")
                return violations

            return judge_run(machine, scheduler, bounds, contract)
