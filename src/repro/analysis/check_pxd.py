"""PicoCheck scenario for the pxd fast path and replica-eviction FSM.

Runs a guarded two-replica McKernel+HFI1 machine through a short pxd
write train — with a mid-train fast-path suspend/resume so every run
crosses the fastpath -> slowpath fallback seam — while the explorer
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
* replica-FSM legality (only the four legal edges, via
  :meth:`~repro.linux.pxd.driver.PxdDriver.fsm_violations`) plus the
  guard plane's breaker FSM and runtime invariants,
* quiescence at the step bound, KSan races and lockdep hazards,
* the fallback seam really ran: at least one fast-path write and at
  least one suspended-fallback offload per run (harness-rot guard).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class PxdFallbackScenario:
    """pxd fallback + replica FSM legality under adversarial faults."""

    name = "pxd-fallback"
    description = ("guarded pxd write train with mid-train fast-path "
                   "suspend; replica FSM and read-your-writes under "
                   "adversarial fault placement")
    configs = ("mckernel_hfi",)
    expect_violation = False
    n_writes = 6
    #: write index wrapped in SET_SUSPEND(1)/SET_SUSPEND(0): this write
    #: must take the slow path through the dispatcher fallback seam
    suspend_at = 2

    def run(self, config: str, schedule, bounds) -> "RunResult":
        """One controlled execution of the guarded pxd write train."""
        from ..config import planes
        from ..errors import MediaError
        from ..experiments.storage import WRITE_NSECTORS, _audit_media, \
            _fsm_oracles, _storage_params
        from ..guard import GuardPolicy
        from ..linux.pxd import ioctls as ioc
        from ..sim import Event
        from .check import ControlledScheduler, _OS_BY_NAME, _drive, \
            make_result
        from .check_guard import CHECK_POLICY_KW

        os_config = _OS_BY_NAME[config]
        with planes(guard=GuardPolicy(**CHECK_POLICY_KW)):
            from ..experiments.common import build_machine
            # two replicas: the smallest set where eviction leaves a
            # survivor to serve reads and seed the re-admission resync
            params = _storage_params(replicas=2)
            scheduler = ControlledScheduler(schedule)
            machine = build_machine(1, os_config, params=params)
            sim = machine.sim
            sim.scheduler = scheduler
            for mnode in machine.nodes:
                mnode.node.kheap.add_monitor(scheduler)
            task = machine.spawn_rank(0, 0)
            sector_size = machine.params.blk.sector_size
            payloads = {i: bytes([(11 * i + 3) & 0xFF])
                        * (WRITE_NSECTORS * sector_size)
                        for i in range(self.n_writes)}
            outcomes: Dict[int, str] = {}
            reads: Dict[int, object] = {}
            acked: Dict[int, Tuple[int, bytes]] = {}
            done: List[bool] = []

            def train():
                fd = yield from task.syscall("open", "/dev/pxd/pxd0")
                buf = yield from task.syscall("mmap", 1 << 20)
                for i in range(self.n_writes):
                    if i == self.suspend_at:
                        yield from task.syscall(
                            "ioctl", fd, ioc.PXD_IOCTL_SET_SUSPEND, 1)
                    sector = i * WRITE_NSECTORS
                    completion = Event(sim)
                    try:
                        yield from task.syscall(
                            "writev", fd,
                            [{"sector": sector, "payload": payloads[i],
                              "completion": completion},
                             (buf, len(payloads[i]))])
                        yield completion
                        outcomes[i] = "acked"
                        acked[i] = (sector, payloads[i])
                    except MediaError:
                        outcomes[i] = "typed"
                    if i == self.suspend_at:
                        yield from task.syscall(
                            "ioctl", fd, ioc.PXD_IOCTL_SET_SUSPEND, 0)
                    if outcomes[i] != "acked":
                        continue
                    try:
                        reads[i] = yield from task.syscall(
                            "ioctl", fd, ioc.PXD_IOCTL_READ,
                            {"sector": sector, "nsectors": WRITE_NSECTORS})
                    except MediaError:
                        reads[i] = "typed"
                done.append(True)

            sim.process(train())
            steps, quiesced = _drive(sim, bounds.step_budget)

            violations: List[str] = []
            if not quiesced:
                violations.append(
                    f"no quiescence: event queue still live after "
                    f"{bounds.step_budget} steps (deadlock/livelock at "
                    f"bound)")
            elif not done:
                hung = [i for i in range(self.n_writes) if i not in outcomes]
                violations.append(
                    f"write train hung before completing: writes {hung} "
                    f"never resolved (no ack, no typed error)")
            else:
                for i in range(self.n_writes):
                    if outcomes.get(i) != "acked":
                        continue
                    got = reads.get(i)
                    if got == "typed" or got == payloads[i]:
                        continue
                    violations.append(
                        f"read-your-writes broke at write {i}: acked "
                        f"payload not returned and no typed error "
                        f"(got {type(got).__name__})")
                violations.extend(_audit_media(machine, acked, self.name))
                pico_writes = machine.tracer.counters.get(
                    "pico.pxd_writes", 0)
                suspended = machine.tracer.counters.get(
                    "pico.pxd_suspended", 0)
                if pico_writes < 1:
                    violations.append(
                        "fast path never ran: pico.pxd_writes == 0 "
                        "(dispatch seam rotted)")
                if suspended < 1:
                    violations.append(
                        "fallback seam never ran: pico.pxd_suspended == 0 "
                        "(SET_SUSPEND toggle rotted)")
            violations.extend(_fsm_oracles(machine))
            violations.extend(r.render() for r in machine.race_reports())
            violations.extend(r.render() for r in machine.lockdep_reports())
            census = (machine.injector.occurrences
                      if machine.injector is not None else {})
            return make_result(scheduler, schedule, violations, steps,
                               quiesced, census)
