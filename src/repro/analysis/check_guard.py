"""PicoCheck scenario for the PicoGuard breaker FSM.

Runs a guarded single-engine McKernel+HFI1 machine through a short
eager-SDMA message train while the explorer enumerates schedules and
adversarial fault placements (``sdma.desc_error`` / ``sdma.engine_halt``
landing on any descriptor opportunity).  With one engine and a
hair-trigger policy (threshold 1, one-probe failback) every placed
fault walks the breaker around the full CLOSED -> OPEN -> PROBING ->
CLOSED cycle, and the oracles check that no interleaving breaks it:

* the standard delivery contract (every message byte-intact or typed),
* quiescence at the step bound,
* KSan races and lockdep hazards,
* breaker FSM legality (only the four legal edges, via
  :meth:`~repro.guard.manager.GuardManager.fsm_violations`) plus the
  manager's runtime invariants (no negative gate accounting, no
  admitted submit while suspended).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..config import planes
from ..units import USEC

#: hair-trigger policy so a single placed fault drives a full
#: failover/failback cycle within the smoke step budget
CHECK_POLICY_KW = dict(failure_window=4, failure_threshold=1,
                       probe_successes=1, probe_backoff=50 * USEC,
                       probe_backoff_factor=2.0,
                       probe_backoff_max=400 * USEC,
                       qdepth=16, nr_congestion_on=12, nr_congestion_off=4)


class GuardBreakerScenario:
    """Breaker FSM legality under adversarial schedules and faults."""

    name = "guard-breaker"
    description = ("guarded single-engine message train; breaker FSM "
                   "legality under adversarial fault placement")
    configs = ("mckernel_hfi",)
    expect_violation = False
    n_messages = 5

    def run(self, config: str, schedule, bounds) -> "RunResult":
        """One controlled execution of the guarded message train."""
        from ..errors import DeviceTimeout, TransferCorrupt
        from ..experiments.chaos import _chaos_params
        from ..guard import GuardPolicy
        from ..psm import Endpoint, TagMatcher
        from ..units import KiB
        from .check import ControlledScheduler, _OS_BY_NAME, _drive, \
            make_result

        os_config = _OS_BY_NAME[config]
        with planes(guard=GuardPolicy(**CHECK_POLICY_KW)):
            from ..experiments.common import build_machine
            params = _chaos_params()
            params = params.with_overrides(
                nic=replace(params.nic, sdma_engines=1))
            scheduler = ControlledScheduler(schedule)
            machine = build_machine(2, os_config, params=params)
            sim = machine.sim
            sim.scheduler = scheduler
            for mnode in machine.nodes:
                mnode.node.kheap.add_monitor(scheduler)
            t0 = machine.spawn_rank(0, 0, 0)
            t1 = machine.spawn_rank(1, 0, 1)
            ep0 = Endpoint(sim, machine.params, machine.nodes[0].node.hfi,
                           t0, tracer=machine.tracer)
            ep1 = Endpoint(sim, machine.params, machine.nodes[1].node.hfi,
                           t1, tracer=machine.tracer)
            # eager-SDMA sized: every message crosses the guarded writev
            # fast path (PIO would bypass the breaker entirely)
            msgs = [(i, 96 * KiB) for i in range(self.n_messages)]
            bufsize = 2 * max(size for _i, size in msgs)
            send_out: Dict[int, str] = {}
            recv_reqs: Dict[int, object] = {}

            def sender():
                yield from ep0.open()
                buf = yield from t0.syscall("mmap", bufsize)
                while ep1.addr is None:
                    yield sim.timeout(1e-6)
                for i, size in msgs:
                    try:
                        yield from ep0.mq_send(ep1.addr, ("guard", i), buf,
                                               size,
                                               payload=("tok", i, size))
                        send_out[i] = "ok"
                    except (DeviceTimeout, TransferCorrupt) as exc:
                        send_out[i] = type(exc).__name__

            def receiver():
                yield from ep1.open()
                buf = yield from t1.syscall("mmap", bufsize)
                for i, _size in msgs:
                    recv_reqs[i] = ep1.mq_irecv(
                        TagMatcher(tag=("guard", i)), (buf, bufsize))

            sim.process(receiver())
            sim.process(sender())
            steps, quiesced = _drive(sim, bounds.step_budget)

            violations: List[str] = []
            if not quiesced:
                violations.append(
                    f"no quiescence: event queue still live after "
                    f"{bounds.step_budget} steps (deadlock/livelock at "
                    f"bound)")
            else:
                typed = ("DeviceTimeout", "TransferCorrupt")
                for i, size in msgs:
                    req = recv_reqs.get(i)
                    s_out = send_out.get(i, "hung")
                    label = f"guarded msg {i} ({size}B)"
                    if req is not None and req.event.triggered \
                            and req.event.exception is None:
                        if req.payload == ("tok", i, size) \
                                and req.nbytes == size:
                            continue
                        violations.append(
                            f"{label}: delivered corrupt (payload="
                            f"{req.payload!r}, nbytes={req.nbytes})")
                        continue
                    r_exc = (req.event.exception
                             if req is not None and req.event.triggered
                             else None)
                    if (r_exc is not None
                            and type(r_exc).__name__ in typed) \
                            or s_out in typed:
                        continue
                    violations.append(
                        f"{label}: never delivered and no typed error "
                        f"(sender: {s_out}, recv: {r_exc!r})")
            for mnode in machine.nodes:
                if mnode.guard is not None:
                    violations.extend(mnode.guard.fsm_violations())
                    violations.extend(mnode.guard.violations)
            violations.extend(r.render() for r in machine.race_reports())
            violations.extend(r.render() for r in machine.lockdep_reports())
            census = (machine.injector.occurrences
                      if machine.injector is not None else {})
            return make_result(scheduler, schedule, violations, steps,
                               quiesced, census)
