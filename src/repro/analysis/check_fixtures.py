"""Seeded-bug fixtures for the PicoCheck explorer (test-only rigs).

The checker's own correctness needs a bug it is *guaranteed* to find:
a scenario whose default FIFO schedule is clean but where some bounded
deviation violates an oracle.  :class:`FlagRaceScenario` re-introduces
the class of bug KSan exists for (paper section 3.3): a cross-kernel
write to driver state without the shared lock — the ``sdma_state``
scribble the porting rules forbid — behind a test-only flag.

The rig is a two-"kernel" publish protocol on one shared heap:

* the **producer** (McKernel side) raises ``flag`` to claim the
  publish window, later writes ``data`` and drops ``flag`` — all on
  the same timestamp, so the interleaving is a chain of PicoCheck
  choice points;
* the **consumer** (Linux side) samples ``flag`` once; the seeded bug
  is a "scrub" path that, on seeing the window open, writes ``data``
  *without taking ownership*.

Under the pinned FIFO default the consumer samples before the producer
raises the flag and never scrubs: no race, ``data`` ends at the
producer's value.  Deviating at the very first choice point promotes
the producer, the consumer sees the open window, and the scrub becomes
a cross-kernel unlocked write-write race on ``data`` (KSan reports
both sites and kernels) plus a final-value invariant violation.  The
minimal counterexample is exactly one deviation and zero faults, so
the shrinker provably beats the dense first-violating schedule.

With ``bug_enabled=False`` the scrub path is compiled out and the
explorer must report the bound clean — the negative control.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import PLANES
from ..hw.memory import SharedHeap
from ..sim import Simulator
from .check import Bounds, ControlledScheduler, RunResult, Schedule, \
    _drive, _quiescence_violation, make_result
from .ksan import RaceDetector

#: the producer's published value; the invariant oracle checks ``data``
#: ends here (the scrub overwrites it after publication)
PUBLISHED_VALUE = 1

#: what the seeded scrub path writes without owning the word
SCRUB_VALUE = 2


class _FlagRaceRig:
    """The bare two-process rig: one simulator, one shared heap, one
    KSan detector, no machine — small enough that the smoke bound
    explores it exhaustively in well under a second."""

    def __init__(self, bug_enabled: bool = True):
        self.bug_enabled = bug_enabled
        self.sim = Simulator()
        self.heap = SharedHeap(4096, name="rig.kheap")
        #: the rig's own oracle, read directly (no machine collects it)
        self.detector = RaceDetector(self.sim, name="rig.kheap")
        self.heap.monitor = self.detector
        self.flag = self.heap.kmalloc(4)
        self.data = self.heap.kmalloc(4)
        #: consumer-private scratch word (benign traffic so the rig has
        #: same-time steps that are *independent*, exercising the
        #: explorer's reduction on top of the seeded dependence)
        self.scratch = self.heap.kmalloc(4)

    # -- annotated heap access (the accessor-layer idiom, by hand) ------

    def _write(self, kernel: str, label: str, addr: int,
               value: int) -> None:
        monitor = self.heap.monitor
        if monitor is not None:
            monitor.annotate(kernel, label)
        self.heap.write_u(addr, 4, value)
        if PLANES.trace is not None:
            PLANES.trace.complete_span(
                f"{kernel}: {label} <- {value}", f"rig/{kernel}",
                self.sim.now, self.sim.now, cat="rig")

    def _read(self, kernel: str, label: str, addr: int) -> int:
        monitor = self.heap.monitor
        if monitor is not None:
            monitor.annotate(kernel, label)
        value = self.heap.read_u(addr, 4)
        if PLANES.trace is not None:
            PLANES.trace.complete_span(
                f"{kernel}: {label} == {value}", f"rig/{kernel}",
                self.sim.now, self.sim.now, cat="rig")
        return value

    # -- the two kernels -------------------------------------------------

    def consumer(self):
        """Linux side: sample the flag; the seeded bug scrubs ``data``
        when it catches the publish window open."""
        window_open = self._read("linux", "rig.flag", self.flag) != 0
        if window_open and self.bug_enabled:
            yield self.sim.timeout(0.0)
            # the seeded bug: a cross-kernel write to protocol state
            # without taking ownership (no shared lock, not atomic).
            # Annotated inline so the race report attributes this exact
            # site rather than a helper frame.
            self.heap.monitor.annotate("linux", "rig.data")
            self.heap.write_u(self.data, 4, SCRUB_VALUE)
        yield self.sim.timeout(0.0)
        self._write("linux", "rig.scratch", self.scratch, 1)

    def producer(self):
        """McKernel side: claim the window, publish, release."""
        self._write("mckernel", "rig.flag", self.flag, 1)
        yield self.sim.timeout(0.0)
        self.heap.monitor.annotate("mckernel", "rig.data")
        self.heap.write_u(self.data, 4, PUBLISHED_VALUE)
        self._write("mckernel", "rig.flag", self.flag, 0)

    def start(self) -> None:
        # the consumer is inserted first on purpose: under the pinned
        # FIFO tie-break it samples the flag before the producer raises
        # it, so choice 0 pick 0 (the default schedule) is clean
        self.sim.process(self.consumer())
        self.sim.process(self.producer())

    def final_data(self) -> int:
        """Unannotated post-mortem read (not part of the protocol)."""
        return self.heap.read_u(self.data, 4)


class FlagRaceScenario:
    """The seeded-bug fixture as a PicoCheck scenario.

    ``expect_violation`` is True: ``python -m repro check
    seeded-flag-race`` exits 0 precisely when the explorer finds,
    shrinks and exports the seeded counterexample — which is how CI
    keeps the whole find->shrink->replay pipeline honest.
    """

    name = "seeded-flag-race"
    description = ("two-kernel publish protocol with a seeded unlocked "
                   "cross-kernel scrub write")
    configs = ("rig",)
    expect_violation = True

    def __init__(self, bug_enabled: bool = True):
        self.bug_enabled = bug_enabled

    def run(self, config: str, schedule: Schedule,
            bounds: Bounds) -> RunResult:
        """One controlled rig execution, judged by KSan plus the
        final-value invariant."""
        scheduler = ControlledScheduler(schedule)
        rig = _FlagRaceRig(bug_enabled=self.bug_enabled)
        rig.sim.scheduler = scheduler
        rig.heap.add_monitor(scheduler)
        rig.start()
        steps, quiesced = _drive(rig.sim, bounds.step_budget)
        violations: List[str] = []
        if not quiesced:
            violations.append(_quiescence_violation(bounds))
        violations.extend(r.render() for r in rig.detector.races)
        if quiesced and rig.final_data() != PUBLISHED_VALUE:
            violations.append(
                f"invariant broken: rig.data == {rig.final_data()} after "
                f"quiescence, expected the published value "
                f"{PUBLISHED_VALUE} (a non-owner overwrote it)")
        census: Dict[str, int] = {}
        return make_result(scheduler, schedule, violations, steps,
                           quiesced, census)
