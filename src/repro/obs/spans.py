"""Causal span store for cross-kernel tracing (PicoTrace).

The aggregate planes (:mod:`repro.sim.trace` counters, MPI stats, the
kernel profiler) answer *how much*; this module answers *where a single
message's time went*.  A :class:`Span` is a named interval on a *track*
(one track per node/kernel/SDMA-engine, stamped by
:meth:`SpanCollector.attach_machine`); spans nest via ``parent`` links
within one simulation process, and *flow edges* connect spans across
processes, kernels and nodes — RTS packet to receiver match, offload
request to IKC service, SDMA descriptor to wire delivery.

Every emission call site in the instrumented tree is gated on
``PLANES.trace is not None`` (lint rule PD011), so traced-off runs make
no calls here at all and stay bit-identical to a build without the
hooks.  The collector itself never creates simulator events and never
draws randomness: recording is pure bookkeeping on the side.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional, Tuple


def track_of(obj: Any, default: str = "main") -> str:
    """The trace track stamped on ``obj`` (see ``attach_machine``).

    Objects that never went through :meth:`SpanCollector.attach_machine`
    (bare test rigs) land on the ``default`` track rather than erroring.
    """
    return getattr(obj, "trace_track", default)


class Span(object):
    """One named interval on a track, with a parent link.

    ``end`` is ``None`` while the span is open.  ``parent`` is the
    ``sid`` of the enclosing span in the same simulation process (or
    ``None`` at a lane root).  Instants are spans with ``end == start``.
    ``clock`` is the simulator the span was opened on (``None`` before
    any machine is attached); an open span is closed on its clock.
    """

    __slots__ = ("sid", "name", "track", "cat", "start", "end",
                 "parent", "args", "clock")

    def __init__(self, sid: int, name: str, track: str, cat: str,
                 start: float, parent: Optional[int],
                 args: Optional[dict], clock: Any = None):
        self.sid = sid
        self.name = name
        self.track = track
        self.cat = cat
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.args = args
        self.clock = clock

    def close(self) -> None:
        """End the span now on its own clock, if it is still open."""
        if self.end is None:
            self.end = 0.0 if self.clock is None else self.clock.now

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.sid} {self.name!r} on {self.track!r} "
                f"[{self.start:.9f}, {self.end}]>")


class SpanCollector(object):
    """Accumulates spans and flow edges for one traced run.

    Install with ``planes(trace=collector)``; every machine built
    while it sits in the ``trace`` slot calls :meth:`attach_machine`, which
    stamps track names onto the kernels/devices and points the
    collector at that machine's simulator clock.  Span ids and flow ids
    are globally unique across all machines attached to one collector
    (the export test relies on this).

    Open spans are kept on per-process *lane* stacks keyed on the
    simulator's ``active_process``, so spans opened by concurrent
    processes (progress workers, watchdogs, IRQ handlers) nest
    correctly instead of interleaving on one stack.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: flow edges as ``(flow_id, src_sid, dst_sid)`` tuples
        self.flows: List[Tuple[int, int, int]] = []
        self._sids = count(1)
        self._fids = count(1)
        self._stacks: Dict[int, List[Span]] = {}
        self._sim = None

    # -- wiring ----------------------------------------------------------

    def attach_machine(self, machine: Any) -> None:
        """Stamp track names onto ``machine`` and adopt its clock.

        One track per node/kernel/SDMA-engine, all prefixed with the OS
        configuration label so traces from several machines (fig4 runs
        one per config) stay separable in one collector.
        """
        label = machine.os_config.label
        self._sim = machine.sim
        machine.fabric.trace_track = f"{label}/fabric"
        for i, mn in enumerate(machine.nodes):
            base = f"{label}/node{i}"
            mn.linux.trace_track = f"{base}/linux"
            if getattr(mn, "driver", None) is not None:
                mn.driver.trace_track = f"{base}/linux"
                mn.driver.trace_irq_track = f"{base}/irq"
            if getattr(mn, "mckernel", None) is not None:
                mn.mckernel.trace_track = f"{base}/lwk"
            if getattr(mn, "pico", None) is not None:
                mn.pico.trace_track = f"{base}/lwk"
            hfi = mn.node.hfi
            hfi.trace_track = f"{base}/hfi"
            for j, eng in enumerate(hfi.engines):
                eng.trace_track = f"{base}/sdma{j}"
            if getattr(mn, "guard", None) is not None:
                # guarded runs: breaker transitions and congestion
                # instants get their own per-node track
                mn.guard.trace_track = f"{base}/guard"

    @property
    def now(self) -> float:
        """Current simulated time of the most recently attached machine."""
        return 0.0 if self._sim is None else self._sim.now

    def _lane(self) -> int:
        # 0 is the shared lane for bare event callbacks (no process).
        if self._sim is None or self._sim.active_process is None:
            return 0
        return id(self._sim.active_process)

    # -- emission --------------------------------------------------------

    def begin_span(self, name: str, track: str, cat: str = "",
                   args: Optional[dict] = None, detached: bool = False,
                   flow_from: Optional[Span] = None) -> Span:
        """Open a span now; its parent is the top of the current lane.

        ``detached`` spans get the parent link but are not pushed on the
        lane stack — use them for intervals that outlive the opening
        process (SDMA descriptors on the engine ring).  ``flow_from``
        adds a flow edge from another span (possibly still open).
        """
        lane = self._stacks.setdefault(self._lane(), [])
        parent = lane[-1].sid if lane else None
        span = Span(next(self._sids), name, track, cat, self.now,
                    parent, args, self._sim)
        self.spans.append(span)
        if not detached:
            lane.append(span)
        if flow_from is not None:
            self.add_flow(flow_from, span)
        return span

    def end_span(self, span: Span, args: Optional[dict] = None) -> Span:
        """Close ``span`` at the current time of the simulator it was
        opened on (idempotent on the stack).

        Not the collector's clock: abandoned generators are closed by
        the garbage collector, whose ``finally`` blocks can fire after
        the collector moved on to a later machine's simulator, so the
        collector's time would depend on when the collection ran.
        """
        span.close()
        if args:
            span.args = dict(span.args or {}, **args)
        for lane in self._stacks.values():
            if span in lane:
                lane.remove(span)
                break
        return span

    def instant_span(self, name: str, track: str, cat: str = "",
                     args: Optional[dict] = None,
                     flow_from: Optional[Span] = None) -> Span:
        """A zero-duration span (a point event) at the current time."""
        span = self.begin_span(name, track, cat, args, detached=True,
                               flow_from=flow_from)
        span.end = span.start
        return span

    def complete_span(self, name: str, track: str, t0: float, t1: float,
                      cat: str = "", args: Optional[dict] = None,
                      flow_from: Optional[Span] = None) -> Span:
        """A pre-closed span over ``[t0, t1]`` (e.g. a wire flight).

        Never touches the lane stacks and never schedules simulator
        events, so it is safe from bare callbacks.
        """
        span = self.begin_span(name, track, cat, args, detached=True,
                               flow_from=flow_from)
        span.start = t0
        span.end = t1
        return span

    def add_flow(self, src: Span, dst: Span) -> int:
        """Record a causal flow edge ``src -> dst``; returns the flow id."""
        fid = next(self._fids)
        self.flows.append((fid, src.sid, dst.sid))
        return fid

    def current(self) -> Optional[Span]:
        """The innermost open span of the current lane, if any."""
        lane = self._stacks.get(self._lane())
        return lane[-1] if lane else None

    # -- queries ---------------------------------------------------------

    def find(self, name: Optional[str] = None, cat: Optional[str] = None,
             track_prefix: Optional[str] = None) -> List[Span]:
        """Spans matching every given filter, in emission order."""
        out = []
        for s in self.spans:
            if name is not None and s.name != name:
                continue
            if cat is not None and s.cat != cat:
                continue
            if track_prefix is not None \
                    and not s.track.startswith(track_prefix):
                continue
            out.append(s)
        return out

    def finalize(self) -> None:
        """Close any dangling spans, each on its own clock, and drop the
        lane stacks.

        Well-behaved instrumentation closes every span in a ``finally``,
        so this is a safety net for processes that never quiesced.
        """
        for lane in self._stacks.values():
            for span in lane:
                span.close()
        self._stacks.clear()
