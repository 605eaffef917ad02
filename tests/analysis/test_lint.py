"""Tests for the per-module PicoDriver rules (PD002-PD016) and the one
suppression verdict (PD100), each run the way ``python -m repro vet``
runs it: every rule over one parse of the fixture.

PD002-PD004 are checkers over PicoVet's program model, PD005 and the
gating rules are ``lint_module``'s one syntactic scan; each rule gets a
violation fixture and a compliant twin, and the suite also pins the
suppression syntax.  The fixtures of the interprocedural rules
(PD001/PD006, now PD015.1/PD015.3, and PD008/PD009) stay here too.
"""

import os
import tempfile
import textwrap

from repro.analysis import astcache
from repro.analysis.lint import (RULES, Finding, iter_python_files,
                                 lint_module, rules_table)
from repro.analysis.vet import vet_paths


def vet(src, path="src/repro/mckernel/x.py"):
    """Vet findings for a dedented single-module fixture written at
    ``path`` under a scratch root; the default path is outside
    repro/core so PD005 stays quiet unless a test opts in."""
    with tempfile.TemporaryDirectory() as root:
        fixture = os.path.join(root, path)
        os.makedirs(os.path.dirname(fixture), exist_ok=True)
        with open(fixture, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(src))
        return vet_paths([fixture])[1]


def codes(findings):
    return [f.code for f in findings]


# --- fast-path purity (PD001 -> vet PD015.1) ---------------------------------

def test_pd001_offload_reachable_from_fast_path():
    findings = vet("""\
        class BadPico(PicoDriver):
            def fast_writev(self, task, fd):
                yield from self._send(task)

            def _send(self, task):
                yield from self.lwk._offload(task, "writev", ())
        """)
    assert codes(findings) == ["PD015.1"]
    assert "_offload" in findings[0].message
    assert "via BadPico.fast_writev -> BadPico._send" in findings[0].message


def test_pd001_ikc_call_in_fast_path():
    findings = vet("""\
        class BadPico(PicoDriver):
            def fast_ioctl(self, task, fd, cmd, arg):
                yield from self.lwk.ikc.call(task, cmd)
        """)
    assert codes(findings) == ["PD015.1"]


def test_pd001_clean_when_offload_is_on_the_slow_path():
    findings = vet("""\
        class GoodPico(PicoDriver):
            def claims(self, syscall, args):
                return False

            def slow_ioctl(self, task, cmd):
                yield from self.lwk._offload(task, "ioctl", (cmd,))

            def fast_writev(self, task, fd):
                yield self.lwk.sim.timeout(1.0)
        """)
    assert findings == []


# --- PD002 lock discipline ---------------------------------------------------

def test_pd002_acquire_without_release():
    findings = vet("""\
        def submit(self, group):
            yield from self.lock.acquire("mckernel", self.aspace)
            yield from self.engine.submit(group)
        """)
    assert codes(findings) == ["PD002"]
    assert "no matching" in findings[0].message


def test_pd002_release_outside_finally():
    findings = vet("""\
        def submit(self, group):
            yield from self.lock.acquire("mckernel", self.aspace)
            yield from self.engine.submit(group)
            self.lock.release("mckernel")
        """)
    assert codes(findings) == ["PD002"]
    assert "finally" in findings[0].message


def test_pd002_clean_try_finally():
    findings = vet("""\
        def submit(self, group):
            yield from self.lock.acquire("mckernel", self.aspace)
            try:
                yield from self.engine.submit(group)
            finally:
                self.lock.release("mckernel")
        """)
    assert findings == []


def test_pd002_tracks_distinct_receivers():
    """Releasing lock A does not excuse leaking lock B."""
    findings = vet("""\
        def submit(self, group):
            yield from self.a.acquire("linux", self.aspace)
            yield from self.b.acquire("linux", self.aspace)
            try:
                yield from self.engine.submit(group)
            finally:
                self.a.release("linux")
        """)
    assert codes(findings) == ["PD002"]
    assert "'self.b.acquire'" in findings[0].message


# --- PD003 sim-process hygiene -----------------------------------------------

def test_pd003_fast_method_not_a_generator():
    findings = vet("""\
        class BadPico(PicoDriver):
            def fast_ioctl(self, task, fd, cmd, arg):
                return 0
        """)
    assert codes(findings) == ["PD003"]
    assert "not a generator" in findings[0].message


def test_pd003_bare_generator_call_discards_process():
    findings = vet("""\
        class Pico:
            def fast_send(self, task):
                yield self.sim.timeout(1.0)
                self._drain()

            def _drain(self):
                yield self.sim.timeout(2.0)
        """)
    assert codes(findings) == ["PD003"]
    assert "silently discarded" in findings[0].message


def test_pd003_yield_from_is_the_fix():
    findings = vet("""\
        class Pico:
            def fast_send(self, task):
                yield from self._drain()

            def _drain(self):
                yield self.sim.timeout(2.0)
        """)
    assert findings == []


# --- PD004 layout-version guard ----------------------------------------------

def test_pd004_structview_without_version_guard():
    findings = vet("""\
        class BadPico(PicoDriver):
            def attach(self, lwk):
                self.view = StructView(self.layouts["sdma_state"],
                                       lwk.node.kheap, 0)

            def fast_read(self, task):
                yield self.view.get("current_state")
        """)
    assert codes(findings) == ["PD004"]
    assert "require_layout_version" in findings[0].message


def test_pd004_guarded_class_is_clean():
    findings = vet("""\
        class GoodPico(PicoDriver):
            def attach(self, lwk):
                layout = dwarf_extract_struct(self.module, "s", ["f"])
                self.require_layout_version(layout, self.version)
                self.view = StructView(layout, lwk.node.kheap, 0)

            def fast_read(self, task):
                yield self.view.get("f")
        """)
    assert findings == []


# --- PD005 raw heap confinement ----------------------------------------------

RAW_HEAP_SRC = """\
    def peek(self, addr):
        return self.heap.read_u(addr, 4)
    """


def test_pd005_raw_heap_in_core():
    findings = vet(RAW_HEAP_SRC, path="src/repro/core/rogue.py")
    assert codes(findings) == ["PD005"]
    assert "self.heap.read_u" in findings[0].message


def test_pd005_blessed_modules_and_other_packages_exempt():
    assert vet(RAW_HEAP_SRC, path="src/repro/core/structs.py") == []
    assert vet(RAW_HEAP_SRC, path="src/repro/core/sync.py") == []
    assert vet(RAW_HEAP_SRC, path="src/repro/linux/hfi1/driver.py") == []


# --- pinned-memory discipline (PD006 -> vet PD015.3) ------------------------

def test_pd006_get_user_pages_in_fast_path():
    findings = vet("""\
        class BadPico(PicoDriver):
            def fast_reg(self, task, vaddr, length):
                pages = self.lwk.mm.get_user_pages(vaddr, length)
                yield pages
        """)
    assert codes(findings) == ["PD015.3"]
    assert "get_user_pages" in findings[0].message


def test_pd006_slow_path_may_take_page_refs():
    findings = vet("""\
        class Driver:
            def fast_reg(self, task, vaddr, length):
                yield task.pagetable.phys_spans(vaddr, length)

            def linux_reg(self, task, vaddr, length):
                return self.mm.get_user_pages(vaddr, length)
        """)
    assert findings == []


# --- PD007 fault-hook gating -------------------------------------------------

def test_pd007_unguarded_fires():
    findings = vet("""\
        def transmit(self, packet):
            if self.injector.fires("fabric.drop"):
                return
        """)
    assert codes(findings) == ["PD007"]
    assert "self.injector.fires" in findings[0].message


def test_pd007_boolop_guard_idiom_is_clean():
    """The hooks' actual shape: the installed-injector test comes
    earlier in the same ``and`` chain as the draw."""
    findings = vet("""\
        def transmit(self, packet):
            inj = self.injector
            if inj is not None and inj.fires("fabric.drop"):
                return
        """)
    assert findings == []


def test_pd007_enclosing_if_guard_is_clean():
    findings = vet("""\
        def submit(self):
            if self.device.injector is not None:
                if self.inj.fires("sdma.desc_error"):
                    self.halt("boom")
        """)
    assert findings == []


def test_pd007_else_branch_is_not_guarded():
    findings = vet("""\
        def submit(self):
            if self.inj is not None:
                pass
            else:
                self.inj.fires("irq.lost")
        """)
    assert codes(findings) == ["PD007"]


def test_pd007_fires_before_the_faults_operand_is_flagged():
    """Short-circuit order matters: the draw must come after the
    injector test, or runs without one still reach the draw."""
    findings = vet("""\
        def f(self):
            if self.inj.fires("irq.lost") and self.inj is not None:
                return
        """)
    assert codes(findings) == ["PD007"]


def test_pd007_unguarded_burst_draw():
    """The burst draw is a fault draw too, guarded or not."""
    findings = vet("""\
        def drain(self, inj, ring):
            n = inj.quiet_run(("sdma.desc_error", "sdma.engine_halt"),
                              len(ring))
            if inj is not None:
                n = inj.quiet_run(("sdma.desc_error",), n)
            return n
        """)
    assert codes(findings) == ["PD007"]
    assert findings[0].line == 2
    assert "inj.quiet_run" in findings[0].message


# --- PD011 trace-hook gating -------------------------------------------------

def test_pd011_unguarded_span_emission():
    findings = vet("""\
        def syscall(self, task, name):
            span = PLANES.trace.begin_span("x", "t")
            yield from self._dispatch(task, name)
            PLANES.trace.end_span(span)
        """)
    assert codes(findings) == ["PD011", "PD011"]
    assert "span emission" in findings[0].message
    assert "a test of trace" in findings[0].message


def test_pd011_conditional_expression_idiom_is_clean():
    """The hooks' actual begin shape: the emission sits in the then-arm
    of an ``... if PLANES.trace is not None else None`` expression."""
    findings = vet("""\
        def syscall(self, task, name):
            span = PLANES.trace.begin_span(
                "x", "t") if PLANES.trace is not None else None
            try:
                yield from self._dispatch(task, name)
            finally:
                if PLANES.trace is not None and span is not None:
                    PLANES.trace.end_span(span)
        """)
    assert findings == []


def test_pd011_enclosing_if_guard_is_clean():
    findings = vet("""\
        def _rx(self, pkt):
            if PLANES.trace is not None:
                PLANES.trace.instant_span("psm.rx", "t")
                PLANES.trace.add_flow(a, b)
        """)
    assert findings == []


def test_pd011_covers_the_whole_emission_surface():
    findings = vet("""\
        def f(self):
            PLANES.trace.instant_span("a", "t")
            PLANES.trace.complete_span("b", "t", 0.0, 1.0)
            PLANES.trace.add_flow(x, y)
        """)
    assert codes(findings) == ["PD011"] * 3


def test_pd011_exempts_the_obs_subsystem():
    """The collector and exporters call the emission surface
    unconditionally — by design."""
    src = """\
        def instant_span(self, name, track):
            span = self.begin_span(name, track, detached=True)
            self.end_span(span)
            return span
        """
    assert vet(src, path="src/repro/obs/spans.py") == []
    assert codes(vet(src, path="src/repro/psm/x.py")) == ["PD011"] * 2


def test_pd011_else_branch_is_not_guarded():
    findings = vet("""\
        def f(self):
            if PLANES.trace is not None:
                pass
            else:
                PLANES.trace.instant_span("a", "t")
        """)
    assert codes(findings) == ["PD011"]


# --- suppression -------------------------------------------------------------

def test_bare_pd_ignore_suppresses_everything():
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  # pd-ignore")
    assert vet(src, path="src/repro/core/rogue.py") == []


def test_targeted_suppression_matches_code():
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  # pd-ignore[PD005]")
    assert vet(src, path="src/repro/core/rogue.py") == []


def test_targeted_suppression_of_other_code_does_not_apply():
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  # pd-ignore[PD001, PD004]")
    # the PD005 finding survives, and the mistargeted suppression is
    # itself reported as stale (PD100)
    assert codes(vet(src, path="src/repro/core/rogue.py")) == \
        ["PD005", "PD100"]


# --- machinery ---------------------------------------------------------------

def test_findings_are_sorted_and_render_with_hints():
    findings = vet("""\
        class BadPico(PicoDriver):
            def fast_a(self, task):
                return self.inj.fires("a")
        """)
    # PD003 anchors on the def line, PD007 on the call: line order wins
    assert codes(findings) == ["PD003", "PD007"]
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    rendered = findings[-1].render()
    assert "PD007" in rendered and "(fix: " in rendered
    assert findings[-1].hint == RULES["PD007"][1]


def test_syntax_error_is_a_finding_not_a_crash():
    findings = vet("def broken(:\n", path="bad.py")
    assert codes(findings) == ["PD000"]
    assert "syntax error" in findings[0].message
    assert "PD000" in findings[0].render()


def test_rules_table_lists_every_code():
    table = rules_table()
    for code in RULES:
        assert code in table
    assert len(RULES) >= 5


def test_iter_python_files_expands_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.txt").write_text("not python\n")
    (tmp_path / "c.py").write_text("y = 2\n")
    found = iter_python_files([str(tmp_path)])
    assert [f.rsplit("/", 1)[-1] for f in found] == ["c.py", "a.py"]


def test_finding_is_a_value_object():
    f = Finding("p.py", 1, 0, "PD002", "m")
    assert f == Finding("p.py", 1, 0, "PD002", "m")


# --- PD008 lock-order hierarchy (vet) ----------------------------------------

BAD_ORDER_SRC = """\
    dispatch = CrossKernelSpinLock(sim, heap, name="mckernel.dispatch")
    sdma = CrossKernelSpinLock(sim, heap, name="hfi1.sdma_submit")

    def bad(self):
        yield from sdma.acquire("mckernel", aspace)
        yield from dispatch.acquire("mckernel", aspace)
        try:
            yield from self.engine.submit(group)
        finally:
            dispatch.release("mckernel")
            sdma.release("mckernel")
    """


def test_pd008_rank_violating_nesting():
    findings = vet(BAD_ORDER_SRC)
    assert codes(findings) == ["PD008"]
    assert findings[0].line == 6
    assert "mckernel.dispatch" in findings[0].message
    assert "hfi1.sdma_submit" in findings[0].message
    assert "rank 10" in findings[0].message and "rank 20" in findings[0].message
    # no per-module rule judges lock order: PD008 is the one rank check
    module = astcache.parse_source(textwrap.dedent(BAD_ORDER_SRC), "x.py")
    assert lint_module(module) == []


def test_pd008_rank_respecting_nesting_is_clean():
    findings = vet("""\
        dispatch = CrossKernelSpinLock(sim, heap, name="mckernel.dispatch")
        sdma = CrossKernelSpinLock(sim, heap, name="hfi1.sdma_submit")

        def good(self):
            yield from dispatch.acquire("mckernel", aspace)
            yield from sdma.acquire("mckernel", aspace)
            try:
                yield from self.engine.submit(group)
            finally:
                sdma.release("mckernel")
                dispatch.release("mckernel")
        """)
    assert findings == []


# --- PD009 no timed wait in critical section (vet) ---------------------------

def test_pd009_timed_wait_while_held():
    findings = vet("""\
        def submit(self, group):
            yield from self.lock.acquire("mckernel", self.aspace)
            try:
                yield self.sim.timeout(1.0)
            finally:
                self.lock.release("mckernel")
        """)
    assert codes(findings) == ["PD009"]
    assert findings[0].line == 4
    assert "timeout" in findings[0].message


def test_pd009_clean_after_release():
    findings = vet("""\
        def submit(self, group):
            yield from self.lock.acquire("mckernel", self.aspace)
            try:
                yield from self.engine.submit(group)
            finally:
                self.lock.release("mckernel")
            yield self.sim.timeout(1.0)
        """)
    assert findings == []


# --- PD100 unused suppressions -----------------------------------------------

def test_pd100_bare_unused_suppression():
    findings = vet("""\
        def f(self):
            return self.x  # pd-ignore
        """)
    assert codes(findings) == ["PD100"]
    assert "suppresses nothing" in findings[0].message


def test_pd100_quiet_when_suppression_is_used():
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  # pd-ignore")
    assert vet(src, path="src/repro/core/rogue.py") == []


def test_pd100_ignores_prose_mentions_of_the_marker():
    findings = vet('''\
        def f(self):
            """Docs may discuss pd-ignore without tripping PD100."""
            return self.x
        ''')
    assert findings == []
    # the suppression pass reads the same comment tokens: the marker in
    # a string literal silences nothing either
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               'read_u(addr, 4), "# pd-ignore"')
    assert codes(vet(src, path="src/repro/core/rogue.py")) == ["PD005"]


# --- PD012 controlled-scheduler gating ---------------------------------------

def test_pd012_unguarded_hook_calls():
    findings = vet("""\
        def step(self):
            pick = self.scheduler.choose_ready(self.now, ready)
            self.scheduler.on_step_begin(self.now, 0, evt)
        """)
    assert codes(findings) == ["PD012", "PD012"]
    assert "controlled-scheduler hook" in findings[0].message
    assert "a test of scheduler" in findings[0].message


def test_pd012_scheduler_none_guard_is_clean():
    """The engine's actual idiom: the hook calls live in the body of
    ``if self.scheduler is not None``."""
    findings = vet("""\
        def step(self):
            if self.scheduler is not None:
                pick = self.scheduler.choose_ready(self.now, ready)
                self.scheduler.on_step_begin(self.now, 0, evt)
                self.scheduler.on_step_end()
        """)
    assert findings == []


def test_pd012_analysis_check_guard_is_clean():
    """PicoCheck's gate is the scheduler its scenario installs, tested
    through any receiver (here the process's simulator)."""
    findings = vet("""\
        def _deliver(self, event):
            scheduler = self.sim.scheduler
            if scheduler is not None:
                scheduler.on_process_resumed(self)
        """)
    assert findings == []


def test_pd012_else_branch_is_not_guarded():
    findings = vet("""\
        def step(self):
            if self.scheduler is not None:
                pass
            else:
                self.scheduler.on_step_end()
        """)
    assert codes(findings) == ["PD012"]


def test_pd012_exempts_the_checker_itself():
    """The explorer and its fixtures drive the hooks unconditionally
    by design (``repro/analysis/check*.py``)."""
    src = """\
        def execute(self):
            self.scheduler.on_step_begin(0.0, 0, evt)
        """
    assert vet(src, path="src/repro/analysis/check.py") == []
    assert vet(src, path="src/repro/analysis/check_fixtures.py") == []
    assert codes(vet(src, path="src/repro/sim/engine.py")) == ["PD012"]


# --- PD013 guard-hook gating --------------------------------------------------

def test_pd013_unguarded_hook_calls():
    findings = vet("""\
        def writev(self, task, fd):
            engine = self.guard.pick_healthy_engine(self.hfi)
            self.guard.record_failure("engine0", "halt")
        """)
    assert codes(findings) == ["PD013", "PD013"]
    assert "guard-plane hook" in findings[0].message
    assert "a test of guard/gate" in findings[0].message


def test_pd013_guard_enabled_gate_is_clean():
    """The SDMA engine's idiom: test the congestion gate the machine
    installed on it."""
    findings = vet("""\
        def submit(self, group):
            if self.gate is not None:
                yield from self.gate.acquire_slots(len(group.descriptors))
        """)
    assert findings == []


def test_pd013_guard_is_none_test_is_clean():
    """The dispatcher idiom: read the installed manager once, then test
    the local for installation."""
    findings = vet("""\
        def fast_writev(self, task, fd):
            guard = self.linux_driver.guard
            if guard is not None:
                yield from guard.park_if_suspended()
                guard.record_success("engine0")
        """)
    assert findings == []


def test_pd013_else_branch_is_not_guarded():
    findings = vet("""\
        def submit(self):
            if guard is not None:
                pass
            else:
                guard.record_failure("engine0")
        """)
    assert codes(findings) == ["PD013"]


def test_pd013_exempts_the_guard_package_itself():
    """The manager delegates to its own breakers unconditionally by
    design (``repro/guard/*``)."""
    src = """\
        def record_success(self, path):
            self.breakers[path].record_success()
        """
    assert vet(src, path="src/repro/guard/manager.py") == []
    assert codes(vet(src, path="src/repro/hw/hfi.py")) == ["PD013"]


# The pxd driver's probe kick and a breaker's probe mark were rule
# PD014's storage recovery hooks; PD013 gates them now, and these two
# keep PD014's unguarded and guarded cases under their old names.

def test_pd014_unguarded_probe_kick():
    findings = vet("""\
        def _head_finish(self, head):
            self._maybe_probe()
            self.breakers["replica0"].begin_probe()
        """, path="src/repro/linux/pxd/driver.py")
    assert codes(findings) == ["PD013", "PD013"]
    assert "guard-plane hook" in findings[0].message
    assert "a test of guard/gate" in findings[0].message


def test_pd014_guard_gates_are_clean():
    findings = vet("""\
        def _head_finish(self, head):
            guard = self.guard
            if guard is not None:
                self._maybe_probe()
                guard.breakers["replica0"].begin_probe()
        """, path="src/repro/linux/pxd/driver.py")
    assert findings == []


def test_pd013_in_rules_table():
    assert "PD013" in RULES
    assert "PD013" in rules_table()


# --- PD016 machine-observer hook gating ---------------------------------------

def test_pd016_unguarded_probe_hook():
    findings = vet("""\
        def build(self):
            self.probe.on_machine_built(self)
        """, path="src/repro/experiments/common.py")
    assert codes(findings) == ["PD016"]
    assert "machine-observer hook" in findings[0].message
    assert "a test of probe" in findings[0].message


def test_pd016_tune_enabled_gate_is_clean():
    """The probe may sit on any receiver the test names."""
    findings = vet("""\
        def build(self):
            if self.probe is not None:
                self.probe.on_machine_built(self)
        """, path="src/repro/experiments/common.py")
    assert findings == []


def test_pd016_probe_is_none_test_is_clean():
    """The machine builder's idiom: read the ``tune`` slot once into a
    ``probe`` local, then test the local."""
    findings = vet("""\
        def build(self):
            probe = PLANES.tune
            if probe is not None:
                probe.on_machine_built(self)
        """, path="src/repro/experiments/common.py")
    assert findings == []


def test_pd016_in_rules_table():
    assert "PD016" in RULES
    assert "PD016" in rules_table()


# --- dotted rule ids and the PD015 family ------------------------------------

def test_code_matches_exact_and_family_prefix():
    from repro.analysis.lint import code_matches
    assert code_matches("PD015.2", "PD015.2")
    assert code_matches("PD015.2", "PD015")     # family prefix
    assert not code_matches("PD015", "PD015.2")  # prefix is one-way
    assert not code_matches("PD0152", "PD015")   # dot-bounded, not substring


def test_dotted_suppression_is_not_a_blanket_ignore():
    """A dotted id inside the brackets must parse as a *targeted*
    suppression; under the pre-dot grammar the bracket group failed to
    match and the comment degraded to a suppress-everything bare
    ``pd-ignore``, silently hiding unrelated findings."""
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  # pd-ignore[PD015.5]")
    assert "PD005" in codes(vet(src, path="src/repro/core/rogue.py"))


def test_multi_rule_suppression_with_dotted_member():
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  # pd-ignore[PD005,PD015.2]")
    findings = vet(src, path="src/repro/core/rogue.py")
    # PD005 is suppressed; no PD015.2 is found on the line, so the same
    # comment is stale for that member
    assert codes(findings) == ["PD100"]
    assert "pd-ignore[PD015.2]" in findings[0].message


def test_one_pass_judges_every_listed_code():
    """Per-module and program rules share one suppression verdict: each
    listed code that silences nothing on the line is named once, in one
    PD100, whichever kind of rule it is."""
    src = RAW_HEAP_SRC.replace("read_u(addr, 4)",
                               "read_u(addr, 4)  "
                               "# pd-ignore[PD005, PD008, PD009, PD015]")
    findings = vet(src, path="src/repro/core/rogue.py")
    assert codes(findings) == ["PD100"]
    assert "pd-ignore[PD008, PD009, PD015]" in findings[0].message


def test_gating_rules_track_each_plane_separately():
    """One plane's gate never excuses another plane's hook: a scan that
    tracked a single 'guarded' flag would pass every other test here."""
    findings = vet("""\
        def f(self, inj, guard):
            if PLANES.trace is not None:
                inj.fires("irq.lost")
            if inj is not None:
                guard.record_failure("engine0")
            if inj is not None and PLANES.trace is not None:
                inj.fires("irq.lost")
                PLANES.trace.instant_span("a", "t")
        """)
    assert [(f.code, f.line) for f in findings] == [("PD007", 3),
                                                   ("PD013", 5)]
    assert "a test of inj/injector" in findings[0].message
    assert "a test of guard/gate" in findings[1].message


def test_plane_flags_are_not_gates():
    """Only the handle a plane installs gates its hooks: a test of a
    process-wide flag does not, whatever it is called."""
    findings = vet("""\
        def f(self):
            if FAULTS.enabled:
                self.inj.fires("irq.lost")
            if ANALYSIS.check:
                self.sim.scheduler.on_process_resumed(self)
            if GUARD.enabled:
                self.breakers.record_failure("engine0")
            if TUNE.enabled:
                TUNE.probe.on_machine_built(self)
        """)
    assert codes(findings) == ["PD007", "PD012", "PD013", "PD016"]


def test_pd015_rules_in_table():
    for code in ("PD015.1", "PD015.2", "PD015.3", "PD015.4", "PD015.5",
                 "PD015.6"):
        assert code in RULES
        assert code in rules_table()
