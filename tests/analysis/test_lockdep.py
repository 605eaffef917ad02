"""Tests for PicoLockdep: the runtime deadlock validator, the static
lock graph read off PicoVet's program model (with vet rules PD008 and
PD009), and the consistency between the two views."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis.lint import iter_python_files
from repro.analysis.lockdep import LockdepValidator, lock_graph
from repro.analysis.vet import vet_paths
from repro.analysis.vet_checkers import run_checkers
from repro.analysis.vet_effects import Program
from repro.core import linux_layout, mckernel_unified_layout
from repro.core.lockclasses import REGISTRY, ensure_declarations
from repro.core.sync import CrossKernelSpinLock
from repro.errors import ReproError
from repro.hw import SharedHeap
from repro.hw.irq import in_irq, irq_enter, irq_exit, tag_irq_generator
from repro.sim import Simulator


def make_env():
    """A sim + heap with a registered validator and the two declared
    lock classes instantiated as real cross-kernel locks."""
    ensure_declarations()
    sim = Simulator()
    heap = SharedHeap(65536)
    validator = LockdepValidator(sim, name="test.lockdep")
    heap.add_monitor(validator)
    sim.wait_monitor = validator
    dispatch = CrossKernelSpinLock(sim, heap, name="mckernel.dispatch")
    submit = CrossKernelSpinLock(sim, heap, name="hfi1.sdma_submit")
    return sim, heap, validator, dispatch, submit


# --- dynamic view -------------------------------------------------------------

def test_lock_resolves_declared_class():
    _sim, _heap, _v, dispatch, submit = make_env()
    assert dispatch.lock_class.rank == 10
    assert submit.lock_class.rank == 20
    assert "core/hfi_pico" in submit.lock_class.users


def test_rank_respecting_nesting_is_clean():
    sim, _heap, validator, dispatch, submit = make_env()
    linux = linux_layout()

    def linux_path():
        yield from dispatch.acquire("linux", linux)
        yield from submit.acquire("linux", linux)
        submit.release("linux")
        dispatch.release("linux")

    sim.run(until=sim.process(linux_path()))
    assert validator.reports == []
    assert ("mckernel.dispatch", "hfi1.sdma_submit") \
        in validator.dependency_edges()


def test_abba_reported_with_both_sites_and_kernels():
    """The seeded AB-BA: Linux takes dispatch->submit (legal), McKernel
    takes submit->dispatch.  No hang occurs (the paths run at different
    times) yet the validator must report the inversion, and with it the
    earlier reverse nesting: both witness sites, both kernels and the
    sim timestamps."""
    sim, _heap, validator, dispatch, submit = make_env()
    linux = linux_layout()
    mck = mckernel_unified_layout()

    def linux_path():
        yield from dispatch.acquire("linux", linux)
        yield from submit.acquire("linux", linux)
        submit.release("linux")
        dispatch.release("linux")

    def mck_path():
        yield sim.timeout(1.0)
        yield from submit.acquire("mckernel", mck)
        yield from dispatch.acquire("mckernel", mck)
        dispatch.release("mckernel")
        submit.release("mckernel")

    sim.process(linux_path())
    sim.process(mck_path())
    sim.run()
    assert [r.kind for r in validator.reports] == ["hierarchy-violation"]
    text = validator.reports[0].render()
    # both acquisition sites (function names) and both kernels named
    assert "linux_path" in text and "mck_path" in text
    assert "linux" in text and "mckernel" in text
    assert "t=1" in text and "t=0" in text
    assert "rank 10" in text and "rank 20" in text
    assert "reverse order seen earlier (AB-BA)" in text


def test_cycle_reported_once_per_class_set():
    sim, _heap, validator, dispatch, submit = make_env()
    linux = linux_layout()
    mck = mckernel_unified_layout()

    def one(lock1, lock2, kernel, aspace, start):
        yield sim.timeout(start)
        yield from lock1.acquire(kernel, aspace)
        yield from lock2.acquire(kernel, aspace)
        lock2.release(kernel)
        lock1.release(kernel)

    sim.process(one(dispatch, submit, "linux", linux, 0.0))
    sim.process(one(submit, dispatch, "mckernel", mck, 1.0))
    sim.process(one(dispatch, submit, "linux", linux, 2.0))
    sim.process(one(submit, dispatch, "mckernel", mck, 3.0))
    sim.run()
    # two AB-BA rounds, one report: the one illegal class pair
    assert [(r.kind, r.title.split(" (")[0]) for r in validator.reports] \
        == [("hierarchy-violation", "mckernel takes mckernel.dispatch")]


@pytest.mark.parametrize("name", ["hfi1.sdma_submit", "rig.unranked"])
def test_retaking_a_held_class_is_reported(name):
    """Two locks of one class, nested: the acquirer may spin on a word
    its own class already holds.  The order rule rejects it whether the
    class is ranked or not."""
    sim, heap, validator, _dispatch, _submit = make_env()
    first = CrossKernelSpinLock(sim, heap, name=name)
    second = CrossKernelSpinLock(sim, heap, name=name)
    linux = linux_layout()

    def body():
        yield from first.acquire("linux", linux)
        yield from second.acquire("linux", linux)
        second.release("linux")
        first.release("linux")

    sim.run(until=sim.process(body()))
    assert [r.kind for r in validator.reports] == ["hierarchy-violation"]
    assert f"takes lock class {name} while already holding it" \
        in validator.reports[0].title


def test_order_rule_judges_ranked_pairs_only():
    """The registry's one rule: rank-increasing nestings pass, the
    reverse fails, and a pair with an undeclared side is not judged."""
    ensure_declarations()
    assert REGISTRY.order_problem("mckernel.dispatch",
                                  "hfi1.sdma_submit") is None
    assert "rank-increasing" in REGISTRY.order_problem(
        "hfi1.sdma_submit", "mckernel.dispatch")
    assert REGISTRY.order_problem("rig.outer", "hfi1.sdma_submit") is None
    assert REGISTRY.order_problem("pxd.submit", "rig.inner") is None


def test_held_across_wait_attributed_to_holder():
    sim, _heap, validator, _dispatch, submit = make_env()
    mck = mckernel_unified_layout()

    def body():
        yield from submit.acquire("mckernel", mck)
        yield sim.timeout(5.0)  # the peer kernel spins all 5 seconds
        submit.release("mckernel")

    sim.run(until=sim.process(body()))
    waits = [r for r in validator.reports if r.kind == "held-across-wait"]
    assert len(waits) == 1
    text = waits[0].render()
    assert "hfi1.sdma_submit" in text and "in body" in text
    assert "5" in waits[0].title


def test_unrelated_wait_is_not_attributed():
    """A timeout issued by a process that holds nothing must not be
    blamed on whoever happens to hold a lock at that instant."""
    sim, _heap, validator, _dispatch, submit = make_env()
    linux = linux_layout()
    wake = sim.event()

    def holder():
        yield from submit.acquire("linux", linux)
        yield wake  # untimed wait: this frame never issues a timeout
        submit.release("linux")

    def bystander():
        yield sim.timeout(1.0)  # timed waits while holding nothing
        yield sim.timeout(1.0)
        wake.succeed()

    hold = sim.process(holder())
    sim.process(bystander())
    sim.run()
    assert hold.exception is None
    assert [r for r in validator.reports
            if r.kind == "held-across-wait"] == []


def test_irq_inversion_reported():
    sim, _heap, validator, _dispatch, submit = make_env()
    linux = linux_layout()

    def process_side():
        yield from submit.acquire("linux", linux)
        submit.release("linux")

    def irq_side():
        yield sim.timeout(1.0)
        yield from submit.acquire("linux", linux)
        submit.release("linux")

    sim.process(process_side())
    sim.process(tag_irq_generator(irq_side(), "linux"))
    sim.run()
    inversions = [r for r in validator.reports
                  if r.kind == "irq-inversion"]
    assert len(inversions) == 1
    text = inversions[0].render()
    assert "[irq]" in text and "[process]" in text


def test_tag_irq_generator_brackets_each_resume_step():
    sim = Simulator()
    observed = []

    def handler():
        observed.append(in_irq("linux"))
        yield sim.timeout(1.0)
        observed.append(in_irq("linux"))
        return "done"

    def bystander():
        yield sim.timeout(0.5)
        observed.append(("bystander", in_irq("linux")))

    proc = sim.process(tag_irq_generator(handler(), "linux"))
    sim.process(bystander())
    sim.run()
    # in IRQ context during both handler steps, never while suspended
    assert observed == [True, ("bystander", False), True]
    assert proc.value == "done"
    assert not in_irq("linux")


def test_irq_exit_without_enter_rejected():
    irq_enter("testkernel")
    irq_exit("testkernel")
    with pytest.raises(ReproError):
        irq_exit("testkernel")


def test_summary_counts_acquisitions_and_edges():
    sim, _heap, validator, dispatch, submit = make_env()
    linux = linux_layout()

    def body():
        yield from dispatch.acquire("linux", linux)
        yield from submit.acquire("linux", linux)
        submit.release("linux")
        dispatch.release("linux")

    sim.run(until=sim.process(body()))
    summary = validator.summary()
    assert "no findings" in summary
    assert "2 acquisition(s)" in summary
    assert "1 dependency edge(s)" in summary


# --- static view --------------------------------------------------------------

ABBA_SRC = '''\
class AbbaDrivers:
    def setup(self, sim, heap):
        self.dispatch_lock = CrossKernelSpinLock(
            sim, heap, name="mckernel.dispatch")
        self.sdma_lock = CrossKernelSpinLock(
            sim, heap, name="hfi1.sdma_submit")

    def linux_path(self):
        yield from self.dispatch_lock.acquire("linux", self.aspace)
        yield from self.sdma_lock.acquire("linux", self.aspace)
        self.sdma_lock.release("linux")
        self.dispatch_lock.release("linux")

    def mck_path(self):
        yield from self.sdma_lock.acquire("mckernel", self.aspace)
        yield from self.dispatch_lock.acquire("mckernel", self.aspace)
        self.dispatch_lock.release("mckernel")
        self.sdma_lock.release("mckernel")
'''


def _static(tmp_path, source):
    """(lock graph, program-rule findings) for one fixture module; the
    fixtures leave locks unreleased on purpose, and PD002-PD004 are
    :mod:`tests.analysis.test_lint`'s."""
    fixture = tmp_path / "x.py"
    fixture.write_text(textwrap.dedent(source))
    program = Program.build([str(fixture)])
    return lock_graph(program), [f for f in run_checkers(program)
                                 if f.code not in ("PD002", "PD003", "PD004")]


def test_static_abba_yields_pd008_and_cycle(tmp_path):
    """The graph carries both directions of the AB-BA, each with its
    witness; PD008 alone judges it, at the inverted nesting."""
    graph, findings = _static(tmp_path, ABBA_SRC)
    assert [(f.code, f.line) for f in findings] == [("PD008", 16)]
    assert "rank 10" in findings[0].message and "rank 20" in findings[0].message
    assert "mck_path" in findings[0].message
    assert graph.has_edge("mckernel.dispatch", "hfi1.sdma_submit")
    assert graph.has_edge("hfi1.sdma_submit", "mckernel.dispatch")
    assert sorted((edge.func, edge.kernel)
                  for edge in graph.edges.values()) == [
        ("AbbaDrivers.linux_path", "linux"),
        ("AbbaDrivers.mck_path", "mckernel")]


def test_static_resolves_class_via_registry_attr(tmp_path):
    """No constructor binding in sight: ``self.foo.sdma_lock`` resolves
    through the declared ``attrs`` map."""
    graph, _findings = _static(tmp_path, '''\
def path(self):
    yield from self.driver.sdma_lock.acquire("mckernel", self.aspace)
    self.driver.sdma_lock.release("mckernel")
''')
    assert graph.ranks.get("hfi1.sdma_submit") == 20


def test_static_pd009_direct_and_through_helper(tmp_path):
    """A wait in the critical section itself is PD009 at the wait; a
    helper that waits, called inside it, is one PD015.4 at the call."""
    _graph, findings = _static(tmp_path, '''\
class D:
    def direct(self):
        yield from self.lock.acquire("linux", self.aspace)
        yield self.sim.timeout(1.0)
        self.lock.release("linux")

    def outer(self):
        yield from self.lock.acquire("linux", self.aspace)
        yield from self._backoff()
        self.lock.release("linux")

    def _backoff(self):
        yield self.sim.timeout(2.0)
''')
    assert [(f.code, f.line) for f in findings] == [("PD009", 4),
                                                   ("PD015.4", 9)]
    assert "D.direct" in findings[0].message
    assert "'D.outer' calls 'D._backoff'" in findings[1].message


def test_static_release_before_wait_is_clean(tmp_path):
    _graph, findings = _static(tmp_path, '''\
def path(self):
    yield from self.lock.acquire("linux", self.aspace)
    try:
        yield from self.engine.submit(group)
    finally:
        self.lock.release("linux")
    yield self.sim.timeout(1.0)
''')
    assert findings == []


def test_static_wait_in_except_branch_while_held_flagged(tmp_path):
    """The pre-refactor fast_writev shape: the except branch sleeps
    before the finally releases."""
    _graph, findings = _static(tmp_path, '''\
def path(self):
    yield from self.lock.acquire("mckernel", self.aspace)
    try:
        yield from self.engine.submit(group)
    except DriverError:
        yield self.sim.timeout(cost)
        raise
    finally:
        self.lock.release("mckernel")
''')
    assert [(f.code, f.line) for f in findings] == [("PD009", 6)]


def test_static_self_deadlock_is_pd008(tmp_path):
    _graph, findings = _static(tmp_path, '''\
def path(self):
    yield from self.lock.acquire("linux", self.aspace)
    yield from self.lock.acquire("linux", self.aspace)
    self.lock.release("linux")
    self.lock.release("linux")
''')
    assert [(f.code, f.line) for f in findings] == [("PD008", 3)]
    assert "already holding it" in findings[0].message


def test_static_lock_order_through_a_helper_fires_at_the_call(tmp_path):
    """A confident callee that takes a lower-ranked class is PD008 at
    the call site, and the graph carries the edge."""
    graph, findings = _static(tmp_path, '''\
class D:
    def setup(self, sim, heap):
        self.dispatch_lock = CrossKernelSpinLock(
            sim, heap, name="mckernel.dispatch")
        self.sdma_lock = CrossKernelSpinLock(
            sim, heap, name="hfi1.sdma_submit")

    def outer(self):
        yield from self.sdma_lock.acquire("mckernel", self.aspace)
        try:
            yield from self._dispatch()
        finally:
            self.sdma_lock.release("mckernel")

    def _dispatch(self):
        yield from self.dispatch_lock.acquire("mckernel", self.aspace)
        self.dispatch_lock.release("mckernel")
''')
    assert [(f.code, f.line) for f in findings] == [("PD008", 11)]
    assert "'D._dispatch' called from D.outer" in findings[0].message
    assert "rank 10" in findings[0].message
    assert graph.has_edge("hfi1.sdma_submit", "mckernel.dispatch")


def test_static_anonymous_lock_pairs_do_not_fire_pd008(tmp_path):
    """Two undeclared locks have no ranks; nesting them is not a
    hierarchy violation (PD002 still polices their release paths)."""
    _graph, findings = _static(tmp_path, '''\
def path(self):
    yield from self.a.acquire("linux", self.aspace)
    yield from self.b.acquire("linux", self.aspace)
    self.b.release("linux")
    self.a.release("linux")
''')
    assert findings == []


def test_shipped_tree_static_graph_is_clean():
    """The lockgraph verdict on the shipped tree: no PD000/PD008/PD009
    finding (none at all).  Every class the tree acquires is ranked and
    none is taken under another, so the rank rule leaves no nesting
    unjudged and the graph has no cycle to find."""
    program, findings = vet_paths()
    assert findings == []
    graph = lock_graph(program)
    assert None not in graph.ranks.values()
    assert graph.edges == {}
    assert graph.ranks["hfi1.sdma_submit"] == 20
    # both the Linux slow path and the pico fast path acquire it, named
    # from the package down, so two checkouts print the same graph
    sites = " ".join(graph.sites["hfi1.sdma_submit"])
    assert "repro/linux/hfi1/driver.py:" in sites
    assert "repro/core/hfi_pico.py:" in sites
    assert not re.search(r"(?<![\w.])/\S+\.py", graph.render())
    # the pxd submit lock: declared, ranked, every acquisition filed
    assert graph.ranks["pxd.submit"] == 22
    assert sorted(site.rsplit(" in ", 1)[1]
                  for site in graph.sites["pxd.submit"]) == [
        "PxdDriver._probe", "PxdDriver._read", "PxdDriver.writev",
        "PxdPicoDriver._read", "PxdPicoDriver.fast_writev"]
    # no phantom class: every acquired class is a declared one
    assert all(REGISTRY.get(cls) is not None for cls in graph.ranks)


def test_to_dot_renders_nodes_and_edges(tmp_path):
    graph, _findings = _static(tmp_path, ABBA_SRC)
    dot = graph.to_dot()
    assert "digraph" in dot
    assert '"mckernel.dispatch" -> "hfi1.sdma_submit"' in dot
    assert "rank 20" in dot


def test_hierarchy_table_lists_users():
    ensure_declarations()
    table = REGISTRY.hierarchy_table()
    assert "mckernel.dispatch" in table
    assert "core/hfi_pico" in table


# --- dynamic/static consistency ----------------------------------------------

def test_dynamic_abba_edges_are_subset_of_static(tmp_path):
    """The consistency contract of ``python -m repro lockdep``: every
    dependency edge the validator observes at runtime must appear in
    the static graph extracted from the same source shape."""
    fixture = tmp_path / "abba.py"
    fixture.write_text(ABBA_SRC)
    graph = lock_graph(Program.build([str(fixture)]))

    sim, _heap, validator, dispatch, submit = make_env()
    linux = linux_layout()
    mck = mckernel_unified_layout()

    def linux_path():
        yield from dispatch.acquire("linux", linux)
        yield from submit.acquire("linux", linux)
        submit.release("linux")
        dispatch.release("linux")

    def mck_path():
        yield sim.timeout(1.0)
        yield from submit.acquire("mckernel", mck)
        yield from dispatch.acquire("mckernel", mck)
        dispatch.release("mckernel")
        submit.release("mckernel")

    sim.process(linux_path())
    sim.process(mck_path())
    sim.run()
    dynamic = set(validator.dependency_edges())
    assert dynamic == {("mckernel.dispatch", "hfi1.sdma_submit"),
                       ("hfi1.sdma_submit", "mckernel.dispatch")}
    for src, dst in dynamic:
        assert graph.has_edge(src, dst)


# --- the declarations the static pass sees ------------------------------------

def _declaration_calls():
    """Every ``declare_lock_class``/``declare_lock_use`` call in the
    shipped tree: (function, lock class, subsystem)."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    calls = []
    for filename in iter_python_files([root]):
        with open(filename) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("declare_lock_class",
                                         "declare_lock_use"):
                args = [a.value for a in node.args]
                kwargs = {k.arg: k.value.value for k in node.keywords
                          if isinstance(k.value, ast.Constant)}
                subsystem = (args[1] if node.func.id == "declare_lock_use"
                             else args[2] if len(args) > 2
                             else kwargs["subsystem"])
                calls.append((node.func.id, args[0], subsystem))
    return calls


def test_ensure_declarations_alone_registers_every_declaration():
    """A fresh interpreter that only calls ``ensure_declarations()`` must
    see every lock class and every declared user — the static pass must
    not depend on what an earlier import happened to load."""
    calls = _declaration_calls()
    assert ("declare_lock_class", "pxd.submit", "linux/pxd") in calls
    assert ("declare_lock_use", "pxd.submit", "core/pxd_pico") in calls
    probe = ("import json\n"
             "from repro.core.lockclasses import REGISTRY, "
             "ensure_declarations\n"
             "ensure_declarations()\n"
             "print(json.dumps({c.name: [c.subsystem, *c.users] "
             "for c in REGISTRY.classes()}))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr[-2000:]
    registered = json.loads(result.stdout)
    for _func, name, subsystem in calls:
        assert subsystem in registered.get(name, ()), (name, subsystem)
