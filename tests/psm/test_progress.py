"""The progress worker's detached drain loop and its idle drain."""

import pytest

from repro.errors import DriverError
from repro.psm.progress import ProgressWorker
from repro.sim import Simulator


def _job(sim, delay, log, label):
    yield sim.timeout(delay)
    log.append((sim.now, label))


def test_job_error_without_handler_fails_the_run():
    """A job's typed error ends the loop and propagates out of
    ``run``; nothing swallows it."""
    sim = Simulator()
    worker = ProgressWorker(sim, "w")

    def failing_job():
        yield sim.timeout(1.0)
        raise DriverError("injected")

    worker.submit(failing_job())
    with pytest.raises(DriverError, match="injected"):
        sim.run()
    assert worker.failed == 1 and worker.completed == 0


def test_drain_waits_for_every_queued_job():
    sim = Simulator()
    worker = ProgressWorker(sim, "w")
    log = []
    worker.submit(_job(sim, 1.0, log, "a"))
    worker.submit(_job(sim, 2.0, log, "b"))
    assert not worker.idle

    def closer():
        yield from worker.drain()
        log.append((sim.now, "drained"))

    sim.process(closer())
    sim.run()
    assert log == [(1.0, "a"), (3.0, "b"), (3.0, "drained")]
    assert worker.idle and worker.completed == 2


def test_drain_of_an_idle_worker_posts_no_event():
    sim = Simulator()
    worker = ProgressWorker(sim, "w")
    sim.run()
    assert worker.idle
    assert list(worker.drain()) == []
    assert sim.peek() == float("inf")
