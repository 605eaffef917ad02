"""A per-call scalar fault injector: the reference for the buffered one.

``ScalarInjector`` decides every opportunity the plain way: it reads the
current plan on each call and makes one scalar ``Generator.random()``
draw per opportunity from the point's own lazily created stream.  A
burst of opportunities is one ``fires`` call per point per opportunity,
stopping after the first opportunity at which any point fires.
"""

from repro.faults import FAULT_POINTS


class ScalarInjector:
    """The injector as one scalar draw per ``fires`` call."""

    def __init__(self, plan, rng_factory, tracer=None):
        self.plan = plan
        self.rng_factory = rng_factory
        self.tracer = tracer
        self._streams = {}
        self.occurrences = {}

    def fires(self, point):
        rate = self.plan.rate_of(point)
        if self.plan.deterministic:
            idx = self.occurrences.get(point, 0)
            self.occurrences[point] = idx + 1
            scheduled = {(f.point, f.occurrence) for f in self.plan.scheduled}
            if (point, idx) not in scheduled:
                return False
            if self.tracer is not None:
                self.tracer.count(f"faults.{point}")
            return True
        if rate <= 0.0:
            return False
        stream = self._streams.get(point)
        if stream is None:
            stream = self._streams[point] = self.rng_factory.stream(
                "fault", point)
        if stream.random() >= rate:
            return False
        if self.tracer is not None:
            self.tracer.count(f"faults.{point}")
        return True


def burst(inj, points, n):
    """Up to ``n`` opportunities of ``points`` on either injector.

    Returns ``(k, flags)``: ``k`` opportunities passed with no firing and
    ``flags`` are the per-point results at opportunity ``k`` (``None``
    when all ``n`` passed).  The buffered injector does it as its SDMA
    engine does: one ``quiet_run``, then ``fires`` per point at the
    firing opportunity.
    """
    assert all(point in FAULT_POINTS for point in points)
    if isinstance(inj, ScalarInjector):
        for k in range(n):
            flags = [inj.fires(point) for point in points]
            if any(flags):
                return k, flags
        return n, None
    k = inj.quiet_run(points, n)
    if k == n:
        return k, None
    return k, [inj.fires(point) for point in points]
