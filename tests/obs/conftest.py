"""Shared traced runs for the observability tests.

A traced fig4 regeneration is the suite's workhorse fixture; it is
module-expensive (three OS configs, two sizes), so it runs once per
session and every structural test reads from the same collector.
"""

import pytest

from repro.config import planes
from repro.experiments import run_fig4
from repro.obs import SpanCollector
from repro.units import KiB, MiB

#: one PIO-range and one rendezvous-range size — enough for every
#: protocol branch the tests assert on
TRACE_SIZES = (16 * KiB, 4 * MiB)


@pytest.fixture(scope="session")
def traced_fig4():
    """(collector, Fig4Result) for one traced smoke regeneration."""
    collector = SpanCollector()
    with planes(trace=collector):
        result = run_fig4(sizes=TRACE_SIZES, repetitions=1)
    collector.finalize()
    return collector, result
