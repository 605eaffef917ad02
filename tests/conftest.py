"""Suite-wide fixtures."""

import pytest

from repro.config import PLANES, Planes


def _planes_on():
    return sorted(name for name in Planes.__slots__
                  if getattr(PLANES, name) is not None)


@pytest.fixture(autouse=True)
def planes_off():
    """Every opt-in plane slot is off before and after each test.

    A test that leaves a slot set fails here; the slots are cleared
    first, so the leak does not also fail every later test.
    """
    assert _planes_on() == [], "plane slots set before the test"
    yield
    leaked = _planes_on()
    for name in leaked:
        setattr(PLANES, name, None)
    assert leaked == [], f"plane slots left set by the test: {leaked}"
