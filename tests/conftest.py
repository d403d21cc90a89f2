import pytest

from taserial.dsl import LOCATIONS


@pytest.fixture
def cold_locations():
    """The process's location table, emptied for the test and given its
    entries back after it."""
    saved = dict(LOCATIONS)
    LOCATIONS.clear()
    yield LOCATIONS
    LOCATIONS.clear()
    LOCATIONS.update(saved)
