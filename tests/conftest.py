import numpy as np
import pytest
from hypothesis import settings

from qcanon.catalog import DELTA_BUCKET, build, save

# reproducible CI runs: fixed example streams, no wall-clock flakiness
settings.register_profile("det", derandomize=True, deadline=None)
settings.load_profile("det")


@pytest.fixture(scope="session")
def db12():
    return build(12)


@pytest.fixture(scope="session")
def db14():
    return build(14)


@pytest.fixture(scope="session")
def db16():
    return build(16)


@pytest.fixture(scope="session")
def db20():
    # the large fixture; built once, shared by the scaling/search/sk tests
    return build(20)


@pytest.fixture
def swapped_axes_path(tmp_path):
    """A t = 6 catalog file with a valid checksum whose first two entries of
    a non-degenerate bucket carry each other's axes."""
    db = build(6)
    sizes = np.diff(db.starts)
    inner = (db.keys > DELTA_BUCKET) & (db.keys < 2.0 - DELTA_BUCKET)
    s = int(db.starts[np.flatnonzero(inner & (sizes >= 2))[0]])
    db.axes[[s, s + 1]] = db.axes[[s + 1, s]]
    p = tmp_path / "swapped.qcat"
    save(db, p)
    return p
