import os

# one OpenBLAS thread per lane, as the CLI sets it, so that library calls
# give the same bytes on one core and on many
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from cvnnlab import lanes


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


@pytest.fixture
def pooled(monkeypatch):
    """A pool of two workers, whatever the host's core count."""
    pool = lanes._executor(2)
    monkeypatch.setattr(lanes, "_pool", pool)
    monkeypatch.setattr(lanes, "_workers", 2)
    yield pool
    pool.shutdown()


def single_lane(monkeypatch, fn, *args):
    """``fn(*args)`` with every block run inline on the calling thread."""
    with monkeypatch.context() as m:
        m.setattr(lanes, "_pool", None)
        return fn(*args)
