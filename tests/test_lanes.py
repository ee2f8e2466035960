import multiprocessing
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from cvnnlab import lanes


def test_run_blocks_takes_each_item_once_in_order(monkeypatch):
    """More workers than cores and a short switch interval: a lost update of
    the shared item counter would skip or repeat an item."""
    pool = lanes._executor(8)
    monkeypatch.setattr(lanes, "_pool", pool)
    monkeypatch.setattr(lanes, "_workers", 8)
    calls = []
    out = []

    def run():
        out.append(lanes.run_blocks(lambda i: calls.append(i) or 3 * i, range(2000)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert not caller.is_alive()
    assert out == [[3 * i for i in range(2000)]]
    assert sorted(calls) == list(range(2000))


def test_submitted_tasks_inherit_the_error_state(pooled):
    big = np.full(4, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            assert np.isinf(lanes.submit(np.multiply, big, big).result(timeout=60)).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        lanes.submit(np.multiply, big, big).result(timeout=60)


def test_a_workers_error_reaches_the_caller(pooled):
    ran_on = set()

    def block(i):
        ran_on.add(threading.current_thread().name)
        if threading.current_thread() is not threading.main_thread():
            raise ValueError(f"block {i}")
        threading.Event().wait(0.01)  # leave the workers items to take

    with pytest.raises(ValueError, match="block"):
        lanes.run_blocks(block, range(50))
    assert len(ran_on) > 1


def test_work_submitted_on_a_worker_runs_there(pooled):
    def nested():
        here = threading.current_thread()
        inner = lanes.submit(threading.current_thread).result(timeout=60)
        blocks = lanes.run_blocks(lambda _: threading.current_thread(), range(5))
        return here, inner, blocks

    here, inner, blocks = lanes.submit(nested).result(timeout=60)
    assert here is not threading.main_thread()
    assert inner is here and blocks == [here] * 5


def _use_the_pool():
    assert lanes.run_blocks(lambda i: time.sleep(0.01) or i, range(4)) == [0, 1, 2, 3]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
def test_a_forked_child_gets_a_working_pool(pooled):
    _use_the_pool()  # the parent's worker threads exist now; the child has none
    time.sleep(0.2)  # and they are idle, so the inherited executor would start no new ones
    child = multiprocessing.get_context("fork").Process(target=_use_the_pool)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
