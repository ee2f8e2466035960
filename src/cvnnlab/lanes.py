"""One process-wide thread pool: the calling thread plus one worker per
further core the process may run on (``len(os.sched_getaffinity(0)) - 1``,
or ``os.cpu_count() - 1`` where affinity is not available).

Callers cut their work into blocks whose boundaries do not depend on the
number of lanes, and each block writes only its own part of the result, so
outputs are bit-identical on one core and on many.  Tasks run in a copy of
the submitting thread's ``contextvars`` context, so numpy's error state
(``np.errstate``) holds inside them as it does around the call.  A call made
on a worker runs its parts inline: a worker never waits on the pool, so
nested calls cannot deadlock.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

__all__ = ["run_blocks", "submit"]

_local = threading.local()


def _mark_worker():
    _local.worker = True


def _executor(workers):
    if not workers:
        return None
    return ThreadPoolExecutor(workers, "cvnnlab-lane", initializer=_mark_worker)


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _restart():
    """A fresh pool: a forked child inherits the executor but not its threads."""
    global _pool
    _pool = _executor(_workers)


_workers = _cores() - 1
_pool = _executor(_workers)  # its threads start on the first submit, not on import
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_restart)


def _inline():
    return _pool is None or getattr(_local, "worker", False)


def submit(fn, *args) -> Future:
    """A future for ``fn(*args)`` run on a worker; run at once, on this
    thread, when there is no worker or this thread is one."""
    if _inline():
        future = Future()
        future.set_result(fn(*args))
        return future
    return _pool.submit(contextvars.copy_context().run, fn, *args)


def run_blocks(fn, items) -> list:
    """``[fn(item) for item in items]``: the calling thread and the workers
    each take the next item as they come free."""
    items = list(items)
    if len(items) < 2 or _inline():
        return [fn(item) for item in items]
    results = [None] * len(items)
    todo = iter(range(len(items)))
    lock = threading.Lock()

    def lane():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(items[i])

    helpers = [submit(lane) for _ in range(min(_workers, len(items) - 1))]
    try:
        lane()
    finally:
        wait(helpers)  # no block may still be writing when the caller goes on
    for helper in helpers:
        helper.result()  # re-raises a worker's error
    return results
