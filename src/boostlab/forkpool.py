"""Independent jobs on every CPU through forked worker processes, or inline.

Internal to boostlab: recipes run their analyses through run_jobs, and
ordered boosting each chunk's prefix-model boosters, then its main trees.
Workers are forked, so they inherit the job function and everything it
reads; only job numbers and results are pickled. multiprocessing and
concurrent.futures are imported on the pool path only, so `import boostlab`
loads neither.
"""

from __future__ import annotations

import os
import sys
import threading

# in a worker this module forked, the job function it runs (set by
# _enter_worker); None in every other process. A worker runs nested
# run_jobs calls inline.
_job = None


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(job, sizes: list, inline: bool = False) -> list:
    """[job(0), ..., job(len(sizes) - 1)], in that order.

    The jobs run in forked worker processes, min(cpu_count(), jobs) of
    them, larger sizes submitted first (ties in order). They run inline, one
    by one in this process, when inline is set, on one CPU or for one job,
    inside a worker of this module, while another thread is alive (forking a
    process with running threads can deadlock), off Linux (system libraries
    such as macOS's start threads of their own that a forked child can hang
    on), in a daemonic process or without the fork start method.
    Either way the first job in order that fails raises here, and no worker
    outlives the call.
    """
    workers = min(cpu_count(), len(sizes))
    if (workers > 1 and not inline and _job is None and sys.platform == "linux"
            and threading.active_count() == 1):
        import multiprocessing  # only here: import boostlab loads no pool module
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):  # may not fork
            return _run_forked(job, sizes, workers, multiprocessing.get_context("fork"))
    return [job(i) for i in range(len(sizes))]


def _run_forked(job, sizes: list, workers: int, context) -> list:
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit initargs unpickled, so job may be a closure
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_enter_worker,
                               initargs=(job,))
    try:
        futures = {i: pool.submit(_run_job, i)
                   for i in sorted(range(len(sizes)), key=lambda i: -sizes[i])}
        return [futures[i].result() for i in range(len(sizes))]
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the workers to exit


def _enter_worker(job) -> None:
    global _job
    _job = job


def _run_job(i: int):
    return _job(i)
