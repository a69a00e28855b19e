"""The fork pool's own contract: a worker that dies, an interrupt, or a
result that cannot travel back raises in the calling process without
leaving a process behind, and a forked run starts no thread and loads no
multiprocessing module."""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from boostlab import forkpool

from conftest import assert_no_child_left

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def three_cpus(monkeypatch):
    """Three workers for up to three jobs at a time, on any machine."""
    monkeypatch.setattr(forkpool, "cpu_count", lambda: 3)


def test_a_job_that_kills_its_worker_raises_worker_died_promptly():
    parent = os.getpid()

    def job(i):
        if i == 2 and os.getpid() != parent:  # never this process, should the jobs run inline
            os.kill(os.getpid(), signal.SIGKILL)
        return i
    start = time.monotonic()
    with pytest.raises(forkpool.WorkerDied,
                       match="killed by signal 9 before sending job 2's result"):
        forkpool.run_jobs(job, [1] * 6)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_an_interrupt_here_still_reaps_every_worker():
    parent = os.getpid()

    def job(i):
        if i == 0 and os.getpid() != parent:  # interrupts this process while jobs run
            os.kill(parent, signal.SIGINT)
        time.sleep(0.1)
        return i
    with pytest.raises(KeyboardInterrupt):
        forkpool.run_jobs(job, [1] * 6)
    assert_no_child_left()


class NeedsTwo(Exception):
    """Pickles, but cannot be rebuilt from the one message it pickles with."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def unpicklable_result(i):
    return lambda: i


def unpicklable_exception(i):
    raise ValueError(threading.Lock())


def exception_that_does_not_unpickle(i):
    raise NeedsTwo("job", i)


@pytest.mark.parametrize("fail, error, message", [
    (unpicklable_result, pickle.PicklingError, "job 1's result cannot be pickled"),
    (unpicklable_exception, pickle.PicklingError,
     "job 1's ValueError exception cannot be pickled"),
    (exception_that_does_not_unpickle, TypeError, "missing 1 required positional argument"),
])
def test_a_result_that_cannot_travel_back_raises_in_plan_order(fail, error, message):
    # jobs 3 (the largest, handed out first), 0 and 1 run at once; job 3's
    # error arrives too, but job 1 comes first in plan order. Inline, job 1
    # would return or raise as it is, and job 3's RuntimeError would raise
    def job(i):
        if i == 3:
            raise RuntimeError("job 3 failed")
        return fail(i) if i == 1 else i
    with pytest.raises(error, match=message):
        forkpool.run_jobs(job, [1, 1, 1, 5])
    assert_no_child_left()


def test_a_forked_run_starts_no_thread_and_loads_no_multiprocessing_module():
    code = textwrap.dedent("""
        import os, sys, threading
        from boostlab import forkpool
        started = []
        threading.Thread.start = lambda thread: started.append(thread)
        forkpool.cpu_count = lambda: 3
        before = threading.active_count()
        pids = forkpool.run_jobs(lambda i: os.getpid(), [1, 2, 3, 4])
        print(before, threading.active_count(), len(started), len(set(pids)) > 1,
              os.getpid() not in pids,
              sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "1", "0", "True", "True", "[]"]
    assert_no_child_left()
