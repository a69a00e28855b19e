"""Independent jobs on every CPU through forked worker processes, or inline.

Internal to boostlab: recipes run their analyses through run_jobs, and
ordered boosting each chunk's prefix-model boosters, then its main trees.
Workers are forked with os.fork, so they inherit the job function and
everything it reads; only job numbers and pickled results travel, over one
pair of pipes per worker. The pool starts no thread and imports neither
multiprocessing nor concurrent.futures.
"""

from __future__ import annotations

import collections
import os
import pickle
import sys
import threading

# True in a worker this module forked, which runs nested run_jobs calls inline
_in_worker = False


class WorkerDied(RuntimeError):
    """A forked worker exited without sending the result of its job."""


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(job, sizes: list, inline: bool = False) -> list:
    """[job(0), ..., job(len(sizes) - 1)], in that order.

    The jobs run in forked worker processes, min(cpu_count(), jobs) of
    them, one job at a time each, larger sizes handed out first (ties in
    order). They run inline, one by one in this process, when inline is set,
    on one CPU or for one job, inside a worker of this module, while another
    thread is alive (forking a process with running threads can deadlock),
    off Linux (where system libraries such as macOS's start threads of their
    own that a forked child can hang on, or there is no fork) or in a
    daemonic multiprocessing process, which may not start children.
    Either way the first job in order that fails raises here, and no worker
    outlives the call. A worker's result or exception that it cannot pickle
    becomes a pickle.PicklingError, one that does not unpickle here the error
    unpickling it raised, and an exception arrives without its traceback. A
    worker that exits without sending its job's result, on a signal say,
    raises WorkerDied as soon as this process sees its pipe close, whatever
    the plan order.
    """
    workers = min(cpu_count(), len(sizes))
    mp = sys.modules.get("multiprocessing")  # imported in any daemonic process
    if (workers < 2 or inline or _in_worker or sys.platform != "linux"
            or threading.active_count() > 1 or (mp is not None and mp.current_process().daemon)):
        return [job(i) for i in range(len(sizes))]
    pool = []
    try:
        for _ in range(workers):
            pool.append(_fork_worker(job, pool))
        # only the workers read the job now: what it alone holds is freed
        # here while they run (the caller must hold no reference either)
        del job
        return _collect(pool, sizes)
    finally:
        for worker in pool:
            os.close(worker.jobs)  # an idle worker reads end-of-file and exits
            os.close(worker.results)  # a busy one exits when it sends its result
        for worker in pool:
            if worker.pid is not None:
                os.waitpid(worker.pid, 0)


class _Worker:
    """A forked worker: its process id (None once reaped), this process's
    ends of its two pipes and the job it is running (None when idle)."""

    def __init__(self, pid: int, jobs: int, results: int):
        self.pid, self.jobs, self.results, self.job = pid, jobs, results, None


def _fork_worker(job, pool: list) -> _Worker:
    """Forks a worker that runs job on the numbers it reads from its pipe.
    The pipes' far ends are closed here before the next fork, and each worker
    closes the ends of the workers forked before it, so a pipe reads
    end-of-file once its one process on the other side has closed it."""
    global _in_worker
    jobs_r, jobs_w = os.pipe()
    results_r, results_w = os.pipe()
    _flush_std_streams()  # or the worker would write this process's buffered output again
    try:
        pid = os.fork()
    except BaseException:
        for fd in (jobs_r, jobs_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:  # the worker leaves only through os._exit, never back to the caller
        status = 1
        try:
            _in_worker = True
            for fd in [jobs_w, results_r] + [fd for w in pool for fd in (w.jobs, w.results)]:
                os.close(fd)
            _serve(job, jobs_r, results_w)
            status = 0
        finally:
            try:
                _flush_std_streams()
            finally:
                os._exit(status)
    os.close(jobs_r)
    os.close(results_w)
    return _Worker(pid, jobs_w, results_r)


def _serve(job, jobs_fd: int, results_fd: int) -> None:
    """A worker's loop: runs job(i) for each job number i until end-of-file,
    and sends back each pickled (True, result) or (False, exception)."""
    while head := os.read(jobs_fd, 8):
        i = int.from_bytes(head, "little")
        try:
            out = True, job(i)
        except Exception as exc:  # noqa: BLE001 - raised in the calling process
            out = False, exc
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - raised in the calling process
            what = "result" if out[0] else f"{type(out[1]).__name__} exception"
            data = pickle.dumps((False, pickle.PicklingError(
                f"job {i}'s {what} cannot be pickled: {exc}")))
        del out
        _write_all(results_fd, len(data).to_bytes(8, "little"))
        _write_all(results_fd, data)


def _collect(pool: list, sizes: list) -> list:
    """Hands the jobs out, larger sizes first and one at a time per worker,
    and gathers their results; after a job fails, no later one in plan
    order is handed out."""
    import selectors  # only here: import boostlab loads nothing the pool alone needs

    pending = collections.deque(sorted(range(len(sizes)), key=lambda i: -sizes[i]))
    results, errors = [None] * len(sizes), {}
    with selectors.DefaultSelector() as selector:
        for worker in pool:  # an idle worker's pipe is readable only once it has exited
            selector.register(worker.results, selectors.EVENT_READ, worker)
        idle = list(pool)
        while True:
            while idle and pending:
                i = pending.popleft()
                if not errors or i < min(errors):
                    _send_job(idle.pop(), i)
            if len(idle) == len(pool):  # no job is running
                break
            for key, _ in selector.select():
                worker = key.data
                ok, value = _receive(worker)
                if ok:
                    results[worker.job] = value
                else:
                    errors[worker.job] = value
                worker.job = None
                idle.append(worker)
    if errors:
        raise errors[min(errors)]
    return results


def _send_job(worker: _Worker, i: int) -> None:
    """Hands job i to an idle worker."""
    try:
        os.write(worker.jobs, i.to_bytes(8, "little"))
    except BrokenPipeError:
        raise _died(worker) from None
    worker.job = i


def _receive(worker: _Worker) -> tuple:
    """The (ok, result or exception) pair the worker sent; a pair that does
    not unpickle here is (False, the unpickling error)."""
    head = os.read(worker.results, 8)
    if len(head) < 8:
        raise _died(worker)
    data = bytearray(int.from_bytes(head, "little"))
    view, got = memoryview(data), 0
    while got < len(data):
        n = os.readv(worker.results, [view[got:]])
        if not n:
            raise _died(worker)
        got += n
    try:
        return pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - the job's error, in plan order
        return False, exc


def _died(worker: _Worker) -> WorkerDied:
    """Reaps a worker that exited unasked, and the error that reports it."""
    _, status = os.waitpid(worker.pid, 0)
    worker.pid = None
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"with status {code}"
    job = "while idle" if worker.job is None else f"before sending job {worker.job}'s result"
    return WorkerDied(f"a forked worker exited {how} {job}")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):  # None, closed or broken
            pass
