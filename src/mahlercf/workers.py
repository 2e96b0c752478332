"""Forked workers: ``scan --jobs N`` and ``density --jobs N`` (POSIX only).

``run(task, items, jobs)`` computes ``task(x)`` for every x of ``items`` in
min(jobs, len(items)) processes made by ``os.fork``. Each worker inherits
the caller's memory, so ``task`` and ``items`` are never pickled. It takes
task numbers one at a time from one shared pipe, filled before the first
fork, until the pipe is empty, so a worker on a busy CPU takes fewer
tasks. It pickles its (number, result) pairs, or the exception a task
raised, back through its own pipe and leaves by ``os._exit``, so no exit
handler or buffered output of the caller runs twice. The caller only hands
out the tasks and reaps every worker, also when one fails.

Worker k is pinned to the k-th CPU the caller may run on, round robin,
where ``os.sched_setaffinity`` exists. Unpinned, the two workers of
``scan --jobs 2`` often shared one CPU of a 2-vCPU virtual machine whose
host was busy, and the scan took as long as a serial one.

The mod-p runs are pure Python and hold the GIL, so threads would add
overhead and no speed; processes do not share it. A worker runs one
thread: the only other thread of a caller that has loaded numpy is
OpenBLAS's, which its atfork handler stops before the fork and which no
task uses. No ``multiprocessing`` and no ``concurrent.futures``: a worker
does not need them, and importing them adds ~1 MB to every worker's peak
RSS. Only ``search`` imports this module, and only when it is asked for
two workers or more.
"""

from __future__ import annotations

import os
import pickle
import signal

# Task numbers are 4-byte records, all written before the first fork, so
# the task pipe holds every one of them: 1024 records fill one page, the
# smallest pipe buffer Linux makes. A scan has at most 38 tasks (the odd
# primes <= cli.MAX_SCAN_PRIME) and a density count at most 41.
MAX_TASKS = 1024


def _work(task, items, todo, out, cpu) -> None:
    """The body of a forked worker, pinned to ``cpu`` unless it is None; it
    never returns."""
    code = 1
    try:
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            done = []
            while number := os.read(todo, 4):
                i = int.from_bytes(number, "little")
                done.append((i, task(items[i])))
            reply = pickle.dumps((None, done))
        except BaseException as exc:
            reply = pickle.dumps((exc, None))
        with os.fdopen(out, "wb") as fh:
            fh.write(reply)
        code = 0
    finally:
        os._exit(code)


def run(task, items, jobs: int) -> list:
    """[task(x) for x in items], in min(jobs, len(items)) forked workers.

    Raises the exception of a task that raised in a worker, and
    RuntimeError for a worker that ended without a reply; either way only
    after every worker has been reaped.
    """
    if len(items) > MAX_TASKS:
        raise ValueError(f"{len(items)} tasks, above the limit of {MAX_TASKS}")
    todo, fill = os.pipe()
    os.write(fill, b"".join(i.to_bytes(4, "little") for i in range(len(items))))
    os.close(fill)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    pids, readers = [], []
    try:
        for k in range(min(jobs, len(items))):
            reply, out = os.pipe()
            readers.append(os.fdopen(reply, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(task, items, todo, out, cpus[k % len(cpus)])
                pids.append(pid)
            finally:
                os.close(out)
        replies = [fh.read() for fh in readers]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(todo)
        for fh in readers:
            fh.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results = [None] * len(items)
    for data, status in zip(replies, statuses):
        if not data:
            raise RuntimeError(f"a worker ended with wait status {status} and no reply")
        error, done = pickle.loads(data)
        if error is not None:
            raise error
        for i, result in done:
            results[i] = result
    return results
