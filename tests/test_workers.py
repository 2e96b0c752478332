"""Forked workers: results in task order, every worker reaped, failures
raised in the caller. No test here starts more than three processes."""

import os
import pickle
import signal
import time

import pytest

from mahlercf import workers


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs, which fails
    instead of hanging if it runs past 30 s."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    monkeypatch.setattr(os, "fork", counted)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("jobs", [2, 3])
def test_results_come_back_in_task_order(forks, jobs):
    items = list(range(20, 0, -1))
    assert workers.run(lambda x: (x, os.getpid()), items, jobs)[0][0] == 20
    results = workers.run(lambda x: x * x, items, jobs)
    assert results == [x * x for x in items]
    assert len(forks) == 2 * jobs
    assert no_child_is_left()


def test_tasks_run_in_the_workers(forks):
    pids = {pid for _, pid in workers.run(lambda x: (x, os.getpid()), list(range(64)), 2)}
    assert pids <= set(forks) and os.getpid() not in pids


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_each_worker_is_pinned_to_its_own_cpu(forks):
    # each task sleeps, so the second worker takes the second task
    def task(x):
        time.sleep(0.2)
        return os.getpid(), os.sched_getaffinity(0)

    cpus = sorted(os.sched_getaffinity(0))
    pinned = dict(workers.run(task, [0, 1], 2))
    assert sorted(map(min, pinned.values())) == sorted(cpus[k % len(cpus)] for k in range(2))
    assert all(len(mask) == 1 for mask in pinned.values())
    assert os.sched_getaffinity(0) == set(cpus)


def test_never_more_workers_than_tasks(forks):
    assert workers.run(lambda x: -x, [], 8) == []
    assert forks == []
    assert workers.run(lambda x: -x, [5], 8) == [-5]
    assert len(forks) == 1
    assert no_child_is_left()


def test_a_task_that_raises_raises_in_the_caller(forks):
    def task(x):
        if x == 7:
            raise ZeroDivisionError(f"task {x}")
        return x

    with pytest.raises(ZeroDivisionError, match="task 7"):
        workers.run(task, list(range(10)), 3)
    assert len(forks) == 3
    assert no_child_is_left()


def test_a_worker_that_dies_without_a_reply(forks):
    with pytest.raises(RuntimeError, match="no reply"):
        workers.run(lambda x: os._exit(3), [1, 2], 2)
    assert no_child_is_left()


def test_an_unpicklable_result_raises_its_pickling_error(forks):
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        workers.run(lambda x: lambda: x, [1], 2)
    assert no_child_is_left()


def test_an_unpicklable_exception_is_a_failure(forks):
    class Local(Exception):
        pass

    def task(x):
        raise Local(x)

    with pytest.raises(RuntimeError, match="no reply"):
        workers.run(task, [1, 2], 2)
    assert no_child_is_left()


def test_too_many_tasks_are_refused_before_any_fork(forks):
    with pytest.raises(ValueError, match="above the limit"):
        workers.run(abs, [0] * (workers.MAX_TASKS + 1), 2)
    assert forks == []
