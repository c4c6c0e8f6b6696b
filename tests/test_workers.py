"""run_shares: share 0 in the calling process, every other share in its
own forked worker, with results and exceptions in share order and every
worker reaped on every path."""

import multiprocessing
import os
import select
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from delcap.workers import run_shares

from conftest import assert_no_children, cpus, package_env


def pid_of(share):
    return share, os.getpid()


def assert_all_reaped(workers):
    """Every forked worker was reaped, and no child is left."""
    assert all(worker.status is not None for worker in workers)
    assert_no_children()


# run_shares on shares that never finish; it prints each worker's pid
# once the worker is forked
STALLED_SHARES = """
import os
import time

from delcap.workers import run_shares

os.sched_getaffinity = lambda pid: {0, 1, 2}
fork = os.fork


def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


os.fork = announced
run_shares(lambda share: time.sleep(600), [0, 1, 2])
"""


def running(pid):
    """Whether a process runs: it exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestRunShares:
    def test_results_in_share_order_one_worker_each(self, workers):
        with cpus(3):
            results = run_shares(pid_of, ["a", "b", "c", "d"])
        assert [share for share, _ in results] == ["a", "b", "c", "d"]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 4  # one worker per share past the first
        assert [worker.pid for worker in workers] == pids[1:]
        assert [worker.exitcode for worker in workers] == [0, 0, 0]
        assert_all_reaped(workers)

    @pytest.mark.parametrize("failing, raised", [
        ({0, 1, 2}, 0), ({1, 2}, 1), ({2}, 2)],
        ids=["caller-first", "first-worker-next", "last-worker"])
    def test_exceptions_in_share_order(self, workers, failing, raised):
        done = []

        def work(share):
            if share == 0:
                done.append(share)  # the caller's share runs to its end
            if share in failing:
                raise ValueError(f"share {share}")
            return share

        with cpus(3), pytest.raises(ValueError, match=f"^share {raised}$"):
            run_shares(work, [0, 1, 2])
        assert done == [0]
        assert_all_reaped(workers)

    def test_worker_error_waits_for_the_callers_share(self, workers):
        def work(share):
            if share:
                raise ValueError("worker failed")
            time.sleep(0.5)  # the worker has failed long before this ends
            return os.getpid()

        start = time.monotonic()
        with cpus(2), pytest.raises(ValueError, match="worker failed"):
            run_shares(work, [0, 1])
        assert time.monotonic() - start >= 0.5
        assert_all_reaped(workers)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_caller_failure_terminates_every_worker(self, workers, error):
        def work(share):
            if share == 0:
                raise error
            time.sleep(600)

        start = time.monotonic()
        with cpus(3), pytest.raises(error):
            run_shares(work, [0, 1, 2])
        assert time.monotonic() - start < 60
        assert_all_reaped(workers)

    def test_dead_worker_is_an_error(self, workers):
        def work(share):
            if share == 2:
                os._exit(7)
            return share

        with cpus(3), pytest.raises(RuntimeError, match="exited with code 7"):
            run_shares(work, [0, 1, 2])
        assert [worker.exitcode for worker in workers] == [0, 7]
        assert_all_reaped(workers)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads process states from /proc")
    def test_workers_end_with_a_killed_parent(self):
        child = subprocess.Popen(
            [sys.executable, "-c", STALLED_SHARES], env=package_env(),
            stdout=subprocess.PIPE, bufsize=0)  # a line read takes no more
        workers = []
        try:
            for _ in range(2):
                assert select.select([child.stdout], [], [], 60)[0], \
                    "no worker"
                workers.append(int(child.stdout.readline()))
        finally:
            child.kill()
            child.wait(timeout=60)
            child.stdout.close()
        deadline = time.monotonic() + 30
        while (any(running(worker) for worker in workers)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(running(worker) for worker in workers)

    def test_serial_on_one_cpu_without_fork_or_in_a_daemon(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        here = [(share, os.getpid()) for share in range(3)]
        with cpus(1):
            assert run_shares(pid_of, range(3)) == here
        with cpus(2):
            assert run_shares(pid_of, [0]) == here[:1]
            assert run_shares(pid_of, []) == []
            with monkeypatch.context() as patch:
                patch.delattr(os, "fork")
                assert run_shares(pid_of, range(3)) == here
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: SimpleNamespace(daemon=True))
            assert run_shares(pid_of, range(3)) == here

    def test_unpicklable_result_is_a_dead_worker(self, workers):
        done = []

        def work(share):
            if share:
                return lambda: share  # no lambda can be pickled
            time.sleep(0.5)  # the worker has exited long before this ends
            done.append(share)
            return share

        with cpus(2), pytest.raises(
                RuntimeError, match="^a worker exited with code 1 before"
                                    " sending its result$"):
            run_shares(work, [0, 1])
        assert done == [0]
        assert [worker.exitcode for worker in workers] == [1]
        assert_all_reaped(workers)

    def test_results_larger_than_a_pipe_buffer(self, workers):
        def work(share):  # 1 MB each
            return np.random.default_rng(share).random(2 ** 17)

        with cpus(3):
            results = run_shares(work, [0, 1, 2])
        assert [result.tobytes() for result in results] == [
            work(share).tobytes() for share in range(3)]
        assert len(workers) == 2
        assert_all_reaped(workers)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    def test_no_descriptor_left_open(self, workers):
        def worker_fails(share):
            if share:
                raise ValueError("worker failed")
            return share

        def caller_interrupted(share):
            if share == 0:
                raise KeyboardInterrupt
            time.sleep(600)

        before = len(os.listdir("/proc/self/fd"))
        with cpus(3):
            assert [share for share, _ in run_shares(pid_of, [0, 1, 2])] \
                == [0, 1, 2]
            with pytest.raises(ValueError, match="worker failed"):
                run_shares(worker_fails, [0, 1, 2])
            with pytest.raises(KeyboardInterrupt):
                run_shares(caller_interrupted, [0, 1, 2])
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(workers) == 6
        assert_all_reaped(workers)
