import os
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from scipy import sparse

import delcap.baa
from delcap import BoundSpec, build_default_table, resolve_l_max, save_table


def pytest_addoption(parser):
    parser.addoption(
        "--run-long", action="store_true", default=False,
        help="run the long reproduction jobs (deep tables, L=17 and L=18;"
             " all seven take 55–63 s at 2.0–2.2 GB on 2 cores)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="long reproduction job; pass --run-long")
    for item in items:
        if "longrun" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def _timed_table():
    start = time.perf_counter()
    table = build_default_table()
    return table, time.perf_counter() - start


@pytest.fixture(scope="session")
def default_table(_timed_table):
    """Stock table: full grid to l_max=12 plus the diagonal to 14."""
    return _timed_table[0]


@pytest.fixture(scope="session")
def table_build_seconds(_timed_table):
    return _timed_table[1]


@pytest.fixture(scope="session")
def table_cache_path(default_table, tmp_path_factory):
    """The stock table saved to disk, for CLI runs."""
    path = tmp_path_factory.mktemp("cache") / "ftable.txt"
    save_table(default_table, str(path))
    return str(path)


@contextmanager
def cpus(count, split_min_entries=0):
    """Run with count CPUs available to the process and the given stack
    split threshold (0 splits every stack of two or more laws). One CPU
    also keeps populate_table serial, two or more let it fork."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity",
                      lambda pid: set(range(count)), raising=False)
        patch.setattr(delcap.baa, "_SPLIT_MIN_ENTRIES", split_min_entries)
        yield


@pytest.fixture
def workers(monkeypatch):
    """The workers this process forks, in fork order, each recorded by
    wrapping os.fork in the parent: its pid, and once os.waitpid reaps
    it, its wait status and exit code (-N for a signal N)."""
    forked = []
    fork, waitpid = os.fork, os.waitpid

    def recorded_fork():
        pid = fork()
        if pid:  # in the parent
            forked.append(SimpleNamespace(pid=pid, status=None,
                                          exitcode=None))
        return pid

    def recorded_waitpid(pid, options):
        reaped, status = waitpid(pid, options)
        for worker in forked:
            if reaped and worker.pid == reaped:
                worker.status = status
                worker.exitcode = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    return forked


def assert_reaped(worker):
    assert worker.status is not None
    with pytest.raises(ChildProcessError):  # reaped: no zombie left
        os.waitpid(worker.pid, os.WNOHANG)


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def package_env(drop=()):
    """The environment for a child interpreter that imports this delcap,
    without the variables named in drop."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(
        delcap.baa.__file__)))
    env = {key: value for key, value in os.environ.items()
           if key not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [package] + [part for part in [os.environ.get("PYTHONPATH")] if part])
    return env


def best_specs(table):
    """The table-backed specs `sweep --kind best` composes on table."""
    return ([BoundSpec("c1_star", {"D": D, "l_max": resolve_l_max(
                table, "c1_star", D=D)}) for D in range(table.l_max + 1)]
            + [BoundSpec("c2_star", {"R": R, "l_max": resolve_l_max(
                table, "c2_star", R=R)}) for R in range(table.l_max + 1)]
            + [BoundSpec("c3", {"L": L}) for L in range(1, table.l_max + 1)])


def as_scipy(matrix):
    """A channel's compressed matrix as the scipy array of its format, on
    the same arrays, for the scipy oracles."""
    array = sparse.csr_array if matrix.format == "csr" else sparse.csc_array
    return array((matrix.data, matrix.indices, matrix.indptr),
                 shape=matrix.shape)
