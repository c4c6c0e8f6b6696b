import os
import time
from contextlib import contextmanager

import pytest

import delcap.baa
from delcap import build_default_table, save_table


def pytest_addoption(parser):
    parser.addoption(
        "--run-long", action="store_true", default=False,
        help="run the long reproduction jobs (deep tables, L=17 and L=18;"
             " all seven take 73–84 s at about 2.4 GB on 2 cores)")


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
