"""Start-up: the commands load scipy's compiled sparse kernels alone and
never import scipy.sparse, they never import multiprocessing, even where
they fork, and the compressed record's products equal scipy's bit for
bit. The import checks run in fresh interpreters, since this suite
imports scipy.sparse and multiprocessing itself."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from delcap.channel import Compressed, SparseChannel

from conftest import package_env

KERNELS = "scipy.sparse._sparsetools"
# the kernels the walk, the folds and the products call
USED = ("csc_matvec", "csc_matvecs", "csr_matvec", "csr_matvecs",
        "csr_plus_csr", "csr_row_index", "csr_sum_duplicates", "csr_tocsc")

# find_spec("scipy") answers with a package whose only location is the
# empty directory argv[1], so the kernels' file is not found there
NO_FILE = """
import importlib.machinery, importlib.util, sys
find_spec = importlib.util.find_spec
def elsewhere(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
    spec.submodule_search_locations = [sys.argv[1]]
    return spec
importlib.util.find_spec = elsewhere
"""


def run_python(code, *args):
    """The JSON that a fresh interpreter running code prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("commands", [
    [["table", "--l-max", "6"]],
    [["bound", "--kind", "c4", "--L", "8", "--d", "0.5"]],
    [["sweep", "--kind", "lower", "--L", "6", "--d-grid", "0.1:0.9:0.2"]],
    [["table", "--l-max", "6", "--cache", "t.txt"],
     ["sweep", "--kind", "best", "--cache", "t.txt"]],
], ids=["table", "bound-c4", "sweep-lower", "sweep-best-cache"])
def test_commands_leave_scipy_sparse_unimported(commands, tmp_path):
    code = """
import contextlib, io, json, sys
import delcap.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(delcap.cli.main(argv))
print(json.dumps([codes, "scipy.sparse" in sys.modules]))
"""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path)
        codes, imported = run_python(code, json.dumps(commands))
    assert codes == [0] * len(commands)
    assert not imported


@pytest.mark.parametrize("argv, forks", [
    ([], 0),
    (["table", "--l-max", "6"], 1),
    (["sweep", "--kind", "c4", "--L", "8"], 1)],
    ids=["import", "table", "sweep-c4"])
def test_start_up_and_forks_leave_multiprocessing_unimported(argv, forks):
    # on two CPUs, with every stack split, both commands fork one worker
    code = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
import delcap.baa, delcap.cli
delcap.baa._SPLIT_MIN_ENTRIES = 0
forked, fork = [], os.fork
def counted():
    pid = fork()
    forked.extend([pid] if pid else [])
    return pid
os.fork = counted
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = delcap.cli.main(argv) if argv else 0
print(json.dumps([code, len(forked), "multiprocessing" in sys.modules]))
"""
    assert run_python(code, json.dumps(argv)) == [0, forks, False]


def test_kernels_are_scipys_when_delcap_comes_first():
    code = f"""
import json, sys
import delcap.channel as channel
alone = "scipy.sparse" not in sys.modules and {KERNELS!r} not in sys.modules
import scipy.sparse
kernels = scipy.sparse._sparsetools
print(json.dumps([alone, channel._kernels.__name__,
                  [getattr(channel._kernels, name) is getattr(kernels, name)
                   for name in {USED!r}],
                  (scipy.sparse.csr_array([[1.0, 2.0]]) @ [3.0, 4.0]).tolist()]))
"""
    alone, name, same, product = run_python(code)
    assert alone and name == KERNELS
    assert same == [True] * len(USED)
    assert product == [11.0]  # scipy.sparse works after the early load


def test_kernels_are_scipys_when_scipy_comes_first():
    code = f"""
import json
import scipy.sparse
import delcap.channel as channel
print(json.dumps(channel._kernels is scipy.sparse._sparsetools))
"""
    assert run_python(code) is True


def test_kernels_fall_back_to_the_import(tmp_path):
    code = NO_FILE + f"""
import json
import delcap.channel as channel
print(json.dumps([channel._kernels is sys.modules[{KERNELS!r}],
                  "scipy.sparse" in sys.modules]))
"""
    assert run_python(code, str(tmp_path)) == [True, True]


@st.composite
def _products(draw):
    """(a scipy CSR array, the same arrays as a Compressed record with
    indices of the drawn dtype, a vector, and a block of laws as the
    solver passes it: the transpose of a C-ordered (laws, columns)
    array)."""
    rows, columns = draw(st.integers(1, 9)), draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(
        -8, 8, (rows, columns))
    dense[rng.random((rows, columns)) < draw(st.floats(0.0, 1.0))] = 0.0
    matrix = sparse.csr_array(dense)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    record = Compressed(matrix.data, matrix.indices.astype(dtype),
                        matrix.indptr.astype(dtype), matrix.shape)
    laws = draw(st.integers(1, 4))
    return (matrix, record, rng.standard_normal(max(rows, columns)),
            rng.standard_normal((laws, max(rows, columns))))


def assert_same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


@settings(deadline=None, max_examples=200)
@given(_products())
def test_products_equal_scipys(case):
    matrix, record, vector, laws = case
    for scipy_form, form in ((matrix, record), (matrix.T, record.T)):
        assert form.format == scipy_form.format
        assert form.shape == scipy_form.shape and form.nnz == scipy_form.nnz
        columns = form.shape[1]
        x, block = vector[:columns], laws[:, :columns].copy().T
        assert_same_bits(form @ x, scipy_form @ x)
        assert_same_bits(form @ block, scipy_form @ block)


def test_record_refuses_mixed_index_dtypes():
    matrix = sparse.csr_array(np.eye(3))
    with pytest.raises(ValueError, match="one dtype"):
        Compressed(matrix.data, matrix.indices.astype(np.int32),
                   matrix.indptr.astype(np.int64), matrix.shape)


def test_explicit_rows_of_mixed_index_dtypes_take_the_wider():
    # a SparseChannel holds its caller's arrays, which a scipy array took
    # in any integer dtypes
    matrix = sparse.csr_array(np.array([[0.25, 0.75, 0.0], [0.0, 0.5, 0.5]]))
    channel = SparseChannel(
        matrix.indptr.astype(np.int64), matrix.indices.astype(np.int32),
        matrix.data, 1, np.array([1, 1, 0], dtype=np.int8), np.arange(3))
    assert channel._matrix.indices.dtype == np.int64
    x, y = np.array([0.1, 0.2, 0.7]), np.array([0.4, 0.6])
    assert_same_bits(channel._matrix @ x, matrix @ x)
    assert_same_bits(channel._matrix_t @ y, matrix.T @ y)
