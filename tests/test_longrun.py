"""Deep-block reproduction jobs, hidden behind --run-long for their
time and memory. Measured on 2 cores with 8 GB, all seven pass in
60–65 s at about 2.0 GB, set by the L=18 job: the process keeps one block
length's folded binomial store at a time, so the L=17 store is dropped
before the L=18 one is built. In one run: the deep-table jobs (diagonal
to 22) take about 12 s, the (17, 8) ratio 1 s, the two L=17 jobs (c4,
lower bound) 9 s and 3 s, most of it the folded L=17 binomial store,
and the L=18 c4 job 30 s. The L=17 store build alone, in a child
process, peaks at about 0.7 GB against the 0.9 GB its job allows.

The quick gate in test_acceptance.py only checks that these jobs exist;
their values repeat the frozen desk-scale references at full depth, and
the L=18 job pins the package's own value. All but the L=18 job run at
the default entry budget, so they also check that it admits every deep
channel they build.
"""

import os
import sys
from pathlib import Path

import pytest

import delcap
from delcap import (CoefficientTable, alpha_tilde, bound_c4,
                    build_fixed_deletion_channel, f_value, limit_large_d_c2,
                    limit_small_d_c3, lower_bound, populate_table,
                    solve_capacity)

from reference_values import (ALPHA_TILDE_DIAGONAL, C4_L17_D050,
                              C4_L18_D050, LARGE_D_RATIO_R8_L17, LOWER_L17,
                              SMALL_D_SLOPE_L22)

pytestmark = pytest.mark.longrun


@pytest.fixture(scope="module")
def deep_table():
    table = CoefficientTable(l_max=12)
    return populate_table(table, diagonal_l_max=22)


def test_single_deletion_gap_row_deep(deep_table):
    for L in range(15, 23):
        reference = ALPHA_TILDE_DIAGONAL[L]
        lo = alpha_tilde(L, 1, deep_table, "lower")
        hi = alpha_tilde(L, 1, deep_table, "upper")
        assert lo <= reference + 0.01
        assert hi >= reference - 0.01
        # a tight bracket lies inside the rounded-down window
        channel = build_fixed_deletion_channel(L, L - 1).folded()
        result = solve_capacity(channel, 1e-4)
        assert result.converged
        lo, hi = (L - 1) - result.capacity_upper, (L - 1) - result.capacity_lower
        assert reference <= lo and hi < reference + 0.01, (L, lo, hi)


def test_small_d_slope_deep(deep_table):
    lo = alpha_tilde(22, 1, deep_table, "lower") + 1.0
    hi = alpha_tilde(22, 1, deep_table, "upper") + 1.0
    assert lo <= SMALL_D_SLOPE_L22 + 0.01
    assert hi >= SMALL_D_SLOPE_L22 - 0.01
    assert limit_small_d_c3(22, deep_table) == lo


def test_c4_reproduction_at_midpoint():
    value = bound_c4(17, 0.5)
    assert value == pytest.approx(C4_L17_D050, abs=1.5e-3)


def test_c4_reproduction_at_l18():
    # the default budget still refuses L=18, so it is raised here; c4 is
    # the solver's upper end per bit, so the solver's 0.005-bit bracket
    # width over 18 bits bounds the drift
    value = bound_c4(18, 0.5, entry_budget=10**9)
    assert value == pytest.approx(C4_L18_D050, abs=0.005 / 18)


def test_lower_bound_reproduction():
    iud = lower_bound(17, 0.10, "iud")
    assert iud == pytest.approx(LOWER_L17[(0.10, "iud")], abs=5e-3)
    optimized = lower_bound(17, 0.01, "optimized")
    assert optimized == pytest.approx(LOWER_L17[(0.01, "optimized")], abs=5e-3)


def test_large_d_ratio_deep():
    # one off-diagonal deep cell; solved on demand rather than via the
    # full level-17 grid, which would dwarf everything else here
    table = CoefficientTable(l_max=17)
    f_value(17, 8, table, "lower")
    ratio = limit_large_d_c2(8, 17, table)
    assert ratio == pytest.approx(LARGE_D_RATIO_R8_L17, abs=0.01)


def test_l17_store_peak_memory():
    # the store build alone, in a fresh process measured as the CI longrun
    # job measures itself; a rise past this bound eats the headroom that
    # a store at L=19 needs in 8 GB
    src = str(Path(delcap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-c", "from delcap.channel import"
            " _orbit_store; _orbit_store(17, tuple(range(18)))"]
    _, status, usage = os.wait4(
        os.spawnve(os.P_NOWAIT, sys.executable, argv, env), 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_maxrss / 1024 < 900  # MB, as the CI job prints it
