"""Gate suite: one check per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each check also asserts, so a FAIL line always comes with a failing test.
"""

import time
from fractions import Fraction
from pathlib import Path

from delcap import (BitString, alpha_tilde, bound_c1_star, bound_c2_star,
                    bound_c3, bound_c4, build_fixed_deletion_channel,
                    f_value, limit_small_d_c3, lower_bound,
                    verify_lemma_suite)
from delcap.cli import main

from reference_values import (ALPHA_TILDE_DIAGONAL, F_REFERENCE,
                              FIXED_3_2_FRACTIONS, ROUNDED_UP_TOLERANCE)


def _report(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_exact_rational_channel():
    start = time.perf_counter()
    channel = build_fixed_deletion_channel(3, 2)
    mismatches = []
    for i in range(8):
        a = BitString(i, 3).bits()
        row = {channel.output_label(j).bits(): fr
               for j, fr in channel.row_exact(i)}
        for j in range(4):
            b = BitString(j, 2).bits()
            expected = FIXED_3_2_FRACTIONS.get((a, b), Fraction(0))
            if row.get(b, Fraction(0)) != expected:
                mismatches.append((a, b))
    elapsed = time.perf_counter() - start
    _report(1, "exact-rational-channel",
            not mismatches and elapsed < 1.0,
            f"32 cells, {elapsed:.3f}s" if not mismatches
            else f"mismatches at {mismatches}")


def test_criterion_02_reference_grid_brackets(default_table,
                                              table_build_seconds):
    start = time.perf_counter()
    misses = []
    for (L, R), reference in sorted(F_REFERENCE.items()):
        lo = f_value(L, R, default_table, "lower")
        hi = f_value(L, R, default_table, "upper")
        # published values are rounded up to the hundredth, so the
        # certified bracket must intersect [value - 0.01, value]
        if lo > reference or hi < reference - ROUNDED_UP_TOLERANCE:
            misses.append((L, R, lo, hi, reference))
    elapsed = time.perf_counter() - start + table_build_seconds
    _report(2, "reference-grid-brackets",
            not misses and elapsed < 120.0,
            f"{len(F_REFERENCE)} cells, {elapsed:.1f}s" if not misses
            else f"missed {misses}")


def test_criterion_03_single_deletion_gap_row(default_table,
                                              table_build_seconds):
    start = time.perf_counter()
    misses = []
    for L in range(10, 15):
        reference = ALPHA_TILDE_DIAGONAL[L]
        lo = alpha_tilde(L, 1, default_table, "lower")
        hi = alpha_tilde(L, 1, default_table, "upper")
        # gaps are rounded down to the hundredth, so the certified
        # bracket must intersect [value, value + 0.01]
        if lo > reference + 0.01 or hi < reference:
            misses.append((L, lo, hi, reference))
    elapsed = time.perf_counter() - start + table_build_seconds
    _report(3, "single-deletion-gap-row",
            not misses and elapsed < 900.0,
            f"L=10..14, {elapsed:.1f}s" if not misses
            else f"missed {misses}")


def test_criterion_04_degenerate_families_hit_erasure(default_table):
    worst = 0.0
    for d in (0.1, 0.5, 0.9):
        erasure = 1.0 - d
        values = (bound_c1_star(0, 12, d, default_table),
                  bound_c2_star(0, 12, d, default_table),
                  bound_c2_star(1, 12, d, default_table),
                  bound_c3(1, d, default_table),
                  bound_c3(2, d, default_table),
                  bound_c4(1, d))
        worst = max(worst, max(abs(v - erasure) for v in values))
    _report(4, "degenerate-families-hit-erasure", worst <= 1e-9,
            f"max deviation {worst:.2e}")


def test_criterion_05_lemma_suite_clean(default_table):
    start = time.perf_counter()
    reports = verify_lemma_suite(default_table)
    elapsed = time.perf_counter() - start
    bad = [r.lemma_id for r in reports if r.violations]
    _report(5, "lemma-suite-clean", not bad and elapsed < 1.0,
            f"9 checks, {elapsed:.3f}s" if not bad
            else f"violations in {bad}")


def test_criterion_06_sandwich_ordering(default_table):
    levels = (1, 2, 3, 5, 8, 10)
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    problems = []
    for d in grid:
        ceiling = 1.0 - d + 1e-9
        uppers = [bound_c1_star(2, 12, d, default_table),
                  bound_c2_star(4, 12, d, default_table)]
        for L in levels:
            c3 = bound_c3(L, d, default_table)
            c4 = bound_c4(L, d)
            low_opt = lower_bound(L, d, "optimized")
            low_iud = lower_bound(L, d, "iud")
            uppers += [c3, c4]
            if not (low_iud <= low_opt + 1e-12
                    and low_opt <= c4 + 1e-9
                    and c4 <= c3 + 2 * 5e-3):
                problems.append(("order", L, d))
            for value in (c3, c4, low_opt, low_iud):
                if not 0.0 <= value <= 1.0:
                    problems.append(("range", L, d, value))
        for value in uppers:
            if value > ceiling:
                problems.append(("ceiling", d, value))
    _report(6, "sandwich-ordering", not problems,
            f"{len(grid)} d-points, L up to 10" if not problems
            else f"failed at {problems[:4]}")


def test_criterion_07_small_d_slope(default_table):
    slope = limit_small_d_c3(10, default_table)
    probe = (1.0 - bound_c3(10, 1e-4, default_table)) / 1e-4
    ok = abs(slope - 3.08) <= 0.01 and abs(probe - slope) <= 1e-2
    _report(7, "small-d-slope", ok,
            f"slope {slope:.4f}, probe {probe:.4f}")


def test_criterion_08_tail_closed_form(default_table):
    worst = 0.0
    for d in (0.2, 0.5, 0.8):
        closed = bound_c1_star(1, 12, d, default_table)
        truncated = bound_c1_star(1, 12, d, default_table, tail_cut=2000)
        worst = max(worst, abs(closed - truncated))
    _report(8, "tail-closed-form", worst <= 1e-9,
            f"max gap {worst:.2e}")


def test_criterion_09_deep_blocks_declared_long_run():
    # the L=17 reproductions take about 20 s at 1.8 GB each, so the gate
    # only verifies that the long-run jobs exist and target the right
    # frozen references
    source = Path(__file__).with_name("test_longrun.py").read_text()
    ok = ("pytest.mark.longrun" in source
          and "C4_L17_D050" in source
          and "LOWER_L17" in source)
    _report(9, "deep-blocks-declared-long-run", ok,
            "run `pytest --run-long` to execute them")


def test_criterion_10_byte_identical_sweeps(table_cache_path, tmp_path):
    paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for path in paths:
        code = main(["sweep", "--kind", "c3", "--L", "8",
                     "--cache", table_cache_path, "--out", str(path)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report(10, "byte-identical-sweeps", identical,
            f"{len(paths[0].read_bytes())} bytes each")
