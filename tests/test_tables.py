import math
import multiprocessing
import os
import warnings
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delcap.channel
import delcap.tables
from delcap import (CoefficientTable, ExtrapolationRequiredError,
                    ParameterError, ResourceLimitError,
                    SolverNotConvergedError, TableChecksumError,
                    TableEntry, TableRowError, TableVersionError, alpha,
                    alpha_tilde,
                    closed_form_f, extrapolate_alpha_lemma2,
                    extrapolate_tilde_alpha_lemma4, f_tilde_value, f_value,
                    load_table, populate_table, save_table, serialize_table)
from delcap.tables import SOURCE_BAA, SOURCE_CLOSED, TABLE_HEADER

from conftest import cpus
from reference_values import (F_REFERENCE, TABLE_VALUE_TOLERANCE,
                              bracket_matches_reference)


def small_table(l_max=5, **kwargs):
    return populate_table(CoefficientTable(l_max=l_max, **kwargs))


class TestClosedForms:
    def test_values(self):
        assert closed_form_f(7, 0) == 0.0
        assert closed_form_f(0, 0) == 0.0
        assert closed_form_f(9, 1) == 1.0
        assert closed_form_f(1, 1) == 1.0
        assert closed_form_f(6, 6) == 6.0
        assert closed_form_f(5, 3) is None

    def test_served_without_population(self):
        table = CoefficientTable(l_max=2)
        assert f_value(40, 1, table, "lower") == 1.0
        assert f_value(40, 1, table, "upper") == 1.0
        assert f_value(13, 13, table, "lower") == 13.0
        assert table.entries == {}


class TestFValue:
    def test_population_covers_grid(self):
        table = small_table()
        for L in range(table.l_max + 1):
            for R in range(L + 1):
                entry = table.entries[(L, R)]
                assert entry.f_lower <= entry.f_upper
                closed = closed_form_f(L, R)
                if closed is not None:
                    assert entry.f_lower == entry.f_upper == closed
                    assert entry.source == SOURCE_CLOSED
                else:
                    assert entry.f_upper - entry.f_lower <= table.tolerance
                    assert entry.source == SOURCE_BAA
                assert 0.0 <= entry.f_lower and entry.f_upper <= R

    def test_brackets_match_reference_grid(self):
        table = small_table(l_max=7)
        for (L, R), reference in F_REFERENCE.items():
            lo = f_value(L, R, table, "lower")
            hi = f_value(L, R, table, "upper")
            assert bracket_matches_reference(lo, hi, reference,
                                             slack=TABLE_VALUE_TOLERANCE * 2)

    def test_miss_over_budget_refused_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(delcap.channel, "count_blocks",
                            lambda cells: pytest.fail("walked"))
        # (6, 3) may need 2^6 * 8 = 512 entries
        table = CoefficientTable(l_max=6, entry_budget=511)
        with pytest.raises(ResourceLimitError,
                           match=r"^fixed channel \(6,3\) may need 512"):
            f_value(6, 3, table, "lower")
        assert (6, 3) not in table.entries

    def test_miss_computes_and_caches(self):
        table = CoefficientTable(l_max=4)
        assert (4, 2) not in table.entries
        lo = f_value(4, 2, table, "lower")
        entry = table.entries[(4, 2)]
        assert entry.f_lower == lo
        assert f_value(4, 2, table, "lower") == lo
        assert table.entries[(4, 2)] is entry

    def test_refuses_past_populated_range(self):
        table = small_table()
        with pytest.raises(ExtrapolationRequiredError):
            f_value(6, 3, table, "lower")

    def test_cached_diagonal_served_past_l_max(self):
        table = small_table()
        table.entries[(7, 6)] = TableEntry(4.4, 4.45, 5e-3, SOURCE_BAA)
        assert f_value(7, 6, table, "upper") == 4.45
        with pytest.raises(ExtrapolationRequiredError):
            f_value(7, 5, table, "lower")

    def test_rejections(self):
        table = small_table()
        with pytest.raises(ParameterError):
            f_value(3, 4, table, "lower")
        with pytest.raises(ParameterError):
            f_value(-1, 0, table, "lower")
        with pytest.raises(ParameterError):
            f_value(3, 2, table, "middle")
        with pytest.raises(ParameterError):
            CoefficientTable(l_max=-1)
        with pytest.raises(ParameterError):
            CoefficientTable(tolerance=0.0)


class TestAlpha:
    def test_sides_use_opposite_f_side(self):
        table = small_table()
        entry = table.entries[(5, 3)]
        assert alpha(5, 3, table, "lower") == 3 - entry.f_upper
        assert alpha(5, 3, table, "upper") == 3 - entry.f_lower
        assert alpha(5, 3, table, "lower") < alpha(5, 3, table, "upper")

    def test_closed_rows_have_zero_gap_at_r_le_1(self):
        table = small_table()
        for L in range(1, 6):
            assert alpha(L, 0, table, "lower") == 0.0
            assert alpha(L, 1, table, "upper") == 0.0
            assert alpha(L, L, table, "upper") == 0.0

    def test_clamped_at_zero(self):
        table = small_table()
        table.entries[(6, 5)] = TableEntry(5.01, 5.02, 5e-3, SOURCE_BAA)
        assert alpha(6, 5, table, "lower") == 0.0

    def test_tilde_views(self):
        table = small_table()
        assert f_tilde_value(5, 2, table, "lower") == f_value(5, 3, table,
                                                              "lower")
        assert alpha_tilde(5, 2, table, "upper") == alpha(5, 3, table, "upper")
        with pytest.raises(ParameterError):
            f_tilde_value(5, 6, table, "lower")
        with pytest.raises(ParameterError):
            alpha_tilde(5, -1, table, "lower")


class TestExtrapolation:
    def test_fixed_r_reuses_last_row(self):
        table = small_table()
        assert extrapolate_alpha_lemma2(9, 3, table) == alpha(5, 3, table,
                                                              "lower")
        with pytest.raises(ParameterError):
            extrapolate_alpha_lemma2(5, 3, table)
        with pytest.raises(ParameterError):
            extrapolate_alpha_lemma2(9, 6, table)

    def test_diagonal_chain_matches_explicit_product(self, default_table):
        base = alpha_tilde(12, 2, default_table, "lower")
        expected = base * (1 - 2 / 13) * (1 - 2 / 14) * (1 - 2 / 15)
        got = extrapolate_tilde_alpha_lemma4(15, 2, default_table)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_custom_start(self, default_table):
        base = alpha_tilde(5, 1, default_table, "lower")
        expected = base * (1 - 1 / 6) * (1 - 1 / 7) * (1 - 1 / 8)
        got = extrapolate_tilde_alpha_lemma4(8, 1, default_table, start=5)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_loggamma_agrees_with_loop(self, default_table):
        L, D = 12 + 5000, 1
        base = alpha_tilde(12, D, default_table, "lower")
        factor = math.prod(1 - D / j for j in range(13, L + 1))
        got = extrapolate_tilde_alpha_lemma4(L, D, default_table)
        assert got == pytest.approx(base * factor, rel=1e-9)

    def test_zero_gap_stays_zero(self, default_table):
        assert extrapolate_tilde_alpha_lemma4(20, 0, default_table) == 0.0

    def test_diagonal_rejections(self, default_table):
        with pytest.raises(ParameterError):
            extrapolate_tilde_alpha_lemma4(12, 1, default_table)
        with pytest.raises(ParameterError):
            extrapolate_tilde_alpha_lemma4(20, 13, default_table)


class TestPopulate:
    def test_recomputes_looser_entries(self):
        table = CoefficientTable(l_max=3)
        table.entries[(3, 2)] = TableEntry(1.0, 2.0, 0.5, "loaded")
        populate_table(table)
        entry = table.entries[(3, 2)]
        assert entry.source == SOURCE_BAA
        assert entry.tolerance == table.tolerance
        assert entry.f_upper - entry.f_lower <= table.tolerance

    def test_keeps_tight_entries(self):
        table = small_table()
        entry = table.entries[(5, 3)]
        populate_table(table)
        assert table.entries[(5, 3)] is entry

    @settings(deadline=None, max_examples=15)
    @given(st.integers(2, 6), st.integers(0, 3),
           st.sets(st.tuples(st.integers(3, 6), st.integers(2, 5))))
    @example(2, 3, set())  # the diagonal alone
    @example(6, 2, {(5, 2), (5, 3), (6, 4)})
    def test_walk_matches_per_cell_solves(self, l_max, extra, kept):
        # cells cached tight beforehand are skipped, which leaves gaps
        table = CoefficientTable(l_max=l_max)
        cells = {(L, R) for L in range(3, l_max + 1) for R in range(2, L)}
        kept &= cells
        for cell in kept:
            table.entries[cell] = TableEntry(0.0, 9.0, 0.0, "loaded")
        populate_table(table, diagonal_l_max=l_max + extra)
        solved = {cell: entry for cell, entry in table.entries.items()
                  if entry.source == SOURCE_BAA}
        assert set(solved) == cells - kept | {
            (L, L - 1) for L in range(l_max + 1, l_max + extra + 1)}
        # each cell solved on a miss, from a walk of its own
        alone = CoefficientTable(l_max=l_max + extra)
        for (L, R), entry in solved.items():
            f_value(L, R, alone, "lower")
            assert alone.entries[(L, R)] == entry

    def test_walk_stops_one_level_short_of_the_deepest_cell(
            self, monkeypatch):
        # each cell is folded from the level below it, so the only level-6
        # blocks built are the two that fold the diagonal cell (7, 6)
        yielded = []
        walk = delcap.channel.count_blocks

        def recorded(cells):
            for L, R, block in walk(cells):
                yielded.append((L, R))
                yield L, R, block

        monkeypatch.setattr(delcap.channel, "count_blocks", recorded)
        with cpus(1):  # the walk of one process
            table = populate_table(CoefficientTable(l_max=6), diagonal_l_max=7)
        assert (7, 6) in table.entries and (6, 4) in table.entries
        assert {(L, R) for L, R in yielded if L >= 6} == {(6, 5), (6, 6)}

    def test_each_fold_is_freed_before_its_cell_is_solved(self, monkeypatch):
        # the cell's OrbitChannel holds its counts; the fold the walk
        # handed over is gone by the time the solve runs
        folds, freed = [], []
        stack = delcap.channel._stack_folds
        solve = delcap.tables.solve_capacity

        def recorded(L, parts):
            [(_, _, (part, _, _))] = parts
            folds.append(weakref.ref(part))
            return stack(L, parts)

        def checked(*args, **kwargs):
            freed.append(folds[-1]() is None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(delcap.channel, "_stack_folds", recorded)
        monkeypatch.setattr(delcap.tables, "solve_capacity", checked)
        with cpus(1):  # every solve in this process
            populate_table(CoefficientTable(l_max=5), diagonal_l_max=6)
        assert freed == [True] * 7  # (3, 2) .. (5, 4), then (6, 5)

    def test_over_budget_cell_refused_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(delcap.tables, "solve_capacity",
                            lambda *a, **k: solves.append(a))
        # (6, 3) may need 2^6 * 8 = 512 entries; every smaller cell fits
        table = CoefficientTable(l_max=6, entry_budget=511)
        with cpus(1), pytest.raises(
                ResourceLimitError,
                match=r"^fixed channel \(6,3\) may need 512"
                      r" entries, budget 511$"):
            populate_table(table)
        assert solves == []
        assert all(entry.source == SOURCE_CLOSED
                   for entry in table.entries.values())

    def test_diagonal_past_cap_refused_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(delcap.tables, "solve_capacity",
                            lambda *a, **k: solves.append(a))
        # every diagonal cell up to (23, 22) fits the default entry budget
        table = CoefficientTable(l_max=2)
        with cpus(1), pytest.raises(
                ResourceLimitError,
                match=r"^L=23 beyond the block-length cap 22$"):
            populate_table(table, diagonal_l_max=23)
        assert solves == []

    def test_diagonal_extension(self):
        table = populate_table(CoefficientTable(l_max=4), diagonal_l_max=6)
        assert (5, 4) in table.entries and (6, 5) in table.entries
        assert (5, 3) not in table.entries
        assert table.l_max == 4

    def test_diagonal_below_l_max_rejected(self):
        with pytest.raises(ParameterError):
            populate_table(CoefficientTable(l_max=5), diagonal_l_max=4)


@pytest.fixture
def workers(monkeypatch):
    """The processes that populate_table starts, in start order."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recorded)
    return started


def assert_reaped(worker):
    assert worker.exitcode is not None
    with pytest.raises(ChildProcessError):  # joined: no zombie left
        os.waitpid(worker.pid, os.WNOHANG)


def build(count, l_max=6, diagonal_l_max=8):
    with cpus(count):
        return populate_table(CoefficientTable(l_max=l_max),
                              diagonal_l_max=diagonal_l_max)


def patch_solve(monkeypatch, cell, change):
    """Solve one cell with change(max_iterations) as its iteration cap, in
    whichever process solves it."""
    build = delcap.tables.build_fixed_deletion_channel
    solve = delcap.tables.solve_capacity
    building = []  # the cell whose channel was built last

    def built(L, R, **kwargs):
        building[:] = [(L, R)]
        return build(L, R, **kwargs)

    def patched(channel, tolerance, max_iterations):
        if building == [cell]:
            max_iterations = change(max_iterations)
        return solve(channel, tolerance, max_iterations)

    monkeypatch.setattr(delcap.tables, "build_fixed_deletion_channel", built)
    monkeypatch.setattr(delcap.tables, "solve_capacity", patched)


class TestSplitBuild:
    def test_same_bytes_as_serial(self, workers):
        serial = build(1)
        assert workers == []
        with warnings.catch_warnings():
            # Python 3.12+ warns when it forks with threads alive
            warnings.simplefilter("error", DeprecationWarning)
            split = build(2)
        [worker] = workers
        assert_reaped(worker)
        assert worker.exitcode == 0
        assert serialize_table(split) == serialize_table(serial)
        assert list(split.entries) == list(serial.entries)

    @pytest.mark.parametrize("cell", [(5, 3), (6, 4), (8, 7)],
                             ids=["shallow", "deepest-row", "diagonal"])
    def test_stuck_cell_raises_as_serial(self, monkeypatch, workers, cell):
        patch_solve(monkeypatch, cell, lambda cap: 1)
        errors, tables = [], []
        for count in (1, 2):
            table = CoefficientTable(l_max=6)
            with cpus(count), pytest.raises(SolverNotConvergedError) as error:
                populate_table(table, diagonal_l_max=8)
            errors.append(error.value)
            tables.append(table)
        serial, split = errors
        assert str(split) == str(serial)
        assert str(serial).startswith(f"f({cell[0]},{cell[1]}) bracket stuck")
        assert split.result.iterations == serial.result.iterations == 1
        assert split.result.capacity_lower == serial.result.capacity_lower
        assert split.result.capacity_upper == serial.result.capacity_upper
        assert (split.result.input_distribution.tobytes()
                == serial.result.input_distribution.tobytes())
        assert list(tables[1].entries.items()) == list(
            tables[0].entries.items())
        [worker] = workers
        assert_reaped(worker)

    def test_interrupt_stops_the_worker(self, monkeypatch, workers):
        parent = os.getpid()

        def interrupt(cap):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return cap

        patch_solve(monkeypatch, (5, 4), interrupt)
        with cpus(2), pytest.raises(KeyboardInterrupt):
            populate_table(CoefficientTable(l_max=6), diagonal_l_max=8)
        [worker] = workers
        assert_reaped(worker)

    def test_serial_where_it_cannot_split(self, monkeypatch, workers):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        full = build(1)
        table = build(1, diagonal_l_max=6)
        with cpus(2):
            populate_table(table, diagonal_l_max=8)  # the worker's share only
            assert table == full
            del table.entries[(4, 2)]
            populate_table(table, diagonal_l_max=8)  # this process's only
            assert serialize_table(table) == serialize_table(full)
            populate_table(table, diagonal_l_max=8)  # nothing to solve
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: SimpleNamespace(daemon=True))
            daemonic = populate_table(CoefficientTable(l_max=6),
                                      diagonal_l_max=8)  # a pool's worker
        assert serialize_table(daemonic) == serialize_table(full)
        assert workers == []


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path, default_table):
        path = tmp_path / "table.txt"
        save_table(default_table, path)
        loaded = load_table(path)
        assert loaded == default_table
        assert loaded.l_max == default_table.l_max
        assert serialize_table(loaded) == serialize_table(default_table)
        assert serialize_table(loaded) == path.read_text()

    def test_serialized_shape(self):
        table = small_table(l_max=2)
        text = serialize_table(table)
        lines = text.splitlines()
        assert lines[0] == TABLE_HEADER
        assert lines[1] == "0,0,0.0,0.0,0.0,closed_form"
        assert lines[-1].startswith("checksum,")
        assert len(lines[-1]) == len("checksum,") + 8

    def test_sources_survive(self, tmp_path):
        table = small_table(l_max=3)
        path = tmp_path / "t.txt"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.entries[(3, 2)].source == SOURCE_BAA
        assert loaded.entries[(3, 0)].source == SOURCE_CLOSED

    def test_l_max_inference_skips_partial_rows(self, tmp_path):
        table = populate_table(CoefficientTable(l_max=3), diagonal_l_max=5)
        path = tmp_path / "t.txt"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.l_max == 3
        assert f_value(5, 4, loaded, "lower") == table.entries[(5, 4)].f_lower
        with pytest.raises(ExtrapolationRequiredError):
            f_value(5, 3, loaded, "lower")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def with_checksum(lines):
    import zlib
    body = "\n".join(lines) + "\n"
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    return lines + [f"checksum,{crc:08x}"]


class TestLoadRejections:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.txt"
        write_lines(path, ["delcap-ftable v9", "checksum,00000000"])
        with pytest.raises(TableVersionError) as err:
            load_table(path)
        assert err.value.line == 1

    def test_missing_trailer(self, tmp_path):
        path = tmp_path / "t.txt"
        write_lines(path, [TABLE_HEADER, "2,1,1.0,1.0,0.0,closed_form"])
        with pytest.raises(TableChecksumError) as err:
            load_table(path)
        assert err.value.line == 2

    def test_corrupted_body(self, tmp_path, default_table):
        path = tmp_path / "t.txt"
        save_table(default_table, path)
        text = path.read_text().replace("baa", "bbb", 1)
        path.write_text(text)
        with pytest.raises(TableChecksumError):
            load_table(path)

    @pytest.mark.parametrize("row,fragment", [
        ("2,1,1.0,1.0,0.0", "6 fields"),
        ("2,1,1.0,1.0,0.0,closed_form,extra", "6 fields"),
        ("2,one,1.0,1.0,0.0,closed_form", "unparsable"),
        ("2,1,1.0,1.0,0.0,oracle", "unknown source"),
        ("2,3,1.0,1.0,0.0,loaded", "bad cell"),
        ("4,2,1.5,1.4,0.005,baa", "invalid bracket"),
        ("4,2,nan,1.4,0.005,baa", "invalid bracket"),
        ("4,2,1.3,1.4,-0.005,baa", "negative tolerance"),
        ("2,1,1.0,1.5,0.0,closed_form", "must equal"),
    ])
    def test_bad_rows(self, tmp_path, row, fragment):
        path = tmp_path / "t.txt"
        write_lines(path, with_checksum([TABLE_HEADER, row]))
        with pytest.raises(TableRowError) as err:
            load_table(path)
        assert err.value.line == 2
        assert fragment in str(err.value)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "t.txt"
        write_lines(path, with_checksum(
            [TABLE_HEADER, "2,1,1.0,1.0,0.0,closed_form",
             "2,1,1.0,1.0,0.0,loaded"]))
        with pytest.raises(TableRowError) as err:
            load_table(path)
        assert err.value.line == 3
        assert "duplicate" in str(err.value)
