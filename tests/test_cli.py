import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import delcap
from delcap import (DEFAULT_TOLERANCE, BoundSpec, CoefficientTable,
                    TableEntry, bound_c2_star, bound_c3, compose_best_upper,
                    d_grid, dump_channel, load_table, populate_table,
                    resolve_l_max, save_table)
from delcap.channel import _binomial_structure
from delcap.cli import CSV_HEADER, LONG_RUN_LIMIT, build_parser, main

from conftest import cpus
from reference_values import F_REFERENCE, bracket_matches_reference


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def rows_of(out):
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestTableCommand:
    def test_prints_and_caches_identically(self, capsys, tmp_path):
        cache = tmp_path / "t5.txt"
        code, out, _ = run_cli(capsys, "table", "--l-max", "5",
                               "--cache", str(cache))
        assert code == 0
        assert out == cache.read_text()
        lines = out.splitlines()
        assert lines[0] == "delcap-ftable v1"
        # solved on complement x reversal orbits with per-input steps, as
        # counts times column weights; the unreduced solve's upper end
        # rounds one ulp higher (...6475)
        pinned = "3,2,1.4697354701988983,1.4703802736386473,0.005,baa"
        assert pinned in lines
        # the plain Blahut-Arimoto solver wrote [1.4689225691649872,
        # 1.472514062845397] here; the over-relaxed bracket must meet it
        lo, hi = map(float, pinned.split(",")[2:4])
        assert lo <= 1.472514062845397 and hi >= 1.4689225691649872
        assert bracket_matches_reference(lo, hi, F_REFERENCE[(3, 2)])
        assert lines[-1].startswith("checksum,")
        assert load_table(cache).l_max == 5

    def test_each_solved_cell_builds_its_channel_once(self, capsys, tmp_path,
                                                       monkeypatch):
        # bench/tracer.py wraps this name as channel.fixed and reads the
        # cell from the first two positional arguments
        build = delcap.tables.build_fixed_deletion_channel
        calls = []

        def counted(*args, **kwargs):
            channel = build(*args, **kwargs)
            calls.append((args[0], args[1], channel.entry_count))
            return channel

        monkeypatch.setattr(delcap.tables, "build_fixed_deletion_channel",
                            counted)
        cache = tmp_path / "t.txt"
        with cpus(1):  # every build in this process
            code, _, _ = run_cli(capsys, "table", "--l-max", "6",
                                 "--diag-l-max", "7", "--cache", str(cache))
        assert code == 0
        solved = sorted(cell for cell, entry in load_table(cache).entries.items()
                        if entry.source == "baa")
        assert len(solved) == 11  # (3, 2) .. (6, 5), then (7, 6)
        assert sorted((L, R) for L, R, _ in calls) == solved
        for L, R, entries in calls:
            assert entries == build(L, R).entry_count

    def test_reuses_existing_cache(self, capsys, tmp_path, default_table):
        cache = tmp_path / "t.txt"
        save_table(default_table, cache)
        before = cache.read_text()
        code, out, _ = run_cli(capsys, "table", "--cache", str(cache))
        assert code == 0
        assert out == before

    def test_diag_below_l_max_is_usage_error(self, capsys):
        assert run_cli(capsys, "table", "--l-max", "5",
                       "--diag-l-max", "3") == (
            1, "", "error: --diag-l-max must be at least --l-max\n")

    def test_depth_gate(self, capsys):
        code, _, err = run_cli(capsys, "table", "--l-max", "15")
        assert code == 1
        assert f"quick-run limit {LONG_RUN_LIMIT}" in err
        assert "--allow-long" in err


class TestBoundCommand:
    def test_exact_small_block_row(self, capsys, table_cache_path):
        code, out, _ = run_cli(capsys, "bound", "--kind", "c3", "--L", "1",
                               "--d", "0.3", "--cache", table_cache_path)
        assert code == 0
        assert out == f"{CSV_HEADER}\nc3,L=1,0.3,0.7,upper,0.005\n"

    def test_erasure_row_has_empty_params(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "erasure",
                               "--d", "0.37")
        assert code == 0
        assert out.splitlines()[1] == "erasure,,0.37,0.63,upper,0.005"

    def test_c2_resolves_l_max_from_cache(self, capsys, table_cache_path,
                                          default_table):
        code, out, _ = run_cli(capsys, "bound", "--kind", "c2_star",
                               "--R", "4", "--d", "0.4",
                               "--cache", table_cache_path)
        assert code == 0
        (row,) = rows_of(out)
        assert row[0] == "c2_star"
        assert row[1] == "R=4;l_max=12"
        assert float(row[3]) == bound_c2_star(4, 12, 0.4, default_table)

    def test_lower_policy_names_the_kind(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "lower", "--L", "3",
                               "--policy", "iud", "--d", "0.2")
        assert code == 0
        (row,) = rows_of(out)
        assert row[0] == "lower_iud"
        assert row[4] == "lower"

    @pytest.mark.parametrize("kind", ["c4", "lower"])
    def test_underflowed_length_weights_still_solve(self, capsys, kind):
        # d^(L-r) (1-d)^r is 0.0 in float64 for r < L - 1 here; those
        # entries count as 0 log 0 = 0 and the channel is nearly noiseless
        code, out, err = run_cli(capsys, "bound", "--kind", kind, "--L", "4",
                                 "--d", "1e-200")
        assert code == 0, err
        (row,) = rows_of(out)
        assert row[3] == "1.0"

    def test_c1_needs_explicit_d_count(self, capsys, table_cache_path):
        assert run_cli(capsys, "bound", "--kind", "c1_star",
                       "--d", "0.4", "--cache", table_cache_path) == (
            1, "", "error: --kind c1_star needs --D here; only sweeps may"
                   " omit it\n")

    def test_levels_read_from_cache_need_no_allow_long(self, capsys,
                                                       tmp_path):
        # only the single-deletion diagonal passes the quick-run limit;
        # reading it solves nothing, so bound serves it like the scan does
        cache = str(tmp_path / "d16.txt")
        assert run_cli(capsys, "table", "--l-max", "5", "--diag-l-max", "16",
                       "--allow-long", "--cache", cache)[0] == 0
        code, out, err = run_cli(capsys, "bound", "--kind", "c1_star",
                                 "--D", "1", "--d", "0.5", "--cache", cache)
        assert code == 0, err
        (row,) = rows_of(out)
        assert row[1] == "D=1;l_max=16"
        code, scan, _ = run_cli(capsys, "sweep", "--kind", "c1_star",
                                "--d-grid", "0.5:0.5:0.1", "--cache", cache)
        assert code == 0
        assert rows_of(scan) == [row]
        # a depth the command would solve rows at still needs the flag
        code, _, err = run_cli(capsys, "bound", "--kind", "c1_star",
                               "--D", "1", "--d", "0.5", "--l-max", "16",
                               "--cache", cache)
        assert code == 1
        assert "--allow-long" in err

    def test_best_is_sweep_only(self, capsys):
        assert run_cli(capsys, "bound", "--kind", "best", "--d", "0.4") == (
            1, "", "error: --kind best is available in sweep only\n")

    def test_out_writes_file_not_stdout(self, capsys, tmp_path,
                                        table_cache_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, "bound", "--kind", "c3", "--L", "1",
                               "--d", "0.3", "--cache", table_cache_path,
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == f"{CSV_HEADER}\nc3,L=1,0.3,0.7,upper,0.005\n"


class TestSweepCommand:
    def test_endpoint_rows_are_closed_form(self, capsys, table_cache_path,
                                           default_table):
        # the multi-spec sweeps label their endpoints too: a c1_star scan
        # names its D=0 spec (the erasure bound itself), `best` erasure
        scan = f"D=0;l_max={resolve_l_max(default_table, 'c1_star', D=0)}"
        cases = ((("--kind", "c4", "--L", "2"), "L=2"),
                 (("--kind", "c1_star", "--cache", table_cache_path), scan),
                 (("--kind", "best", "--cache", table_cache_path),
                  "winner=erasure"))
        for args, params in cases:
            code, out, _ = run_cli(capsys, "sweep", *args,
                                   "--d-grid", "0:1:0.5")
            assert code == 0
            rows = rows_of(out)
            assert [row[2] for row in rows] == ["0.0", "0.5", "1.0"]
            assert rows[0][3] == "1.0"
            assert rows[-1][3] == "0.0"
            assert rows[0][1] == rows[-1][1] == params

    @pytest.mark.parametrize("family", [("--kind", "c1_star", "--D", "3"),
                                        ("--kind", "c2_star", "--R", "4")],
                             ids=["c1_star", "c2_star"])
    def test_single_family_without_cache_matches_bound(self, capsys, family):
        # without --cache, sweep and bound both work to the default depth
        code, out, err = run_cli(capsys, "sweep", *family,
                                 "--d-grid", "0:1:0.5")
        assert code == 0, err
        code, row, _ = run_cli(capsys, "bound", *family, "--d", "0.5")
        assert code == 0
        assert rows_of(out)[1] == rows_of(row)[0]

    def test_c4_curve_decreases(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "c4", "--L", "2",
                               "--d-grid", "0.1:0.9:0.1")
        assert code == 0
        values = [float(row[3]) for row in rows_of(out)]
        assert len(values) == 9
        assert values == sorted(values, reverse=True)

    def test_c4_sweep_builds_each_d_once_without_the_skeleton(
            self, capsys, tmp_path, monkeypatch):
        # bench/tracer.py wraps this name as channel.binomial and reads
        # (L, d) from the first two positional arguments
        build = delcap.bounds.build_binomial_deletion_channel
        calls = []

        def counted(*args, **kwargs):
            channel = build(*args, **kwargs)
            calls.append((args, channel))
            return channel

        monkeypatch.setattr(delcap.bounds, "build_binomial_deletion_channel",
                            counted)
        skeletons = _binomial_structure.cache_info().currsize
        code, out, _ = run_cli(capsys, "sweep", "--kind", "c4", "--L", "6",
                               "--d-grid", "0.1:0.5:0.1")
        assert code == 0
        ds = [float(row[2]) for row in rows_of(out)]
        assert [args for args, _ in calls] == [(6, d) for d in ds]
        assert len(ds) == 5
        assert _binomial_structure.cache_info().currsize == skeletons
        for _, channel in calls:
            assert channel.entry_count == 1394  # closed form at L=6
            assert "indptr" not in vars(channel)
        # the readers form the skeleton and return what they always did
        channel = build(6, 0.3)
        channel.validate()
        assert len(channel.row(11)) == 24
        assert channel.row(11)[-1] == (74, 0.11764899999999996)
        path = tmp_path / "binomial.txt"
        dump_channel(channel, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f832f7283b551bebf781e639e035bae27c0ddde46ef1d7e37e916b1ab82d049e")

    def test_repeated_runs_are_byte_identical(self, tmp_path,
                                              table_cache_path, capsys):
        args = ("sweep", "--kind", "c3", "--L", "8",
                "--cache", table_cache_path, "--d-grid", "0.05:0.95:0.05")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(first))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.encode() == first.read_bytes()

    def test_c1_scan_reports_winning_depth(self, capsys, table_cache_path):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "c1_star",
                               "--cache", table_cache_path,
                               "--d-grid", "0.1:0.9:0.2")
        assert code == 0
        rows = rows_of(out)
        assert all(row[0] == "c1_star" for row in rows)
        winners = [int(dict(p.split("=") for p in row[1].split(";"))["D"])
                   for row in rows]
        assert winners == sorted(winners)
        assert winners[0] >= 1
        assert winners == [1, 2, 3, 5, 8]

    def test_best_picks_families_pointwise(self, capsys, table_cache_path):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "best",
                               "--cache", table_cache_path,
                               "--d-grid", "0.8:0.8:0.1")
        assert code == 0
        (row,) = rows_of(out)
        assert row[0] == "best"
        assert "winner=c2_star" in row[1]
        assert float(row[3]) < 1.0 - 0.8

    def test_best_rows_match_composition_one_d_at_a_time(
            self, capsys, table_cache_path, default_table):
        # table-backed specs, one c4 spec and both closed-form endpoints
        code, out, _ = run_cli(capsys, "sweep", "--kind", "best",
                               "--d-grid", "0:1:0.125", "--L", "3",
                               "--cache", table_cache_path)
        assert code == 0
        specs = ([BoundSpec("c1_star", {"D": D, "l_max": resolve_l_max(
                     default_table, "c1_star", D=D)}) for D in range(13)]
                 + [BoundSpec("c2_star", {"R": R, "l_max": resolve_l_max(
                     default_table, "c2_star", R=R)}) for R in range(13)]
                 + [BoundSpec("c3", {"L": L}) for L in range(1, 13)]
                 + [BoundSpec("c4", {"L": 3})])
        lines = [CSV_HEADER]
        for d in d_grid(0.0, 1.0, 0.125):
            if d in (0.0, 1.0):
                value, winner = 1.0 - d, BoundSpec("erasure")
            else:
                value, winner = compose_best_upper(d, specs, default_table)
            params = {**winner.parameters, "winner": winner.kind}
            lines.append(
                f"best,{';'.join(f'{k}={params[k]}' for k in sorted(params))},"
                f"{d!r},{value!r},upper,{DEFAULT_TOLERANCE!r}")
        assert out == "\n".join(lines) + "\n"
        assert "np.float64(" not in out

    @pytest.mark.parametrize("family", [
        ("--kind", "c3", "--L", "4"),
        ("--kind", "c4", "--L", "2"),
        ("--kind", "c1_star"),
        ("--kind", "best"),
    ], ids=["c3", "c4", "c1_star_scan", "best"])
    def test_prints_provenance_to_stderr(self, capsys, tmp_path,
                                         table_cache_path, family):
        args = ("sweep", *family, "--d-grid", "0.25:0.75:0.25",
                "--cache", table_cache_path)
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert err == (f"provenance: table l_max=12 tolerance="
                       f"{DEFAULT_TOLERANCE!r}; solver_tolerance="
                       f"{DEFAULT_TOLERANCE!r}\n")
        assert "provenance" not in out
        target = tmp_path / "sweep.csv"
        code, _, err_to_file = run_cli(capsys, *args, "--out", str(target))
        assert code == 0
        assert err_to_file == err
        assert target.read_text() == out

    def test_solver_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--kind", "c4", "--L", "3",
                               "--d-grid", "0.5:0.5:0.1", "--max-iter", "2")
        assert code == 3
        assert "stuck" in err
        # a stacked sweep names its first stuck d, as the per-d solves did
        code, out, err = run_cli(capsys, "sweep", "--kind", "c4", "--L", "3",
                                 "--d-grid", "0.3:0.7:0.2", "--max-iter", "2")
        assert code == 3 and out == ""
        assert err == ("error: c4 solve at L=3, d=0.3 stuck at bracket width"
                       " 0.038477750198926276\n")

    def test_depth_gate_on_block_length(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--kind", "c4", "--L", "15",
                               "--d-grid", "0.5:0.5:0.1")
        assert code == 1
        assert "--allow-long" in err

    def test_malformed_grid(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--kind", "c3", "--L", "3",
                             "--d-grid", "nonsense")
        assert code == 1
        code, _, err = run_cli(capsys, "sweep", "--kind", "c3", "--L", "3",
                               "--d-grid", "0.9:0.1:0.1")
        assert code == 1
        assert "error:" in err


class TestLimitsCommand:
    def test_rows(self, capsys, table_cache_path):
        code, out, _ = run_cli(capsys, "limits", "--L", "10", "--R", "4",
                               "--cache", table_cache_path)
        assert code == 0
        rows = rows_of(out)
        assert [row[0] for row in rows] == [
            "limit_small_d_c3", "limit_small_d_c2", "limit_large_d_c2"]
        assert [row[2] for row in rows] == ["0.0", "0.0", "1.0"]
        assert [row[4] for row in rows] == ["lower", "lower", "upper"]
        assert rows[0][1] == "L=10"
        assert rows[2][1] == "R=4;l_max=12"
        assert 3.0 < float(rows[0][3]) < 3.2

    def test_block_length_leaves_survivor_rows_alone(self, capsys, tmp_path):
        cache = str(tmp_path / "l5.txt")
        assert run_cli(capsys, "table", "--l-max", "5", "--cache", cache)[0] == 0
        _, alone, _ = run_cli(capsys, "limits", "--R", "4", "--cache", cache)
        code, both, _ = run_cli(capsys, "limits", "--L", "10", "--R", "4",
                                "--cache", cache)
        assert code == 0
        assert rows_of(alone)[1][1] == "R=4;l_max=5"
        assert rows_of(both)[0][1] == "L=10"
        assert rows_of(both)[1:] == rows_of(alone)

    @pytest.mark.parametrize("R", [5, 8])
    def test_survivor_depth_is_one_rule_for_bound_and_limits(
            self, capsys, tmp_path, R):
        # on a shallow cache both commands resolve column R on the table
        # raised to R+1
        cache = str(tmp_path / "l5.txt")
        assert run_cli(capsys, "table", "--l-max", "5", "--cache", cache)[0] == 0
        code, limits, _ = run_cli(capsys, "limits", "--R", str(R),
                                  "--cache", cache)
        assert code == 0
        code, bound, _ = run_cli(capsys, "bound", "--kind", "c2_star",
                                 "--R", str(R), "--d", "0.9", "--cache", cache)
        assert code == 0
        params = f"R={R};l_max={R + 1}"
        assert rows_of(limits)[1][1] == rows_of(bound)[0][1] == params
        table = load_table(cache)
        table.l_max = R + 1
        assert float(rows_of(bound)[0][3]) == bound_c2_star(R, R + 1, 0.9,
                                                            table)

    def test_needs_a_parameter(self, capsys):
        assert run_cli(capsys, "limits") == (
            1, "", "error: limits needs --L and/or --R\n")


class TestVerifyCommand:
    def test_clean_table_passes(self, capsys, table_cache_path):
        code, out, err = run_cli(capsys, "verify", "--cache", table_cache_path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("lemma=L1 ")
        assert all("violations=0" in line for line in lines)
        assert "observation: lemma=conjecture2" in err

    def test_tampered_table_fails(self, capsys, tmp_path):
        table = populate_table(CoefficientTable(l_max=5))
        table.entries[(5, 2)] = TableEntry(2.0, 2.0, 0.0, "baa")
        cache = tmp_path / "bad.txt"
        save_table(table, cache)
        code, out, _ = run_cli(capsys, "verify", "--cache", str(cache))
        assert code == 2
        assert any("violations=0" not in line for line in out.splitlines())


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_command_is_usage(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 1

    def test_unknown_flag_is_usage(self, capsys):
        assert run_cli(capsys, "bound", "--kind", "c3", "--L", "3",
                       "--d", "0.5", "--frobnicate")[0] == 1

    def test_negative_depth_is_input_error(self, capsys, table_cache_path):
        code, _, err = run_cli(capsys, "sweep", "--kind", "c1_star",
                               "--l-max", "-1", "--cache", table_cache_path,
                               "--d-grid", "0.5:0.5:0.1")
        assert code == 1
        assert "--l-max" in err

    def test_bad_parameter_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--kind", "c3", "--L", "0",
                               "--d", "0.5")
        assert code == 1
        assert "error:" in err

    def test_entry_budget_refusal(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--kind", "c4", "--L", "10",
                                 "--d", "0.5", "--entry-budget", "1000")
        assert code == 1 and out == ""
        assert "may need 97391 entries, budget 1000" in err
        code, out, err = run_cli(capsys, "table", "--l-max", "6",
                                 "--entry-budget", "100")
        assert code == 1 and out == ""
        assert "fixed channel (5,2) may need 128 entries" in err


def test_module_entry_point(tmp_path):
    # The child runs outside the source tree, so a relative PYTHONPATH
    # entry (such as ``src``) would no longer resolve: hand it the absolute
    # directory that holds the package under test.
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(delcap.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "delcap", "bound", "--kind", "erasure",
         "--d", "0.25"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "erasure,,0.25,0.75,upper,0.005"


def readme_commands():
    """The `delcap ...` lines of README's "Command line" block, comments
    stripped, as argument lists."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("delcap ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands
    parser = build_parser()
    for argv in commands:
        # argparse exits on a flag no subparser defines
        parser.parse_args(argv)
