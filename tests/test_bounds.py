import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delcap.bounds
from delcap import (BoundSpec, ParameterError, SolverNotConvergedError,
                    alpha, alpha_tilde, bound_c1_star, bound_c2_star,
                    bound_c3, bound_c4, binomial_weight,
                    binomial_weight_tilde, build_binomial_deletion_channel,
                    c1_star_tail, compose_best_upper, conjecture1_report,
                    d_grid, evaluate_bound, extrapolate_tilde_alpha_lemma4,
                    limit_large_d_c2, limit_small_d_c2, limit_small_d_c3,
                    lower_bound, resolve_l_max, solve_capacity, sweep_bound)
from delcap.bounds import (BOUND_KINDS, LOWER_KINDS, MAX_GRID_POINTS,
                           UPPER_KINDS)
from delcap.tables import CoefficientTable

from conftest import best_specs
from reference_values import (ALPHA_TILDE_DIAGONAL, PRIOR_LARGE_D_LOWER,
                              PRIOR_LARGE_D_UPPER)


class TestBoundSpec:
    def test_kind_partition(self):
        assert set(UPPER_KINDS) | set(LOWER_KINDS) == set(BOUND_KINDS)
        for kind in UPPER_KINDS:
            params = {"c1_star": {"D": 1, "l_max": 5},
                      "c2_star": {"R": 2, "l_max": 5},
                      "erasure": {}}.get(kind, {"L": 3})
            assert BoundSpec(kind, params).side == "upper"
        for kind in LOWER_KINDS:
            assert BoundSpec(kind, {"L": 3}).side == "lower"

    def test_equality_and_repr(self):
        a = BoundSpec("c3", {"L": 5})
        assert a == BoundSpec("c3", {"L": 5})
        assert a != BoundSpec("c3", {"L": 6})
        assert a != BoundSpec("c4", {"L": 5})
        assert "c3" in repr(a) and "'L': 5" in repr(a)

    def test_rejections(self):
        with pytest.raises(ParameterError):
            BoundSpec("c5", {"L": 3})
        with pytest.raises(ParameterError):
            BoundSpec("c1_star", {"D": 1})
        with pytest.raises(ParameterError):
            BoundSpec("c3", {"L": 3, "R": 2})
        with pytest.raises(ParameterError):
            BoundSpec("c3", {"L": True})
        with pytest.raises(ParameterError):
            BoundSpec("c3", {"L": -3})
        with pytest.raises(ParameterError):
            BoundSpec("c3", {"L": 0})
        with pytest.raises(ParameterError):
            BoundSpec("c1_star", {"D": 6, "l_max": 5})
        with pytest.raises(ParameterError):
            BoundSpec("c2_star", {"R": 6, "l_max": 5})


class TestDegenerateExactness:
    """Families whose genie reveals nothing must land on 1 - d."""

    @pytest.mark.parametrize("d", [0.1, 0.5, 0.9])
    def test_all_trivial_settings(self, d, default_table):
        erasure = 1.0 - d
        assert abs(bound_c1_star(0, 12, d, default_table) - erasure) <= 1e-9
        assert abs(bound_c2_star(0, 12, d, default_table) - erasure) <= 1e-9
        assert abs(bound_c2_star(1, 12, d, default_table) - erasure) <= 1e-9
        assert abs(bound_c3(1, d, default_table) - erasure) <= 1e-9
        assert abs(bound_c3(2, d, default_table) - erasure) <= 1e-9
        assert abs(bound_c4(1, d) - erasure) <= 1e-9


class TestC1Star:
    def test_tail_matches_termwise_extrapolation(self, default_table):
        # independent series oracle: per-term diagonal extrapolation times
        # the length weight, summed far past any visible mass
        for d in (0.2, 0.5, 0.8):
            direct = sum(
                extrapolate_tilde_alpha_lemma4(L, 1, default_table)
                * binomial_weight_tilde(L, 1, d).value
                for L in range(13, 3000))
            closed = c1_star_tail(1, 12, d, default_table)
            assert closed == pytest.approx(direct, abs=1e-12)

    def test_truncated_tail_matches_closed_form(self, default_table):
        for d in (0.2, 0.5, 0.8):
            closed = bound_c1_star(1, 12, d, default_table)
            truncated = bound_c1_star(1, 12, d, default_table, tail_cut=2000)
            assert abs(closed - truncated) <= 1e-9

    def test_short_truncation_only_raises_the_bound(self, default_table):
        closed = bound_c1_star(2, 12, 0.3, default_table)
        rough = bound_c1_star(2, 12, 0.3, default_table, tail_cut=20)
        assert rough >= closed

    def test_never_exceeds_erasure_bound(self, default_table):
        for D in (1, 2, 3):
            for d in d_grid(0.1, 0.9, 0.1):
                value = bound_c1_star(D, 12, d, default_table)
                assert 0.0 < value <= 1.0 - d

    def test_rejections(self, default_table):
        with pytest.raises(ParameterError):
            bound_c1_star(1, 12, 0.0, default_table)
        with pytest.raises(ParameterError):
            bound_c1_star(1, 12, 1.0, default_table)
        with pytest.raises(ParameterError):
            bound_c1_star(-1, 12, 0.5, default_table)
        with pytest.raises(ParameterError):
            bound_c1_star(13, 12, 0.5, default_table)


class TestC2Star:
    def test_exact_at_d_zero(self, default_table):
        assert bound_c2_star(2, 3, 0.0, default_table) == 1.0
        assert bound_c2_star(4, 12, 0.0, default_table) == 1.0

    def test_matches_direct_formula(self, default_table):
        R, l_max, d = 3, 9, 0.4
        a_top = alpha(l_max, R, default_table, "lower")
        total = sum((a_top - alpha(L, R, default_table, "lower"))
                    * binomial_weight(L, R, d).value
                    for L in range(R, l_max + 1))
        expected = ((1 - d) ** 2 / (R + 1) * total
                    + (1 - d) * (1 - a_top / (R + 1)))
        assert bound_c2_star(R, l_max, d, default_table) == pytest.approx(
            expected, abs=1e-15)

    def test_never_exceeds_erasure_bound(self, default_table):
        for R in (2, 4, 8):
            for d in d_grid(0.0, 0.9, 0.1):
                value = bound_c2_star(R, 12, d, default_table)
                assert 0.0 < value <= 1.0 - d + 1e-12

    def test_vanishes_toward_d_one(self, default_table):
        assert bound_c2_star(4, 12, 0.999, default_table) < 1e-2

    def test_rejections(self, default_table):
        with pytest.raises(ParameterError):
            bound_c2_star(4, 12, 1.0, default_table)
        with pytest.raises(ParameterError):
            bound_c2_star(4, 3, 0.5, default_table)
        with pytest.raises(ParameterError):
            bound_c2_star(-1, 3, 0.5, default_table)


class TestC3:
    def test_exact_small_block(self, default_table):
        assert bound_c3(1, 0.3, default_table) == 0.7

    def test_matches_direct_formula(self, default_table):
        L, d = 3, 0.5
        gap = sum(alpha(L, R, default_table, "lower")
                  * binomial_weight(L, R, d).value for R in range(L + 1))
        assert bound_c3(L, d, default_table) == 1.0 - d - gap / L
        assert bound_c3(L, d, default_table) == pytest.approx(0.434, abs=0.01)

    def test_closed_interval_endpoints(self, default_table):
        for L in (1, 5, 10):
            assert bound_c3(L, 0.0, default_table) == 1.0
            assert bound_c3(L, 1.0, default_table) == 0.0

    def test_improves_with_block_length(self, default_table):
        d = 0.5
        values = [bound_c3(L, d, default_table) for L in (2, 4, 8, 12)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1.0 - d

    def test_rejections(self, default_table):
        with pytest.raises(ParameterError):
            bound_c3(0, 0.5, default_table)
        with pytest.raises(ParameterError):
            bound_c3(3, 1.5, default_table)


class TestC4:
    def test_desk_scale_value(self):
        value = bound_c4(10, 0.5)
        assert 0.2 < value < 0.3

    def test_clamped_by_erasure_bound(self):
        # at tiny d the solver's upper estimate pokes past 1 - d by less
        # than its tolerance; the published value must not follow it
        L, d = 2, 0.001
        channel = build_binomial_deletion_channel(L, d)
        raw = solve_capacity(channel).capacity_upper / L
        assert raw > 1.0 - d
        assert bound_c4(L, d) == 1.0 - d
        for d in (0.2, 0.7):
            assert bound_c4(2, d) <= 1.0 - d

    def test_tightens_under_refinement(self):
        # doubling the block can only help, up to one solver tolerance
        for ell, n in ((2, 2), (3, 2)):
            coarse = bound_c4(ell, 0.3)
            fine = bound_c4(n * ell, 0.3)
            assert fine <= coarse + 5e-3

    def test_sweep_evaluation_count(self, monkeypatch):
        # one count per divergence evaluation, so this guards the solver's
        # step rule without timing: 1055 with a single shared step, 454
        # with one step per input
        solve = delcap.bounds.solve_capacity
        iterations = []

        def spy(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(delcap.bounds, "solve_capacity", spy)
        grid = d_grid(0.05, 0.95, 0.05)
        for d in grid:
            bound_c4(10, d)
        assert len(iterations) == 19
        assert sum(iterations) <= 600
        # the grid path: one stacked solve, its iterations summed over d
        iterations.clear()
        evaluate_bound(BoundSpec("c4", {"L": 10}), grid,
                       CoefficientTable(l_max=1))
        assert len(iterations) == 1
        assert iterations[0] <= 600

    def test_below_c3_within_tolerances(self, default_table):
        for d in (0.1, 0.5, 0.9):
            assert bound_c4(8, d) <= bound_c3(8, d, default_table) + 2 * 5e-3

    @pytest.mark.parametrize("solve", [
        lambda: bound_c4(3, 0.5, max_iterations=1),
        lambda: lower_bound(3, 0.5, "optimized", max_iterations=1),
    ], ids=["c4", "lower_opt"])
    def test_non_convergence_raises(self, solve):
        with pytest.raises(SolverNotConvergedError) as err:
            solve()
        assert err.value.result is not None
        assert not err.value.result.converged

    @pytest.mark.parametrize("kind,what", [("c4", "c4"),
                                           ("lower_opt", "lower bound")])
    def test_stack_names_first_stuck_d(self, kind, what):
        # with 4 evaluations, d=0.05 closes and 0.3 and 0.5 do not; the
        # message is the one a solve of d=0.3 alone gives
        table = CoefficientTable(l_max=1, max_iterations=4)
        with pytest.raises(SolverNotConvergedError) as err:
            evaluate_bound(BoundSpec(kind, {"L": 3}), [0.05, 0.3, 0.5], table)
        assert str(err.value) == (f"{what} solve at L=3, d=0.3 stuck at"
                                  " bracket width 0.006779416428509466")
        assert err.value.result.iterations == 4
        assert not err.value.result.converged

    def test_rejections(self):
        with pytest.raises(ParameterError):
            bound_c4(0, 0.5)
        with pytest.raises(ParameterError):
            bound_c4(3, 0.0)


class TestLowerBound:
    def test_optimized_at_least_uniform(self):
        for L, d in ((4, 0.05), (6, 0.1)):
            opt = lower_bound(L, d, "optimized")
            iud = lower_bound(L, d, "iud")
            assert opt >= iud - 1e-12

    def test_sandwich_against_c4(self):
        for L, d in ((4, 0.1), (6, 0.3)):
            assert lower_bound(L, d, "optimized") <= bound_c4(L, d) + 1e-9

    def test_clamped_at_zero(self):
        assert lower_bound(4, 0.75, "iud") == 0.0

    def test_small_d_approaches_one(self):
        assert lower_bound(10, 0.01, "optimized") > 0.85

    def test_rejections(self):
        with pytest.raises(ParameterError):
            lower_bound(3, 0.5, "best")
        with pytest.raises(ParameterError):
            lower_bound(0, 0.5)
        with pytest.raises(ParameterError):
            lower_bound(3, 1.0)


class TestLimits:
    def test_small_d_c3_slope(self, default_table):
        slope = limit_small_d_c3(10, default_table)
        assert slope == alpha_tilde(10, 1, default_table, "lower") + 1.0
        assert slope == pytest.approx(ALPHA_TILDE_DIAGONAL[10] + 1.0,
                                      abs=0.015)

    def test_small_d_c3_matches_finite_difference(self, default_table):
        h = 1e-4
        probe = (1.0 - bound_c3(10, h, default_table)) / h
        assert probe == pytest.approx(limit_small_d_c3(10, default_table),
                                      abs=1e-2)

    def test_small_d_c2_degenerate_slope_is_one(self, default_table):
        assert limit_small_d_c2(0, default_table) == 1.0
        assert limit_small_d_c2(1, default_table) == 1.0

    def test_small_d_c2_matches_finite_difference(self, default_table):
        R, h = 4, 1e-4
        probe = (1.0 - bound_c2_star(R, 12, h, default_table)) / h
        assert probe == pytest.approx(limit_small_d_c2(R, default_table),
                                      abs=1e-2)

    def test_large_d_c2_matches_probe(self, default_table):
        R, d = 8, 0.9999
        ratio = bound_c2_star(R, 12, d, default_table) / (1.0 - d)
        limit = limit_large_d_c2(R, 12, default_table)
        assert ratio == pytest.approx(limit, abs=1e-3)

    def test_large_d_improves_on_prior_constant(self, default_table):
        # desk-scale table already beats the older published coefficient,
        # and stays above what is known to be achievable
        limit = limit_large_d_c2(8, 12, default_table)
        assert PRIOR_LARGE_D_LOWER < limit < PRIOR_LARGE_D_UPPER

    def test_rejections(self, default_table):
        with pytest.raises(ParameterError):
            limit_small_d_c3(0, default_table)
        with pytest.raises(ParameterError):
            limit_small_d_c2(-1, default_table)
        with pytest.raises(ParameterError):
            limit_large_d_c2(5, 4, default_table)


class TestDispatch:
    def test_evaluate_matches_direct_calls(self, default_table):
        d = 0.4
        cases = [
            (BoundSpec("erasure"), 1.0 - d),
            (BoundSpec("c3", {"L": 3}), bound_c3(3, d, default_table)),
            (BoundSpec("c2_star", {"R": 2, "l_max": 6}),
             bound_c2_star(2, 6, d, default_table)),
            (BoundSpec("c1_star", {"D": 1, "l_max": 12}),
             bound_c1_star(1, 12, d, default_table)),
            (BoundSpec("c1_star", {"D": 1, "l_max": 12, "tail_cut": 50}),
             bound_c1_star(1, 12, d, default_table, tail_cut=50)),
            (BoundSpec("c4", {"L": 4}), bound_c4(4, d)),
            (BoundSpec("lower_opt", {"L": 4}),
             lower_bound(4, d, "optimized")),
            (BoundSpec("lower_iud", {"L": 4}), lower_bound(4, d, "iud")),
        ]
        for spec, expected in cases:
            assert evaluate_bound(spec, d, default_table) == expected

    def test_solves_at_the_tables_settings(self):
        table = CoefficientTable(l_max=4, tolerance=1e-3, max_iterations=40)
        d = [0.1, 0.5]
        limits = dict(max_iterations=40, entry_budget=table.entry_budget)
        for spec, expected in [
                (BoundSpec("c4", {"L": 5}), bound_c4(5, d, 1e-3, **limits)),
                (BoundSpec("lower_opt", {"L": 5}),
                 lower_bound(5, d, "optimized", 1e-3, **limits))]:
            assert evaluate_bound(spec, d, table).tolist() == expected.tolist()
            assert sweep_bound(spec, d, table).provenance == (
                "table l_max=4 tolerance=0.001")

    def test_compose_prefers_erasure_on_ties(self, default_table):
        value, winner = compose_best_upper(
            0.3, [BoundSpec("c3", {"L": 1})], default_table)
        assert value == 0.7
        assert winner.kind == "erasure"

    def test_compose_switches_family_with_d(self, default_table):
        specs = [BoundSpec("c3", {"L": 10}),
                 BoundSpec("c2_star", {"R": 4, "l_max": 12})]
        _, low_d_winner = compose_best_upper(0.1, specs, default_table)
        _, high_d_winner = compose_best_upper(0.85, specs, default_table)
        assert low_d_winner.kind == "c3"
        assert high_d_winner.kind == "c2_star"

    def test_compose_rejections(self, default_table):
        with pytest.raises(ParameterError):
            compose_best_upper(0.3, [], default_table)
        with pytest.raises(ParameterError):
            compose_best_upper(
                0.3, [BoundSpec("lower_opt", {"L": 3})], default_table)


def _c1_star_tail_by_formula(D, l_max, d, table, tail_cut=None):
    # the paper's series, one d at a time, in the scalar weights
    term = (alpha_tilde(l_max, D, table, "lower") * (1.0 - D / (l_max + 1))
            * binomial_weight_tilde(l_max + 1, D, d).value)
    if tail_cut is None:
        return term / d
    tail = 0.0
    for _ in range(l_max + 1, tail_cut + 1):
        tail += term
        term *= 1.0 - d
    return tail


def _c1_star_by_formula(D, l_max, d, table, tail_cut=None):
    populated = 0.0
    for L in range(D, l_max + 1):
        populated += (alpha_tilde(L, D, table, "lower")
                      * binomial_weight_tilde(L, D, d).value)
    series = populated + _c1_star_tail_by_formula(D, l_max, d, table,
                                                  tail_cut)
    return 1.0 - d - d * d / (D + 1) * series


def _c2_star_by_formula(R, l_max, d, table):
    top = alpha(l_max, R, table, "lower")
    total = 0.0
    for L in range(R, l_max + 1):
        total += ((top - alpha(L, R, table, "lower"))
                  * binomial_weight(L, R, d).value)
    keep = 1.0 - d
    return keep * keep / (R + 1) * total + keep * (1.0 - top / (R + 1))


def _c3_by_formula(L, d, table):
    gap = 0.0
    for R in range(L + 1):
        gap += alpha(L, R, table, "lower") * binomial_weight(L, R, d).value
    return 1.0 - d - gap / L


_open_grids = st.lists(st.floats(min_value=0.0, max_value=1.0,
                                 exclude_min=True, exclude_max=True),
                       min_size=1, max_size=40)


class TestGridExactness:
    """Over an array of d the table-backed bounds equal, bit for bit, the
    paper's formula evaluated one d at a time."""

    @settings(deadline=None, max_examples=40)
    @given(grid=_open_grids, D=st.integers(0, 12), data=st.data())
    def test_c1_star(self, default_table, grid, D, data):
        l_max = data.draw(st.integers(
            D, resolve_l_max(default_table, "c1_star", D=D)))
        for tail_cut in (None, 50):
            for bound, formula in ((bound_c1_star, _c1_star_by_formula),
                                   (c1_star_tail, _c1_star_tail_by_formula)):
                values = bound(D, l_max, np.array(grid), default_table,
                               tail_cut=tail_cut)
                assert values.tolist() == [
                    formula(D, l_max, d, default_table, tail_cut)
                    for d in grid]

    @settings(deadline=None, max_examples=40)
    @given(grid=_open_grids, R=st.integers(0, 12), data=st.data())
    def test_c2_star(self, default_table, grid, R, data):
        l_max = data.draw(st.integers(R, 12))
        values = bound_c2_star(R, l_max, np.array(grid), default_table)
        assert values.tolist() == [
            _c2_star_by_formula(R, l_max, d, default_table) for d in grid]

    @settings(deadline=None, max_examples=40)
    @given(grid=_open_grids, L=st.integers(1, 12))
    def test_c3(self, default_table, grid, L):
        values = bound_c3(L, np.array(grid), default_table)
        assert values.tolist() == [_c3_by_formula(L, d, default_table)
                                   for d in grid]

    @settings(deadline=None, max_examples=40)
    @given(grid=_open_grids)
    def test_weights_to_the_diagonal(self, grid):
        # every cell a table reaches, the single-deletion diagonal to 22
        # included, read from one grid whose power lists they all share
        weights = delcap.bounds._Grid(grid)
        for L in range(23):
            for R in range(L + 1):
                assert weights.weight(L, R).tolist() == [
                    binomial_weight(L, R, d).value for d in grid]

    def test_one_number_in_one_float_out(self, default_table):
        for value in (bound_c3(4, 0.3, default_table),
                      bound_c2_star(4, 12, 0.3, default_table),
                      bound_c1_star(2, 12, 0.3, default_table),
                      evaluate_bound(BoundSpec("erasure"), 0.3,
                                     default_table),
                      compose_best_upper(0.3, [BoundSpec("c3", {"L": 4})],
                                         default_table)[0]):
            assert type(value) is float

    @settings(deadline=None, max_examples=20)
    @given(grid=_open_grids)
    def test_compose_keeps_erasure_on_ties(self, default_table, grid):
        # c1_star at D=0 is the erasure bound itself at every d: the
        # tie goes to erasure over a grid as it does one d at a time
        specs = [BoundSpec("c1_star", {"D": 0, "l_max": 12}),
                 BoundSpec("c3", {"L": 6})]
        values, winners = compose_best_upper(np.array(grid), specs,
                                             default_table)
        for d, value, winner in zip(grid, values.tolist(), winners):
            assert winner.kind != "c1_star"
            assert (value, winner) == compose_best_upper(d, specs,
                                                         default_table)
        assert [w.kind for w in compose_best_upper(
            grid, specs[:1], default_table)[1]] == ["erasure"] * len(grid)


class TestGridCaches:
    """A grid computes each length weight and each power list once, and
    every bound evaluated on it reads the same array."""

    def test_best_specs_share_each_weight_and_power(self, default_table,
                                                    monkeypatch):
        returned = {"weight": [], "_power": []}  # (arguments, array)

        def spy(name):
            method = getattr(delcap.bounds._Grid, name)

            def wrapper(self, *key):
                array = method(self, *key)
                returned[name].append((key, array))
                return array
            monkeypatch.setattr(delcap.bounds._Grid, name, wrapper)

        spy("weight")
        spy("_power")
        grid = delcap.bounds._Grid(d_grid(0.05, 0.95, 0.05))
        compose_best_upper(grid, best_specs(default_table), default_table)
        for calls in returned.values():
            arrays = {}
            for key, array in calls:
                assert arrays.setdefault(key, array) is array
            assert len(calls) > len(arrays)  # the specs do share them
        cell = returned["weight"][0][0]
        assert grid.weight(*cell) is grid.weight(*cell)
        with pytest.raises(ValueError):
            grid.weight(*cell)[0] = 0.5


class TestGridAndSweep:
    def test_grid_values(self):
        assert d_grid(0.1, 0.9, 0.1) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                         0.8, 0.9]
        assert len(d_grid(0.01, 0.99, 0.01)) == 99
        assert d_grid(0.0, 1.0, 0.5) == [0.0, 0.5, 1.0]

    def test_grid_rejections(self):
        with pytest.raises(ParameterError):
            d_grid(0.1, 0.9, 0.0)
        with pytest.raises(ParameterError):
            d_grid(0.9, 0.1, 0.1)
        with pytest.raises(ParameterError):
            d_grid(0.0, 1.5, 0.1)
        for step in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="positive and finite"):
                d_grid(0.1, 0.9, step)

    def test_grid_point_cap(self):
        # 1e-5 over [0, 1] is exactly the cap; a step a hair finer is one
        # point past it, and a far finer one is refused before any work
        grid = d_grid(0.0, 1.0, 1e-5)
        assert len(grid) == MAX_GRID_POINTS == 100_001
        assert grid[:3] == [0.0, 1e-5, 2e-5] and grid[-1] == 1.0
        for step, points in ((0.99999e-5, 100_002), (1e-12, 10**12 + 1)):
            with pytest.raises(ParameterError, match=(
                    rf"^grid 0\.0:1\.0:{step} has {points} points,"
                    rf" more than 100001$")):
                d_grid(0.0, 1.0, step)

    def test_sweep_serves_endpoints_closed_form(self, default_table):
        curve = sweep_bound(BoundSpec("c4", {"L": 3}),
                            [0.0, 0.5, 1.0], default_table)
        (d0, v0, s0), (_, v_mid, _), (d1, v1, _) = curve.points
        assert (d0, v0, s0) == (0.0, 1.0, "upper")
        assert (d1, v1) == (1.0, 0.0)
        assert v_mid == bound_c4(3, 0.5)
        assert "l_max=12" in curve.provenance

    def test_sweep_lower_side_label(self, default_table):
        curve = sweep_bound(BoundSpec("lower_iud", {"L": 3}),
                            [0.0, 0.4], default_table)
        assert all(side == "lower" for _, _, side in curve.points)

    def test_sweep_invariants(self, default_table):
        curve = sweep_bound(BoundSpec("c3", {"L": 8}),
                            d_grid(0.05, 0.95, 0.05), default_table)
        for d, value, _ in curve.points:
            assert 0.0 <= value <= 1.0 - d


class TestResolveLMax:
    def test_walks_available_cells(self, default_table):
        assert resolve_l_max(default_table, "c1_star", D=1) == 14
        assert resolve_l_max(default_table, "c1_star", D=2) == 12
        assert resolve_l_max(default_table, "c1_star", D=0) == 14
        assert resolve_l_max(default_table, "c2_star", R=3) == 12

    def test_rejections(self):
        empty = CoefficientTable(l_max=0)
        with pytest.raises(ParameterError):
            resolve_l_max(empty, "c1_star", D=5)
        with pytest.raises(ParameterError):
            resolve_l_max(empty, "c3")
        with pytest.raises(ParameterError):
            resolve_l_max(empty, "c1_star")


class TestConjecture1:
    def test_reports_families_at_one_d(self, default_table):
        reports = conjecture1_report(0.5, default_table, max_c4_level=4)
        assert [r.lemma_id for r in reports] == [
            "conjecture1_c3", "conjecture1_c4", "conjecture1_c1_star",
            "conjecture1_c2_star"]
        # (instances, skipped): c3 and the genie families over the table's
        # 12 levels, c4 over its 4; trends read no cells, so none skip
        assert [(len(r.checked_instances), r.skipped) for r in reports] == [
            (11, 0), (3, 0), (12, 0), (12, 0)]
        by_id = {r.lemma_id: r for r in reports}
        assert by_id["conjecture1_c3"].violations == []

    def test_instances_are_labelled_by_their_left_value(self,
                                                        default_table):
        # each instance compares the bound at its parameter (left) with
        # the bound one step below (right)
        table = default_table
        family = {
            "conjecture1_c3": lambda L: bound_c3(L, 0.5, table),
            "conjecture1_c4": lambda L: bound_c4(
                L, 0.5, max_iterations=table.max_iterations,
                entry_budget=table.entry_budget),
            "conjecture1_c1_star": lambda D: bound_c1_star(
                D, resolve_l_max(table, "c1_star", D=D), 0.5, table),
            "conjecture1_c2_star": lambda R: bound_c2_star(
                R, resolve_l_max(table, "c2_star", R=R), 0.5, table),
        }
        for report in conjecture1_report(0.5, table, max_c4_level=4):
            bound = family[report.lemma_id]
            for inst in report.checked_instances:
                [parameter] = inst.parameters.values()
                assert inst.left_side == bound(parameter), report.lemma_id
                assert inst.right_side == bound(parameter - 1)

    def test_rejects_endpoints(self, default_table):
        with pytest.raises(ParameterError):
            conjecture1_report(0.0, default_table)
