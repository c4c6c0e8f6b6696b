import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import delcap.baa
import delcap.workers
from delcap import (BaaResult, ParameterError, build_binomial_deletion_channel,
                    build_fixed_deletion_channel, mutual_information,
                    solve_capacity)
from delcap.channel import SparseChannel, orbit_channel, orbit_stack

from conftest import cpus, package_env
from reference_values import F_REFERENCE, bracket_matches_reference


def binary_symmetric(p):
    return SparseChannel(
        indptr=np.array([0, 2, 4]),
        indices=np.array([0, 1, 0, 1]),
        probs=np.array([1 - p, p, p, 1 - p]),
        input_length=1,
        output_lengths=np.array([1, 1], dtype=np.int8),
        output_values=np.array([0, 1]),
    )


def binary_erasure(e):
    # third output is the erasure flag, printed as the empty label
    return SparseChannel(
        indptr=np.array([0, 2, 4]),
        indices=np.array([0, 2, 1, 2]),
        probs=np.array([1 - e, e, 1 - e, e]),
        input_length=1,
        output_lengths=np.array([1, 1, 0], dtype=np.int8),
        output_values=np.array([0, 1, 0]),
    )


def plain_blahut_arimoto(channel, tolerance):
    """The unaccelerated loop: (iterations, lower, upper) in bits."""
    log_r = np.zeros(channel.input_count)
    for it in range(1, 20001):
        w = np.exp(log_r - log_r.max())
        r = w / w.sum()
        div = delcap.baa._divergences(channel, r)
        lower = float(r @ div)
        upper = max(float(div.max()), lower)
        if upper - lower <= tolerance * math.log(2.0):
            break
        log_r += div
        log_r -= log_r.max()
    return it, lower / math.log(2.0), upper / math.log(2.0)


@st.composite
def small_channels(draw):
    """Random DMC with 2-8 inputs and 2-8 outputs, every row non-empty."""
    n_in = draw(st.integers(2, 8))
    n_out = draw(st.integers(2, 8))
    weight = st.floats(0.05, 1.0)
    rows = draw(st.lists(
        st.lists(st.one_of(st.just(0.0), weight), min_size=n_out,
                 max_size=n_out).filter(any),
        min_size=n_in, max_size=n_in))
    indptr, indices, probs = [0], [], []
    for row in rows:
        total = sum(row)
        for j, w in enumerate(row):
            if w > 0.0:
                indices.append(j)
                probs.append(w / total)
        indptr.append(len(indices))
    return SparseChannel(
        indptr=np.array(indptr), indices=np.array(indices),
        probs=np.array(probs), input_length=3,
        output_lengths=np.full(n_out, 3, dtype=np.int8),
        output_values=np.arange(n_out))


def mi_oracle(channel, dist):
    """Direct I(X;Y) from the definition, no shared code with the solver."""
    q = {}
    for i, w in enumerate(dist):
        for j, p in channel.row(i):
            q[j] = q.get(j, 0.0) + w * p
    total = 0.0
    for i, w in enumerate(dist):
        for j, p in channel.row(i):
            if w > 0.0:
                total += w * p * math.log2(p / q[j])
    return total


class TestClosedFormChannels:
    def test_identity_reaches_block_length(self):
        channel = build_fixed_deletion_channel(3, 3)
        result = solve_capacity(channel, tolerance=1e-9)
        assert result.converged
        assert result.capacity_lower == pytest.approx(3.0, abs=1e-9)
        assert result.capacity_upper == pytest.approx(3.0, abs=1e-9)

    def test_single_output_is_useless(self):
        result = solve_capacity(build_fixed_deletion_channel(4, 0))
        assert result.converged and result.iterations == 1
        assert result.capacity_lower == 0.0
        assert result.capacity_upper == 0.0

    def test_erasure_channel(self):
        for e in (0.1, 0.5, 0.93):
            result = solve_capacity(binary_erasure(e), tolerance=1e-10)
            assert result.converged
            assert result.capacity_upper == pytest.approx(1 - e, abs=1e-9)

    def test_underflowed_weights_give_noiseless_capacity(self):
        # at d = 1e-200 every length weight but the top two is 0.0 in
        # float64; those stored zeros count as 0 log 0 = 0 in both forms
        channel = build_binomial_deletion_channel(4, 1e-200)
        for form in (channel, orbit_channel(channel)):
            result = solve_capacity(form)
            assert result.converged
            assert result.capacity_lower == pytest.approx(4.0, abs=1e-12)

    def test_symmetric_channel(self):
        p = 0.11
        closed = 1 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
        result = solve_capacity(binary_symmetric(p), tolerance=1e-10)
        assert result.converged
        assert result.capacity_lower == pytest.approx(closed, abs=1e-9)


class TestBracket:
    def test_3_2_bracket_matches_reference(self):
        result = solve_capacity(build_fixed_deletion_channel(3, 2))
        assert result.converged
        assert result.capacity_upper - result.capacity_lower <= 5e-3
        assert bracket_matches_reference(
            result.capacity_lower, result.capacity_upper, F_REFERENCE[(3, 2)])

    def test_bracket_valid_even_unconverged(self):
        channel = build_fixed_deletion_channel(3, 2)
        result = solve_capacity(channel, max_iterations=2)
        assert not result.converged
        assert result.iterations == 2
        assert result.tolerance_achieved > 5e-3
        full = solve_capacity(channel, tolerance=1e-6)
        assert result.capacity_lower <= full.capacity_lower + 1e-12
        assert result.capacity_upper >= full.capacity_upper - 1e-12

    def test_lower_estimates_never_backtrack(self):
        seen = []
        result = solve_capacity(build_fixed_deletion_channel(4, 2),
                                on_iteration=lambda it, lo, hi: seen.append(
                                    (it, lo, hi)))
        assert [it for it, _, _ in seen] == list(range(1, result.iterations + 1))
        lowers = [lo for _, lo, _ in seen]
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
        assert all(hi >= lo for _, lo, hi in seen)
        assert seen[-1][1] == result.capacity_lower
        assert seen[-1][2] == result.capacity_upper

    def test_returned_distribution_achieves_lower(self):
        for channel in (build_fixed_deletion_channel(5, 3),
                        build_binomial_deletion_channel(4, 0.3)):
            result = solve_capacity(channel)
            info = mutual_information(channel, result.input_distribution)
            assert info == result.capacity_lower

    def test_deterministic_reruns(self):
        channel = build_fixed_deletion_channel(5, 2)
        a = solve_capacity(channel)
        b = solve_capacity(channel)
        assert a.capacity_lower == b.capacity_lower
        assert a.capacity_upper == b.capacity_upper
        assert a.iterations == b.iterations
        assert np.array_equal(a.input_distribution, b.input_distribution)


class TestMutualInformation:
    def test_matches_definition(self):
        channel = build_binomial_deletion_channel(3, 0.3)
        dist = np.arange(1.0, 9.0)
        dist /= dist.sum()
        assert mutual_information(channel, dist) == pytest.approx(
            mi_oracle(channel, dist), abs=1e-12)

    def test_uniform_on_symmetric_channel(self):
        p = 0.2
        closed = 1 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
        info = mutual_information(binary_symmetric(p), np.array([0.5, 0.5]))
        assert info == pytest.approx(closed, abs=1e-12)

    def test_point_mass_gives_zero(self):
        channel = build_fixed_deletion_channel(3, 2)
        info = mutual_information(channel, np.array([1.0] + [0.0] * 7))
        assert info == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_distributions(self):
        channel = build_fixed_deletion_channel(2, 1)
        with pytest.raises(ParameterError):
            mutual_information(channel, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ParameterError):
            mutual_information(channel, np.array([0.75, 0.5, -0.25, 0.0]))
        with pytest.raises(ParameterError):
            mutual_information(channel, np.array([0.3, 0.3, 0.3, 0.3]))


# the lower estimate of one step and the mutual information of a
# 100,000-input channel, whose dots OpenBLAS would split across threads
BLAS_SCRIPT = """
import numpy as np
from delcap.baa import _iterate, mutual_information
from delcap.channel import SparseChannel

n, m = 100_000, 1_000
rng = np.random.default_rng(0)
law = rng.random(n)
law /= law.sum()
column = _iterate(np.zeros(n), 1.0, 1, None)
next(column)
try:
    column.send((law, rng.random(n)))
except StopIteration as done:
    print(done.value.capacity_lower.hex())
first = rng.integers(0, m - 1, n)
weight = rng.uniform(0.1, 0.9, n)
channel = SparseChannel(
    np.arange(0, 2 * n + 1, 2),
    np.stack([first, rng.integers(first + 1, m)], axis=1).ravel(),
    np.stack([weight, 1.0 - weight], axis=1).ravel(),
    17, np.full(m, 10, dtype=np.int8), np.arange(m))
print(mutual_information(channel, law).hex())
"""


class TestBlasThreads:
    def test_dots_keep_their_bits_on_one_blas_thread(self):
        # fails only where OpenBLAS may run more than one thread
        env = package_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        runs = [subprocess.run([sys.executable, "-c", BLAS_SCRIPT], env=run,
                               capture_output=True, text=True, check=True,
                               timeout=120).stdout
                for run in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})]
        assert len(runs[0].split()) == 2
        assert runs[0] == runs[1]


class TestOverRelaxedSteps:
    @settings(deadline=None)
    @given(small_channels())
    def test_certificate_comes_from_one_law(self, channel):
        lowers = []
        result = solve_capacity(channel, tolerance=1e-3,
                                on_iteration=lambda it, lo, hi: lowers.append(lo))
        _, plain_lower, plain_upper = plain_blahut_arimoto(channel, 1e-3)
        # both brackets hold the capacity, up to binary64 rounding
        assert result.capacity_lower <= plain_upper + 1e-12
        assert plain_lower <= result.capacity_upper + 1e-12
        law = result.input_distribution
        assert mutual_information(channel, law) == result.capacity_lower
        top = float(delcap.baa._divergences(channel, law).max()) / math.log(2.0)
        assert result.capacity_upper == max(top, result.capacity_lower)
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))

    def test_acceleration_is_on_and_fallback_is_safe(self, monkeypatch):
        # per-input steps: 24 evaluations against 141 plain at L=8, d=0.5
        fast = build_binomial_deletion_channel(8, 0.5)
        plain_iterations, _, _ = plain_blahut_arimoto(fast, 5e-3)
        assert solve_capacity(fast).iterations <= 0.25 * plain_iterations
        divergences = delcap.baa._divergences
        trials = []  # I of every trial law, in bits, as the solver computes it

        def spy(ch, dist):
            div = divergences(ch, dist)
            trials.append(float(dist @ div) / math.log(2.0))
            return div

        monkeypatch.setattr(delcap.baa, "_divergences", spy)
        lowers = []
        # at d=0.7 some over-relaxed trials overshoot and are rejected
        result = solve_capacity(build_binomial_deletion_channel(8, 0.7),
                                on_iteration=lambda it, lo, hi: lowers.append(lo))
        assert result.converged
        assert len(trials) == len(lowers) == result.iterations
        rejected = [i for i in range(1, len(trials)) if trials[i] < lowers[i - 1]]
        assert rejected
        assert all(lowers[i] == lowers[i - 1] for i in rejected)
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))


def assert_orbit_solve_agrees(channel):
    """Solved on its complement x reversal orbits, the channel gets a
    bracket that meets the full solve's, from one kept law on orbits."""
    full = solve_capacity(channel)
    reduced_channel = orbit_channel(channel)
    reduced = solve_capacity(reduced_channel)
    assert full.converged and reduced.converged
    assert reduced.capacity_lower <= full.capacity_upper + 1e-12
    assert full.capacity_lower <= reduced.capacity_upper + 1e-12
    law = reduced.input_distribution
    assert mutual_information(reduced_channel, law) == reduced.capacity_lower


class TestOrbitSolve:
    @settings(deadline=None)
    @given(st.integers(1, 10), st.floats(0.001, 0.999))
    def test_binomial_brackets_overlap(self, L, d):
        assert_orbit_solve_agrees(build_binomial_deletion_channel(L, d))

    def test_fixed_brackets_overlap(self):
        for L in range(11):
            for R in range(L + 1):
                assert_orbit_solve_agrees(build_fixed_deletion_channel(L, R))


def assert_same_result(column, alone):
    assert column.capacity_lower == alone.capacity_lower
    assert column.capacity_upper == alone.capacity_upper
    assert column.iterations == alone.iterations
    assert column.tolerance_achieved == alone.tolerance_achieved
    assert column.converged == alone.converged
    assert np.array_equal(column.input_distribution, alone.input_distribution)


def stack_cases(test):
    """Draw a d-stack for test(self, L, ds, tolerance, max_iterations)."""
    # 0.1 closes after 5 evaluations and 0.5 after 24; 0.7 hits the cap,
    # and runs alone once the others close
    test = example(8, [0.1, 0.7, 0.5], 5e-3, 30)(test)
    # (8, 0.7) rejects its over-relaxed trials at evaluations 9, 22 and 36
    test = example(8, [0.7, 0.3, 0.7, 1e-200], 5e-3, 20000)(test)
    return settings(deadline=None, max_examples=40)(given(
        st.integers(1, 9),
        st.lists(st.sampled_from([1e-200, 0.05, 0.3, 0.5, 0.7, 0.95])
                 | st.floats(0.001, 0.999), min_size=1, max_size=6),
        st.floats(1e-4, 0.05),
        st.sampled_from([20000, 1, 3, 10, 30]))(test))


def assert_same_stack(got, want):
    assert len(got.columns) == len(want.columns)
    for column, reference in zip(got.columns, want.columns):
        assert_same_result(column, reference)
    assert got.iterations == want.iterations
    assert got.tolerance_achieved == want.tolerance_achieved
    assert got.converged == want.converged


class TestStackedSolve:
    """Binomial channels of one block length, stacked on their shared
    counts, are solved in one pass; each must get the result it gets
    alone, bit for bit."""

    @stack_cases
    def test_stack_equals_each_channel_alone(self, L, ds, tolerance,
                                             max_iterations):
        channels = [build_binomial_deletion_channel(L, d) for d in ds]
        stacked = solve_capacity(orbit_stack(channels), tolerance,
                                 max_iterations)
        assert len(stacked.columns) == len(ds)
        for channel, column in zip(channels, stacked.columns):
            assert_same_result(column, solve_capacity(
                orbit_channel(channel), tolerance, max_iterations))
        assert stacked.iterations == sum(
            column.iterations for column in stacked.columns)
        assert stacked.tolerance_achieved == max(
            column.tolerance_achieved for column in stacked.columns)
        assert stacked.converged == all(
            column.converged for column in stacked.columns)

    @pytest.mark.parametrize("count", [2, 3, 4])
    @stack_cases
    def test_split_stack_equals_serial_and_alone(self, count, L, ds,
                                                 tolerance, max_iterations):
        channels = [build_binomial_deletion_channel(L, d) for d in ds]
        stack = orbit_stack(channels)
        serial = solve_capacity(stack, tolerance, max_iterations)
        with cpus(count):
            split = solve_capacity(stack, tolerance, max_iterations)
        assert_same_stack(split, serial)
        for channel, column in zip(channels, split.columns):
            assert_same_result(column, solve_capacity(
                orbit_channel(channel), tolerance, max_iterations))

    def test_one_channel_at_the_cap_while_the_others_close(self):
        ds = (0.1, 0.7, 0.5)
        stacked = solve_capacity(orbit_stack(
            [build_binomial_deletion_channel(8, d) for d in ds]),
            max_iterations=30)
        assert [c.iterations for c in stacked.columns] == [5, 30, 24]
        assert [c.converged for c in stacked.columns] == [True, False, True]
        # the totals are plain Python scalars, as a trace record needs
        assert type(stacked.iterations) is int and stacked.iterations == 59
        assert type(stacked.tolerance_achieved) is float
        assert stacked.converged is False

    def test_large_stack_splits_on_its_own(self, monkeypatch):
        # L=12 counts hold 172,596 entries, 1.04M over six laws, above
        # the split threshold
        splits = []
        run_shares = delcap.baa.run_shares
        monkeypatch.setattr(delcap.baa, "run_shares", lambda work, shares: (
            splits.append(len(shares)) or run_shares(work, shares)))
        stack = orbit_stack([build_binomial_deletion_channel(12, d)
                             for d in (0.1, 0.3, 0.5, 0.6, 0.8, 0.9)])
        stacked = solve_capacity(stack)
        available = delcap.workers.cpu_count()
        assert splits == ([min(available, 6)] if available > 1 else [])
        for i, column in enumerate(stacked.columns):
            assert_same_result(column, solve_capacity(
                delcap.baa._rows(stack, i)))
        assert multiprocessing.active_children() == []

    def test_error_in_a_worker_stops_every_group(self, monkeypatch):
        # laws 0 and 3 run in this process, 1 and 4 on the first worker,
        # which fails, and law 2 on the second, which would never end
        parent = os.getpid()
        solve_stack = delcap.baa._solve_stack

        def failing(stack, columns):
            if os.getpid() != parent:
                if len(columns) == 2:
                    raise RuntimeError("worker failed")
                time.sleep(600)
            return solve_stack(stack, columns)

        monkeypatch.setattr(delcap.baa, "_solve_stack", failing)
        stack = orbit_stack([build_binomial_deletion_channel(8, d)
                             for d in (0.2, 0.4, 0.6, 0.8, 0.9)])
        start = time.monotonic()
        with cpus(3), pytest.raises(RuntimeError, match="worker failed"):
            solve_capacity(stack)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_interrupt_on_the_calling_thread_stops_every_group(
            self, monkeypatch):
        parent = os.getpid()
        solve_stack = delcap.baa._solve_stack

        def interrupted(stack, columns):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return solve_stack(stack, columns)

        monkeypatch.setattr(delcap.baa, "_solve_stack", interrupted)
        stack = orbit_stack([build_binomial_deletion_channel(12, d)
                             for d in (0.2, 0.4, 0.6, 0.8)])
        start = time.monotonic()
        with cpus(2), pytest.raises(KeyboardInterrupt):
            # the worker's group alone would take minutes
            solve_capacity(stack, 1e-12, 20000)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count, split_min_entries, callback, daemon", [
        (1, 0, False, False),
        (4, delcap.baa._SPLIT_MIN_ENTRIES, False, False),
        (4, 0, True, False),
        (4, 0, False, True)],
        ids=["one-cpu", "below-threshold", "callback", "daemonic"])
    def test_serial_where_it_cannot_or_need_not_split(
            self, monkeypatch, count, split_min_entries, callback, daemon):
        stack = orbit_stack([build_binomial_deletion_channel(8, d)
                             for d in (0.2, 0.4, 0.6, 0.8)])
        assert stack._matrix_t.nnz * 4 < delcap.baa._SPLIT_MIN_ENTRIES
        serial = solve_capacity(stack)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        if daemon:
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: SimpleNamespace(daemon=True))
        calls = []
        on_iteration = (lambda *bracket: calls.append(bracket)) if callback \
            else None
        with cpus(count, split_min_entries):
            assert_same_stack(solve_capacity(
                stack, on_iteration=on_iteration), serial)
        assert len(calls) == (serial.iterations if callback else 0)

    def test_uniform_information_in_one_pass(self):
        ds = [0.1, 1e-200, 0.6, 0.1]
        channels = [build_binomial_deletion_channel(6, d) for d in ds]
        stack = orbit_stack(channels)
        law = stack.input_sizes / 2 ** 6
        alone = [mutual_information(orbit_channel(c), law) for c in channels]
        assert mutual_information(stack, law) == alone

    def test_stack_rejects_mixed_channels(self):
        with pytest.raises(ParameterError):
            orbit_stack([build_binomial_deletion_channel(4, 0.5),
                         build_binomial_deletion_channel(5, 0.5)])
        with pytest.raises(ParameterError):
            orbit_stack([build_binomial_deletion_channel(2, 0.5),
                         build_fixed_deletion_channel(2, 1)])


@dataclass(frozen=True)
class ExplicitCsr:
    """The solver's view of a channel with C and C^T both explicit CSR
    copies, as channels held them before C became a CSC view of C^T
    (and C^T, on a full channel, a CSC view of C)."""

    _matrix: sparse.csr_array
    _matrix_t: sparse.csr_array
    _column_weights: object
    _row_plogp: np.ndarray
    input_sizes: np.ndarray

    @classmethod
    def of(cls, channel):
        # C from the one CSR matrix the channel holds, not from its view
        held = (channel._matrix if channel._matrix.format == "csr"
                else channel._matrix_t.T)
        c = sparse.csr_array(held)
        return cls(c, sparse.csr_array(c.T), channel._column_weights,
                   channel._row_plogp, channel.input_sizes)


def assert_same_solve(channel, tolerance, max_iterations=20000):
    got = solve_capacity(channel, tolerance, max_iterations)
    want = solve_capacity(ExplicitCsr.of(channel), tolerance, max_iterations)
    for column, reference in zip(getattr(got, "columns", [got]),
                                 getattr(want, "columns", [want])):
        assert_same_result(column, reference)
    return got


class TestOneMatrix:
    """The products on a channel's one stored matrix and its view give the
    solve that explicit CSR copies give, bit for bit."""

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 9).flatmap(
        lambda L: st.tuples(st.just(L), st.integers(0, L))),
        st.floats(1e-4, 0.05))
    @example((9, 5), 1e-4)
    def test_fixed_cell(self, cell, tolerance):
        assert_same_solve(orbit_channel(build_fixed_deletion_channel(*cell)),
                          tolerance)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 9),
           st.lists(st.floats(0.001, 0.999), min_size=2, max_size=5),
           st.sampled_from([20000, 10, 30]))
    def test_d_stack(self, L, ds, max_iterations):
        assert_same_solve(orbit_stack(
            [build_binomial_deletion_channel(L, d) for d in ds]),
            5e-3, max_iterations)

    @pytest.mark.parametrize("count", [2, 3, 4])
    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 9),
           st.lists(st.floats(0.001, 0.999), min_size=2, max_size=5),
           st.sampled_from([20000, 10, 30]))
    @example(8, [0.1, 0.7, 0.5], 30)
    def test_split_d_stack(self, count, L, ds, max_iterations):
        stack = orbit_stack([build_binomial_deletion_channel(L, d)
                             for d in ds])
        serial = solve_capacity(stack, 5e-3, max_iterations)
        with cpus(count):
            assert_same_stack(assert_same_solve(stack, 5e-3, max_iterations),
                              serial)

    def test_d_stack_whose_last_law_runs_alone(self):
        # 0.1 closes after 5 evaluations and 0.5 after 24; 0.7 then runs
        # alone, on the single-law products, to the cap of 30
        result = assert_same_solve(orbit_stack(
            [build_binomial_deletion_channel(8, d) for d in (0.1, 0.7, 0.5)]),
            5e-3, 30)
        assert [c.iterations for c in result.columns] == [5, 30, 24]

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 7), st.floats(0.001, 0.999),
           st.floats(1e-5, 0.05))
    def test_full_channel(self, L, d, tolerance):
        assert_same_solve(build_binomial_deletion_channel(L, d), tolerance)
        assert_same_solve(build_fixed_deletion_channel(L, L // 2), tolerance)


class TestValidation:
    def test_solver_rejects_bad_controls(self):
        channel = build_fixed_deletion_channel(2, 1)
        with pytest.raises(ParameterError):
            solve_capacity(channel, tolerance=0.0)
        with pytest.raises(ParameterError):
            solve_capacity(channel, tolerance=-1e-3)
        with pytest.raises(ParameterError):
            solve_capacity(channel, max_iterations=0)

    def test_result_is_plain_record(self):
        result = solve_capacity(build_fixed_deletion_channel(2, 1))
        assert isinstance(result, BaaResult)
        assert result.tolerance_achieved <= 5e-3
