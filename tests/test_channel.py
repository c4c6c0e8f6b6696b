import dataclasses
import functools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import delcap.bounds
import delcap.channel
from delcap import (DEFAULT_ENTRY_BUDGET, BitString, ParameterError,
                    ResourceLimitError, binomial_weight,
                    build_binomial_deletion_channel,
                    build_fixed_deletion_channel, dump_channel,
                    embedding_count)
from delcap.baa import _divergences
from delcap.channel import (Compressed, _cell_folds, _count_rows,
                            _fold_length, _label_orbits, _orbit_store,
                            _stack_folds, _weigh, block_entries,
                            count_blocks)

from conftest import as_scipy
from reference_values import FIXED_3_2_FRACTIONS


def exact_row_by_bits(channel, input_bits):
    i = int(input_bits, 2) if input_bits else 0
    return {channel.output_label(j).bits(): fr
            for j, fr in channel.row_exact(i)}


def reverse(label):
    return BitString.from_bits(label.bits()[::-1])


def assert_commutes(channel, transform):
    """Row transform(x) is row x with every output label transformed."""
    for i in range(channel.input_count):
        image = transform(channel.input_label(i)).value
        moved = {transform(channel.output_label(j)): p
                 for j, p in channel.row(i)}
        assert moved == {channel.output_label(j): p
                         for j, p in channel.row(image)}


def assert_counts_match(indptr, indices, counts, reference, dtype):
    """The stored (row, id) pairs are exactly the nonzero reference counts,
    each row's ids strictly increasing (sorted, no duplicates), and every
    array of the given dtype."""
    assert indptr.dtype == indices.dtype == counts.dtype == dtype
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        assert np.all(np.diff(indices[lo:hi]) > 0)
    assert np.all(counts > 0)
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    stored = np.zeros_like(reference)
    stored[rows, indices] = counts
    assert np.array_equal(stored, reference)


def eager_fold(L, indptr, indices, counts, output_lengths, output_values):
    """Reference fold of full count rows onto orbits, every output length
    at once: (C transposed, H, column lengths, representatives,
    input_sizes, output_sizes), as the package folded before it folded one
    length at a time. C is folded as CSR and transposed last."""
    _, representatives, input_sizes = _label_orbits(L)
    out_orbit = np.empty(len(output_lengths), dtype=np.int32)
    sizes, lengths = [], []
    for r in np.unique(output_lengths):
        index, _, orbit_sizes = _label_orbits(int(r))
        at = output_lengths == r
        out_orbit[at] = sum(map(len, sizes)) + index[output_values[at]]
        sizes.append(orbit_sizes)
        lengths.append(np.full(len(orbit_sizes), r, dtype=np.int8))
    output_sizes = np.concatenate(sizes)
    column_lengths = np.concatenate(lengths)
    rows = sparse.csr_array((counts, indices, indptr), shape=(
        len(indptr) - 1, len(output_lengths)))[representatives]
    c = rows.data.astype(np.float64)
    c_log_c = np.log(c)
    c_log_c *= c

    def by_length(values, lengths, indptr):
        # sums each row's values per length: toarray adds up duplicates
        return sparse.csr_array((values, lengths, indptr),
                                shape=(len(indptr) - 1, L + 1)).toarray()

    h = by_length(c_log_c, output_lengths[rows.indices], rows.indptr)
    matrix = sparse.csr_array((c, out_orbit[rows.indices], rows.indptr.copy()),
                              shape=(len(representatives), len(output_sizes)))
    matrix.sum_duplicates()
    h += by_length(matrix.data * np.log(output_sizes)[matrix.indices],
                   column_lengths[matrix.indices], matrix.indptr)
    return (matrix.T.tocsr(), h, column_lengths,
            representatives, input_sizes.astype(np.float64), output_sizes)


def assert_same_csr(a, b):
    """Two CSR matrices agree bit for bit, dtypes included."""
    assert a.format == b.format == "csr" and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_same_store(got, want):
    """A folded store agrees bit for bit, dtypes included, with eager_fold's,
    whose H has a column for every length: its H is the oracle's over the
    folded lengths, and its columns' parts name the oracle's lengths."""
    counts_t, h, lengths, column_parts, *rest = got
    want_t, want_h, want_lengths, *want_rest = want
    assert_same_csr(counts_t, want_t)
    pairs = [(h, want_h[:, lengths]), (lengths[column_parts], want_lengths)]
    assert len(rest) == len(want_rest)
    for x, y in pairs + list(zip(rest, want_rest)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def _stack_twice(block, shift, width):
    """[block; block with every column + shift] as a CSR of the given width."""
    return sparse.csr_array(
        (np.concatenate([block.data, block.data]),
         np.concatenate([block.indices, block.indices + shift]),
         np.concatenate([block.indptr, block.indptr[1:] + block.nnz])),
        shape=(2 * block.shape[0], width))


@functools.cache
def oracle_level(l):
    """Reference count blocks (l, 0), ..., (l, l) from the plain leading-bit
    recursion on whole blocks through scipy's public sum: block (l, r) is
    [P; P with columns + 2^(r-1)] + [S; S], with P = block (l-1, r-1) and
    S = block (l-1, r). Shared between tests, so never written to."""
    if l == 0:
        return (sparse.csr_array(np.ones((1, 1), dtype=np.int32)),)
    below = oracle_level(l - 1)
    blocks = []
    for r in range(l + 1):
        halves = []
        if r > 0:
            halves.append(_stack_twice(below[r - 1], 1 << (r - 1), 1 << r))
        if r < l:
            halves.append(_stack_twice(below[r], 0, 1 << r))
        blocks.append(sum(halves[1:], halves[0]))
    return tuple(blocks)


def oracle_structure(L):
    """The binomial skeleton of L from the reference blocks: (indptr,
    indices, counts, output lengths, output values), as
    _count_rows lays it out."""
    stacked = sparse.hstack(oracle_level(L), format="csr")
    sizes = [1 << r for r in range(L + 1)]
    return (stacked.indptr, stacked.indices, stacked.data,
            np.repeat(np.arange(L + 1, dtype=np.int8), sizes),
            np.concatenate([np.arange(size) for size in sizes]))


@functools.cache
def dense_counts(L, R):
    """embedding_count of every input of length L into every output of
    length R, as a dense matrix."""
    return np.array([[embedding_count(BitString(x, L), BitString(y, R))
                      for y in range(1 << R)] for x in range(1 << L)],
                    dtype=np.int64)


def _row_sums(values, like):
    """Sum of values over each row of the CSR like, through scipy's
    public product."""
    return sparse.csr_array((values, like.indices, like.indptr),
                            shape=like.shape) @ np.ones(like.shape[1])


def _widened(rows, r):
    """Rows of a block (l, r-1) as counts into the length-r outputs: their
    columns keep their values, those of the outputs with a leading 0."""
    return sparse.csr_array((rows.data, rows.indices, rows.indptr),
                            shape=(rows.shape[0], 1 << r))


def arrays(matrix):
    """A CSR matrix as the (indptr, indices, data) the walk passes on."""
    return matrix.indptr, matrix.indices, matrix.data


class TestFixedChannel:
    def test_3_2_matches_published_fractions(self):
        channel = build_fixed_deletion_channel(3, 2)
        channel.validate()
        seen = {}
        for bits in ("000", "001", "010", "011", "100", "101", "110", "111"):
            for out_bits, fr in exact_row_by_bits(channel, bits).items():
                seen[(bits, out_bits)] = fr
        assert seen == FIXED_3_2_FRACTIONS

    def test_rows_are_exact_embedding_ratios(self):
        L, R = 5, 3
        channel = build_fixed_deletion_channel(L, R)
        den = math.comb(L, L - R)
        for i in range(1 << L):
            a = BitString(i, L)
            row = dict(channel.row_exact(i))
            for j in range(1 << R):
                count = embedding_count(a, BitString(j, R))
                if count:
                    assert row[j] == Fraction(count, den)
                else:
                    assert j not in row

    def test_counts_match_reference(self):
        for L in range(8):
            for R in range(L + 1):
                channel = build_fixed_deletion_channel(L, R)
                reference = np.array(
                    [[embedding_count(BitString(x, L), BitString(y, R))
                      for y in range(1 << R)] for x in range(1 << L)],
                    dtype=np.int64)
                assert_counts_match(channel.indptr, channel.indices,
                                    channel.exact_numerators, reference,
                                    np.int32)

    def test_every_survivor_length_matches_r(self):
        L = 6
        for R in range(L + 1):
            channel = build_fixed_deletion_channel(L, R)
            channel.validate()
            assert channel.output_count == 1 << R
            assert all(int(x) == R for x in channel.output_lengths)

    def test_complement_commutes(self):
        channel = build_fixed_deletion_channel(5, 2)
        for i in range(32):
            row = {channel.output_label(j).bits(): fr
                   for j, fr in channel.row_exact(i)}
            comp = BitString(i, 5).complement()
            comp_row = {channel.output_label(j).complement().bits(): fr
                        for j, fr in channel.row_exact(comp.value)}
            assert row == comp_row

    def test_reversal_commutes(self):
        for L, R in ((5, 2), (6, 4)):
            assert_commutes(build_fixed_deletion_channel(L, R), reverse)

    def test_validate_passes_across_sizes(self):
        for L, R in ((1, 0), (1, 1), (3, 2), (8, 4), (9, 8)):
            build_fixed_deletion_channel(L, R).validate()

    def test_resource_refusals(self):
        with pytest.raises(ResourceLimitError):
            build_fixed_deletion_channel(23, 11)
        with pytest.raises(ResourceLimitError):
            build_fixed_deletion_channel(12, 6, entry_budget=1000)
        with pytest.raises(ParameterError):
            build_fixed_deletion_channel(3, 4)
        # the cap alone: (23, 2) may need 2^23 * 4 = 2^25 entries, under
        # the default budget
        assert (1 << 25) < DEFAULT_ENTRY_BUDGET
        with pytest.raises(ResourceLimitError,
                           match=r"^L=23 beyond the block-length cap 22$"):
            build_fixed_deletion_channel(23, 2)


def _cells_to(l_max):
    return st.integers(0, l_max).flatmap(
        lambda L: st.tuples(st.just(L), st.integers(0, L)))


_cells = _cells_to(10)

# cell sets whose walks read a representative's mirrored row, that is a
# row A with a leading 1, from a block's leading-0 half: L = 4..10 at
# R = 0, at R = L, and with gaps in the band of every level
_MIRRORED = ([(L, 0) for L in range(4, 11)], [(L, L) for L in range(4, 11)],
             [(L, R) for L in range(4, 11) for R in (0, 2, L)])


class TestCountWalk:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(_cells, min_size=1, max_size=12))
    @example([(L, L - 1) for L in range(3, 11)])  # a diagonal alone
    @example([(10, 2), (10, 9)])  # a gap in the band of every level
    @example([(2, 1), (9, 8), (10, 0), (3, 1), (3, 1)])
    def test_walk_equals_one_cell_walks(self, cells):
        walked = list(count_blocks(cells))
        assert [(L, R) for L, R, _ in walked] == sorted(set(cells))
        for L, R, block in walked:
            [(_, _, alone)] = count_blocks([(L, R)])
            for name in ("indptr", "indices", "data"):
                got, want = getattr(block, name), getattr(alone, name)
                assert got.dtype == want.dtype == np.int32
                assert np.array_equal(got, want), (L, R, name)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(_cells_to(12), min_size=1, max_size=10))
    @example(_MIRRORED[0])
    @example(_MIRRORED[1])
    @example(_MIRRORED[2])
    @example([(12, 0), (12, 6), (12, 12), (0, 0)])
    def test_walk_equals_full_block_recursion(self, cells):
        # the halves, their mirrors and the completed blocks against the
        # whole-block recursion, and against embedding_count up to L = 8
        walked = list(count_blocks(cells))
        assert [(L, R) for L, R, _ in walked] == sorted(set(cells))
        for L, R, block in walked:
            assert_same_csr(block, oracle_level(L)[R])
            assert block.has_canonical_format
            if L <= 8:
                assert np.array_equal(block.toarray(), dense_counts(L, R))

    def test_closed_form_block_sizes(self):
        cells = [(L, r) for L in range(13) for r in range(L + 1)]
        for L, r, block in count_blocks(cells):
            assert block_entries(L, r) == block.nnz, (L, r)
        assert sum(block_entries(12, r) for r in range(13)) == 1058786

    def test_fixed_channel_forms_its_block_on_first_read(self, monkeypatch):
        [(_, _, fold)] = _cell_folds([(6, 4)])
        channel = build_fixed_deletion_channel(6, 4)
        assert channel.entry_count == block_entries(6, 4)
        for name in ("indptr", "indices", "exact_numerators", "probs"):
            assert name not in vars(channel)
        [(_, _, block)] = count_blocks([(6, 4)])
        # folded() folds the handed fold, and walks no counts of its own
        with monkeypatch.context() as patch:
            patch.setattr(delcap.channel, "_cell_folds", None)
            assert_same_csr(channel.folded(fold)._matrix_t, eager_fold(
                6, block.indptr, block.indices, block.data,
                np.full(16, 4, dtype=np.int8), np.arange(16))[0])
        assert "indptr" not in vars(channel)
        for field, name in (("indptr", "indptr"), ("indices", "indices"),
                            ("exact_numerators", "data")):
            got, want = getattr(channel, field), getattr(block, name)
            assert got.dtype == want.dtype == np.int32
            assert np.array_equal(got, want), field
        assert channel.entry_count == len(channel.indices)
        assert np.array_equal(channel.probs, block.data / math.comb(6, 2))
        channel.validate()


class TestBinomialChannel:
    def test_l2_closed_form_rows(self):
        d = 0.3
        channel = build_binomial_deletion_channel(2, d)
        channel.validate()

        def row(bits):
            return {channel.output_label(j).bits(): p
                    for j, p in channel.row(int(bits, 2))}

        assert row("00") == pytest.approx(
            {"": d * d, "0": 2 * d * (1 - d), "00": (1 - d) ** 2})
        assert row("01") == pytest.approx(
            {"": d * d, "0": d * (1 - d), "1": d * (1 - d),
             "01": (1 - d) ** 2})

    def test_transition_form(self):
        # P(y|x) = embedding_count(x, y) d^(L-|y|) (1-d)^|y|
        L, d = 4, 0.37
        channel = build_binomial_deletion_channel(L, d)
        for i in range(1 << L):
            a = BitString(i, L)
            row = {j: p for j, p in channel.row(i)}
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
            for j, p in row.items():
                b = channel.output_label(j)
                expected = (embedding_count(a, b)
                            * d ** (L - b.length) * (1 - d) ** b.length)
                assert p == pytest.approx(expected, rel=1e-12)

    def test_length_marginal(self):
        L, d = 5, 0.21
        channel = build_binomial_deletion_channel(L, d)
        marginal = np.zeros(L + 1)
        for j, p in channel.row(9):
            marginal[int(channel.output_lengths[j])] += p
        for R in range(L + 1):
            assert marginal[R] == pytest.approx(
                binomial_weight(L, R, d).value, abs=1e-12)

    def test_skeleton_matches_reference_counts(self):
        for L in range(7):
            indptr, cols, counts, lengths, values = _count_rows(
                L, tuple(range(L + 1)))
            outputs = [BitString(int(v), int(n))
                       for n, v in zip(lengths, values)]
            reference = np.array(
                [[embedding_count(BitString(x, L), b) for b in outputs]
                 for x in range(1 << L)], dtype=np.int64)
            assert_counts_match(indptr, cols, counts, reference, np.int32)

    def test_table_cell_is_skeleton_block(self):
        # fixed cell (L, R) is block R of the skeleton, ids shifted by 2^R - 1
        for L in range(1, 10):
            indptr, cols, counts, lengths, _ = _count_rows(
                L, tuple(range(L + 1)))
            rows = np.repeat(np.arange(1 << L), np.diff(indptr))
            for R in range(L + 1):
                channel = build_fixed_deletion_channel(L, R)
                in_block = lengths[cols] == R
                assert np.array_equal(channel.indices,
                                      cols[in_block] - ((1 << R) - 1))
                assert np.array_equal(channel.exact_numerators,
                                      counts[in_block])
                assert np.array_equal(
                    np.repeat(np.arange(1 << L), np.diff(channel.indptr)),
                    rows[in_block])

    def test_complement_commutes(self):
        assert_commutes(build_binomial_deletion_channel(5, 0.3),
                        BitString.complement)

    def test_reversal_commutes(self):
        assert_commutes(build_binomial_deletion_channel(5, 0.3), reverse)

    def test_skeleton_reused_across_d(self):
        a = build_binomial_deletion_channel(3, 0.2)
        b = build_binomial_deletion_channel(3, 0.7)
        assert a.indices is b.indices
        assert np.array_equal(a.indptr, b.indptr)
        assert not np.array_equal(a.probs, b.probs)

    def test_skeleton_forms_on_first_read(self):
        channel = build_binomial_deletion_channel(7, 0.4)
        assert channel.entry_count == sum(block_entries(7, r)
                                          for r in range(8))
        for name in ("indptr", "indices", "probs", "output_lengths",
                     "output_values"):
            assert name not in vars(channel)
        indptr, cols, _, lengths, values = _count_rows(7, tuple(range(8)))
        assert channel.output_values is values
        assert channel.indptr is indptr and channel.indices is cols
        assert channel.output_lengths is lengths
        assert channel.entry_count == len(cols)

    def test_rows_of_one_block_length_at_a_time(self):
        # the rows read last are kept, for the next channel of the same
        # block length and lengths, and dropped once others are read
        for build, first, then in (
                (build_binomial_deletion_channel, (6, 0.3), (7, 0.3)),
                (build_fixed_deletion_channel, (6, 4), (7, 5))):
            held = weakref.ref(build(*first).indices)
            assert held() is build(*first).indices
            assert build(*then).indices is not None
            assert held() is None, build

    def test_budget_counts_the_level_below_and_half_the_skeleton(self):
        # level-9 blocks (38854 entries) plus the rows with a leading 0,
        # half of the 117074 skeleton entries at L=10
        build_binomial_deletion_channel(10, 0.5, entry_budget=97391)
        with pytest.raises(ResourceLimitError, match="may need 97391"):
            build_binomial_deletion_channel(10, 0.5, entry_budget=97390)

    def test_rejections(self):
        with pytest.raises(ParameterError):
            build_binomial_deletion_channel(0, 0.5)
        with pytest.raises(ParameterError):
            build_binomial_deletion_channel(3, 0.0)
        with pytest.raises(ParameterError):
            build_binomial_deletion_channel(3, 1.0)
        with pytest.raises(ResourceLimitError):
            build_binomial_deletion_channel(23, 0.5)
        with pytest.raises(ResourceLimitError):
            build_binomial_deletion_channel(10, 0.5, entry_budget=100)


def deletion_channels(l_max):
    """Every fixed-deletion cell and the binomial channel at a few d,
    for block lengths up to l_max."""
    for L in range(l_max + 1):
        for R in range(L + 1):
            yield build_fixed_deletion_channel(L, R)
        if L >= 1:
            for d in (0.1, 0.5, 0.9):
                yield build_binomial_deletion_channel(L, d)


class TestOrbitChannel:
    def test_label_orbits_match_definition(self):
        for n in range(9):
            index, representatives, sizes = _label_orbits(n)
            orbits = {}
            for x in range(1 << n):
                label = BitString(x, n)
                members = {label, label.complement(), reverse(label),
                           reverse(label).complement()}
                orbits[min(m.value for m in members)] = len(members)
            assert representatives.tolist() == sorted(orbits)
            assert sizes.tolist() == [orbits[x] for x in sorted(orbits)]
            for x in range(1 << n):
                label = BitString(x, n)
                for image in (label.complement(), reverse(label)):
                    assert index[image.value] == index[x]
            assert np.array_equal(index[representatives],
                                  np.arange(len(representatives)))

    @pytest.mark.parametrize("n", [17, 22])
    def test_label_orbit_index_is_invariant(self, n):
        index, representatives, _ = _label_orbits(n)
        values = np.arange(1 << n, dtype=np.int64)
        reverse = np.zeros_like(values)
        for k in range(n):  # bit by bit
            reverse |= ((values >> k) & 1) << (n - 1 - k)
        for image in (values ^ ((1 << n) - 1), reverse):
            assert np.array_equal(index[image], index)
        assert np.array_equal(index[representatives],
                              np.arange(len(representatives)))

    def test_orbit_sizes_and_rows(self):
        for channel in deletion_channels(8):
            reduced = channel.folded()
            L = channel.input_length
            assert reduced.input_sizes.sum() == 1 << L
            assert reduced.output_sizes.sum() == channel.output_count
            assert reduced.input_count == len(reduced.representatives)
            assert as_scipy(reduced._matrix).has_canonical_format
            for m in (reduced._matrix, reduced._matrix_t):
                assert m.indices.dtype == m.indptr.dtype == np.int32
            assert np.all(reduced._matrix.data > 0.0)
            assert np.allclose(reduced._matrix @ reduced._column_weights,
                               1.0, rtol=0.0, atol=1e-12)

    def test_divergences_match_full_channel(self):
        rng = np.random.default_rng(7)
        for channel in deletion_channels(8):
            reduced = channel.folded()
            index, _, _ = _label_orbits(channel.input_length)
            weight = rng.uniform(0.1, 1.0, reduced.input_count)
            law = weight[index] / weight[index].sum()
            reduced_law = reduced.input_sizes * weight / weight[index].sum()
            full = _divergences(channel, law)[reduced.representatives]
            assert np.allclose(_divergences(reduced, reduced_law), full,
                               rtol=0.0, atol=1e-12)


    @settings(deadline=None)
    @given(st.integers(1, 9), st.floats(0.001, 0.999), st.integers(0, 2**32))
    def test_folded_divergences_match_full_channel(self, L, d, seed):
        # counts times column weights against the full probabilities, at
        # a random law constant on orbits: the binomial channel at (L, d)
        # and, for L <= 8, every fixed cell (L, R)
        rng = np.random.default_rng(seed)
        index, _, _ = _label_orbits(L)
        channels = [build_binomial_deletion_channel(L, d)]
        if L <= 8:
            channels += [build_fixed_deletion_channel(L, R)
                         for R in range(L + 1)]
        for channel in channels:
            reduced = channel.folded()
            weight = rng.uniform(0.01, 1.0, reduced.input_count)
            law = weight[index] / weight[index].sum()
            reduced_law = reduced.input_sizes * weight / weight[index].sum()
            full = _divergences(channel, law)[reduced.representatives]
            assert np.allclose(_divergences(reduced, reduced_law), full,
                               rtol=0.0, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 11))
    def test_store_from_level_below_equals_eager_fold(self, L):
        # uncached, so every example builds the store afresh
        store = _stack_folds(L, _cell_folds([(L, r) for r in range(L + 1)]))
        assert_same_store(store, eager_fold(L, *oracle_structure(L)))

    @settings(deadline=None, max_examples=40)
    @given(st.lists(_cells, min_size=1, max_size=8))
    @example([(0, 0), (1, 0), (1, 1)])  # L = 0 and 1, R = 0 and R = L
    @example([(L, L - 1) for L in range(3, 11)])  # a diagonal alone
    @example([(10, 2), (10, 9)])  # a gap in the band of every level
    @example([(7, 0), (7, 7), (8, 8), (8, 3), (8, 3)])
    @example(_MIRRORED[0])
    @example(_MIRRORED[1])
    @example(_MIRRORED[2])
    def test_cell_folds_equal_eager_fold(self, cells):
        folds = list(_cell_folds(cells))
        assert [(L, R) for L, R, _ in folds] == sorted(set(cells))
        for L, R, fold in folds:
            block = oracle_level(L)[R]
            assert_same_store(_stack_folds(L, [(L, R, fold)]), eager_fold(
                L, block.indptr, block.indices, block.data,
                np.full(1 << R, R, dtype=np.int8), np.arange(1 << R)))

    @settings(deadline=None, max_examples=30)
    @given(_cells_to(12))
    @example((12, 6))
    def test_one_column_weighs_as_zero_padded(self, cell):
        # a fixed cell's H holds the one length it folds; the same H
        # zero-padded to every length, under weights zero elsewhere, gives
        # the same channel bits
        L, R = cell
        store = _stack_folds(L, _cell_folds([cell]))
        counts_t, h, lengths, column_parts, *rest = store
        assert h.shape == (len(rest[0]), 1) and lengths.tolist() == [R]
        padded = np.zeros((len(h), L + 1))
        padded[:, R] = h[:, 0]
        w = np.zeros(L + 1)
        w[R] = 1.0 / math.comb(L, R)
        want = _weigh(L, (counts_t, padded, np.arange(L + 1, dtype=np.int8),
                          lengths[column_parts], *rest), w)
        got = _weigh(L, store, w[lengths])
        for name in ("_column_weights", "_row_plogp"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), name

    def test_binomial_counts_are_shared_across_d(self):
        a = build_binomial_deletion_channel(6, 0.2).folded()
        b = build_binomial_deletion_channel(6, 0.7).folded()
        assert a._matrix_t is b._matrix_t
        assert np.shares_memory(a._matrix.data, b._matrix.data)
        assert not np.array_equal(a._column_weights, b._column_weights)

    def test_one_store_is_held_at_a_time(self, monkeypatch):
        _orbit_store(3, tuple(range(4)))
        held = weakref.ref(_orbit_store(4, tuple(range(5)))[0])
        walk = delcap.channel._cell_folds
        alive = []

        def checked(cells):
            alive.append(held() is not None)
            return walk(cells)

        monkeypatch.setattr(delcap.channel, "_cell_folds", checked)
        _orbit_store(5, tuple(range(6)))
        # the store of L=4 is gone before the one of L=5 is folded
        assert alive == [False]
        _orbit_store(5, tuple(range(6)))
        assert alive == [False]  # and L=5 is kept for the next d

    def test_c4_fold_leaves_full_probabilities_unformed(self, monkeypatch):
        built = []
        build = delcap.bounds.build_binomial_deletion_channel

        def keep(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(delcap.bounds, "build_binomial_deletion_channel",
                            keep)
        delcap.bounds._binomial_orbits(12, [0.3])
        assert len(built) == 1 and "probs" not in vars(built[0])
        # read on demand, they are the counts times the length weights
        assert built[0].probs[0] == 0.3 ** 12
        assert "probs" in vars(built[0])


@st.composite
def _store_parts(draw):
    """A block length L and some of its output lengths r, as the parts of
    a store (all of them) or of a fixed cell (one)."""
    L = draw(st.integers(0, 10))
    return L, draw(st.sets(st.integers(0, L), min_size=1))


@st.composite
def _fold_rows(draw):
    """(L, r, positions): representative rows of the count block (L, r),
    the representatives at the given positions, in that order."""
    L = draw(st.integers(0, 10))
    count = len(_label_orbits(L)[1])
    return L, draw(st.integers(0, L)), draw(st.lists(
        st.integers(0, count - 1), min_size=1, max_size=count, unique=True))


def representative_rows(L, r, positions):
    """The count rows of the representatives at positions into the
    length-r outputs, from the reference blocks; at r = L > 0 widened from
    block (L-1, L-1), as the walk hands them to _fold_length."""
    chosen = _label_orbits(L)[1][positions]
    if r == L > 0:
        return _widened(oracle_level(L - 1)[L - 1][chosen], L)
    return oracle_level(L)[r][chosen]


def sorted_fold(r, rows):
    """Reference length-r fold, (C^T, H's column r): the counts cast to
    float64, merged by a per-row sort, and transposed last."""
    index, _, sizes = _label_orbits(r)
    c = rows.data.astype(np.float64)
    c_log_c = np.log(c)
    c_log_c *= c
    part = sparse.csr_array((c, index[rows.indices], rows.indptr.copy()),
                            shape=(rows.shape[0], len(sizes)))
    part.sum_duplicates()
    h = _row_sums(c_log_c, rows)
    h += _row_sums(part.data * np.log(sizes)[part.indices], part)
    return part.T.tocsr(), h


class TestOneMatrix:
    """C^T is the only count matrix held, filled in place; C is its CSC
    view."""

    @settings(deadline=None, max_examples=60)
    @given(_fold_rows())
    @example((0, 0, [0]))
    @example((10, 0, list(range(272))))
    @example((10, 10, list(range(272))))  # widened from the level below
    @example((10, 5, [271, 0, 100]))  # rows out of order
    def test_fold_length_equals_sorted_merge(self, case):
        L, r, positions = case
        rows = representative_rows(L, r, positions)
        part_t, h, _ = _fold_length(r, arrays(rows))
        assert sparse.csr_array((part_t.data, part_t.indices, part_t.indptr),
                                shape=part_t.shape).has_canonical_format
        assert part_t.indices.dtype == np.int32
        assert part_t.data.dtype == np.float64
        want_t, want_h = sorted_fold(r, rows)
        assert_same_csr(part_t, want_t)
        assert h.dtype == want_h.dtype and h.tobytes() == want_h.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(_store_parts())
    @example((0, {0}))
    @example((9, {4}))  # one part, as a fixed cell
    @example((10, set(range(11))))  # the binomial store
    @example((10, {0, 3, 10}))  # gaps between the lengths
    def test_fill_equals_stacked_transposes(self, parts):
        L, lengths = parts
        folds = list(_cell_folds([(L, r) for r in lengths]))
        want = sparse.vstack(
            [as_scipy(part_t) for _, _, (part_t, _, _) in folds], format="csr")
        assert_same_csr(_stack_folds(L, folds)[0], want)

    def test_c_is_a_view_of_the_one_matrix(self):
        [(_, _, fold)] = _cell_folds([(7, 5)])
        cell = build_fixed_deletion_channel(7, 5).folded(fold)
        stack = delcap.channel.orbit_stack(
            [build_binomial_deletion_channel(7, d) for d in (0.2, 0.6)])
        for channel in (cell, stack):
            assert channel._matrix.format == "csc"
            assert channel._matrix.shape == channel._matrix_t.shape[::-1]
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(channel._matrix, name),
                                        getattr(channel._matrix_t, name))
        assert [f.name for f in dataclasses.fields(delcap.channel.OrbitChannel)
                if f.type is Compressed] == ["_matrix_t"]


@st.composite
def _canonical_csr(draw, shape=None):
    """A canonical int32 CSR array (sorted rows, no duplicates, no stored
    zero) of the given or a drawn shape, with positive counts."""
    rows, cols = shape or (draw(st.integers(1, 8)), draw(st.integers(1, 16)))
    dense = np.zeros((rows, cols), dtype=np.int32)
    for i, j in draw(st.sets(st.tuples(st.integers(0, rows - 1),
                                       st.integers(0, cols - 1)))):
        dense[i, j] = draw(st.integers(1, 1 << 20))
    matrix = sparse.csr_array(dense)
    assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
    return matrix


@st.composite
def _relabelled(draw):
    """(canonical rows, a relabelling of their columns onto fewer ids):
    the rows _fold_length hands to its counting sort."""
    matrix = draw(_canonical_csr())
    labels = draw(st.lists(st.integers(0, 7), min_size=matrix.shape[1],
                           max_size=matrix.shape[1]))
    return matrix, np.array(labels, dtype=np.int32)


def _empty_like_csr(rows, nnz):
    return (np.empty(rows + 1, dtype=np.int32),
            np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32))


class TestKernelSeam:
    """Each compiled scipy kernel the walk and the folds call, as they call
    it, equals its public scipy counterpart bit for bit, dtypes included;
    a scipy release that changes them fails here, not in the output."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_plus_is_the_public_sum(self, data):
        a = data.draw(_canonical_csr())
        b = data.draw(_canonical_csr(a.shape))
        want = a + b
        out = _empty_like_csr(a.shape[0], want.nnz)
        delcap.channel.csr_plus_csr(*a.shape, *arrays(a), *arrays(b), *out)
        indptr, indices, counts = out
        assert_same_csr(sparse.csr_array((counts, indices, indptr),
                                         shape=a.shape), want)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_row_index_is_the_public_selection(self, data):
        a = data.draw(_canonical_csr())
        rows = np.array(data.draw(st.lists(st.integers(0, a.shape[0] - 1),
                                           min_size=1)), dtype=np.int32)
        want = a[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(a.indptr[rows + 1] - a.indptr[rows], out=indptr[1:])
        _, indices, counts = _empty_like_csr(0, int(indptr[-1]))
        delcap.channel.csr_row_index(len(rows), rows, *arrays(a), indices,
                                     counts)
        assert_same_csr(sparse.csr_array((counts, indices, indptr),
                                         shape=want.shape), want)

    @settings(deadline=None, max_examples=60)
    @given(_relabelled())
    def test_tocsc_and_sum_duplicates_are_public(self, case):
        matrix, labels = case
        rows, ids = matrix.shape[0], 8
        relabelled = sparse.csr_array(
            (matrix.data, labels[matrix.indices], matrix.indptr),
            shape=(rows, ids))
        # the CSC arrays read as C^T's CSR, as _fold_length reads them
        want_t = sparse.csr_array(arrays(relabelled.tocsc())[::-1],
                                  shape=(ids, rows))
        indptr, indices, counts = _empty_like_csr(ids, matrix.nnz)
        delcap.channel.csr_tocsc(rows, ids, *arrays(relabelled),
                                 indptr, indices, counts)
        assert_same_csr(sparse.csr_array((counts, indices, indptr),
                                         shape=(ids, rows)), want_t)
        # the public merge, against the kernel in place
        want_t.sum_duplicates()
        delcap.channel.csr_sum_duplicates(ids, rows, indptr, indices, counts)
        nnz = int(indptr[-1])
        indices.resize(nnz, refcheck=False)
        assert_same_csr(sparse.csr_array((counts[:nnz], indices, indptr),
                                         shape=(ids, rows)), want_t)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matvec_is_the_public_product(self, data):
        def floats(n):
            return np.array(data.draw(st.lists(st.floats(-1e6, 1e6),
                                               min_size=n, max_size=n)))

        pattern = data.draw(_canonical_csr())
        a = sparse.csr_array((floats(pattern.nnz), pattern.indices,
                              pattern.indptr), shape=pattern.shape)
        x, y = floats(a.shape[1]), floats(a.shape[0])
        got = np.zeros(a.shape[0])
        delcap.channel.csr_matvec(*a.shape, *arrays(a), x, got)
        assert got.tobytes() == (a @ x).tobytes()
        # C's product on the CSC view of C^T
        got = np.zeros(a.shape[1])
        delcap.channel.csc_matvec(a.shape[1], a.shape[0], *arrays(a), y,
                                  got)
        assert got.tobytes() == (a.T @ y).tobytes()


class TestDump:
    def test_fixed_dump_format(self, tmp_path):
        path = tmp_path / "fixed.txt"
        dump_channel(build_fixed_deletion_channel(2, 1), path)
        lines = path.read_text().splitlines()
        assert "00 0 2 2" in lines
        assert "01 0 1 2" in lines and "01 1 1 2" in lines

    def test_binomial_dump_uses_dash_for_empty(self, tmp_path):
        path = tmp_path / "binom.txt"
        dump_channel(build_binomial_deletion_channel(1, 0.25), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("0 - ")
        assert any(line.startswith("1 - ") for line in lines)
