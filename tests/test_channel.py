import math
from fractions import Fraction

import numpy as np
import pytest

from delcap import (BitString, ParameterError, ResourceLimitError,
                    binomial_weight, build_binomial_deletion_channel,
                    build_fixed_deletion_channel, dump_channel,
                    embedding_count)
from delcap.channel import _binomial_structure

from reference_values import FIXED_3_2_FRACTIONS


def exact_row_by_bits(channel, input_bits):
    i = int(input_bits, 2) if input_bits else 0
    return {channel.output_label(j).bits(): fr
            for j, fr in channel.row_exact(i)}


def assert_counts_match(indptr, indices, counts, reference):
    """The stored (row, id) pairs are exactly the nonzero reference counts,
    each row's ids strictly increasing (sorted, no duplicates)."""
    assert indptr.dtype == indices.dtype == counts.dtype == np.int64
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        assert np.all(np.diff(indices[lo:hi]) > 0)
    assert np.all(counts > 0)
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    stored = np.zeros_like(reference)
    stored[rows, indices] = counts
    assert np.array_equal(stored, reference)


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
                                    channel.exact_numerators, reference)

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
            indptr, cols, counts, lengths, values = _binomial_structure(L)
            outputs = [BitString(int(v), int(n))
                       for n, v in zip(lengths, values)]
            reference = np.array(
                [[embedding_count(BitString(x, L), b) for b in outputs]
                 for x in range(1 << L)], dtype=np.int64)
            assert_counts_match(indptr, cols, counts, reference)

    def test_table_cell_is_skeleton_block(self):
        # fixed cell (L, R) is block R of the skeleton, ids shifted by 2^R - 1
        for L in range(1, 10):
            indptr, cols, counts, lengths, _ = _binomial_structure(L)
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

    def test_skeleton_reused_across_d(self):
        a = build_binomial_deletion_channel(3, 0.2)
        b = build_binomial_deletion_channel(3, 0.7)
        assert a.indices is b.indices
        assert np.array_equal(a.indptr, b.indptr)
        assert not np.array_equal(a.probs, b.probs)

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
