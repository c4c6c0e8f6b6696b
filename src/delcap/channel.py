"""Auxiliary deletion channels as sparse discrete memoryless channels.

Two families are built here. The fixed-deletion family removes exactly
L - R of the L input bits, uniformly over all deletion patterns, so each
transition probability is the exact rational embedding_count / C(L, L-R).
The binomial family deletes each bit independently with probability d and
hands the survivors to the receiver as a string that carries its own
length, which makes the output alphabet every bit string of length 0..L,
empty string included.

Transition rows are stored CSR-style over integer ids; labels stay
implicit until asked for. Counts are assembled either by a dense dynamic
program over (prefix of input, prefix of output) or, when the deletion
pattern count is small, by enumerating the patterns directly; both give
identical integers. The binomial family reuses them: its count skeleton
is the fixed-deletion blocks (L, 0), ..., (L, L) stacked side by side,
and d only weights block r by d^(L-r) (1-d)^r.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np
from scipy import sparse

from .combinatorics import BitString
from .errors import ParameterError, ResourceLimitError

DEFAULT_L_CAP = 22
DEFAULT_ENTRY_BUDGET = 1 << 28

# largest dense (2^L x 2^R) count matrix the dense builder may allocate
_DENSE_LIMIT = 1 << 25
# pattern-enumeration flush threshold, in buffered (input, output) keys
_CHUNK_KEYS = 1 << 22


@dataclass(frozen=True, eq=False)
class SparseChannel:
    """Immutable sparse DMC; row x lists P(y|x) over the reachable outputs."""

    indptr: np.ndarray          # (n_inputs + 1,) row boundaries
    indices: np.ndarray         # (nnz,) output ids, strictly increasing per row
    probs: np.ndarray           # (nnz,) strictly positive float64
    input_length: int           # bits per input label; input id == label value
    output_lengths: np.ndarray  # (n_outputs,) bits of each output label
    output_values: np.ndarray   # (n_outputs,) value of each output label
    exact_numerators: np.ndarray | None = None  # embedding counts (fixed family)
    exact_denominator: int | None = None        # common denominator C(L, L-R)

    @property
    def input_count(self):
        return len(self.indptr) - 1

    @property
    def output_count(self):
        return len(self.output_lengths)

    @property
    def entry_count(self):
        return len(self.indices)

    def input_label(self, i):
        return BitString(int(i), self.input_length)

    def output_label(self, j):
        return BitString(int(self.output_values[j]), int(self.output_lengths[j]))

    def input_labels(self):
        return [self.input_label(i) for i in range(self.input_count)]

    def output_labels(self):
        return [self.output_label(j) for j in range(self.output_count)]

    def row(self, i):
        """Transitions of input i as (output_id, probability) pairs."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return list(zip(self.indices[lo:hi].tolist(), self.probs[lo:hi].tolist()))

    def row_exact(self, i):
        """Exact rational transitions; only the fixed family carries them."""
        if self.exact_numerators is None:
            raise ParameterError("channel carries no exact rational form")
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return [(j, Fraction(int(n), self.exact_denominator))
                for j, n in zip(self.indices[lo:hi].tolist(),
                                self.exact_numerators[lo:hi].tolist())]

    @cached_property
    def _matrix(self):
        return sparse.csr_array(
            (self.probs, self.indices, self.indptr),
            shape=(self.input_count, self.output_count))

    @cached_property
    def _matrix_t(self):
        return self._matrix.T.tocsr()

    @cached_property
    def _row_plogp(self):
        # sum_y P(y|x) log P(y|x) per row, in nats; rows are never empty
        e = self.probs * np.log(self.probs)
        return np.add.reduceat(e, self.indptr[:-1])

    def validate(self, atol=1e-12):
        """Assert structural invariants; meant for tests, not hot paths."""
        assert np.all(np.diff(self.indptr) >= 1), "empty transition row"
        assert np.all(self.probs > 0.0), "stored zero probability"
        assert self.indices.min() >= 0
        assert self.indices.max() < self.output_count
        row_ids = np.split(self.indices, self.indptr[1:-1])
        assert all(np.all(np.diff(r) > 0) for r in row_ids), "unsorted row ids"
        sums = np.add.reduceat(self.probs, self.indptr[:-1])
        assert np.allclose(sums, 1.0, rtol=0.0, atol=atol), "row sums off"
        if self.exact_numerators is not None:
            totals = np.add.reduceat(self.exact_numerators, self.indptr[:-1])
            assert np.all(totals == self.exact_denominator), "rational rows off"


def _dense_counts(L, R):
    """Dense (2^L, 2^R) embedding-count matrix via the prefix recursion.

    Splitting off the leading bit of the input either consumes the leading
    output bit (when they match) or is deleted, which gives
    count(a.A, b.B) = [a == b] count(A, B') + count(A, b.B). Only the r
    band reachable from (L, R) is kept per level.
    """
    cur = {0: np.ones((1, 1), dtype=np.int32)}
    for l in range(1, L + 1):
        lo = max(0, R - (L - l))
        hi = min(l, R)
        nxt = {}
        for r in range(lo, hi + 1):
            m = np.zeros((1 << l, 1 << max(r, 0)), dtype=np.int32)
            if r == 0:
                m[:, 0] = 1
            else:
                m4 = m.reshape(2, 1 << (l - 1), 2, 1 << (r - 1))
                p_match = cur.get(r - 1)
                if p_match is not None:
                    m4[0, :, 0, :] += p_match
                    m4[1, :, 1, :] += p_match
                p_skip = cur.get(r)
                if p_skip is not None:
                    p3 = p_skip.reshape(1 << (l - 1), 2, 1 << (r - 1))
                    m4[0] += p3
                    m4[1] += p3
            nxt[r] = m
        cur = nxt
    return cur[R]


def _merge_key_counts(acc_keys, acc_counts, chunks):
    if not chunks:
        return acc_keys, acc_counts
    keys, counts = np.unique(np.concatenate(chunks), return_counts=True)
    counts = counts.astype(np.int64)
    if acc_keys is None:
        return keys, counts
    cat = np.concatenate([acc_keys, keys])
    ccat = np.concatenate([acc_counts, counts])
    merged, inv = np.unique(cat, return_inverse=True)
    total = np.zeros(len(merged), dtype=np.int64)
    np.add.at(total, inv, ccat)
    return merged, total


def _pattern_counts(L, R):
    """Embedding counts by enumerating the kept-position patterns.

    Preferred when C(L, L-R) is small (near-diagonal cells): each pattern
    is one vectorized bit gather over all 2^L inputs, and multiplicities
    accumulate through chunked sorted merges to bound working memory.
    """
    n_in = 1 << L
    a = np.arange(n_in, dtype=np.int64)
    acc_keys = acc_counts = None
    pending, pending_size = [], 0
    for keep in itertools.combinations(range(L), R):
        b = np.zeros(n_in, dtype=np.int64)
        for j, pos in enumerate(keep):
            b |= ((a >> (L - 1 - pos)) & 1) << (R - 1 - j)
        pending.append((a << R) | b)
        pending_size += n_in
        if pending_size >= _CHUNK_KEYS:
            acc_keys, acc_counts = _merge_key_counts(acc_keys, acc_counts, pending)
            pending, pending_size = [], 0
    acc_keys, acc_counts = _merge_key_counts(acc_keys, acc_counts, pending)
    rows = acc_keys >> R
    cols = acc_keys & ((1 << R) - 1)
    indptr = np.zeros(n_in + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_in), out=indptr[1:])
    return indptr, cols, acc_counts


def _subsequence_counts(L, R, method="auto"):
    """CSR multiplicities of every length-R subsequence of every input."""
    if method == "auto":
        dense_ok = (1 << (L + R)) <= _DENSE_LIMIT
        if dense_ok and (L << (L + R)) <= 4 * (math.comb(L, R) << L):
            method = "dense"
        else:
            method = "patterns"
    if method == "dense":
        m = _dense_counts(L, R)
        rows, cols = np.nonzero(m)
        counts = m[rows, cols].astype(np.int64)
        indptr = np.zeros((1 << L) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=1 << L), out=indptr[1:])
        return indptr, cols.astype(np.int64), counts
    if method == "patterns":
        return _pattern_counts(L, R)
    raise ParameterError(f"unknown construction method {method!r}")


def _check_block_params(L, R, l_cap):
    if L < 0 or R < 0 or R > L:
        raise ParameterError(f"need 0 <= R <= L, got L={L}, R={R}")
    if L > l_cap:
        raise ResourceLimitError(f"L={L} beyond the block-length cap {l_cap}")


def build_fixed_deletion_channel(L, R, *, l_cap=DEFAULT_L_CAP,
                                 entry_budget=DEFAULT_ENTRY_BUDGET):
    """Channel that deletes exactly L - R bits, uniformly over patterns.

    P(b | a) = embedding_count(a, b) / C(L, L - R); every row is a list of
    exact rationals over the common denominator and sums to one exactly.
    """
    _check_block_params(L, R, l_cap)
    den = math.comb(L, L - R)
    worst = (1 << L) * min(den, 1 << R)
    if worst > entry_budget:
        raise ResourceLimitError(
            f"fixed channel ({L},{R}) may need {worst} entries,"
            f" budget {entry_budget}")
    indptr, cols, counts = _subsequence_counts(L, R)
    return SparseChannel(
        indptr=indptr,
        indices=cols,
        probs=counts / den,
        input_length=L,
        output_lengths=np.full(1 << R, R, dtype=np.int8),
        output_values=np.arange(1 << R, dtype=np.int64),
        exact_numerators=counts,
        exact_denominator=den,
    )


def _binomial_entry_estimate(L):
    # pre-allocation estimate: per row at most min(C(L,r), 2^r) outputs of length r
    return sum(min(math.comb(L, r), 1 << r) for r in range(L + 1)) << L


@cache
def _binomial_structure(L):
    """d-independent skeleton of the binomial family: the fixed-deletion
    count blocks (L, r), r = 0..L, stacked side by side. Length-r outputs
    take ids from 2^r - 1 on, so the stack keeps every row sorted."""
    # (indptr, cols, counts) reversed is scipy's (data, indices, indptr)
    blocks = [sparse.csr_array(_subsequence_counts(L, r)[::-1],
                               shape=(1 << L, 1 << r)) for r in range(L + 1)]
    stacked = sparse.hstack(blocks, format="csr")
    sizes = [1 << r for r in range(L + 1)]
    return (stacked.indptr.astype(np.int64), stacked.indices.astype(np.int64),
            stacked.data,
            np.repeat(np.arange(L + 1, dtype=np.int8), sizes),
            np.concatenate([np.arange(size) for size in sizes]))


def build_binomial_deletion_channel(L, d, *, l_cap=DEFAULT_L_CAP,
                                    entry_budget=DEFAULT_ENTRY_BUDGET):
    """IID-deletion channel whose output carries its own length.

    P(y | x) = embedding_count(x, y) d^(L-|y|) (1-d)^|y| over outputs of
    every length 0..L; the empty string is a first-class output. The
    d-independent count skeleton, the stacked fixed-deletion count blocks
    (L, r) for r = 0..L, is cached per L, so sweeping d only rescales
    probabilities.
    """
    if L < 1:
        raise ParameterError(f"need L >= 1, got L={L}")
    if L > l_cap:
        raise ResourceLimitError(f"L={L} beyond the block-length cap {l_cap}")
    d = float(d)
    if not 0.0 < d < 1.0:
        raise ParameterError("d must lie strictly inside (0, 1)")
    est = _binomial_entry_estimate(L)
    if est > entry_budget:
        raise ResourceLimitError(
            f"binomial channel L={L} may need {est} entries,"
            f" budget {entry_budget}")
    indptr, cols, counts, lengths, values = _binomial_structure(L)
    factor = np.array([d ** (L - r) * (1.0 - d) ** r for r in range(L + 1)])
    return SparseChannel(
        indptr=indptr,
        indices=cols,
        probs=counts * factor[lengths[cols]],
        input_length=L,
        output_lengths=lengths,
        output_values=values,
    )


def dump_channel(channel, path):
    """Write one line per transition, for diffing against other tools.

    Fixed family: `input output numerator denominator`; binomial family:
    `input output probability`. The empty label prints as '-'.
    """
    exact = channel.exact_numerators is not None
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(channel.input_count):
            in_bits = channel.input_label(i).bits() or "-"
            lo, hi = int(channel.indptr[i]), int(channel.indptr[i + 1])
            for k in range(lo, hi):
                j = int(channel.indices[k])
                out_bits = channel.output_label(j).bits() or "-"
                if exact:
                    fh.write(f"{in_bits} {out_bits} "
                             f"{int(channel.exact_numerators[k])} "
                             f"{channel.exact_denominator}\n")
                else:
                    fh.write(f"{in_bits} {out_bits} {channel.probs[k]!r}\n")
