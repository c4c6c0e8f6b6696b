"""Auxiliary deletion channels as sparse discrete memoryless channels.

Both families built here are one channel, P(y|x) = embedding_count(x,
y) times a weight of |y|, under two weightings. The fixed-deletion cell
(L, R) removes exactly L - R bits, uniformly over all deletion patterns:
it keeps the length-R outputs, each the exact rational embedding_count /
C(L, L-R). The binomial family deletes each bit independently with
probability d and hands the survivors on as a string that carries its
own length: it keeps every length r = 0..L under d^(L-r) (1-d)^r.

Transition rows are stored CSR-style over integer ids; labels stay
implicit until asked for. Counts come from one walk over the leading
input bit (_walk), which builds the sparse int32 count block (l, r) from
the blocks (l-1, r-1) and (l-1, r) without ever forming a dense matrix.
Complementing every bit keeps every count, so a block's leading-1 half
is its leading-0 half mirrored: rows and the order within each row
reversed, each column c read as 2^r - 1 - c. The walk merges only the
leading-0 halves, mirrors a half into a whole block only where a later
level reads it, and leaves the rest as halves. Inside the walk and the
folds, blocks are plain (indptr, indices, data) arrays handed to scipy's
compiled sparse kernels at their exact sizes; a scipy matrix is made
only where one leaves them. count_blocks serves a list of cells, such
as a whole table build, as whole CSR blocks. A channel's explicit rows
are the blocks of its lengths side by side (_count_rows); the solve path
never forms them (see below).

Deleting bits commutes with complementing them and with reversing their
order, so both families map the orbit of an input under that 4-element
group onto the orbits of its outputs. A channel's folded() folds it onto
those orbits: one row per input orbit, taken from its smallest member
x_o, with M[o, O] = sum of P(y|x_o) over the output orbit O. A law that
is constant on input orbits induces an output law constant on output
orbits, and every divergence D(P_x || q) of the full channel is the
reduced row term of x's orbit minus sum_O M[o, O] log q_O, where q_O is
the orbit's total mass. The solver runs on this smaller matrix and
certifies the same capacity.

Both families fold alike, one output length at a time (_fold_length):
integer embedding counts C on the orbits, times one weight per output
length, M = C diag(w), which the solver applies to vectors; each
length's part comes out as rows of C^T, beside its column of the row
term table H, which holds one column per folded length. One walk
(_cell_folds) folds a list of cells (L, R): it takes each
representative's length-R row from the leading-0 halves of two count
blocks of level L - 1, so no cell's own block is built and the last
level is never completed; the rows that lie in a leading-1 half are
mirrored from the leading-0 one. A store (_orbit_store) is the folds
of the cells (L, r) of a channel's lengths stacked, one column of H per
length, kept for one (L, lengths) at a time and shared by every
weighting: a fixed cell is its fold at r = R, and the binomial store
stacks r = 0..L, so the rows are never built either. orbit_stack lays
the weights of several d over the store as one stack, which the solver
solves in one pass.

SparseChannel is an explicit DMC that holds its arrays. DeletionChannel
is a small frozen class of a block length, the output lengths it keeps
and one weight per length. It forms its rows as cached properties on
first read (row, dump_channel, validate, a solve on the full channel),
counts its entries in closed form, and folds itself onto orbits
(folded) without reading its rows; a table cell folds a fold from a
walk over many cells where it is given one. Only the builders check the
parameters against the limits.

Every channel holds one matrix, and the solver's other product runs on
its transposed view, whose sums take each entry's terms in the same
order as a copy would. A folded channel holds C^T as CSR, one row per
output orbit, appended to in place as the walk hands over each length's
part (_stack_folds), and C is its CSC view. A channel of explicit rows
holds them as CSR, and its transpose is their CSC view.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import (csc_matvec, csr_matvec, csr_plus_csr,
                                        csr_row_index, csr_sum_duplicates,
                                        csr_tocsc)

from .combinatorics import BitString
from .errors import ParameterError, ResourceLimitError

# block lengths past this are refused outright, whatever the entry budget
L_CAP = 22
DEFAULT_ENTRY_BUDGET = 1 << 28


class _Rows:
    """The readers of a channel's explicit rows: indptr, indices, probs,
    output_lengths, output_values and, where the rows are exact rationals,
    exact_numerators over exact_denominator."""

    exact_numerators = None   # embedding counts, when the rows are exact
    exact_denominator = None  # their common denominator
    _column_weights = 1.0  # probs are the solver's matrix as they stand

    @property
    def input_count(self):
        return len(self.indptr) - 1

    @property
    def output_count(self):
        return len(self.output_lengths)

    @property
    def input_sizes(self):
        # every input stands for itself; OrbitChannel rows stand for orbits
        return np.ones(self.input_count)

    def input_label(self, i):
        return BitString(int(i), self.input_length)

    def output_label(self, j):
        return BitString(int(self.output_values[j]), int(self.output_lengths[j]))

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
        # the CSC view on the same arrays, which sums each output's terms
        # in the order a CSR copy would
        return self._matrix.T

    @cached_property
    def _row_plogp(self):
        # sum_y P(y|x) log P(y|x) per row, in nats, with 0 log 0 = 0 where
        # a length weight underflows; rows are never empty
        e = self.probs * np.log(np.where(self.probs > 0.0, self.probs, 1.0))
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


@dataclass(frozen=True, eq=False)
class SparseChannel(_Rows):
    """Immutable sparse DMC; row x lists P(y|x) over the reachable outputs."""

    indptr: np.ndarray   # (n_inputs + 1,) row boundaries
    indices: np.ndarray  # (nnz,) output ids, strictly increasing per row
    probs: np.ndarray    # (nnz,) float64
    input_length: int    # bits per input label; input id == label value
    output_lengths: np.ndarray  # (n_outputs,) bits of each output label
    output_values: np.ndarray   # (n_outputs,) value of each output label

    @property
    def entry_count(self):
        return len(self.indices)


def _count_one():
    """Count block (0, 0): the empty input holds the empty output once."""
    return (np.array([0, 1], dtype=np.int32), np.zeros(1, dtype=np.int32),
            np.ones(1, dtype=np.int32))


def _plus(p, s, r):
    """Block (l-1, r-1) widened to the length-r outputs plus block (l-1, r),
    row for row, as exact-size arrays: the leading-0 half of block (l, r),
    or the length-r rows x = 0.A of the given inputs A. Widening keeps
    P's columns, those of the outputs 0.B. Every column of S with a
    leading 0 is one of P's (0.B in A means B in A), so the sum holds
    P's entries and S's leading-1 ones."""
    rows = len(p[0]) - 1
    nnz = len(p[1]) + int(np.count_nonzero(s[1] >= 1 << (r - 1)))
    if nnz > np.iinfo(np.int32).max:  # the kernel's int32 offsets
        raise ResourceLimitError(f"{nnz} count entries overflow int32")
    out = (np.empty(rows + 1, dtype=np.int32),
           np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32))
    csr_plus_csr(rows, 1 << r, *p, *s, *out)
    return out


def _grow(level, l, r):
    """The leading-0 half of block (l, r) from the whole blocks of level
    l-1, dropping block (l-1, r-1), read by no later r."""
    parts = []
    if r > 0:
        parts.append(level.pop(r - 1))
    if r < l:
        parts.append(level[r])
    return _plus(*parts, r) if len(parts) == 2 else parts[0]


def _complete(half, r):
    """Block (l, r), l >= 1, from its leading-0 half: count(~x, ~y) =
    count(x, y), so the leading-1 rows are the half's rows complemented in
    reverse order, that is the half's arrays reversed with every column c
    as 2^r - 1 - c."""
    indptr, indices, data = half
    nnz = len(indices)
    indices = np.concatenate([indices, indices[::-1]])
    np.subtract((1 << r) - 1, indices[nnz:], out=indices[nnz:])
    return (np.concatenate([indptr, 2 * nnz - indptr[-2::-1]]), indices,
            np.concatenate([data, data[::-1]]))


def _walk(cells):
    """The leading-bit walk behind count_blocks and _cell_folds: yields
    (L, R, block) for the given cells in ascending order, with block as
    its int32 (indptr, indices, data), whole where a later level reads
    it and otherwise only its leading-0 half (count_blocks docstring)."""
    cells = sorted(set(cells))
    level = {0: _count_one()}
    for l in range(max((L for L, _ in cells), default=-1) + 1):
        # r -> whether a cell past level l reaches (l, r): those cells
        # come last in sorted order, so their True wins
        band = {r: L > l for L, R in cells if L >= l
                for r in range(max(0, R - (L - l)), min(l, R) + 1)}
        nxt = {}
        for r in sorted(band):
            if l:
                block = _grow(level, l, r)
                if band[r]:  # the next level reads it whole
                    block = _complete(block, r)
            else:
                block = level[0]
            if band[r]:
                nxt[r] = block
            if (l, r) in cells:
                yield l, r, block
            del block  # the next block is built without this one
        level = nxt


def count_blocks(cells):
    """Embedding-count blocks of the given (L, R) cells as canonical int32
    CSR, yielded as (L, R, block) in ascending order from one walk.

    Splitting off the leading bit of the input either consumes the leading
    output bit (when they match) or is deleted, which gives
    count(a.A, b.B) = [a == b] count(A, B) + count(A, b.B). So the
    leading-0 half of block (l, r), its rows x = 0.A, is P widened to the
    length-r outputs plus S, with P = block (l-1, r-1) and S = block
    (l-1, r); both are canonical, so one merge of their arrays (_plus)
    keeps the sum canonical. Complementing every bit keeps every count, so
    the leading-1 half is the leading-0 half mirrored (_complete) and the
    walk merges only half of each block. Level l builds, in ascending r,
    the blocks (l, r) that a cell (L, R) with L >= l reaches, that is
    0 <= R - r <= L - l, and completes those that a cell past l reaches;
    the others stay halves, and a cell's half is completed as it is
    yielded.
    """
    for l, r, (indptr, indices, data) in _walk(cells):
        if len(indptr) <= 1 << l:  # a half
            indptr, indices, data = _complete((indptr, indices, data), r)
        yield l, r, sparse.csr_array((data, indices, indptr),
                                     shape=(1 << l, 1 << r))


def block_entries(L, r):
    """Entries of count block (L, r): every length-r string has the same
    sum_{i <= L-r} C(L, i) supersequences of length L."""
    return (1 << r) * sum(math.comb(L, i) for i in range(L - r + 1))


def _skeleton_entries(L):
    """Entries of the count blocks (L, 0), ..., (L, L) together."""
    return sum(block_entries(L, r) for r in range(L + 1))


@lru_cache(maxsize=1)
def _count_rows(L, lengths):
    """The explicit rows of a channel of block length L that keeps the
    given output lengths: the int32 count blocks (L, r), r in lengths,
    side by side, as (indptr, indices, counts, output lengths, output
    values). Outputs are numbered length by length, shortest first, so
    the stack keeps every row sorted; up to L_CAP every id is under 2^23
    and every count at most C(22, 11). Only the rows read last are kept."""
    stacked = sparse.hstack(
        [block for _, _, block in count_blocks([(L, r) for r in lengths])],
        format="csr")
    sizes = [1 << r for r in lengths]
    return (stacked.indptr, stacked.indices, stacked.data,
            np.repeat(np.array(lengths, dtype=np.int8), sizes),
            np.concatenate([np.arange(size) for size in sizes]))


@dataclass(frozen=True, eq=False)
class DeletionChannel(_Rows):
    """The deletion channel of block length L that keeps the outputs of
    the given lengths, P(y|x) = count(x, y) w[|y|] with one weight per
    kept length. The fixed cell (L, R) keeps R alone under 1 / C(L, R),
    and its rows are exact rationals too; the binomial channel at d keeps
    every length r under d^(L-r) (1-d)^r. Its rows (_count_rows) are
    formed on first read."""

    input_length: int           # L
    lengths: tuple              # the output lengths kept, ascending
    length_weights: np.ndarray  # (len(lengths),) weight of each

    _rows = property(lambda self: _count_rows(self.input_length,
                                              self.lengths))
    indptr = cached_property(lambda self: self._rows[0])
    indices = cached_property(lambda self: self._rows[1])
    output_lengths = cached_property(lambda self: self._rows[3])
    output_values = cached_property(lambda self: self._rows[4])
    entry_count = property(lambda self: sum(
        block_entries(self.input_length, r) for r in self.lengths))

    @property
    def exact_denominator(self):  # C(L, R) of a fixed cell, else None
        if len(self.lengths) == 1:
            return math.comb(self.input_length, self.lengths[0])

    exact_numerators = cached_property(
        lambda self: self._rows[2] if self.exact_denominator else None)

    @cached_property
    def probs(self):
        if self.exact_denominator:
            return self.exact_numerators / self.exact_denominator
        weights = np.repeat(self.length_weights,
                            [1 << r for r in self.lengths])
        return self._rows[2] * weights[self.indices]

    def folded(self, fold=None):
        """The channel on its orbits (see the module docstring) under its
        length weights: the fold handed in, which a _cell_folds walk over
        many cells made for a channel of one length, or else the store of
        its block length and lengths."""
        L, lengths = self.input_length, self.lengths
        store = (_orbit_store(L, lengths) if fold is None
                 else _stack_folds(L, [(L, *lengths, fold)]))
        return _weigh(L, store, self.length_weights)


def build_fixed_deletion_channel(L, R, *, entry_budget=DEFAULT_ENTRY_BUDGET):
    """Channel that deletes exactly L - R bits, uniformly over patterns.

    P(b | a) = embedding_count(a, b) / C(L, L - R); every row is a list of
    exact rationals over the common denominator and sums to one exactly.
    The budget counts the cell's full count block, at most 2^L rows of
    min(C(L, R), 2^R) entries.
    """
    if L < 0 or R < 0 or R > L:
        raise ParameterError(f"need 0 <= R <= L, got L={L}, R={R}")
    if L > L_CAP:
        raise ResourceLimitError(f"L={L} beyond the block-length cap {L_CAP}")
    worst = (1 << L) * min(math.comb(L, R), 1 << R)
    if worst > entry_budget:
        raise ResourceLimitError(
            f"fixed channel ({L},{R}) may need {worst} entries,"
            f" budget {entry_budget}")
    return DeletionChannel(L, (R,), np.array([1.0 / math.comb(L, L - R)]))


def build_binomial_deletion_channel(L, d, *,
                                    entry_budget=DEFAULT_ENTRY_BUDGET):
    """IID-deletion channel whose output carries its own length.

    P(y | x) = embedding_count(x, y) d^(L-|y|) (1-d)^|y| over outputs of
    every length 0..L; the empty string is a first-class output. The
    budget counts what the solve path builds: the count blocks of
    level L - 1 and the representative rows, which lie among the rows
    with a leading 0, half of all skeleton entries.
    """
    if L < 1:
        raise ParameterError(f"need L >= 1, got L={L}")
    if L > L_CAP:
        raise ResourceLimitError(f"L={L} beyond the block-length cap {L_CAP}")
    d = float(d)
    if not 0.0 < d < 1.0:
        raise ParameterError("d must lie strictly inside (0, 1)")
    est = _skeleton_entries(L - 1) + _skeleton_entries(L) // 2
    if est > entry_budget:
        raise ResourceLimitError(
            f"binomial channel L={L} may need {est} entries,"
            f" budget {entry_budget}")
    return DeletionChannel(L, tuple(range(L + 1)), np.array(
        [d ** (L - r) * (1.0 - d) ** r for r in range(L + 1)]))


@cache
def _label_orbits(n):
    """Orbits of the length-n labels under complement and reversal:
    (orbit index of every value, orbits numbered by their smallest
    member; those smallest members, ascending; orbit sizes)."""
    values = np.arange(1 << n, dtype=np.int64)
    mask = (1 << n) - 1
    # the reversal of 0.A is reverse(A) then 0, and of 1.A reverse(A) then 1
    reverse = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        reverse = np.concatenate([2 * reverse, 2 * reverse + 1])
    smallest = np.minimum(np.minimum(values, values ^ mask),
                          np.minimum(reverse, reverse ^ mask))
    smallest_of_own = smallest == values
    representatives = values[smallest_of_own]
    # each orbit's number is its smallest member's rank among them
    index = (np.cumsum(smallest_of_own, dtype=np.int32) - 1)[smallest]
    return index, representatives, np.bincount(index)


@dataclass(frozen=True, eq=False)
class OrbitChannel:
    """A deletion channel folded onto complement × reversal orbits, as
    counts times column weights: M = C diag(w).

    Row o stands for the input orbit of representatives[o], column O for
    an output orbit; input_sizes and output_sizes count their members.
    C[o, O] sums the embedding counts of the representative into the
    members of O, and w[O] is the weight of O's output length, so
    M[o, O] = P(O | representatives[o]). _row_plogp[o] is sum_y P log P
    over the full row of the representative plus sum_O M[o, O] log |O|,
    so the solver's divergences are those of the full channel at each
    representative, for any law that is constant on orbits.

    A stack (orbit_stack) holds several channels on the same C: w and
    the row term then have one row per channel.

    C^T is the one count matrix held: CSR, one row per output orbit, for
    q = w ⊙ (C^T r). C is its CSC view on the same arrays, whose product
    sums each entry's terms in the same order as a CSR copy of C would.
    """

    _matrix_t: sparse.csr_array  # C^T, exact counts in float64
    _column_weights: np.ndarray  # ([channels,] output orbits) w
    _row_plogp: np.ndarray       # ([channels,] input orbits) row term, nats
    representatives: np.ndarray  # (input orbits,) smallest member of each
    input_sizes: np.ndarray      # (input orbits,) members per input orbit
    output_sizes: np.ndarray     # (output orbits,) members per output orbit

    @cached_property
    def _matrix(self):
        return self._matrix_t.T

    @property
    def input_count(self):
        return self._matrix_t.shape[1]

    @property
    def entry_count(self):
        return self._matrix_t.nnz


def _fold_length(r, rows):
    """The length-r part of a fold: rows, one per input orbit, hold the
    representatives' int32 counts into the length-r outputs as canonical
    CSR arrays (indptr, indices, data). Returns (C^T over the length-r
    output orbits, H's column of length r, those orbits' sizes). Its
    entry H[o, r] is the sum of c log c over the counts c of the row plus
    sum_O C[o, O] log |O|.

    Relabelling each column by its orbit and converting to CSC is one
    counting sort: read as C^T, each orbit's rows ascend with duplicates
    side by side, so they merge in place in one pass with no sort. The
    merge runs on the int32 counts, which sum exactly, to keep the deep
    peak down (8 bytes per pre-merge entry, not 12); only the merged
    counts are cast to float64. int32 indices make the solver's products
    faster than int64, with the same sums. The kernels add each sum's
    terms in the order scipy's public products do, so H keeps its bits."""
    index, _, sizes = _label_orbits(r)
    indptr, indices, counts = rows
    inputs, orbits = len(indptr) - 1, len(sizes)
    c_log_c = counts.astype(np.float64)
    np.log(c_log_c, out=c_log_c)
    c_log_c *= counts
    h = np.zeros(inputs)
    csr_matvec(inputs, 1 << r, indptr, indices, c_log_c, np.ones(1 << r), h)
    del c_log_c
    part_indptr = np.empty(orbits + 1, dtype=np.int32)
    part_indices = np.empty(len(indices), dtype=np.int32)
    part_counts = np.empty(len(indices), dtype=np.int32)
    csr_tocsc(inputs, orbits, indptr, index[indices], counts,
              part_indptr, part_indices, part_counts)
    csr_sum_duplicates(orbits, inputs, part_indptr, part_indices, part_counts)
    nnz = int(part_indptr[-1])
    part_indices.resize(nnz, refcheck=False)  # shrinks in place
    part_data = part_counts[:nnz].astype(np.float64)
    del part_counts
    by_size = np.zeros(inputs)
    csc_matvec(inputs, orbits, part_indptr, part_indices, part_data,
               np.log(sizes), by_size)
    h += by_size
    return sparse.csr_array((part_data, part_indices, part_indptr),
                            shape=(orbits, inputs)), h, sizes


def _append(stacked, values):
    """Append values to the array stacked in place: resize extends a
    large buffer without copying it (no view of stacked may exist)."""
    n = len(stacked)
    stacked.resize(n + len(values), refcheck=False)
    stacked[n:] = values


def _stack_folds(L, folds):
    """The folded store from the folds of cells (L, r), r ascending, as
    _cell_folds yields them: (C transposed, H, the folded lengths, the
    part of each column of C, representatives, input_sizes,
    output_sizes). C transposed is CSR with one row per output orbit,
    numbered length by length, shortest first; H has one column per
    folded length, and a column's part is its length's position among
    them. Each part arrives as rows of C^T, so its data and indices are
    only appended in place (_append) and it is dropped: no part is held
    beside a stacked copy."""
    _, representatives, input_sizes = _label_orbits(L)
    columns, lengths, sizes = [], [], []
    data = np.empty(0)
    indices = np.empty(0, dtype=np.int32)
    indptr = [np.zeros(1, dtype=np.int64)]
    for _, r, (part_t, column, part_sizes) in folds:
        indptr.append(part_t.indptr[1:] + np.int64(len(data)))
        _append(data, part_t.data)
        _append(indices, part_t.indices)
        del part_t
        columns.append(column)
        lengths.append(r)
        sizes.append(part_sizes)
    indptr = np.concatenate(indptr)
    if indptr[-1] <= np.iinfo(np.int32).max:  # the indices' dtype
        indptr = indptr.astype(np.int32)
    output_sizes = np.concatenate(sizes)
    matrix_t = sparse.csr_array((data, indices, indptr), shape=(
        len(output_sizes), len(representatives)))
    column_parts = np.repeat(np.arange(len(lengths), dtype=np.int8),
                             [len(s) for s in sizes])
    return (matrix_t, np.column_stack(columns),
            np.array(lengths, dtype=np.int8), column_parts, representatives,
            input_sizes.astype(np.float64), output_sizes)


def _representative_rows(block, l, r):
    """The length-r rows x = 0.A of the representatives x of length l + 1,
    in their ascending order: rows A of block (l, r), read from its
    leading-0 half as exact-size arrays. The representatives whose A has
    a leading 1 are one run at the end; row A is the mirror of half row
    2^l - 1 - A (_complete), so their rows are gathered from the half in
    ascending order and the gathered arrays reversed once."""
    indptr, indices, data = block
    representatives = _label_orbits(l + 1)[1]
    split = int(np.searchsorted(representatives, (1 << l) >> 1))
    mirrors = (1 << l) - 1 - representatives[split:][::-1]
    gathered = np.concatenate([representatives[:split], mirrors]).astype(
        np.int32)
    lengths = indptr[gathered + 1] - indptr[gathered]
    lengths[split:] = lengths[split:][::-1]
    rows_indptr = np.zeros(len(gathered) + 1, dtype=np.int32)
    np.cumsum(lengths, out=rows_indptr[1:])
    head = int(rows_indptr[split])
    rows_indices = np.empty(int(rows_indptr[-1]), dtype=np.int32)
    rows_data = np.empty(len(rows_indices), dtype=np.int32)
    csr_row_index(split, gathered[:split], indptr, indices, data,
                  rows_indices[:head], rows_data[:head])
    tail_indices = np.empty(len(rows_indices) - head, dtype=np.int32)
    tail_data = np.empty(len(tail_indices), dtype=np.int32)
    csr_row_index(len(mirrors), gathered[split:], indptr, indices, data,
                  tail_indices, tail_data)
    np.subtract((1 << r) - 1, tail_indices[::-1], out=rows_indices[head:])
    rows_data[head:] = tail_data[::-1]
    return rows_indptr, rows_indices, rows_data


def _cell_folds(cells):
    """Folds of the given (L, R) cells, _fold_length(R, the cell's
    representative rows), yielded as (L, R, fold) in ascending order
    from one walk over the level below the cells.

    A representative x is at most its complement, so x = 0.A with A of
    x's value, and the leading-bit recursion makes x's length-R row the
    sum of row A of block (L-1, R-1), widened because the leading output
    bit is the consumed 0, and row A of block (L-1, R) (_plus). R = 0 and
    R = L take one of the two; cell (0, 0), with no level below, is the
    single count 1. The level below is read only through its leading-0
    halves (_representative_rows), so no later level needs it whole and
    the walk leaves it in halves.
    """
    cells = set(cells)
    if (0, 0) in cells:
        yield 0, 0, _fold_length(0, _count_one())
    below = {(L - 1, r) for L, R in cells if L
             for r in (R - 1, R) if 0 <= r < L}
    # r -> rows of the block the walk yielded last: (L-1, R-1) when
    # (L-1, R) comes next, since both are in the walk
    previous = {}
    for l, r, block in _walk(below):
        rows = _representative_rows(block, l, r)
        del block  # the walk builds the next block without this one
        if (l + 1, r) in cells:
            # popped, the rows of (l, r-1) are freed once merged, and no
            # name holds the merged rows or the fold past this statement
            yield l + 1, r, _fold_length(
                r, _plus(previous.pop(r - 1), rows, r) if r else rows)
        if r == l and (l + 1, l + 1) in cells:
            # widening keeps the arrays: the length-(l+1) outputs 0.B
            yield l + 1, l + 1, _fold_length(l + 1, rows)
        previous = {r: rows}


_stores = {}  # (L, lengths) -> its store, for one key at a time


def _orbit_store(L, lengths):
    """The channels of block length L that keep the given output lengths,
    folded once for every weighting: the folds of the cells (L, r), r in
    lengths, stacked. It is kept until another store is asked for, and
    dropped before that one is folded, so a process holds one store."""
    if (L, lengths) not in _stores:
        _stores.clear()
        _stores[L, lengths] = _stack_folds(
            L, _cell_folds([(L, r) for r in lengths]))
    return _stores[L, lengths]


def _weigh(L, folded, w):
    """The OrbitChannel of folded counts under weights w of the folded
    lengths: one row of weights, or one row per channel of a stack."""
    (counts_t, by_length, lengths, column_parts, representatives,
     input_sizes, output_sizes) = folded
    # the row term: H @ w plus sum_r (embeddings of length r) w_r log w_r
    w_log_w = w * np.log(np.where(w > 0.0, w, 1.0))  # 0 log 0 = 0
    embeddings = np.array([math.comb(L, r) for r in lengths],
                          dtype=np.float64)
    row_term = np.array([by_length @ w_r + embeddings @ w_log_w_r
                         for w_r, w_log_w_r in zip(np.atleast_2d(w),
                                                   np.atleast_2d(w_log_w))])
    return OrbitChannel(counts_t, w[..., column_parts],
                        row_term.reshape(w.shape[:-1] + (-1,)),
                        representatives, input_sizes, output_sizes)


def orbit_stack(channels):
    """Fold channels of one block length that keep the same output
    lengths onto their orbits as one stack: the OrbitChannel that shares
    their counts C, with one row of column weights (channels × output
    orbits) and one row of the row term (channels × input orbits) per
    channel, in the given order. solve_capacity solves the stack in one
    pass."""
    L, lengths = channels[0].input_length, channels[0].lengths
    for channel in channels:
        if (channel.input_length, channel.lengths) != (L, lengths):
            raise ParameterError("a stack takes channels of one block"
                                 " length that keep the same lengths")
    return _weigh(L, _orbit_store(L, lengths),
                  np.array([channel.length_weights for channel in channels]))


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
