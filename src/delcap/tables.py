"""Bracketed capacity coefficients f(L, R), with caching and extrapolation.

Every entry stores a two-sided bracket [f_lower, f_upper] certified to
contain the exact capacity of the fixed-deletion channel with L inputs
and R outputs, so downstream formulas can always pick the side that keeps
them valid despite solver error. Rows with R in {0, 1, L} are closed
forms and exact. Beyond the populated range two extrapolations give
certified lower bounds on the gap alpha = R - f: one uses that the gap
never shrinks with block length, the other telescopes the per-step
shrink factor (1 - D/(L+1)) along the deleted-count diagonal.

One entry, _solve_cells, solves table cells: the unsolved cells of
populate_table's grid or of a command's plan, and f_value's miss. It
first builds every cell's channel in the calling process, so the
builder's check refuses a cell before any walk or fork. It then solves
the cells on two processes where it can (workers.run_shares): a forked
worker takes the deepest full row (L = l_max) and the diagonal past it,
while the calling process takes the shallower rows. Each runs the same
serial loop over its share, from one count walk, writing each entry into
its own copy of the table as it solves it; the worker's entries are
merged after the caller's, in walk order, so the table has the same
bytes as a serial build. A stuck cell in this process's share raises at
once and stops the worker; a stuck cell in the worker's share raises
once its earlier entries are merged.
"""

import math
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .baa import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, solve_capacity
from .channel import (DEFAULT_ENTRY_BUDGET, _cell_folds,
                      build_fixed_deletion_channel)
from .errors import (ExtrapolationRequiredError, ParameterError,
                     SolverNotConvergedError, TableChecksumError,
                     TableRowError, TableVersionError)
from .workers import cpu_count, run_shares

TABLE_HEADER = "delcap-ftable v1"

DEFAULT_L_MAX = 12
DEFAULT_DIAGONAL_L_MAX = 14

SOURCE_CLOSED = "closed_form"
SOURCE_BAA = "baa"
SOURCE_LOADED = "loaded"
_SOURCES = (SOURCE_CLOSED, SOURCE_BAA, SOURCE_LOADED)

@dataclass(frozen=True)
class TableEntry:
    f_lower: float
    f_upper: float
    tolerance: float
    source: str


class CoefficientTable:
    """Cache of capacity brackets keyed by (L, R).

    l_max is the largest block length whose full row is meant to be
    populated; single cells beyond it (the R = L-1 diagonal) may exist as
    well. Lookups under l_max solve and cache on miss; lookups past it
    raise ExtrapolationRequiredError instead of guessing.
    """

    def __init__(self, l_max=DEFAULT_L_MAX, tolerance=DEFAULT_TOLERANCE,
                 max_iterations=DEFAULT_MAX_ITERATIONS,
                 entry_budget=DEFAULT_ENTRY_BUDGET):
        if l_max < 0:
            raise ParameterError("l_max must be non-negative")
        if not tolerance > 0.0:  # NaN included
            raise ParameterError("tolerance must be positive")
        self.entries = {}
        self.l_max = l_max
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.entry_budget = entry_budget

    def __eq__(self, other):
        if not isinstance(other, CoefficientTable):
            return NotImplemented
        return self.entries == other.entries and self.l_max == other.l_max


def closed_form_f(L, R):
    """Exact capacity for the degenerate rows, None elsewhere.

    R = 0 carries nothing, R = 1 resolves exactly one bit (the two
    constant inputs), R = L is the identity.
    """
    if R == 0:
        return 0.0
    if R == 1:
        return 1.0
    if R == L:
        return float(L)
    return None


def _top_level(table):
    """Deepest block length the table serves: its full-row depth, or the
    longest single cached cell beyond it (the R = L-1 diagonal)."""
    return max([table.l_max] + [L for (L, _) in table.entries])


def _check_side(side):
    if side not in ("lower", "upper"):
        raise ParameterError(f"side must be 'lower' or 'upper', got {side!r}")


def f_value(L, R, table, side):
    """One side of the certified bracket around f(L, R).

    Closed-form rows are exact; other cells are served from the cache,
    solved on miss (_solve_cells) when L <= table.l_max, and refused past
    that. A miss walks for its cell alone; only library callers miss, as
    every command solves the cells it reads first.
    """
    _check_side(side)
    if L < 0 or R < 0 or R > L:
        raise ParameterError(f"need 0 <= R <= L, got L={L}, R={R}")
    closed = closed_form_f(L, R)
    if closed is not None:
        return closed
    entry = table.entries.get((L, R))
    if entry is None:
        if L > table.l_max:
            raise ExtrapolationRequiredError(
                f"f({L},{R}) is beyond the populated range (l_max="
                f"{table.l_max}); extrapolate instead")
        _solve_cells(table, [(L, R)])
        entry = table.entries[(L, R)]
    return entry.f_lower if side == "lower" else entry.f_upper


def alpha(L, R, table, side):
    """Bracketed capacity gap R - f(L, R), clamped at zero.

    side='lower' consumes the opposite f side, so it is a certified lower
    bound on the true gap, and vice versa.
    """
    _check_side(side)
    opposite = "upper" if side == "lower" else "lower"
    return max(0.0, R - f_value(L, R, table, opposite))


def f_tilde_value(L, D, table, side):
    """Deleted-count view: f~(L, D) = f(L, L - D)."""
    if D < 0 or D > L:
        raise ParameterError(f"need 0 <= D <= L, got L={L}, D={D}")
    return f_value(L, L - D, table, side)


def alpha_tilde(L, D, table, side):
    """Deleted-count view of the gap: alpha~(L, D) = alpha(L, L - D)."""
    if D < 0 or D > L:
        raise ParameterError(f"need 0 <= D <= L, got L={L}, D={D}")
    return alpha(L, L - D, table, side)


def extrapolate_alpha_lemma2(L, R, table):
    """Certified lower bound on alpha(L, R) past the table.

    The gap is non-decreasing in block length at fixed R, so the last
    populated value already bounds every longer block.
    """
    if L <= table.l_max:
        raise ParameterError(
            f"L={L} is within the populated range; use alpha()")
    if R > table.l_max:
        raise ParameterError(
            f"R={R} exceeds the populated l_max {table.l_max}")
    return alpha(table.l_max, R, table, "lower")


def extrapolate_tilde_alpha_lemma4(L, D, table, start=None):
    """Certified lower bound on alpha~(L, D) past the table.

    Chains alpha~(l+1, D) >= alpha~(l, D) (1 - D/(l+1)) from the last
    populated diagonal value at block length `start` (default l_max). The
    product of the factors over l = start..L-1 telescopes to
    C(start, D) / C(L, D), taken as one correctly rounded ratio of exact
    integers.
    """
    if start is None:
        start = table.l_max
    if D < 0 or D > start:
        raise ParameterError(f"need 0 <= D <= start={start}, got D={D}")
    if L <= start:
        raise ParameterError(f"L={L} is within the populated range")
    base = alpha_tilde(start, D, table, "lower")
    if D == 0 or base == 0.0:
        return base
    return base * (math.comb(start, D) / math.comb(L, D))


def _solve_share(table, channels):
    """Solve one share's cells, given as {(L, R): channel}, into
    table.entries in walk order, each as one _cell_folds walk hands out
    its fold, and return the entries solved. A stuck cell's
    SolverNotConvergedError carries, as .entries, those solved before
    it."""
    solved = {}
    for L, R, fold in _cell_folds(channels):
        channel = channels[(L, R)].folded(fold)
        del fold  # through the solve, channel alone holds the counts
        result = solve_capacity(channel, table.tolerance, table.max_iterations)
        del channel  # the walk folds the next cell without this one
        if not result.converged:
            stuck = SolverNotConvergedError(
                f"f({L},{R}) bracket stuck at width"
                f" {result.tolerance_achieved} after {result.iterations}"
                " iterations", result=result)
            stuck.entries = solved
            raise stuck
        solved[(L, R)] = table.entries[(L, R)] = TableEntry(
            result.capacity_lower, result.capacity_upper, table.tolerance,
            SOURCE_BAA)
    return solved


def _solve_cells(table, cells):
    """Solve the given cells into table.entries (see the module
    docstring), in one share or, with two or more CPUs, in a shallow and
    a deep one. A stuck cell raises the error the serial loop would raise
    first, with the table holding the entries a serial build holds then.
    """
    channels = {(L, R): build_fixed_deletion_channel(
        L, R, entry_budget=table.entry_budget) for L, R in cells}
    shallow, deep = {}, {}
    for cell, channel in channels.items():
        (shallow if cell[0] < table.l_max else deep)[cell] = channel
    shares = [channels]
    if shallow and deep and cpu_count() > 1:
        shares = [shallow, deep]
    try:
        for entries in run_shares(partial(_solve_share, table), shares):
            table.entries.update(entries)
    except SolverNotConvergedError as stuck:  # a worker's, or this share's
        table.entries.update(stuck.entries)
        raise


def unsolved(table, cells):
    """The cells, in the order given, that a solve would fill: those with
    no closed form (1 < R < L) that the table lacks or holds looser than
    its tolerance. A cell outside 0 <= R <= L is left to the formula that
    reads it, which refuses it."""
    return [(L, R) for L, R in cells if 1 < R < L and not (
        (L, R) in table.entries
        and table.entries[L, R].tolerance <= table.tolerance)]


def grid_cells(l_max, diagonal_l_max):
    """The cells populate_table may solve: rows to l_max, then diagonal."""
    return ([(L, R) for L in range(3, l_max + 1) for R in range(2, L)]
            + [(L, L - 1) for L in range(l_max + 1, diagonal_l_max + 1)])


def populate_table(table, *, diagonal_l_max=None):
    """Fill the full grid up to table.l_max, plus the R = L-1 diagonal up
    to diagonal_l_max, solving its unsolved cells in one _solve_cells
    call. Returns the table.
    """
    if diagonal_l_max is None:
        diagonal_l_max = table.l_max
    if diagonal_l_max < table.l_max:
        raise ParameterError("diagonal_l_max must be at least l_max")
    for L in range(table.l_max + 1):
        for R in {0, min(1, L), L}:
            value = closed_form_f(L, R)
            table.entries[(L, R)] = TableEntry(value, value, 0.0, SOURCE_CLOSED)
    _solve_cells(table, unsolved(table, grid_cells(table.l_max,
                                                   diagonal_l_max)))
    return table


def build_default_table(l_max=DEFAULT_L_MAX,
                        diagonal_l_max=DEFAULT_DIAGONAL_L_MAX,
                        tolerance=DEFAULT_TOLERANCE, **kwargs):
    """The desk-scale table: full grid to l_max, diagonal to diagonal_l_max."""
    table = CoefficientTable(l_max=l_max, tolerance=tolerance, **kwargs)
    return populate_table(table, diagonal_l_max=max(diagonal_l_max, l_max))


def serialize_table(table):
    """`delcap-ftable v1` text: sorted rows plus a CRC32 trailer.

    Floats are printed with repr, so a load sees the exact same binary64
    values and certified sides survive the round trip unrounded.
    """
    lines = [TABLE_HEADER]
    for (L, R) in sorted(table.entries):
        e = table.entries[(L, R)]
        lines.append(f"{L},{R},{e.f_lower!r},{e.f_upper!r},{e.tolerance!r},{e.source}")
    body = "\n".join(lines) + "\n"
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return body + f"checksum,{crc:08x}\n"


def save_table(table, path):
    """Write serialize_table(table) to path, and return that text."""
    text = serialize_table(table)
    Path(path).write_text(text, encoding="utf-8")
    return text


def load_table(path, **table_kwargs):
    """Read a table back, verifying header, every row, and the checksum.

    l_max is not stored in the file; it is recovered as the largest L
    whose row of R values is complete.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        raise TableVersionError(
            f"bad or missing header; expected {TABLE_HEADER!r}", line=1)
    if len(lines) < 2 or not lines[-1].startswith("checksum,"):
        raise TableChecksumError("missing checksum trailer", line=len(lines))
    body = "\n".join(lines[:-1]) + "\n"
    actual = f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"
    stated = lines[-1].split(",", 1)[1]
    if stated != actual:
        raise TableChecksumError(
            f"checksum {stated} does not match contents ({actual})",
            line=len(lines))
    entries = {}
    for lineno, row in enumerate(lines[1:-1], start=2):
        parts = row.split(",")
        if len(parts) != 6:
            raise TableRowError(f"expected 6 fields, got {len(parts)}",
                                line=lineno)
        try:
            L, R = int(parts[0]), int(parts[1])
            f_lo, f_hi, tol = (float(parts[2]), float(parts[3]),
                               float(parts[4]))
        except ValueError:
            raise TableRowError(f"unparsable numeric field in {row!r}",
                                line=lineno) from None
        source = parts[5]
        if source not in _SOURCES:
            raise TableRowError(f"unknown source {source!r}", line=lineno)
        if L < 0 or R < 0 or R > L:
            raise TableRowError(f"bad cell ({L},{R})", line=lineno)
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)) or f_lo > f_hi:
            raise TableRowError(
                f"invalid bracket [{parts[2]}, {parts[3]}]", line=lineno)
        if not tol >= 0.0:  # NaN included
            raise TableRowError(f"{parts[4]} is not a non-negative tolerance",
                                line=lineno)
        closed = closed_form_f(L, R)
        if closed is not None and (f_lo != closed or f_hi != closed):
            raise TableRowError(
                f"closed-form cell ({L},{R}) must equal {closed}", line=lineno)
        if (L, R) in entries:
            raise TableRowError(f"duplicate cell ({L},{R})", line=lineno)
        entries[(L, R)] = TableEntry(f_lo, f_hi, tol, source)
    levels = sorted({key[0] for key in entries})
    full = [L for L in levels
            if all((L, R) in entries for R in range(L + 1))]
    table = CoefficientTable(l_max=max(full, default=0), **table_kwargs)
    table.entries.update(entries)
    return table
