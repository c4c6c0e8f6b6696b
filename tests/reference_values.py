"""Frozen reference values used as read-only oracles by the test suite.

The two-decimal references follow two conventions. A capacity f(L, R)
is the true value rounded up, so the truth lies in (v - 0.01, v] and a
certified bracket agrees with reference v when it intersects
[v - 0.01, v]. A gap alpha~(L, 1) is the true value rounded down, so
the truth lies in [v, v + 0.01). Where a published figure breaks its
convention (tight certified brackets lie wholly outside its window), the
value here is corrected and the published figure kept in a comment.
"""

from fractions import Fraction

# Exact transition fractions of the fixed-deletion channel at L=3, R=2,
# keyed by (input bits, output bits). Rows not listed are zero.
FIXED_3_2_FRACTIONS = {
    ("000", "00"): Fraction(1),
    ("001", "00"): Fraction(1, 3),
    ("001", "01"): Fraction(2, 3),
    ("010", "00"): Fraction(1, 3),
    ("010", "01"): Fraction(1, 3),
    ("010", "10"): Fraction(1, 3),
    ("011", "01"): Fraction(2, 3),
    ("011", "11"): Fraction(1, 3),
    ("100", "00"): Fraction(1, 3),
    ("100", "10"): Fraction(2, 3),
    ("101", "01"): Fraction(1, 3),
    ("101", "10"): Fraction(1, 3),
    ("101", "11"): Fraction(1, 3),
    ("110", "10"): Fraction(2, 3),
    ("110", "11"): Fraction(1, 3),
    ("111", "11"): Fraction(1),
}

# Two-decimal reference values (rounded up) for the capacity f(L, R) of
# the fixed-deletion channel, L <= 7. Closed-form cells R in {0, 1, L}
# are omitted; they are exact by construction.
F_REFERENCE = {
    (3, 2): 1.47,  # published 1.48; certified 1.469782
    (4, 2): 1.35,
    (4, 3): 2.17,  # published 2.18; certified 2.169925 (log2 4.5)
    (5, 2): 1.30, (5, 3): 1.88, (5, 4): 2.87,
    (6, 2): 1.27,  # published 1.28; certified 1.269269
    (6, 3): 1.77, (6, 4): 2.43, (6, 5): 3.62,
    (7, 2): 1.25,  # published 1.26; certified 1.248270
    (7, 3): 1.70,  # published 1.71; certified 1.697265
    (7, 4): 2.23, (7, 5): 3.04, (7, 6): 4.41,
}

# Two-decimal reference values (rounded down) for the single-deletion
# capacity gap alpha~(L, 1), L = 10 .. 22.
ALPHA_TILDE_DIAGONAL = {
    10: 2.08, 11: 2.21, 12: 2.33,
    13: 2.45,  # published 2.44; certified [2.45130, 2.45140]
    14: 2.55,
    15: 2.65,  # published 2.64; certified [2.65276, 2.65286]
    16: 2.74,  # published 2.73; certified [2.74389, 2.74395]
    17: 2.82,
    18: 2.91,  # published 2.90; certified [2.91046, 2.91053]
    19: 2.98, 20: 3.05, 21: 3.12, 22: 3.19,
}

# Reference limiting slopes.
SMALL_D_SLOPE_L22 = 4.19          # (1 - c3)/d as d -> 0+ at L = 22
LARGE_D_RATIO_R8_L17 = 0.49       # c2_star/(1-d) as d -> 1- at R=8, l_max=17

# Prior published limiting constants, kept only for context comparisons
# (never targets of our own computations).
PRIOR_LARGE_D_UPPER = 0.7918      # published upper bound on C/(1-d) at d->1
PRIOR_LARGE_D_LOWER = 0.1185      # published lower bound on C/(1-d) at d->1

# Reference bound values at L=17 (long-run reproduction jobs).
C4_L17_D050 = 0.212                       # upper bound at d = 0.50
# c4 at L=18, d = 0.50, as the package computes it at the default solver
# tolerance; a pin of the deep run, not a published reference
C4_L18_D050 = 0.209058734084381
LOWER_L17 = {
    (0.01, "optimized"): 0.921,
    (0.01, "iud"): 0.921,
    (0.05, "optimized"): 0.724,
    (0.05, "iud"): 0.722,
    (0.10, "optimized"): 0.555,
    (0.10, "iud"): 0.546,
}

# Tolerance conventions for the references above.
ROUNDED_UP_TOLERANCE = 0.01       # bracket must intersect [v - 0.01, v]
TABLE_VALUE_TOLERANCE = 0.005     # three-decimal table entries, +-0.005 slack


def bracket_matches_reference(lower, upper, reference,
                              slack=ROUNDED_UP_TOLERANCE):
    """True when [lower, upper] intersects [reference - slack, reference]."""
    return lower <= reference and upper >= reference - slack
