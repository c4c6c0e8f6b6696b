"""The two-decimal references against tight certified brackets.

A bracket of width 1e-4 sits inside a reference's 0.01 window unless the
reference breaks its own rounding convention, so these tests check the
oracles themselves rather than the table code that other tests compare
with them.
"""

from delcap import build_fixed_deletion_channel, solve_capacity

from reference_values import ALPHA_TILDE_DIAGONAL, F_REFERENCE

TIGHT = 1e-4


def tight_f_bracket(L, R):
    channel = build_fixed_deletion_channel(L, R).folded()
    result = solve_capacity(channel, TIGHT)
    assert result.converged
    return result.capacity_lower, result.capacity_upper


def test_f_references_round_up():
    for (L, R), reference in F_REFERENCE.items():
        lo, hi = tight_f_bracket(L, R)
        assert reference - 0.01 < lo and hi <= reference, (L, R, lo, hi)


def test_gap_references_round_down():
    for L in range(10, 15):
        reference = ALPHA_TILDE_DIAGONAL[L]
        f_lo, f_hi = tight_f_bracket(L, L - 1)
        lo, hi = (L - 1) - f_hi, (L - 1) - f_lo
        assert reference <= lo and hi < reference + 0.01, (L, lo, hi)
