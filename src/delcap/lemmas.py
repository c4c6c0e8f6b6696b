"""Consistency checks on the monotonicity and smoothness of f and alpha.

Every check is an inequality `left <= right` between quantities the
table certifies with two-sided brackets. Each side is evaluated at its
conservative end (left as low as the bracket allows, right as high), so
the measured slack upper-bounds the true slack and a negative measurement
past the combined tolerance is a genuine violation, never solver noise.
Instances whose cells fall outside the populated range are skipped, not
guessed.
"""

import math
from dataclasses import dataclass, field

from .errors import ExtrapolationRequiredError, ParameterError
from .tables import _top_level, f_value

DEFAULT_COMBINED_TOLERANCE = 1e-9

LEMMA_IDS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9")


def binary_entropy(x):
    if x < 0.0 or x > 1.0:
        raise ParameterError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class LemmaInstance:
    parameters: dict
    left_side: float
    right_side: float

    @property
    def slack(self):
        return self.right_side - self.left_side


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    checked_instances: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    skipped: int = 0

    @property
    def min_slack(self):
        if not self.checked_instances:
            return None
        return min(inst.slack for inst in self.checked_instances)

    def summary(self):
        return (f"lemma={self.lemma_id} instances={len(self.checked_instances)}"
                f" violations={len(self.violations)}"
                f" min_slack={self.min_slack!r}")


class _Resolver:
    """Bracket lookups that skip (return None) outside the table."""

    def __init__(self, table):
        self.table = table

    def f(self, L, R, side):
        try:
            return f_value(L, R, self.table, side)
        except ExtrapolationRequiredError:
            return None

    def alpha_low(self, L, R):
        f_hi = self.f(L, R, "upper")
        return None if f_hi is None else max(0.0, R - f_hi)

    def alpha_high(self, L, R):
        f_lo = self.f(L, R, "lower")
        return None if f_lo is None else R - f_lo


def _lemma1(res, emit):
    # f(L+1, R) <= f(L, R): extra input bits never help at fixed outputs
    for L in range(_top_level(res.table)):
        for R in range(L + 1):
            left = res.f(L + 1, R, "lower")
            right = res.f(L, R, "upper")
            emit({"L": L, "R": R}, left, right)


def _lemma2(res, emit):
    # alpha(L, R) <= alpha(L+1, R): the gap never shrinks with length
    for L in range(_top_level(res.table)):
        for R in range(L + 1):
            emit({"L": L, "R": R},
                 res.alpha_low(L, R), res.alpha_high(L + 1, R))


def _lemma3(res, emit):
    # one more bit and the same deletion count: conditioning on whether
    # the new bit survives splits f~(L+1, D) between the two neighbours
    for L in range(1, _top_level(res.table)):
        for D in range(1, L + 1):
            left = res.f(L + 1, L + 1 - D, "lower")
            a = res.f(L, L - D + 1, "upper")
            b = res.f(L, L - D, "upper")
            if left is None or a is None or b is None:
                emit({"L": L, "D": D}, None, None)
                continue
            ratio = D / (L + 1)
            emit({"L": L, "D": D}, left, a * ratio + (b + 1.0) * (1.0 - ratio))


def _lemma4(res, emit):
    # alpha~(L+1, D) >= alpha~(L, D) (1 - D/(L+1))
    for L in range(_top_level(res.table)):
        for D in range(L + 1):
            low = res.alpha_low(L, L - D)
            high = res.alpha_high(L + 1, L + 1 - D)
            if low is None or high is None:
                emit({"L": L, "D": D}, None, None)
                continue
            emit({"L": L, "D": D}, low * (1.0 - D / (L + 1)), high)


def _multiples(res):
    top = _top_level(res.table)
    for L in range(1, top + 1):
        for n in range(2, top // L + 1):
            yield L, n


def _lemma5(res, emit):
    # f~(nL, 1) <= f~(L, 1) + (n-1) L: chopping a long block into n
    # pieces loses at most the one deletion's worth of alignment
    for L, n in _multiples(res):
        left = res.f(n * L, n * L - 1, "lower")
        right = res.f(L, L - 1, "upper")
        if left is None or right is None:
            emit({"L": L, "n": n}, None, None)
            continue
        emit({"L": L, "n": n}, left, right + (n - 1) * L)


def _lemma6(res, emit):
    # alpha~(nL, 1) >= alpha~(L, 1)
    for L, n in _multiples(res):
        emit({"L": L, "n": n},
             res.alpha_low(L, L - 1), res.alpha_high(n * L, n * L - 1))


def _lemma7(res, emit):
    # f~(L+1, 1) >= f~(L, 1) + 1 - 1/(L+1) - h(1/(L+1))
    for L in range(1, _top_level(res.table)):
        base = res.f(L, L - 1, "lower")
        nxt = res.f(L + 1, L, "upper")
        if base is None or nxt is None:
            emit({"L": L}, None, None)
            continue
        step = 1.0 - 1.0 / (L + 1) - binary_entropy(1.0 / (L + 1))
        emit({"L": L}, base + step, nxt)


def _lemma8(res, emit):
    # single-deletion gap grows, but by less than the entropy of where
    # the deletion landed
    for L in range(1, _top_level(res.table)):
        low_now = res.alpha_low(L, L - 1)
        high_now = res.alpha_high(L, L - 1)
        low_next = res.alpha_low(L + 1, L)
        high_next = res.alpha_high(L + 1, L)
        if None in (low_now, high_now, low_next, high_next):
            emit({"L": L, "part": "ratio_lower"}, None, None)
            emit({"L": L, "part": "additive_upper"}, None, None)
            continue
        emit({"L": L, "part": "ratio_lower"},
             low_now * (1.0 - 1.0 / (L + 1)), high_next)
        growth = 1.0 / (L + 1) + binary_entropy(1.0 / (L + 1))
        emit({"L": L, "part": "additive_upper"}, low_next, high_now + growth)


def _lemma9(res, emit):
    # both sides of the increment f~(L+1, 1) - f~(L, 1)
    for L in range(1, _top_level(res.table)):
        lo_now = res.f(L, L - 1, "lower")
        hi_now = res.f(L, L - 1, "upper")
        lo_next = res.f(L + 1, L, "lower")
        hi_next = res.f(L + 1, L, "upper")
        if None in (lo_now, hi_now, lo_next, hi_next):
            emit({"L": L, "part": "step_lower"}, None, None)
            emit({"L": L, "part": "step_upper"}, None, None)
            continue
        step = 1.0 - 1.0 / (L + 1) - binary_entropy(1.0 / (L + 1))
        emit({"L": L, "part": "step_lower"}, step, hi_next - lo_now)
        emit({"L": L, "part": "step_upper"},
             lo_next - hi_now, 1.0 + (L - 1.0 - lo_now) / (L + 1))


_BUILDERS = {
    "L1": _lemma1, "L2": _lemma2, "L3": _lemma3, "L4": _lemma4,
    "L5": _lemma5, "L6": _lemma6, "L7": _lemma7, "L8": _lemma8,
    "L9": _lemma9,
}


def _collect_report(report_id, rows, combined_tolerance):
    """LemmaReport over (parameters, left, right) rows: a row missing a
    side (None) is skipped, and a slack below -combined_tolerance is a
    violation."""
    checked, violations = [], []
    skipped = 0
    for parameters, left, right in rows:
        if left is None or right is None:
            skipped += 1
            continue
        inst = LemmaInstance(parameters, left, right)
        checked.append(inst)
        if inst.slack < -combined_tolerance:
            violations.append(inst)
    return LemmaReport(report_id, checked, violations, skipped)


def verify_lemma(lemma_id, table,
                 combined_tolerance=DEFAULT_COMBINED_TOLERANCE):
    if lemma_id not in _BUILDERS:
        raise ParameterError(f"unknown lemma id {lemma_id!r}; "
                             f"expected one of {', '.join(LEMMA_IDS)}")
    if combined_tolerance < 0.0:
        raise ParameterError("combined_tolerance must be non-negative")
    rows = []
    _BUILDERS[lemma_id](_Resolver(table),
                        lambda *row: rows.append(row))
    return _collect_report(lemma_id, rows, combined_tolerance)


def verify_lemma_suite(table, combined_tolerance=DEFAULT_COMBINED_TOLERANCE):
    """Run every check against the populated table; reports in id order."""
    return [verify_lemma(lemma_id, table, combined_tolerance)
            for lemma_id in LEMMA_IDS]


def conjecture2_report(table, combined_tolerance=DEFAULT_COMBINED_TOLERANCE):
    """Observed (not certified): the midpoint estimate of alpha~(L, 1)
    is non-decreasing in L. Bracket midpoints carry solver error, so a
    small negative slack here is only worth a look, not an alarm."""
    res = _Resolver(table)
    rows = []
    for L in range(1, _top_level(table)):
        lo_a, hi_a = res.alpha_low(L, L - 1), res.alpha_high(L, L - 1)
        lo_b, hi_b = res.alpha_low(L + 1, L), res.alpha_high(L + 1, L)
        if None in (lo_a, hi_a, lo_b, hi_b):
            rows.append(({"L": L}, None, None))
        else:
            rows.append(({"L": L}, (lo_a + hi_a) / 2.0, (lo_b + hi_b) / 2.0))
    return _collect_report("conjecture2", rows, combined_tolerance)
