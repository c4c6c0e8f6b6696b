"""Consistency checks on the monotonicity and smoothness of f and alpha.

Every check is an inequality `left <= right` between quantities the
table certifies with two-sided brackets. Each side is evaluated at its
conservative end (left as low as the bracket allows, right as high), so
the measured slack upper-bounds the true slack and a negative measurement
past the combined tolerance is a genuine violation, never solver noise.

Each check is a formula: its instances (parameter dicts) and one function
that returns (left, right) at an instance, reading cells through
f_value. The skip rule is stated once: an instance that reads a cell
past the populated range (f_value raises ExtrapolationRequiredError) is
counted as skipped, not guessed.
"""

import math
from dataclasses import dataclass, field
from functools import partial

from .errors import ExtrapolationRequiredError, ParameterError
from .tables import _top_level, alpha, f_value

DEFAULT_COMBINED_TOLERANCE = 1e-9


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


def _gap_high(L, R, table):
    # the gap's certified-upper side, unclamped: R - f_lower can dip
    # below zero on a tampered cell, and the check must see it
    return R - f_value(L, R, table, "lower")


def _gap_mid(L, R, table):
    return (alpha(L, R, table, "lower") + _gap_high(L, R, table)) / 2.0


def _entropy_step(L):
    return 1.0 - 1.0 / (L + 1) - binary_entropy(1.0 / (L + 1))


# instance sets, each drawn from the deepest level the table serves
def _cells(top):
    return ({"L": L, "R": R} for L in range(top) for R in range(L + 1))


def _deletions(top, first):
    return ({"L": L, "D": D}
            for L in range(first, top) for D in range(first, L + 1))


def _multiples(top):
    return ({"L": L, "n": n}
            for L in range(1, top + 1) for n in range(2, top // L + 1))


def _steps(top):
    return ({"L": L} for L in range(1, top))


def _parts(top, parts):
    return ({"L": L, "part": part} for L in range(1, top) for part in parts)


def _lemma1(table, L, R):
    # f(L+1, R) <= f(L, R): extra input bits never help at fixed outputs
    return f_value(L + 1, R, table, "lower"), f_value(L, R, table, "upper")


def _lemma2(table, L, R):
    # alpha(L, R) <= alpha(L+1, R): the gap never shrinks with length
    return alpha(L, R, table, "lower"), _gap_high(L + 1, R, table)


def _lemma3(table, L, D):
    # one more bit and the same deletion count: conditioning on whether
    # the new bit survives splits f~(L+1, D) between the two neighbours
    left = f_value(L + 1, L + 1 - D, table, "lower")
    a = f_value(L, L - D + 1, table, "upper")
    b = f_value(L, L - D, table, "upper")
    ratio = D / (L + 1)
    return left, a * ratio + (b + 1.0) * (1.0 - ratio)


def _lemma4(table, L, D):
    # alpha~(L+1, D) >= alpha~(L, D) (1 - D/(L+1))
    return (alpha(L, L - D, table, "lower") * (1.0 - D / (L + 1)),
            _gap_high(L + 1, L + 1 - D, table))


def _lemma5(table, L, n):
    # f~(nL, 1) <= f~(L, 1) + (n-1) L: chopping a long block into n
    # pieces loses at most the one deletion's worth of alignment
    return (f_value(n * L, n * L - 1, table, "lower"),
            f_value(L, L - 1, table, "upper") + (n - 1) * L)


def _lemma6(table, L, n):
    # alpha~(nL, 1) >= alpha~(L, 1)
    return alpha(L, L - 1, table, "lower"), _gap_high(n * L, n * L - 1, table)


def _lemma7(table, L):
    # f~(L+1, 1) >= f~(L, 1) + 1 - 1/(L+1) - h(1/(L+1))
    return (f_value(L, L - 1, table, "lower") + _entropy_step(L),
            f_value(L + 1, L, table, "upper"))


def _lemma8(table, L, part):
    # single-deletion gap grows, but by less than the entropy of where
    # the deletion landed
    if part == "ratio_lower":
        return (alpha(L, L - 1, table, "lower") * (1.0 - 1.0 / (L + 1)),
                _gap_high(L + 1, L, table))
    growth = 1.0 / (L + 1) + binary_entropy(1.0 / (L + 1))
    return alpha(L + 1, L, table, "lower"), _gap_high(L, L - 1, table) + growth


def _lemma9(table, L, part):
    # both sides of the increment f~(L+1, 1) - f~(L, 1)
    lo_now = f_value(L, L - 1, table, "lower")
    if part == "step_lower":
        return _entropy_step(L), f_value(L + 1, L, table, "upper") - lo_now
    hi_now = f_value(L, L - 1, table, "upper")
    return (f_value(L + 1, L, table, "lower") - hi_now,
            1.0 + (L - 1.0 - lo_now) / (L + 1))


def _conjecture2(table, L):
    return _gap_mid(L, L - 1, table), _gap_mid(L + 1, L, table)


# id -> (instances below a top level, formula giving (left, right) at one)
_CHECKS = {
    "L1": (_cells, _lemma1),
    "L2": (_cells, _lemma2),
    "L3": (partial(_deletions, first=1), _lemma3),
    "L4": (partial(_deletions, first=0), _lemma4),
    "L5": (_multiples, _lemma5),
    "L6": (_multiples, _lemma6),
    "L7": (_steps, _lemma7),
    "L8": (partial(_parts, parts=("ratio_lower", "additive_upper")), _lemma8),
    "L9": (partial(_parts, parts=("step_lower", "step_upper")), _lemma9),
}

LEMMA_IDS = tuple(_CHECKS)


def _rows(table, instances, formula):
    """(parameters, left, right) at each instance, or None at one that
    reads a cell past the table: the one place the skip rule lives."""
    for parameters in instances(_top_level(table)):
        try:
            left, right = formula(table, **parameters)
        except ExtrapolationRequiredError:
            yield None
            continue
        yield parameters, left, right


def _collect_report(report_id, rows, combined_tolerance):
    """LemmaReport over (parameters, left, right) rows: a None row is a
    skipped instance, and a slack below -combined_tolerance is a
    violation."""
    checked, violations = [], []
    skipped = 0
    for row in rows:
        if row is None:
            skipped += 1
            continue
        inst = LemmaInstance(*row)
        checked.append(inst)
        if inst.slack < -combined_tolerance:
            violations.append(inst)
    return LemmaReport(report_id, checked, violations, skipped)


def verify_lemma(lemma_id, table,
                 combined_tolerance=DEFAULT_COMBINED_TOLERANCE):
    if lemma_id not in _CHECKS:
        raise ParameterError(f"unknown lemma id {lemma_id!r}; "
                             f"expected one of {', '.join(LEMMA_IDS)}")
    if combined_tolerance < 0.0:
        raise ParameterError("combined_tolerance must be non-negative")
    return _collect_report(lemma_id, _rows(table, *_CHECKS[lemma_id]),
                           combined_tolerance)


def verify_lemma_suite(table, combined_tolerance=DEFAULT_COMBINED_TOLERANCE):
    """Run every check against the populated table; reports in id order."""
    return [verify_lemma(lemma_id, table, combined_tolerance)
            for lemma_id in LEMMA_IDS]


def conjecture2_report(table, combined_tolerance=DEFAULT_COMBINED_TOLERANCE):
    """Observed (not certified): the midpoint estimate of alpha~(L, 1)
    is non-decreasing in L. Bracket midpoints carry solver error, so a
    small negative slack here is only worth a look, not an alarm."""
    return _collect_report("conjecture2", _rows(table, _steps, _conjecture2),
                           combined_tolerance)
