import re

import pytest

from delcap import (CoefficientTable, LemmaReport, ParameterError, TableEntry,
                    binary_entropy, conjecture2_report, populate_table,
                    verify_lemma, verify_lemma_suite)
from delcap.lemmas import LEMMA_IDS
from delcap.tables import SOURCE_BAA


def small_table(l_max=5, **kwargs):
    return populate_table(CoefficientTable(l_max=l_max), **kwargs)


def counts(table):
    """(instances, skipped, violations) per check, conjecture2 included."""
    reports = verify_lemma_suite(table) + [conjecture2_report(table)]
    return {r.lemma_id: (len(r.checked_instances), r.skipped,
                         len(r.violations)) for r in reports}


# an instance is skipped when it reads a cell past the table; only the
# checks over whole rows (L1..L4) reach past the diagonal
DEFAULT_COUNTS = {
    "L1": (84, 21, 0), "L2": (84, 21, 0), "L3": (70, 21, 0),
    "L4": (84, 21, 0), "L5": (27, 0, 0), "L6": (27, 0, 0),
    "L7": (13, 0, 0), "L8": (26, 0, 0), "L9": (26, 0, 0),
    "conjecture2": (13, 0, 0),
}
PARTIAL_COUNTS = {  # l_max=5, diagonal to 7
    "L1": (21, 7, 0), "L2": (21, 7, 0), "L3": (14, 7, 0),
    "L4": (21, 7, 0), "L5": (9, 0, 0), "L6": (9, 0, 0),
    "L7": (6, 0, 0), "L8": (12, 0, 0), "L9": (12, 0, 0),
    "conjecture2": (6, 0, 0),
}


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.11) == pytest.approx(0.5, abs=5e-4)
        assert binary_entropy(0.3) == binary_entropy(0.7)

    def test_rejections(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.01)
        with pytest.raises(ParameterError):
            binary_entropy(1.01)


class TestSuite:
    def test_clean_on_small_grid(self):
        reports = verify_lemma_suite(small_table())
        assert [r.lemma_id for r in reports] == list(LEMMA_IDS)
        for report in reports:
            assert report.violations == []
            assert report.checked_instances
            assert report.min_slack >= -1e-9

    def test_clean_on_default_table(self, default_table):
        # full grid to 12 plus the single-deletion diagonal to 14
        assert counts(default_table) == DEFAULT_COUNTS

    def test_diagonal_extension_skips_unresolved_cells(self):
        table = populate_table(CoefficientTable(l_max=4), diagonal_l_max=6)
        reports = {r.lemma_id: r for r in verify_lemma_suite(table)}
        assert reports["L1"].skipped > 0
        assert reports["L3"].skipped > 0
        assert all(not r.violations for r in reports.values())
        assert counts(small_table(diagonal_l_max=7)) == PARTIAL_COUNTS

    def test_two_part_checks_label_their_parts(self, default_table):
        for lemma_id, parts in (("L8", {"ratio_lower", "additive_upper"}),
                                ("L9", {"step_lower", "step_upper"})):
            report = verify_lemma(lemma_id, default_table)
            seen = {inst.parameters["part"]
                    for inst in report.checked_instances}
            assert seen == parts


class TestViolationDetection:
    def tampered(self):
        # a gap that shrinks with block length breaks the monotonicity
        # checks; certified sides make the measurement unambiguous
        table = small_table()
        table.entries[(5, 2)] = TableEntry(2.0, 2.0, 0.0, SOURCE_BAA)
        return table

    def test_flagged(self):
        report = verify_lemma("L2", self.tampered())
        assert report.violations
        worst = min(report.violations, key=lambda inst: inst.slack)
        assert worst.parameters == {"L": 4, "R": 2}
        assert worst.slack < 0.0
        assert report.min_slack == worst.slack

    def test_gap_upper_side_is_not_clamped(self):
        # f_lower above R puts the gap's upper side below zero; clamping
        # it at zero would hide part of the inconsistency
        table = small_table()
        table.entries[(5, 3)] = TableEntry(3.5, 3.6, 0.0, SOURCE_BAA)
        report = verify_lemma("L2", table)
        (inst,) = [inst for inst in report.checked_instances
                   if inst.parameters == {"L": 4, "R": 3}]
        assert inst.right_side == -0.5
        assert inst in report.violations

    def test_tolerance_gates_the_alarm(self):
        table = self.tampered()
        assert verify_lemma("L2", table, combined_tolerance=10.0).violations == []
        assert verify_lemma("L2", table, combined_tolerance=0.0).violations

    def test_rejections(self):
        table = small_table(l_max=2)
        with pytest.raises(ParameterError):
            verify_lemma("L10", table)
        with pytest.raises(ParameterError):
            verify_lemma("L1", table, combined_tolerance=-1.0)


class TestReports:
    def test_summary_line(self):
        report = verify_lemma("L7", small_table())
        assert re.fullmatch(
            r"lemma=L7 instances=\d+ violations=0 min_slack=-?\d.*",
            report.summary())

    def test_empty_report_has_no_min_slack(self):
        report = LemmaReport("L1")
        assert report.min_slack is None
        assert "min_slack=None" in report.summary()

    def test_slack_is_right_minus_left(self):
        report = verify_lemma("L1", small_table(l_max=3))
        inst = report.checked_instances[0]
        assert inst.slack == inst.right_side - inst.left_side


class TestConjecture2:
    def test_observed_on_default_table(self, default_table):
        report = conjecture2_report(default_table)
        assert report.lemma_id == "conjecture2"
        assert report.checked_instances
        assert report.violations == []
        mids = [inst.left_side for inst in report.checked_instances]
        assert mids == sorted(mids)

    def test_midpoints(self):
        table = small_table()
        report = conjecture2_report(table)
        inst = report.checked_instances[-1]
        L = inst.parameters["L"]
        entry = table.entries[(L, L - 1)]
        mid = (L - 1) - (entry.f_lower + entry.f_upper) / 2.0
        assert inst.left_side == pytest.approx(mid, abs=1e-12)
