"""The benchmark's workloads: the delcap commands each one runs, how the
seed picks its inputs, and the checks on every output row.

Every check holds for any certified solver, not just the one at the
commit that recorded the reference: two certified brackets of one
f(L, R) must overlap, and two certified c4 values at one d differ by at
most tol/L. An op is one output row (a table cell, a bound at one d, a
lemma line); it fails when its command exits non-zero or a check fails.
"""

import zlib
from dataclasses import dataclass, field

TOL = 5e-3
# slack for binary64 rounding in widths and differences of brackets
EPS = 1e-12
CSV_HEADER = "kind,params,d,value,side,tolerance"
TABLE_HEADER = "delcap-ftable v1"
LEMMA_IDS = tuple(f"L{i}" for i in range(1, 10))
PREBUILT = "prebuilt.txt"


@dataclass(frozen=True)
class Step:
    argv: list
    out: str            # output file, relative to the work directory
    kind: str           # "table", "lemmas" or "rows"
    key: str = None     # the variant's reference entry it is checked against
    tolerance: float = TOL


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple     # the seed picks variants[seed % len(variants)]
    steps: object       # variant -> list of Step
    prebuild: Step = None  # builds the shared table during set-up
    # what bounds the commands' speed, so what bench/child.py probes:
    # "interpreter" (Python code, small cached arrays) or "memory"
    # (products over a channel larger than the core's caches)
    probe: str = "interpreter"


def _args(*argv):
    return [str(a) for a in argv] + ["--tol", str(TOL)]


def _table_build(_variant):
    return [
        Step(_args("table", "--l-max", 13, "--diag-l-max", 14,
                   "--cache", "ftable.txt", "--out", "table.txt"),
             "table.txt", "table", "table"),
        Step(_args("verify", "--cache", "ftable.txt", "--out", "verify.txt"),
             "verify.txt", "lemmas"),
    ]


def _c4_sweep(grid):
    return [Step(_args("sweep", "--kind", "c4", "--L", 12, "--d-grid", grid,
                       "--out", "c4.csv"),
                 "c4.csv", "rows", "c4", TOL / 12)]


def _curves_warm(grid):
    cache = ("--cache", PREBUILT)
    return [
        Step(_args("sweep", "--kind", "best", "--d-grid", grid, *cache,
                   "--out", "best.csv"), "best.csv", "rows", "best"),
        Step(_args("sweep", "--kind", "c1_star", *cache, "--out", "c1.csv"),
             "c1.csv", "rows", "c1_star"),
        Step(_args("limits", "--L", 10, "--R", 8, *cache,
                   "--out", "limits.csv"), "limits.csv", "rows", "limits"),
        Step(_args("verify", *cache, "--out", "verify.txt"),
             "verify.txt", "lemmas"),
    ]


# Seed variants keep the work per run level (iterations within ~3% of
# seed 0's) so that a seed change does not read as a speed change: the
# c4 grids shift by under one step.
WORKLOADS = {
    "table_build": Workload("table_build", (None,), _table_build),
    "c4_sweep": Workload(
        "c4_sweep", ("0.05:0.95:0.05", "0.0525:0.9525:0.05",
                     "0.055:0.955:0.05", "0.0575:0.9575:0.05"), _c4_sweep,
        probe="memory"),
    "curves_warm": Workload(
        "curves_warm", ("0.0005:0.9995:0.0005", "0.00075:0.99975:0.0005"),
        _curves_warm,
        prebuild=Step(_args("table", "--cache", PREBUILT,
                            "--out", "prebuilt_table.txt"),
                      "prebuilt_table.txt", "table", "prebuilt")),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def op(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Brackets:
    """Running intersection of every certified bracket seen per cell,
    starting from the one recorded in the reference; any two brackets of
    one f(L, R) overlap exactly when the intersection stays non-empty."""

    def __init__(self, reference_tables, two_decimal):
        self.cells = {}
        for table in reference_tables:
            for key, (lo, hi) in table.items():
                known = self.cells.get(key, (lo, hi))
                self.cells[key] = (max(known[0], lo), min(known[1], hi))
        self.two_decimal = two_decimal

    def admit(self, key, lo, hi):
        known = self.cells.get(key)
        if known is None:
            return f"cell {key} is not in the reference"
        joint = (max(known[0], lo), min(known[1], hi))
        if joint[0] > joint[1] + EPS:
            return f"cell {key} bracket [{lo}, {hi}] misses {list(known)}"
        self.cells[key] = joint
        return self.two_decimal(key, lo, hi)


def closed_form(L, R):
    return {0: 0.0, 1: 1.0, L: float(L)}.get(R)


def read_table(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        raise ValueError("bad table header")
    body = "\n".join(lines[:-1]) + "\n"
    if lines[-1] != f"checksum,{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}":
        raise ValueError("bad table checksum")
    cells = {}
    for line in lines[1:-1]:
        L, R, lo, hi, _tol, _source = line.split(",")
        cells[f"{L},{R}"] = (float(lo), float(hi))
    return cells


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad CSV header")
    rows = []
    for line in lines[1:]:
        kind, params, d, value, side, tolerance = line.split(",")
        rows.append((kind, params, float(d), float(value), side))
    return rows


def read_lemmas(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [dict(pair.split("=", 1) for pair in line.split()) for line in lines]


def check_table(cells, expected, brackets, tally, label):
    for key in sorted(set(cells) | set(expected)):
        if key not in cells:
            tally.op(False, f"{label}: cell {key} missing")
            continue
        lo, hi = cells[key]
        L, R = map(int, key.split(","))
        exact = closed_form(L, R)
        if exact is not None:
            tally.op(lo == hi == exact,
                     f"{label}: closed-form cell {key} reads [{lo}, {hi}]")
            continue
        if not 0.0 <= hi - lo <= TOL + EPS:
            tally.op(False, f"{label}: cell {key} width {hi - lo} > {TOL}")
            continue
        problem = brackets.admit(key, lo, hi)
        tally.op(problem is None, f"{label}: {problem}")


def check_lemmas(lines, tally, label):
    by_id = {line.get("lemma"): line for line in lines}
    for lemma_id in LEMMA_IDS:
        line = by_id.get(lemma_id)
        tally.op(line is not None and line.get("violations") == "0",
                 f"{label}: lemma {lemma_id} line {line}")


def expected_rows(expected):
    """(kind, d, value) per row. The reference stores a shared kind as one
    string and a long d column as its grid START:STOP:STEP."""
    values = expected["value"]
    kinds = expected["kind"]
    if isinstance(kinds, str):
        kinds = [kinds] * len(values)
    if "grid" in expected:
        start, _stop, step = map(float, expected["grid"].split(":"))
        ds = [start + i * step for i in range(len(values))]
    else:
        ds = expected["d"]
    return list(zip(kinds, ds, values))


def check_rows(rows, expected, tolerance, tally, label):
    """Rows against the reference: same kind and d, value within
    tolerance of the recorded one, and never above the erasure bound."""
    wanted = expected_rows(expected)
    if len(rows) > len(wanted):
        tally.op(False, f"{label}: {len(rows)} rows, expected {len(wanted)}")
    for i, (kind, d, value) in enumerate(wanted):
        if i >= len(rows):
            tally.op(False, f"{label}: row {i} missing")
            continue
        row_kind, _params, row_d, row_value, _side = rows[i]
        ok = (row_kind == kind and abs(row_d - d) <= 1e-9
              and abs(row_value - value) <= tolerance + EPS
              and (kind.startswith("limit") or row_value <= 1.0 - row_d))
        tally.op(ok, f"{label}: row {i} {rows[i]} vs d={d} value={value}")


def check_step(step, exit_code, workdir, expected, brackets, tally):
    """Check one command's output against the variant's reference."""
    label = f"{step.argv[0]} -> {step.out}"
    try:
        if exit_code != 0:
            raise ValueError(f"exit code {exit_code}")
        path = workdir / step.out
        if step.kind == "table":
            check_table(read_table(path), expected[step.key], brackets,
                        tally, label)
        elif step.kind == "lemmas":
            check_lemmas(read_lemmas(path), tally, label)
        else:
            check_rows(read_rows(path), expected[step.key], step.tolerance,
                       tally, label)
    except (OSError, ValueError) as exc:
        if step.kind == "lemmas":
            count = len(LEMMA_IDS)
        elif step.kind == "table":
            count = len(expected[step.key])
        else:
            count = len(expected[step.key]["value"])
        for _ in range(count):
            tally.op(False, f"{label}: {exc}")
