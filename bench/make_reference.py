"""Record bench/reference.json: the outputs and exact counts of every
workload variant at the current commit.

Usage: python3 bench/make_reference.py

Runs each variant once, traced, in a fresh interpreter (a few minutes
in all). The benchmark checks later outputs against these figures with
tolerances any certified solver meets, so re-record only when a change
is meant to alter the outputs beyond them, and say so where the change
is described.
"""

import json
import shutil

from run import (BENCH, EXACT_COUNTS, ROOT, _git_commit, fresh_dir,
                 machine_provenance, run_child, source_digest)
from workloads import PREBUILT, WORKLOADS, read_rows, read_table


def rows_reference(path, grid=None):
    """A CSV output as the reference stores it: values to 12 significant
    digits (the checks allow 5e-3/L at least), a long d column as its
    grid."""
    rows = read_rows(path)
    kinds = [row[0] for row in rows]
    entry = {"kind": kinds[0] if len(set(kinds)) == 1 else kinds,
             "value": [float(f"{row[3]:.12g}") for row in rows]}
    if grid is not None:
        entry["grid"] = grid
    else:
        entry["d"] = [row[2] for row in rows]
    return entry


def record(workload, variant, work, tables):
    prebuilt = None
    if workload.prebuild is not None:
        built = work / "prebuild"
        fresh_dir(built, None)
        if run_child(built, [workload.prebuild.argv]) is None:
            raise SystemExit(f"{workload.name}: prebuild failed")
        tables["prebuilt"] = read_table(built / workload.prebuild.out)
        prebuilt = built / PREBUILT
    workdir = work / "trace"
    fresh_dir(workdir, prebuilt)
    steps = workload.steps(variant)
    result = run_child(workdir, [step.argv for step in steps], trace=True)
    if result is None or any(result["exit_codes"]):
        raise SystemExit(f"{workload.name} {variant}: a command failed")
    entry = {"counts": {name: result["layers"][name]
                        for name in EXACT_COUNTS}}
    for step in steps:
        if step.kind == "table":
            tables["table"] = read_table(workdir / step.out)
        elif step.kind == "rows":
            grid = variant if step.key == "best" else None
            entry[step.key] = rows_reference(workdir / step.out, grid)
    print(f"{workload.name} {variant}: {entry['counts']}", flush=True)
    return entry


def main():
    work = ROOT / ".bench_work" / "reference"
    tables, workloads = {}, {}
    for name, workload in WORKLOADS.items():
        workloads[name] = [record(workload, variant, work, tables)
                           for variant in workload.variants]
    shutil.rmtree(work)
    reference = {
        "provenance": {**machine_provenance(),
                       "source_sha256": source_digest(),
                       "git_commit": _git_commit()},
        "tables": {name: {key: list(bracket)
                          for key, bracket in table.items()}
                   for name, table in tables.items()},
        "workloads": workloads,
    }
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
