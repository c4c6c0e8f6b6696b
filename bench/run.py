"""The delcap benchmark: run one workload for a fixed time and print its
metrics as JSON.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports delcap from the
checkout's `src/` and works in `.bench_work/` at its root. Each
repetition starts a fresh interpreter (bench/child.py) that runs the
workload's commands in-process through `delcap.cli.main`, so per-process
caches start cold, as they do for a user. Repetitions continue until
--seconds have passed (at least one runs); the timings reported are
medians over them. Every output row is checked against bench/reference.json
(see bench/README.md); the last line of stdout is
{"correct", "attempted", "failed", "metrics"}, the line before it the
provenance of the run.

--trace 0 reports the end-to-end metrics that BENCHMARK.json lists.
The time metric is norm_wall_s: each repetition's wall time with the
workload's probe (bench/child.py) taken out and scaled by
PROBE_REFERENCE_S over the probe's median time in that repetition. On a
shared host whose speed drifts by up to 2x over seconds to minutes, this
removes the drift that no run length averages out; the raw wall times
are in the provenance line.
--trace 1 runs the commands once untraced and once with the layer
wrappers of bench/tracer.py and reports its per-layer metrics; the
traced spans go to
.bench_work/<workload>/trace/spans.jsonl.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# bench/ is on sys.path as the script's own directory
from workloads import PREBUILT, WORKLOADS, Brackets, Tally, check_step

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# import-only repetitions topped up to this many set-up samples per run
SETUP_SAMPLES = 9
# curves_warm builds its shared table this many times per run
PREBUILD_SAMPLES = 3
CHILD_TIMEOUT_S = 170
# median times of the child's speed probes on the 2-vCPU Xeon (Sapphire
# Rapids) VM where the benchmark was defined; norm_wall_s is the wall
# time at that speed
PROBE_REFERENCE_S = {"interpreter": 2.2e-4, "memory": 1.1e-3}

# counts that repeat exactly from run to run; the traced run compares
# them with the figures recorded with the reference
EXACT_COUNTS = ("baa.solves", "baa.iterations", "baa.nonconverged",
                "channel.fixed.calls", "channel.fixed.nnz",
                "channel.binomial.calls", "channel.binomial.nnz",
                "channel.binomial.cold_builds", "tables.cells_solved",
                "tables.lookup.calls", "bounds.evaluate.calls",
                "combinatorics.weight.calls", "lemmas.instances",
                "cli.commands")


def workload_properties(name, layers):
    """What each workload exists to exercise; a workload that silently
    stops loading its layer fails here."""
    solves, cold = layers["baa.solves"], layers["channel.binomial.cold_builds"]
    return {
        "table_build": {"solves fixed-deletion cells":
                        layers["tables.cells_solved"] > 0
                        and layers["channel.fixed.calls"] > 0,
                        "runs the lemma suite": layers["lemmas.instances"] > 0},
        "c4_sweep": {"solves c4 on one binomial channel":
                     solves > 0 and cold == 1},
        "curves_warm": {"makes zero solves": solves == 0,
                        "builds no channel": layers["channel.fixed.calls"]
                        + layers["channel.binomial.calls"] == 0,
                        "reads the table": layers["tables.lookup.calls"] > 0},
    }[name]


def run_child(workdir, commands, trace=False, probe=None):
    """Run commands in a fresh interpreter in workdir; the child's result
    dict, or None when it did not finish."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC), "commands": commands, "trace": trace, "probe": probe,
        "spans": str(workdir / "spans.jsonl"),
        "result": str(workdir / "result.json")}), encoding="utf-8")
    with open(workdir / "child.log", "w", encoding="utf-8") as log:
        argv = [sys.executable, str(BENCH / "child.py"), str(spec_path)]
        try:
            spawned = time.monotonic()
            done = subprocess.run(argv + [repr(spawned)], cwd=workdir,
                                  stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None
    if done.returncode != 0 or not (workdir / "result.json").exists():
        sys.stderr.write((workdir / "child.log").read_text(encoding="utf-8"))
        return None
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def check_child(result, steps, workdir, expected, brackets, tally):
    exit_codes = result["exit_codes"] if result else [None] * len(steps)
    for step, code in zip(steps, exit_codes):
        check_step(step, code, workdir, expected, brackets, tally)


def prebuild(workload, work, expected, brackets, tally, samples):
    """Build the shared table `samples` times in fresh processes; return
    the set-up times and the directory holding the last table."""
    times = []
    for i in range(samples):
        workdir = work / f"prebuild{i}"
        result = run_child(workdir, [workload.prebuild.argv])
        if result is not None:
            times.append(result["setup_s"] + result["wall_s"])
    check_child(result, [workload.prebuild], workdir, expected, brackets,
                tally)
    return times, workdir


def fresh_dir(path, prebuilt):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    if prebuilt is not None:
        shutil.copy(prebuilt, path / prebuilt.name)


def timed_run(workload, steps, seconds, work, expected, brackets, tally):
    commands = [step.argv for step in steps]
    setup, prebuilt = [], None
    if workload.prebuild is not None:
        setup, built = prebuild(workload, work, expected, brackets, tally,
                                PREBUILD_SAMPLES)
        prebuilt = built / PREBUILT
    norm, walls, probes, rss = [], [], [], []
    start = time.monotonic()
    longest = 0.0
    while not norm or time.monotonic() - start + longest <= seconds:
        workdir = work / "rep"
        fresh_dir(workdir, prebuilt)
        began = time.monotonic()
        result = run_child(workdir, commands, probe=workload.probe)
        longest = max(longest, time.monotonic() - began)
        check_child(result, steps, workdir, expected, brackets, tally)
        if result is None:
            norm.append(longest)
            continue
        norm.append((result["wall_s"] - result["probe_in_wall_s"])
                    * PROBE_REFERENCE_S[workload.probe] / result["probe_s"])
        walls.append(result["wall_s"])
        probes.append(result["probe_s"])
        rss.append(result["peak_rss_mb"])
        if prebuilt is None:
            setup.append(result["setup_s"])
    while prebuilt is None and len(setup) < SETUP_SAMPLES:
        result = run_child(work / "import", [])
        if result is None:
            break
        setup.append(result["setup_s"])
    return ({"norm_wall_s": statistics.median(norm),
             "setup_s": statistics.median(setup) if setup else 0.0,
             "peak_rss_mb": statistics.median(rss) if rss else 0.0},
            {"norm_wall_samples": norm, "wall_samples": walls,
             "probe_samples": probes, "setup_samples": setup})


def trace_run(workload, steps, work, expected, brackets, tally):
    commands = [step.argv for step in steps]
    prebuilt = None
    if workload.prebuild is not None:
        _, built = prebuild(workload, work, expected, brackets, tally, 1)
        prebuilt = built / PREBUILT
    runs = {}
    for mode in ("plain", "trace"):
        workdir = work / mode
        fresh_dir(workdir, prebuilt)
        runs[mode] = run_child(workdir, commands, trace=mode == "trace")
        check_child(runs[mode], steps, workdir, expected, brackets, tally)
    plain, traced = runs["plain"], runs["trace"]
    if plain is None or traced is None:
        return None, {"traced run": False}
    layers = traced["layers"]
    layers["proc.cpu_s"] = plain["cpu_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # outside the outermost spans the child only loops over the commands
    gap = layers["trace.wall_s"] - layers["trace.self_sum_s"]
    checks = {"layer self times sum to the traced wall time":
              0.0 <= gap <= 0.01 + 0.01 * layers["trace.wall_s"]}
    checks.update(workload_properties(workload.name, layers))
    sys.stderr.write(f"spans: {work / 'trace' / 'spans.jsonl'}\n")
    return layers, checks


def compare_counts(layers, recorded, provenance, recorded_provenance):
    """Report exact counts that differ from the recorded figures. A
    change to the solver or channel may move them legitimately, so this
    warns rather than failing the run."""
    drift = {name: [recorded[name], layers[name]] for name in EXACT_COUNTS
             if recorded.get(name) != layers[name]}
    for name, (was, now) in drift.items():
        sys.stderr.write(f"COUNT CHANGED: {name} {now} (recorded {was})\n")
    keys = ("python", "numpy", "scipy", "blas", "cpu_model")
    moved = {k: [recorded_provenance.get(k), provenance.get(k)] for k in keys
             if recorded_provenance.get(k) != provenance.get(k)}
    if drift and moved:
        sys.stderr.write(f"note: the recorded counts come from another "
                         f"machine or toolchain: {moved}\n")
    return drift


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def machine_provenance():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def load_two_decimal_check():
    """Bracket check against the two-decimal references of the test
    suite (tests/reference_values.py, imported read-only)."""
    spec = importlib.util.spec_from_file_location(
        "reference_values", ROOT / "tests" / "reference_values.py")
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)

    def check(key, lo, hi):
        L, R = map(int, key.split(","))
        value = ref.F_REFERENCE.get((L, R))
        if value is not None and not ref.bracket_matches_reference(lo, hi,
                                                                   value):
            return f"f{key} bracket [{lo}, {hi}] misses reference {value}"
        # the gap row alpha~(L,1) = (L-1) - f(L,L-1) is matched within
        # +-0.01, as in the acceptance suite
        value = ref.ALPHA_TILDE_DIAGONAL.get(L) if R == L - 1 else None
        slack = ref.ROUNDED_UP_TOLERANCE
        if value is not None and (R - hi > value + slack
                                  or R - lo < value - slack):
            return (f"alpha~({L},1) = [{R - hi}, {R - lo}] misses reference "
                    f"{value}")
        return None
    return check


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    reference_path = BENCH / "reference.json"
    for needed in (SRC / "delcap" / "__init__.py", reference_path,
                   ROOT / "BENCHMARK.json",
                   ROOT / "tests" / "reference_values.py"):
        if not needed.is_file():
            sys.exit(f"error: {needed} is missing; run from a delcap checkout")
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))

    workload = WORKLOADS[args.workload]
    index = args.seed % len(workload.variants)
    variant = workload.variants[index]
    steps = workload.steps(variant)
    expected = {**reference["tables"],
                **reference["workloads"][workload.name][index]}
    brackets = Brackets(reference["tables"].values(),
                        load_two_decimal_check())
    work = ROOT / ".bench_work" / workload.name
    if work.exists():
        shutil.rmtree(work)
    tally = Tally()
    provenance = {**machine_provenance(), "source_sha256": source_digest(),
                  "git_commit": _git_commit(), "workload": workload.name,
                  "seed": args.seed, "variant": variant,
                  "commands": [step.argv for step in steps]}

    if args.trace:
        values, checks = trace_run(workload, steps, work, expected, brackets,
                                   tally)
        listed = benchmark["per_layer"]
        if values is not None:
            drift = compare_counts(values, expected["counts"], provenance,
                                   reference["provenance"])
            provenance["counts_match_reference"] = not drift
        provenance["trace_checks"] = checks
    else:
        values, sampling = timed_run(workload, steps, args.seconds, work,
                                     expected, brackets, tally)
        listed = benchmark["end_to_end"]
        checks = {}
        provenance.update(sampling)
    for message in tally.messages:
        sys.stderr.write(f"FAILED: {message}\n")
    for name, ok in checks.items():
        if not ok:
            sys.stderr.write(f"FAILED: {name}\n")
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0,
                           "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        sys.stderr.write(f"{name:32s} {metric['value']:>16.6g} "
                         f"{metric['unit']}\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": tally.failed == 0 and all(checks.values()),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
