"""One repetition in a fresh interpreter: import delcap from the checkout,
run the workload's commands in-process through `delcap.cli.main`, and
write the timings to a JSON file.

Usage: python3 bench/child.py SPEC.json SPAWNED, run with the work
directory as the current directory. SPAWNED is time.monotonic() just
before the parent started this process (the clock is system-wide), so
set-up time counts interpreter start. SPEC holds `src` (the directory to
import delcap from), `commands` (argv lists), `trace`, `probe`, `spans`
(where the traced run writes its spans) and `result`.

With `probe` set to one of PROBE_INTERVAL_S, a SIGALRM handler times a
fixed piece of work at that interval while the commands run: a
pure-Python loop ("interpreter") or a sum over an 8 MB array
("memory"). The median of those times is the speed the host gave this
process during the commands; bench/run.py divides it out of the wall
time.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time

# each probe takes ~1-2% of the time it samples
PROBE_INTERVAL_S = {"interpreter": 0.02, "memory": 0.05}


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _probe(durations, stream):
    """Time a fixed loop of dict updates and float arithmetic (~0.2 ms),
    or with `stream` one pass over it (~1 ms)."""
    start = time.perf_counter()
    if stream is not None:
        stream.sum()
    else:
        table, acc = {}, 0.0
        for i in range(400):
            key = i * 7919 % 499
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += table[key]
    durations.append(time.perf_counter() - start)


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import delcap.cli
    ready = time.monotonic()
    if not os.path.abspath(delcap.__file__).startswith(spec["src"] + os.sep):
        sys.exit(f"delcap imported from {delcap.__file__}, not {spec['src']}")

    run_command = delcap.cli.main
    if spec["trace"]:
        import tracer  # bench/ is on sys.path as the script's directory
        recorder = tracer.Recorder()
        tracer.install(recorder)
        run_command = recorder.span("cli.command", delcap.cli.main)

    probes = []
    if spec["probe"]:
        import numpy
        stream = numpy.ones(1 << 20) if spec["probe"] == "memory" else None
        _probe(probes, stream)  # outside the timed span: there is always one
        signal.signal(signal.SIGALRM, lambda *_: _probe(probes, stream))
        interval = PROBE_INTERVAL_S[spec["probe"]]
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
    cpu_start = _cpu_s()
    start = time.perf_counter()
    exit_codes = [run_command(argv) for argv in spec["commands"]]
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s = time.perf_counter() - start
    result = {
        "setup_s": ready - float(sys.argv[2]),
        "wall_s": wall_s,
        "cpu_s": _cpu_s() - cpu_start,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if probes:
        result["probe_s"] = statistics.median(probes)
        result["probe_in_wall_s"] = sum(probes[1:])
    if spec["trace"]:
        result["layers"] = tracer.layer_metrics(recorder, wall_s)
        recorder.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
