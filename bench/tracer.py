"""Span recorder for the traced run, and the wrappers that put it at
delcap's layer boundaries.

Each wrapper replaces a function at the name its caller bound (for
example `delcap.bounds.solve_capacity`, not `delcap.baa.solve_capacity`),
so the program runs unmodified and only the traced run pays for the
wrappers. Boundaries crossed ~1e5 times per run (table lookups, length
weights, bound evaluations) are aggregated into call counts and summed
time; every other boundary records one span (name, start, end, parent)
in memory. A frame's self time is its duration minus the time of the
frames it encloses, so the self times of all frames add up to the time
of the outermost ones.
"""

import json
import os
import time

import numpy as np

LAYERS = ("cli", "bounds", "tables", "lemmas", "combinatorics", "baa",
          "channel")


class Recorder:
    def __init__(self):
        self.spans = []   # dicts: name, start, end, parent, self_s, attributes
        self.hot = {}     # name -> [calls, total_s, self_s]
        self._stack = []  # open frames: [start, enclosed_s, span index or None]

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def span(self, name, fn, attributes=None):
        """Wrap fn so each call records a span; attributes(args, result)
        returns extra fields for it."""
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._parent_span()}
            frame = [0.0, 0.0, len(self.spans)]
            self.spans.append(record)
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                record.update(start=start, end=end,
                              self_s=end - start - frame[1])
            if attributes is not None:
                record.update(attributes(args, result))
            return result
        return wrapper

    def aggregate(self, name, fn):
        """Wrap a hot fn: count calls and sum total and self time."""
        totals = self.hot.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0, None]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
        return wrapper

    def write(self, path):
        """Spans in open order, one JSON object per line, then the
        aggregated hot boundaries."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **record}) + "\n")
            for name, (calls, total, own) in sorted(self.hot.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "s": total, "self_s": own}) + "\n")

    def self_by_layer(self):
        totals = dict.fromkeys(LAYERS, 0.0)
        for record in self.spans:
            totals[record["name"].split(".")[0]] += record["self_s"]
        for name, (_, _, own) in self.hot.items():
            totals[name.split(".")[0]] += own
        return totals


def _array_bytes(channel):
    """Bytes held by a channel's arrays and its materialised CSR forms,
    computed from array sizes; arrays sharing a buffer count once."""
    arrays = []
    for value in vars(channel).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif hasattr(value, "indptr"):
            arrays += [value.data, value.indices, value.indptr]
    seen = {}
    for array in arrays:
        seen[(array.__array_interface__["data"][0], array.nbytes)] = array.nbytes
    return sum(seen.values())


def _materialise(channel):
    # build the solver's cached CSR views here, so baa.solve times the
    # iterations alone
    for name in ("_matrix", "_matrix_t", "_row_plogp"):
        getattr(channel, name, None)


def _file_bytes(args, _result):
    # save_table(table, path) and load_table(path): the path comes last
    return {"file_bytes": os.path.getsize(args[-1])}


def _lemma_instances(_args, reports):
    return {"instances": sum(len(r.checked_instances) for r in reports)}


def install(recorder):
    """Wrap delcap's layer boundaries at the names their callers bound."""
    import delcap.bounds as bounds
    import delcap.cli as cli
    import delcap.tables as tables

    materialise = recorder.span("channel.csr", _materialise)

    def solve_at(site, fn):
        def attributes(args, result):
            channel = args[0]
            return {"site": site, "nnz": channel.entry_count,
                    "iterations": result.iterations,
                    "width_bits": result.tolerance_achieved,
                    "converged": result.converged,
                    "bytes": _array_bytes(channel)}
        solve = recorder.span("baa.solve", fn, attributes)

        def wrapper(channel, *args, **kwargs):
            materialise(channel)
            return solve(channel, *args, **kwargs)
        return wrapper

    seen_lengths = set()

    def binomial_attributes(args, channel):
        cold = args[0] not in seen_lengths
        seen_lengths.add(args[0])
        return {"L": args[0], "d": args[1], "nnz": channel.entry_count,
                "cold": cold}

    def fixed_attributes(args, channel):
        return {"L": args[0], "R": args[1], "nnz": channel.entry_count}

    evaluate = "bounds.evaluate"
    wrap = {
        cli: {
            "populate_table": recorder.span(
                "tables.populate", cli.populate_table),
            "save_table": recorder.span(
                "tables.save", cli.save_table, _file_bytes),
            "load_table": recorder.span(
                "tables.load", cli.load_table, _file_bytes),
            "evaluate_bound": recorder.aggregate(evaluate, cli.evaluate_bound),
            "compose_best_upper": recorder.aggregate(
                "bounds.compose", cli.compose_best_upper),
            "resolve_l_max": recorder.aggregate(
                "bounds.resolve", cli.resolve_l_max),
            "sweep_bound": recorder.span("bounds.sweep", cli.sweep_bound),
            "limit_small_d_c3": recorder.span(
                "bounds.limit", cli.limit_small_d_c3),
            "limit_small_d_c2": recorder.span(
                "bounds.limit", cli.limit_small_d_c2),
            "limit_large_d_c2": recorder.span(
                "bounds.limit", cli.limit_large_d_c2),
            "verify_lemma_suite": recorder.span(
                "lemmas.suite", cli.verify_lemma_suite, _lemma_instances),
            "conjecture2_report": recorder.span(
                "lemmas.conjecture2", cli.conjecture2_report),
        },
        bounds: {
            "evaluate_bound": recorder.aggregate(evaluate,
                                                 bounds.evaluate_bound),
            "solve_capacity": solve_at("bounds", bounds.solve_capacity),
            "build_binomial_deletion_channel": recorder.span(
                "channel.binomial", bounds.build_binomial_deletion_channel,
                binomial_attributes),
            "alpha": recorder.aggregate("tables.lookup", bounds.alpha),
            "alpha_tilde": recorder.aggregate("tables.lookup",
                                              bounds.alpha_tilde),
            "binomial_weight": recorder.aggregate(
                "combinatorics.weight", bounds.binomial_weight),
            "binomial_weight_tilde": recorder.aggregate(
                "combinatorics.weight", bounds.binomial_weight_tilde),
        },
        tables: {
            "solve_capacity": solve_at("tables", tables.solve_capacity),
            "build_fixed_deletion_channel": recorder.span(
                "channel.fixed", tables.build_fixed_deletion_channel,
                fixed_attributes),
        },
    }
    for module, names in wrap.items():
        for name, wrapper in names.items():
            setattr(module, name, wrapper)


def layer_metrics(recorder, wall_s):
    """Per-layer metrics of one traced process whose commands took wall_s."""
    spans = recorder.spans

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(records):
        return sum(s["end"] - s["start"] for s in records)

    def hot(name):
        return recorder.hot.get(name, [0, 0.0, 0.0])

    def distinct_nnz(records, key):
        return sum({key(s): s["nnz"] for s in records}.values())

    fixed, binomial = named("channel.fixed"), named("channel.binomial")
    solves = named("baa.solve")
    baa_s = total(solves)
    iterations = sum(s["iterations"] for s in solves)
    entries = sum(2 * s["nnz"] * s["iterations"] for s in solves)
    loads, saves = named("tables.load"), named("tables.save")
    lemma_runs = named("lemmas.suite")
    layers = recorder.self_by_layer()
    return {
        "channel.fixed.calls": len(fixed),
        "channel.fixed.s": total(fixed),
        "channel.fixed.nnz": distinct_nnz(fixed, lambda s: (s["L"], s["R"])),
        "channel.binomial.calls": len(binomial),
        "channel.binomial.s": total(binomial),
        "channel.binomial.nnz": distinct_nnz(binomial, lambda s: s["L"]),
        "channel.binomial.cold_s": total(s for s in binomial if s["cold"]),
        "channel.binomial.cold_builds": sum(s["cold"] for s in binomial),
        "channel.csr.s": total(named("channel.csr")),
        "channel.bytes": max((s["bytes"] for s in solves), default=0),
        "baa.solves": len(solves),
        "baa.s": baa_s,
        "baa.iterations": iterations,
        "baa.s_per_iter": baa_s / iterations if iterations else 0.0,
        "baa.entries_per_s": entries / baa_s if baa_s else 0.0,
        "baa.width_bits.max": max((s["width_bits"] for s in solves),
                                  default=0.0),
        "baa.nonconverged": sum(not s["converged"] for s in solves),
        "tables.populate.s": total(named("tables.populate")),
        "tables.cells_solved": sum(s["site"] == "tables" for s in solves),
        "tables.save.s": total(saves),
        "tables.load.s": total(loads),
        "tables.file_bytes": max((s["file_bytes"] for s in loads + saves),
                                 default=0),
        "tables.lookup.calls": hot("tables.lookup")[0],
        "tables.lookup.s": hot("tables.lookup")[1],
        "bounds.evaluate.calls": hot("bounds.evaluate")[0],
        "bounds.evaluate.self_s": layers["bounds"],
        "combinatorics.weight.calls": hot("combinatorics.weight")[0],
        "combinatorics.weight.s": hot("combinatorics.weight")[1],
        "lemmas.suite.s": total(lemma_runs),
        "lemmas.instances": sum(s["instances"] for s in lemma_runs),
        "cli.commands": len(named("cli.command")),
        "cli.self_s": layers["cli"],
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(layers.values()),
        **{f"share.{layer}": 100.0 * own / wall_s if wall_s else 0.0
           for layer, own in layers.items()},
    }
