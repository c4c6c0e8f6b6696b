"""Command-line surface: build coefficient tables, evaluate and sweep
bounds, print limiting slopes, and run the lemma suite.

Exit codes: 0 success, 1 usage or input error, 2 lemma violation,
3 solver non-convergence. Bound values are emitted as CSV with header
`kind,params,d,value,side,tolerance`; floats are printed with repr so
identical runs produce identical bytes.
"""

import argparse
import os
import sys
from pathlib import Path

from .baa import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from .bounds import (BoundSpec, compose_best_upper, d_grid, evaluate_bound,
                     limit_large_d_c2, limit_small_d_c2, limit_small_d_c3,
                     resolve_l_max, sweep_bound, sweep_provenance)
from .channel import DEFAULT_ENTRY_BUDGET
from .errors import DelcapError, ParameterError, SolverNotConvergedError
from .lemmas import conjecture2_report, verify_lemma_suite
from .tables import (DEFAULT_DIAGONAL_L_MAX, DEFAULT_L_MAX, CoefficientTable,
                     load_table, populate_table, save_table, serialize_table)

CSV_HEADER = "kind,params,d,value,side,tolerance"
DEFAULT_GRID = (0.01, 0.99, 0.01)

# anything deeper than this needs --allow-long; keeps casual runs quick
LONG_RUN_LIMIT = 14


def _grid_triple(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:STEP, got {text!r}")
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"non-numeric field in {text!r}") from None


def _add_bound_flags(parser):
    parser.add_argument(
        "--kind", required=True,
        choices=("c1_star", "c2_star", "c3", "c4", "lower", "erasure", "best"),
        help="bound family; `lower` picks its input via --policy, `best` "
             "(sweep only) composes the table-backed upper bounds")
    parser.add_argument("--L", type=int, help="block length for c3/c4/lower"
                        " (for `best`, adds a c4 spec at this L)")
    parser.add_argument("--R", type=int, help="survivor count for c2_star")
    parser.add_argument("--D", type=int, help="deletion count for c1_star; "
                        "omit in sweeps to scan D and keep the per-d minimum")
    parser.add_argument("--tail-cut", dest="tail_cut", type=int,
                        help="truncate the c1_star series at this block "
                             "length instead of closing it geometrically")
    parser.add_argument("--policy", choices=("optimized", "iud"),
                        default="optimized",
                        help="input distribution for `lower`: solver-"
                             "optimized or uniform")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delcap",
        description="Certified capacity bounds for the iid binary "
                    "deletion channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", dest="cache_path", metavar="PATH",
                        help="coefficient table file; read by every "
                             "command, written only by `table`")
    common.add_argument("--out", dest="output_path", metavar="PATH",
                        help="write output here instead of stdout")
    common.add_argument("--tol", dest="solver_tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="certified bracket width for capacity solves"
                             " (bits)")
    common.add_argument("--max-iter", dest="max_iterations", type=int,
                        default=DEFAULT_MAX_ITERATIONS,
                        help="iteration ceiling per capacity solve, and"
                             " per d of a stacked sweep; one iteration is one"
                             " divergence evaluation of a trial law, a"
                             " rejected over-relaxed step included")
    common.add_argument("--entry-budget", dest="entry_budget", type=int,
                        default=DEFAULT_ENTRY_BUDGET,
                        help="refuse channel builds above this many matrix"
                             " entries")
    common.add_argument("--l-max", dest="l_max", type=int,
                        help="largest block length served from the table")
    common.add_argument("--allow-long", dest="allow_long",
                        action="store_true",
                        help=f"permit depths past {LONG_RUN_LIMIT} (seconds"
                             " to minutes and up to gigabytes of memory:"
                             " the diagonal to 22 takes about 5 s and"
                             " 0.5 GB; an L=17 c4 solve about 10 s and"
                             " 0.7 GB)")

    p_table = sub.add_parser(
        "table", parents=[common],
        help="populate the coefficient table and print it")
    p_table.add_argument("--diag-l-max", dest="diagonal_l_max", type=int,
                         help="extend the single-deletion diagonal past"
                              " --l-max")

    p_bound = sub.add_parser("bound", parents=[common],
                             help="evaluate one bound at one d")
    _add_bound_flags(p_bound)
    p_bound.add_argument("--d", type=float, required=True,
                         help="deletion probability")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="CSV of one bound over a d-grid")
    _add_bound_flags(p_sweep)
    p_sweep.add_argument("--d-grid", dest="grid", type=_grid_triple,
                         metavar="START:STOP:STEP",
                         help="inclusive grid (default 0.01:0.99:0.01)")

    p_limits = sub.add_parser(
        "limits", parents=[common],
        help="limiting slopes of the bounds at d->0 and d->1")
    p_limits.add_argument("--L", type=int,
                          help="block length for the c3 small-d slope")
    p_limits.add_argument("--R", type=int,
                          help="survivor count for the c2_star slopes")

    sub.add_parser("verify", parents=[common],
                   help="run the lemma suite against the table")
    return parser


def _gate_long(config, value, what, held=-1):
    """Refuse a depth past the quick-run limit without --allow-long. A
    table depth up to `held`, whose rows the --cache file holds, solves
    nothing and passes; a binomial block length has no such depth."""
    if value > max(LONG_RUN_LIMIT, held) and not config.allow_long:
        raise ParameterError(
            f"{what}={value} exceeds the quick-run limit {LONG_RUN_LIMIT};"
            " pass --allow-long to proceed")


def _open_table(config):
    """The context table, the depth the command works to, and the depth
    the table holds.

    The table is the --cache file when it exists, else a fresh table at
    --l-max or DEFAULT_L_MAX. The depth is --l-max when given, else the
    table's own depth. The table holds the rows 0..L of the largest L
    whose every cell the file has at the table's tolerance or tighter,
    so raising the table to L solves no cell; a fresh table holds
    nothing, -1.
    """
    if config.l_max is not None and config.l_max < 0:
        raise ParameterError("--l-max must be non-negative")
    kwargs = dict(tolerance=config.solver_tolerance,
                  max_iterations=config.max_iterations,
                  entry_budget=config.entry_budget)
    held = -1
    if config.cache_path and os.path.exists(config.cache_path):
        table = load_table(config.cache_path, **kwargs)
        while all((held + 1, R) in table.entries
                  and table.entries[(held + 1, R)].tolerance
                  <= table.tolerance for R in range(held + 2)):
            held += 1
    else:
        table = CoefficientTable(
            l_max=DEFAULT_L_MAX if config.l_max is None else config.l_max,
            **kwargs)
    return (table, table.l_max if config.l_max is None else config.l_max,
            held)


def _reserve(config, table, held, depth, what="l_max"):
    """Gate a depth the command may solve cells at, unless the table
    holds it (_open_table), then raise the table to it. Levels that
    resolve_l_max reads from the cache solve nothing, so they are never
    gated."""
    _gate_long(config, depth, what, held)
    table.l_max = max(table.l_max, depth)


def _family_l_max(config, table, kind, **anchor):
    if config.l_max is not None:
        return config.l_max
    return resolve_l_max(table, kind, **anchor)


def _c2_star_l_max(config, table, held, R):
    """The c2_star depth at an asked-for R, in `bound`, `sweep` and
    `limits` alike: --l-max, else resolved on the table raised to R+1,
    so column R reaches its first solved cell (R+1, R) however shallow
    the cache is."""
    if config.l_max is None:
        _reserve(config, table, held, R + 1, "L")
    return _family_l_max(config, table, "c2_star", R=R)


def _write_output(config, text):
    if config.output_path:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _format_params(parameters):
    return ";".join(f"{key}={parameters[key]}" for key in sorted(parameters))


def _csv(rows):
    """The CSV text of rows. Rows that share one parameters dict share
    its `kind,params,` prefix, formatted once. rows holds every dict for
    the whole call, so no two of them share an id."""
    lines = [CSV_HEADER]
    prefixes = {}
    for kind, parameters, d, value, side, tolerance in rows:
        key = kind, id(parameters)
        if key not in prefixes:
            prefixes[key] = f"{kind},{_format_params(parameters)},"
        lines.append(f"{prefixes[key]}{d!r},{value!r},{side},{tolerance!r}")
    return "\n".join(lines) + "\n"


def _run_table(config):
    l_max = config.l_max if config.l_max is not None else DEFAULT_L_MAX
    if config.diagonal_l_max is not None:
        diag = config.diagonal_l_max
    elif config.l_max is None:
        diag = DEFAULT_DIAGONAL_L_MAX
    else:
        diag = l_max
    if diag < l_max:
        raise ParameterError("--diag-l-max must be at least --l-max")
    _gate_long(config, diag, "l_max")
    table, _, held = _open_table(config)
    _reserve(config, table, held, l_max)
    populate_table(table, diagonal_l_max=max(diag, table.l_max))
    if config.cache_path:
        save_table(table, config.cache_path)
    _write_output(config, serialize_table(table))
    return 0


def _plan_specs(config, table, depth, held):
    """The BoundSpecs that --kind stands for, with the table reserved to
    the depth they read.

    c1_star without --D scans every D up to the depth; `best` takes both
    genie families and c3 up to the depth, plus c4 at --L. The c1_star
    and c2_star depths are resolved before the table is raised past
    `depth`: a deeper table makes more cells resolvable and would move
    them. The one exception is an asked-for c2_star R, resolved on the
    table raised to R+1 (_c2_star_l_max).
    """
    kind = config.kind
    if kind == "erasure":
        return [BoundSpec("erasure", {})]
    if kind in ("c3", "c4", "lower"):
        if config.L is None:
            raise ParameterError(f"--kind {kind} needs --L")
        if kind == "lower":
            kind = "lower_opt" if config.policy == "optimized" else "lower_iud"
        spec = BoundSpec(kind, {"L": config.L})
        if kind == "c3":
            _reserve(config, table, held, config.L)
        else:
            _gate_long(config, config.L, "L")
        return [spec]
    if kind == "c2_star" and config.R is None:
        raise ParameterError("--kind c2_star needs --R")

    def family(name, key, anchor, **extra):
        l_max = _family_l_max(config, table, name, **{key: anchor})
        return BoundSpec(name, {key: anchor, "l_max": l_max, **extra})

    if kind == "c1_star":
        tail = {} if config.tail_cut is None else {"tail_cut": config.tail_cut}
        counts = range(depth + 1) if config.D is None else (config.D,)
        specs = [family("c1_star", "D", D, **tail) for D in counts]
    elif kind == "c2_star":
        specs = [BoundSpec("c2_star", {
            "R": config.R,
            "l_max": _c2_star_l_max(config, table, held, config.R)})]
    else:
        specs = ([family("c1_star", "D", D) for D in range(depth + 1)]
                 + [family("c2_star", "R", R) for R in range(depth + 1)]
                 + [BoundSpec("c3", {"L": L}) for L in range(1, depth + 1)])
    _reserve(config, table, held, depth)
    if kind == "best" and config.L is not None:
        _gate_long(config, config.L, "L")
        specs.append(BoundSpec("c4", {"L": config.L}))
    return specs


def _run_bound(config):
    if config.kind == "best":
        raise ParameterError("--kind best is available in sweep only")
    if config.kind == "c1_star" and config.D is None:
        raise ParameterError(
            "--kind c1_star needs --D here; only sweeps may omit it")
    table, depth, held = _open_table(config)
    (spec,) = _plan_specs(config, table, depth, held)
    value = evaluate_bound(spec, config.d, table)
    rows = [(spec.kind, spec.parameters, config.d, value, spec.side,
             table.tolerance)]
    _write_output(config, _csv(rows))
    return 0


def _pointwise_rows(config, specs, grid, table):
    """The rows of a multi-spec sweep: the pointwise minimum over specs
    on the open interval, in one pass over it, and the closed form at the
    endpoints. `best` names the winning family. A c1_star scan names the
    winning D; it reports an erasure win as its D=0 spec, whose value is
    the erasure bound itself. Each winning spec gets one parameters dict,
    shared by all its rows."""
    inner = [d for d in grid if d != 0.0 and d != 1.0]
    values, winners = compose_best_upper(inner, specs, table)
    served = zip(values.tolist(), winners)
    erasure = BoundSpec("erasure")
    named = {}  # id of a winning spec -> the parameters its rows print
    rows = []
    for d in grid:
        if d == 0.0 or d == 1.0:
            value, winner = 1.0 - d, erasure
        else:
            value, winner = next(served)
        if id(winner) not in named:
            if config.kind == "best":
                named[id(winner)] = {**winner.parameters,
                                     "winner": winner.kind}
            else:
                named[id(winner)] = (specs[0] if winner.kind == "erasure"
                                     else winner).parameters
        rows.append((config.kind, named[id(winner)], d, value, "upper",
                     table.tolerance))
    return rows


def _run_sweep(config):
    grid = d_grid(*(config.grid if config.grid is not None else DEFAULT_GRID))
    table, depth, held = _open_table(config)
    specs = _plan_specs(config, table, depth, held)
    if len(specs) > 1:
        rows = _pointwise_rows(config, specs, grid, table)
        provenance = sweep_provenance(table)
    else:
        (spec,) = specs
        curve = sweep_bound(spec, grid, table)
        rows = [(spec.kind, spec.parameters, d, value, side, table.tolerance)
                for (d, value, side) in curve.points]
        provenance = curve.provenance
    _write_output(config, _csv(rows))
    print(f"provenance: {provenance}", file=sys.stderr)
    return 0


def _run_limits(config):
    if config.L is None and config.R is None:
        raise ParameterError("limits needs --L and/or --R")
    table, depth, held = _open_table(config)
    tol = table.tolerance
    rows = []
    if config.L is not None:
        _gate_long(config, config.L, "L", held)
    if config.R is not None:
        # resolved before the raise to --L, which would move it
        lm = _c2_star_l_max(config, table, held, config.R)
        # the small-d slope's cell
        _reserve(config, table, held, config.R + 1, "L")
        _reserve(config, table, held, depth)
        rows += [("limit_small_d_c2", {"R": config.R}, 0.0,
                  limit_small_d_c2(config.R, table), "lower", tol),
                 ("limit_large_d_c2", {"R": config.R, "l_max": lm}, 1.0,
                  limit_large_d_c2(config.R, lm, table), "upper", tol)]
    if config.L is not None:
        _reserve(config, table, held, config.L, "L")
        rows.insert(0, ("limit_small_d_c3", {"L": config.L}, 0.0,
                        limit_small_d_c3(config.L, table), "lower", tol))
    _write_output(config, _csv(rows))
    return 0


def _run_verify(config):
    table, depth, held = _open_table(config)
    _reserve(config, table, held, depth)
    populate_table(table, diagonal_l_max=table.l_max)
    reports = verify_lemma_suite(table)
    _write_output(config,
                  "".join(report.summary() + "\n" for report in reports))
    observation = conjecture2_report(table)
    print(f"observation: {observation.summary()}", file=sys.stderr)
    return 2 if any(report.violations for report in reports) else 0


# each handler reads only the flags its own subparser defines
_HANDLERS = {
    "table": _run_table,
    "bound": _run_bound,
    "sweep": _run_sweep,
    "limits": _run_limits,
    "verify": _run_verify,
}


def main(argv=None):
    try:
        config = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; fold the former
        # into the documented usage status
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return _HANDLERS[config.command](config)
    except SolverNotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DelcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
