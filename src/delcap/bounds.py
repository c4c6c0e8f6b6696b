"""Capacity bounds for the iid binary deletion channel.

Upper bounds c1_star, c2_star, c3, c4 come from genie-aided auxiliary
channels; the side-information lower bound subtracts the boundary
overhead from the same per-block mutual information. Every formula
consumes the table side that can only loosen it, so solver error never
invalidates a certificate: alpha enters these expressions with an
overall minus sign, hence its certified-lower side everywhere, and the
per-letter solve for c4 uses its certified-upper estimate.
"""

import math
from itertools import repeat

import numpy as np

from .baa import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
                  mutual_information, solve_capacity)
from .channel import (DEFAULT_ENTRY_BUDGET, build_binomial_deletion_channel,
                      orbit_stack)
# binomial_weight_tilde has no caller in this module; it stays bound
# here because bench/tracer.py wraps it at this name
from .combinatorics import binomial_weight, binomial_weight_tilde
from .errors import ParameterError, SolverNotConvergedError
from .lemmas import _collect_report
from .tables import _top_level, alpha, alpha_tilde, closed_form_f

UPPER_KINDS = ("c1_star", "c2_star", "c3", "c4", "erasure")
LOWER_KINDS = ("lower_opt", "lower_iud")
BOUND_KINDS = UPPER_KINDS + LOWER_KINDS
# d_grid refuses finer grids: a million points take a second and 38 MB
# before any check runs, and a step of 1e-9 would take 38 GB
MAX_GRID_POINTS = 100_001

_REQUIRED_PARAMETERS = {
    "c1_star": ("D", "l_max"),
    "c2_star": ("R", "l_max"),
    "c3": ("L",),
    "c4": ("L",),
    "lower_opt": ("L",),
    "lower_iud": ("L",),
    "erasure": (),
}
_OPTIONAL_PARAMETERS = {"c1_star": ("tail_cut",)}


class BoundSpec:
    """One bound kind plus the parameters that pin it down.

    c1_star takes D and l_max (and optionally tail_cut, which switches
    the series remainder from the closed geometric form to truncation);
    c2_star takes R and l_max; c3, c4 and the two lower kinds take L;
    erasure takes nothing. A spec holds no solver settings: c4 and the
    lower kinds solve with the tolerance and budgets of the table they
    are evaluated on (evaluate_bound).
    """

    def __init__(self, kind, parameters=None):
        parameters = dict(parameters or {})
        if kind not in BOUND_KINDS:
            raise ParameterError(f"unknown bound kind {kind!r}; expected one"
                                 f" of {', '.join(BOUND_KINDS)}")
        required = _REQUIRED_PARAMETERS[kind]
        allowed = required + _OPTIONAL_PARAMETERS.get(kind, ())
        missing = [key for key in required if key not in parameters]
        if missing:
            raise ParameterError(
                f"{kind} needs parameter(s) {', '.join(missing)}")
        extra = sorted(key for key in parameters if key not in allowed)
        if extra:
            raise ParameterError(f"{kind} does not take {', '.join(extra)}")
        for key, value in parameters.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ParameterError(
                    f"{key} must be a non-negative integer, got {value!r}")
        if kind == "c1_star" and parameters["l_max"] < parameters["D"]:
            raise ParameterError("c1_star needs D <= l_max")
        if kind == "c2_star" and parameters["l_max"] < parameters["R"]:
            raise ParameterError("c2_star needs R <= l_max")
        if kind in ("c3", "c4", "lower_opt", "lower_iud") and parameters["L"] < 1:
            raise ParameterError(f"{kind} needs L >= 1")
        self.kind = kind
        self.parameters = parameters

    @property
    def side(self):
        return "lower" if self.kind in LOWER_KINDS else "upper"

    def __repr__(self):
        return f"BoundSpec({self.kind!r}, {self.parameters!r})"

    def __eq__(self, other):
        if not isinstance(other, BoundSpec):
            return NotImplemented
        return (self.kind, self.parameters) == (other.kind, other.parameters)


class BoundCurve:
    """A bound evaluated over a d-grid: (d, value, side) triples in grid
    order, plus a provenance note naming the table and tolerances."""

    def __init__(self, spec, points, provenance):
        self.spec = spec
        self.points = list(points)
        self.provenance = provenance


class _Grid:
    """Deletion probabilities d as a 1-D array, with the length weights
    p(L, R) and the powers d**k and (1-d)**k behind them, each computed
    once and shared by every bound evaluated on the grid. Both caches
    hand out read-only arrays.

    Each power is the C library's pow of a Python float, as in
    binomial_weight's `**`, taken by math.pow in one pass; numpy's
    vectorised power can differ from it in the last bit, which would
    move printed values.
    """

    def __init__(self, d):
        values = np.asarray(d, dtype=float)
        if values.ndim > 1:
            raise ParameterError(
                f"d must be a number or a 1-D array, got shape {values.shape}")
        self.values = np.atleast_1d(values)
        points = self.values.tolist()
        self._bases = (points, [1.0 - x for x in points])
        self._powers = ({}, {})
        self._weights = {}

    def _power(self, side, k):
        powers = self._powers[side]
        if k not in powers:
            bases = self._bases[side]
            powers[k] = _frozen(np.fromiter(
                map(math.pow, bases, repeat(float(k))), float, len(bases)))
        return powers[k]

    def weight(self, L, R):
        """p(L, R) = C(L, R) d^(L-R) (1-d)^R at every d, with the same
        association and the same cap at 1 as binomial_weight, so each
        entry equals binomial_weight(L, R, d).value. That holds up to
        L = 64; past it binomial_weight switches to log-gamma, and no
        table reaches that far."""
        weights = self._weights
        if (L, R) not in weights:
            weights[L, R] = _frozen(np.minimum(
                math.comb(L, R) * self._power(0, L - R) * self._power(1, R),
                1.0))
        return weights[L, R]


def _frozen(array):
    array.flags.writeable = False
    return array


def _grid(d):
    """d as a _Grid, and whether it came in as a single number."""
    if isinstance(d, _Grid):
        return d, False
    return _Grid(d), np.ndim(d) == 0


def _shaped(values, scalar):
    """A result over a grid, as a Python float when d was one number."""
    return float(values[0]) if scalar else values


def _check_probability(d, *, open_interval):
    d = np.atleast_1d(d)
    outside = d[~((0.0 <= d) & (d <= 1.0))]
    if outside.size:
        raise ParameterError(
            f"d must be a probability, got {float(outside[0])}")
    if open_interval:
        degenerate = d[(d == 0.0) | (d == 1.0)]
        if degenerate.size:
            raise ParameterError(
                f"d={float(degenerate[0])} is degenerate here; sweeps serve"
                " the endpoints from the closed forms 1 and 0")


def c1_star_tail(D, l_max, d, table, tail_cut=None):
    """Extrapolated remainder of the c1_star series beyond l_max, at one
    d or over an array of d.

    Successive extrapolated terms shrink by exactly (1 - d): the
    telescoped gap ratio (L+1-D)/(L+1) cancels against the opposite
    ratio in the length weights. tail_cut=None therefore sums the whole
    remainder as a geometric series; an integer cuts the sum off after
    block length tail_cut, which still upper-bounds the capacity because
    every dropped term is non-negative.
    """
    grid, scalar = _grid(d)
    d = grid.values
    base = alpha_tilde(l_max, D, table, "lower")
    term = (base * (1.0 - D / (l_max + 1))
            * grid.weight(l_max + 1, l_max + 1 - D))
    if tail_cut is None:
        return _shaped(term / d, scalar)
    total = np.zeros_like(d)
    keep = 1.0 - d
    for _ in range(l_max + 1, tail_cut + 1):
        total += term
        term *= keep
    return _shaped(total, scalar)


def bound_c1_star(D, l_max, d, table, *, tail_cut=None):
    """Upper bound from the fixed-deletions auxiliary family, at one d
    or over an array of d.

    1 - d - (d^2/(D+1)) sum_{L>=D} alpha~(L,D) p~(L,D), with table
    values through l_max and the certified extrapolation past it.
    """
    if D < 0:
        raise ParameterError(f"D must be non-negative, got {D}")
    if l_max < D:
        raise ParameterError(f"need D <= l_max, got D={D}, l_max={l_max}")
    grid, scalar = _grid(d)
    d = grid.values
    _check_probability(d, open_interval=True)
    populated = 0.0
    for L in range(D, l_max + 1):
        populated += (alpha_tilde(L, D, table, "lower")
                      * grid.weight(L, L - D))
    series = populated + c1_star_tail(D, l_max, grid, table, tail_cut)
    return _shaped(1.0 - d - d * d / (D + 1) * series, scalar)


def bound_c2_star(R, l_max, d, table):
    """Upper bound from the fixed-survivors auxiliary family, at one d
    or over an array of d.

    ((1-d)^2/(R+1)) sum_{L=R}^{l_max} [alpha(l_max,R) - alpha(L,R)]
    p(L,R) + (1-d) [1 - alpha(l_max,R)/(R+1)]. The value decreases in
    every alpha argument (the weights sum below 1/(1-d), so even the
    l_max occurrence carries a net minus sign), hence certified-lower
    alpha throughout keeps this an upper bound.
    """
    if R < 0:
        raise ParameterError(f"R must be non-negative, got {R}")
    if l_max < R:
        raise ParameterError(f"need R <= l_max, got R={R}, l_max={l_max}")
    grid, scalar = _grid(d)
    d = grid.values
    outside = d[~((0.0 <= d) & (d < 1.0))]
    if outside.size:
        raise ParameterError(
            f"c2_star needs 0 <= d < 1, got {float(outside[0])}")
    alpha_top = alpha(l_max, R, table, "lower")
    total = 0.0
    for L in range(R, l_max + 1):
        total += ((alpha_top - alpha(L, R, table, "lower"))
                  * grid.weight(L, R))
    keep = 1.0 - d
    return _shaped(keep * keep / (R + 1) * total
                   + keep * (1.0 - alpha_top / (R + 1)), scalar)


def bound_c3(L, d, table):
    """Upper bound from revealing per-block survivor counts: a finite
    sum, 1 - d - (1/L) sum_R alpha(L,R) p(L,R), at one d or over an
    array of d. Valid on closed [0,1]; at the endpoints the weight mass
    sits where alpha vanishes."""
    if L < 1:
        raise ParameterError(f"L must be at least 1, got {L}")
    grid, scalar = _grid(d)
    d = grid.values
    _check_probability(d, open_interval=False)
    gap = 0.0
    for R in range(L + 1):
        gap += alpha(L, R, table, "lower") * grid.weight(L, R)
    return _shaped(1.0 - d - gap / L, scalar)


def _binomial_orbits(L, ds, entry_budget=DEFAULT_ENTRY_BUDGET):
    """The binomial channels at L and each of ds, built one d at a time
    and folded onto their orbits under complement and reversal as one
    stack."""
    return orbit_stack([build_binomial_deletion_channel(
        L, d, entry_budget=entry_budget) for d in ds])


def _solve_binomial(what, L, ds, solver_tolerance, max_iterations,
                    entry_budget):
    """Solve the binomial channels at L and each of ds as one stack; one
    BaaResult per d. `what` names the bound in the error raised for the
    first d whose bracket does not close."""
    if not ds:
        return []
    result = solve_capacity(_binomial_orbits(L, ds, entry_budget),
                            solver_tolerance, max_iterations)
    for d, column in zip(ds, result.columns):
        if not column.converged:
            raise SolverNotConvergedError(
                f"{what} solve at L={L}, d={d} stuck at bracket width "
                f"{column.tolerance_achieved}", result=column)
    return result.columns


def bound_c4(L, d, solver_tolerance=DEFAULT_TOLERANCE, *,
             max_iterations=DEFAULT_MAX_ITERATIONS,
             entry_budget=DEFAULT_ENTRY_BUDGET):
    """Upper bound from the per-letter channel that also reveals block
    boundaries: certified-upper solver estimate over L, at one d or over
    an array of d, solved as one stack.

    The true value never exceeds 1 - d, but the solver's upper estimate
    can poke past it by tolerance/L; the min against the erasure bound
    keeps the certificate without giving anything up.
    """
    grid, scalar = _grid(d)
    ds = grid.values.tolist()
    results = _solve_binomial("c4", L, ds, solver_tolerance, max_iterations,
                              entry_budget)
    return _shaped(np.array([min(result.capacity_upper / L, 1.0 - x)
                             for x, result in zip(ds, results)]), scalar)


def lower_bound(L, d, distribution_policy="optimized",
                solver_tolerance=DEFAULT_TOLERANCE, *,
                max_iterations=DEFAULT_MAX_ITERATIONS,
                entry_budget=DEFAULT_ENTRY_BUDGET):
    """Achievable rate: per-block information minus the boundary
    overhead, (I + sum_R p(L,R) log2 p(L,R)) / L, clamped at zero, at
    one d or over an array of d.

    policy 'optimized' takes the solver's certified-lower estimate, from
    one stacked solve; 'iud' takes the mutual information of the uniform
    input, which is achievable outright and needs no iteration: one
    divergence pass over the stack. Both work on the channels folded
    onto orbits, where the uniform input puts mass |o| / 2^L on input
    orbit o.
    """
    if distribution_policy not in ("optimized", "iud"):
        raise ParameterError(
            f"distribution_policy must be 'optimized' or 'iud', "
            f"got {distribution_policy!r}")
    grid, scalar = _grid(d)
    ds = grid.values.tolist()
    if distribution_policy == "optimized":
        infos = [result.capacity_lower for result in _solve_binomial(
            "lower bound", L, ds, solver_tolerance, max_iterations,
            entry_budget)]
    elif ds:
        channel = _binomial_orbits(L, ds, entry_budget)
        infos = mutual_information(channel, channel.input_sizes / 2 ** L)
    else:
        infos = []
    values = []
    for x, info in zip(ds, infos):
        overhead = 0.0
        for R in range(L + 1):
            w = binomial_weight(L, R, x).value
            if w > 0.0:
                overhead += w * math.log2(w)
        values.append(max(0.0, (info + overhead) / L))
    return _shaped(np.array(values), scalar)


def limit_small_d_c3(L, table):
    """Slope of 1 - c3 as d -> 0+: alpha~(L,1) + 1, certified-lower side
    (so the reported slope is itself an upper-bound-consistent value)."""
    if L < 1:
        raise ParameterError(f"L must be at least 1, got {L}")
    return alpha_tilde(L, 1, table, "lower") + 1.0


def limit_small_d_c2(R, table):
    """Slope of 1 - c2_star as d -> 0+: the shortest block, L = R+1 with
    a single deletion, dominates."""
    if R < 0:
        raise ParameterError(f"R must be non-negative, got {R}")
    return alpha_tilde(R + 1, 1, table, "lower") + 1.0


def limit_large_d_c2(R, l_max, table):
    """Limit of c2_star/(1-d) as d -> 1-: 1 - alpha(l_max,R)/(R+1)."""
    if R < 0 or l_max < R:
        raise ParameterError(f"need 0 <= R <= l_max, got R={R}, l_max={l_max}")
    return 1.0 - alpha(l_max, R, table, "lower") / (R + 1)


def evaluate_bound(spec, d, table):
    """Dispatch one spec at one d or over an array of d. Every kind takes
    the whole array in one pass: the table-backed kinds read each cell
    once, and c4 and the lower bounds solve the grid as one stack, at the
    table's solver settings: its tolerance and its iteration and size
    budgets."""
    grid, scalar = _grid(d)
    p = spec.parameters
    limits = dict(max_iterations=table.max_iterations,
                  entry_budget=table.entry_budget)
    if spec.kind == "erasure":
        _check_probability(grid.values, open_interval=False)
        return _shaped(1.0 - grid.values, scalar)
    if spec.kind == "c1_star":
        values = bound_c1_star(p["D"], p["l_max"], grid, table,
                               tail_cut=p.get("tail_cut"))
    elif spec.kind == "c2_star":
        values = bound_c2_star(p["R"], p["l_max"], grid, table)
    elif spec.kind == "c3":
        values = bound_c3(p["L"], grid, table)
    elif spec.kind == "c4":
        values = bound_c4(p["L"], grid, table.tolerance, **limits)
    else:
        policy = "optimized" if spec.kind == "lower_opt" else "iud"
        values = lower_bound(p["L"], grid, policy, table.tolerance, **limits)
    return _shaped(values, scalar)


def cells_read(spec):
    """The table cells (L, R) spec reads: c1_star's diagonal and c2_star's
    column to their l_max, c3's row; c4, lower and erasure read none."""
    p = spec.parameters
    if spec.kind == "c1_star":
        return [(L, L - p["D"]) for L in range(p["D"], p["l_max"] + 1)]
    if spec.kind == "c2_star":
        return [(L, p["R"]) for L in range(p["R"], p["l_max"] + 1)]
    if spec.kind == "c3":
        return [(p["L"], R) for R in range(p["L"] + 1)]
    return []


def compose_best_upper(d, specs, table):
    """Pointwise best upper bound, with the erasure bound 1 - d always
    in the running. Returns (value, winning spec) at one d, or (array of
    values, list of winning specs) over an array of d. A spec wins only
    where it is strictly below everything before it, so ties go to the
    erasure bound and then to the earlier spec."""
    if not specs:
        raise ParameterError("need at least one upper-bound spec")
    for spec in specs:
        if spec.side != "upper":
            raise ParameterError(
                f"compose_best_upper only takes upper bounds, got {spec.kind}")
    grid, scalar = _grid(d)
    candidates = [BoundSpec("erasure"), *specs]
    best = 1.0 - grid.values
    winner = np.zeros(best.shape, dtype=int)
    for index, spec in enumerate(specs, start=1):
        value = evaluate_bound(spec, grid, table)
        better = value < best
        best = np.where(better, value, best)
        winner[better] = index
    winners = [candidates[index] for index in winner.tolist()]
    if scalar:
        return float(best[0]), winners[0]
    return best, winners


def d_grid(start, stop, step):
    """Inclusive arithmetic grid, rounded to 12 decimals so repeated
    runs hit bit-identical d values."""
    if not 0.0 < step < math.inf:  # NaN included
        raise ParameterError(f"step must be positive and finite, got {step}")
    if not 0.0 <= start <= stop <= 1.0:
        raise ParameterError(
            f"need 0 <= start <= stop <= 1, got {start}:{stop}:{step}")
    count = int(math.floor((stop - start) / step + 1e-9))
    if count + 1 > MAX_GRID_POINTS:
        raise ParameterError(
            f"grid {start}:{stop}:{step} has {count + 1} points,"
            f" more than {MAX_GRID_POINTS}")
    return [min(round(start + i * step, 12), 1.0) for i in range(count + 1)]


def sweep_provenance(table):
    """The note a sweep carries: the table depth its values read, and the
    tolerance of the table's cells and of the sweep's capacity solves."""
    return f"table l_max={table.l_max} tolerance={table.tolerance!r}"


def sweep_bound(spec, grid, table):
    """One spec over a d-grid, in grid order. The endpoints d=0 and d=1
    come from the closed forms (capacity is exactly 1 and 0 there), so
    solver-backed kinds only ever run on the open interval. The rest of
    the grid is one evaluate_bound call: c4 and the lower bounds solve it
    as one stack."""
    inner = [d for d in grid if d != 0.0 and d != 1.0]
    served = iter(evaluate_bound(spec, inner, table).tolist())
    points = [(d, 1.0 - d if d == 0.0 or d == 1.0 else next(served),
               spec.side) for d in grid]
    return BoundCurve(spec, points, sweep_provenance(table))


def _resolvable(table, L, R):
    if closed_form_f(L, R) is not None:
        return True
    return L <= table.l_max or (L, R) in table.entries


def resolve_l_max(table, kind, *, D=None, R=None):
    """Largest l_max whose cells all resolve from this table without
    fresh extrapolation: walks the needed diagonal or column upward
    until a cell is missing."""
    if kind == "c1_star":
        if D is None:
            raise ParameterError("resolve_l_max for c1_star needs D")
        anchor, cell = D, (lambda L: (L, L - D))
    elif kind == "c2_star":
        if R is None:
            raise ParameterError("resolve_l_max for c2_star needs R")
        anchor, cell = R, (lambda L: (L, R))
    else:
        raise ParameterError(f"kind {kind!r} has no l_max to resolve")
    best = None
    for L in range(anchor, _top_level(table) + 1):
        if not _resolvable(table, *cell(L)):
            break
        best = L
    if best is None:
        raise ParameterError(
            f"table (l_max={table.l_max}) cannot anchor {kind} at "
            f"{'D' if kind == 'c1_star' else 'R'}={anchor}")
    return best


def conjecture1_report(d, table, *, max_c4_level=6, combined_tolerance=1e-9):
    """Observed (not certified): each upper-bound family improves as its
    resolution parameter grows: c3 and c4 in L, c1_star in D, c2_star
    in R. The c4 values are solved at the table's solver settings.
    Reported for inspection only; solver brackets make small negative
    slacks possible without meaning anything."""
    _check_probability(d, open_interval=True)

    def trend(family, key, first, values):
        # values start at parameter first; each instance is labelled by
        # the upper end of its pair, the parameter of its left value
        return _collect_report(
            f"conjecture1_{family}",
            [({key: first + i}, values[i], values[i - 1])
             for i in range(1, len(values))],
            combined_tolerance)

    return [
        trend("c3", "L", 1, [bound_c3(L, d, table)
                             for L in range(1, table.l_max + 1)]),
        trend("c4", "L", 1, [bound_c4(L, d, table.tolerance,
                                      max_iterations=table.max_iterations,
                                      entry_budget=table.entry_budget)
                             for L in range(1, max_c4_level + 1)]),
        trend("c1_star", "D", 0, [bound_c1_star(
            D, resolve_l_max(table, "c1_star", D=D), d, table)
            for D in range(table.l_max + 1)]),
        trend("c2_star", "R", 0, [bound_c2_star(
            R, resolve_l_max(table, "c2_star", R=R), d, table)
            for R in range(table.l_max + 1)]),
    ]
