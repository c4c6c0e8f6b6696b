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

import numpy as np

from .baa import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
                  mutual_information, solve_capacity)
from .channel import (DEFAULT_ENTRY_BUDGET, DEFAULT_L_CAP,
                      build_binomial_deletion_channel, orbit_channel)
# binomial_weight_tilde has no caller in this module; it stays bound
# here because bench/tracer.py wraps it at this name
from .combinatorics import binomial_weight, binomial_weight_tilde
from .errors import ParameterError, SolverNotConvergedError
from .lemmas import _collect_report
from .tables import _top_level, alpha, alpha_tilde, closed_form_f

UPPER_KINDS = ("c1_star", "c2_star", "c3", "c4", "erasure")
LOWER_KINDS = ("lower_opt", "lower_iud")
BOUND_KINDS = UPPER_KINDS + LOWER_KINDS
# kinds that solve a capacity at each d instead of reading the table
_SOLVED_KINDS = ("c4",) + LOWER_KINDS

DEFAULT_TAIL_CUT = 2000

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
    erasure takes nothing.
    """

    def __init__(self, kind, parameters=None, solver_tolerance=DEFAULT_TOLERANCE):
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
        if solver_tolerance <= 0.0:
            raise ParameterError("solver_tolerance must be positive")
        self.kind = kind
        self.parameters = parameters
        self.solver_tolerance = solver_tolerance

    @property
    def side(self):
        return "lower" if self.kind in LOWER_KINDS else "upper"

    def __repr__(self):
        return (f"BoundSpec({self.kind!r}, {self.parameters!r}, "
                f"solver_tolerance={self.solver_tolerance!r})")

    def __eq__(self, other):
        if not isinstance(other, BoundSpec):
            return NotImplemented
        return (self.kind == other.kind
                and self.parameters == other.parameters
                and self.solver_tolerance == other.solver_tolerance)


class BoundCurve:
    """A bound evaluated over a d-grid: (d, value, side) triples in grid
    order, plus a provenance note naming the table and tolerances."""

    def __init__(self, spec, points, provenance):
        self.spec = spec
        self.points = list(points)
        self.provenance = provenance


class _Grid:
    """Deletion probabilities d as a 1-D array, with the powers d**k and
    (1-d)**k that the length weights need, each computed once and shared
    by every bound evaluated on the grid.

    Each power comes from Python's float `**` (the C library's pow),
    as in binomial_weight; numpy's vectorised power can differ from it
    in the last bit, which would move printed values.
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

    def _power(self, side, k):
        powers = self._powers[side]
        if k not in powers:
            powers[k] = np.array([x ** k for x in self._bases[side]])
        return powers[k]

    def weight(self, L, R):
        """p(L, R) = C(L, R) d^(L-R) (1-d)^R at every d, with the same
        association and the same cap at 1 as binomial_weight, so each
        entry equals binomial_weight(L, R, d).value. That holds up to
        L = 64; past it binomial_weight switches to log-gamma, and no
        table reaches that far."""
        return np.minimum(
            math.comb(L, R) * self._power(0, L - R) * self._power(1, R), 1.0)


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


def _binomial_orbits(L, d, **limits):
    """The binomial channel at (L, d), folded onto its input and output
    orbits under complement and reversal."""
    return orbit_channel(build_binomial_deletion_channel(L, d, **limits))


def _solve_binomial(what, L, d, solver_tolerance, max_iterations, **limits):
    """Solve the binomial channel at (L, d) on its orbits; `what` names
    the bound in the error raised when the bracket does not close."""
    result = solve_capacity(_binomial_orbits(L, d, **limits),
                            solver_tolerance, max_iterations)
    if not result.converged:
        raise SolverNotConvergedError(
            f"{what} solve at L={L}, d={d} stuck at bracket width "
            f"{result.tolerance_achieved}", result=result)
    return result


def bound_c4(L, d, solver_tolerance=DEFAULT_TOLERANCE, *,
             max_iterations=DEFAULT_MAX_ITERATIONS, l_cap=DEFAULT_L_CAP,
             entry_budget=DEFAULT_ENTRY_BUDGET):
    """Upper bound from the per-letter channel that also reveals block
    boundaries: certified-upper solver estimate over L.

    The true value never exceeds 1 - d, but the solver's upper estimate
    can poke past it by tolerance/L; the min against the erasure bound
    keeps the certificate without giving anything up.
    """
    result = _solve_binomial("c4", L, d, solver_tolerance, max_iterations,
                             l_cap=l_cap, entry_budget=entry_budget)
    return min(result.capacity_upper / L, 1.0 - d)


def lower_bound(L, d, distribution_policy="optimized",
                solver_tolerance=DEFAULT_TOLERANCE, *,
                max_iterations=DEFAULT_MAX_ITERATIONS, l_cap=DEFAULT_L_CAP,
                entry_budget=DEFAULT_ENTRY_BUDGET):
    """Achievable rate: per-block information minus the boundary
    overhead, (I + sum_R p(L,R) log2 p(L,R)) / L, clamped at zero.

    policy 'optimized' takes the solver's certified-lower estimate;
    'iud' takes the mutual information of the uniform input, which is
    achievable outright and needs no iteration. Both work on the
    channel folded onto orbits, where the uniform input puts mass
    |o| / 2^L on input orbit o.
    """
    if distribution_policy not in ("optimized", "iud"):
        raise ParameterError(
            f"distribution_policy must be 'optimized' or 'iud', "
            f"got {distribution_policy!r}")
    if distribution_policy == "optimized":
        info = _solve_binomial("lower bound", L, d, solver_tolerance,
                               max_iterations, l_cap=l_cap,
                               entry_budget=entry_budget).capacity_lower
    else:
        channel = _binomial_orbits(L, d, l_cap=l_cap,
                                   entry_budget=entry_budget)
        info = mutual_information(channel, channel.input_sizes / 2 ** L)
    overhead = 0.0
    for R in range(L + 1):
        w = binomial_weight(L, R, d).value
        if w > 0.0:
            overhead += w * math.log2(w)
    return max(0.0, (info + overhead) / L)


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
    """Dispatch one spec at one d or over an array of d. The table-backed
    kinds take the whole array in one pass; c4 and the lower bounds solve
    once per d, with the iteration and size budgets of the table's solver
    settings."""
    grid, scalar = _grid(d)
    p = spec.parameters
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
    else:
        values = np.array([_solve_bound(spec, x, table)
                           for x in grid.values.tolist()])
    return _shaped(values, scalar)


def _solve_bound(spec, d, table):
    """A c4 or lower-bound spec at one d."""
    limits = dict(max_iterations=table.max_iterations, l_cap=table.l_cap,
                  entry_budget=table.entry_budget)
    if spec.kind == "c4":
        return bound_c4(spec.parameters["L"], d, spec.solver_tolerance,
                        **limits)
    policy = "optimized" if spec.kind == "lower_opt" else "iud"
    return lower_bound(spec.parameters["L"], d, policy,
                       spec.solver_tolerance, **limits)


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
    if step <= 0.0:
        raise ParameterError(f"step must be positive, got {step}")
    if not 0.0 <= start <= stop <= 1.0:
        raise ParameterError(
            f"need 0 <= start <= stop <= 1, got {start}:{stop}:{step}")
    count = int(math.floor((stop - start) / step + 1e-9))
    return [min(round(start + i * step, 12), 1.0) for i in range(count + 1)]


def sweep_provenance(table, solver_tolerance):
    """The note a sweep carries: the table depth and tolerance its values
    read, and the tolerance of its capacity solves."""
    return (f"table l_max={table.l_max} tolerance={table.tolerance!r};"
            f" solver_tolerance={solver_tolerance!r}")


def sweep_bound(spec, grid, table, jobs=1):
    """One spec over a d-grid, in grid order. The endpoints d=0 and d=1
    come from the closed forms (capacity is exactly 1 and 0 there), so
    solver-backed kinds only ever run on the open interval. The rest of
    the grid is one evaluate_bound call, except that jobs > 1 spreads
    the per-d solves of c4 and the lower bounds over that many threads;
    the table-backed kinds ignore it."""
    inner = [d for d in grid if d != 0.0 and d != 1.0]
    if jobs > 1 and len(inner) > 1 and spec.kind in _SOLVED_KINDS:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(
                lambda d: evaluate_bound(spec, d, table), inner))
    else:
        values = evaluate_bound(spec, inner, table).tolist()
    served = iter(values)
    points = [(d, 1.0 - d if d == 0.0 or d == 1.0 else next(served),
               spec.side) for d in grid]
    return BoundCurve(spec, points,
                      sweep_provenance(table, spec.solver_tolerance))


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


def conjecture1_report(d, table, *, max_c4_level=6,
                       solver_tolerance=DEFAULT_TOLERANCE,
                       combined_tolerance=1e-9):
    """Observed (not certified): each upper-bound family improves as its
    resolution parameter grows: c3 and c4 in L, c1_star in D, c2_star
    in R. Reported for inspection only; solver brackets make small
    negative slacks possible without meaning anything."""
    _check_probability(d, open_interval=True)
    reports = []

    c3_values = [bound_c3(L, d, table) for L in range(1, table.l_max + 1)]
    reports.append(_collect_report(
        "conjecture1_c3",
        [({"L": L}, c3_values[L], c3_values[L - 1])
         for L in range(1, len(c3_values))],
        combined_tolerance))

    c4_values = [bound_c4(L, d, solver_tolerance,
                          max_iterations=table.max_iterations,
                          l_cap=table.l_cap,
                          entry_budget=table.entry_budget)
                 for L in range(1, max_c4_level + 1)]
    reports.append(_collect_report(
        "conjecture1_c4",
        [({"L": L}, c4_values[L], c4_values[L - 1])
         for L in range(1, len(c4_values))],
        combined_tolerance))

    c1_values = []
    for D in range(table.l_max + 1):
        c1_values.append(bound_c1_star(
            D, resolve_l_max(table, "c1_star", D=D), d, table))
    reports.append(_collect_report(
        "conjecture1_c1_star",
        [({"D": D}, c1_values[D], c1_values[D - 1])
         for D in range(1, len(c1_values))],
        combined_tolerance))

    c2_values = [bound_c2_star(R, resolve_l_max(table, "c2_star", R=R),
                               d, table)
                 for R in range(table.l_max + 1)]
    reports.append(_collect_report(
        "conjecture1_c2_star",
        [({"R": R}, c2_values[R], c2_values[R - 1])
         for R in range(1, len(c2_values))],
        combined_tolerance))

    return reports
