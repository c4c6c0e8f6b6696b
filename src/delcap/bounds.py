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

from .baa import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
                  mutual_information, solve_capacity)
from .channel import (DEFAULT_ENTRY_BUDGET, DEFAULT_L_CAP,
                      build_binomial_deletion_channel, orbit_channel)
from .combinatorics import binomial_weight, binomial_weight_tilde
from .errors import ParameterError, SolverNotConvergedError
from .lemmas import _collect_report
from .tables import _top_level, alpha, alpha_tilde, closed_form_f

UPPER_KINDS = ("c1_star", "c2_star", "c3", "c4", "erasure")
LOWER_KINDS = ("lower_opt", "lower_iud")
BOUND_KINDS = UPPER_KINDS + LOWER_KINDS

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


def _check_probability(d, *, open_interval):
    if not 0.0 <= d <= 1.0:
        raise ParameterError(f"d must be a probability, got {d}")
    if open_interval and (d == 0.0 or d == 1.0):
        raise ParameterError(
            f"d={d} is degenerate here; sweeps serve the endpoints from "
            "the closed forms 1 and 0")


def c1_star_tail(D, l_max, d, table, tail_cut=None):
    """Extrapolated remainder of the c1_star series beyond l_max.

    Successive extrapolated terms shrink by exactly (1 - d): the
    telescoped gap ratio (L+1-D)/(L+1) cancels against the opposite
    ratio in the length weights. tail_cut=None therefore sums the whole
    remainder as a geometric series; an integer cuts the sum off after
    block length tail_cut, which still upper-bounds the capacity because
    every dropped term is non-negative.
    """
    base = alpha_tilde(l_max, D, table, "lower")
    term = (base * (1.0 - D / (l_max + 1))
            * binomial_weight_tilde(l_max + 1, D, d).value)
    if tail_cut is None:
        return term / d
    total = 0.0
    for _ in range(l_max + 1, tail_cut + 1):
        total += term
        term *= 1.0 - d
    return total


def bound_c1_star(D, l_max, d, table, *, tail_cut=None):
    """Upper bound from the fixed-deletions auxiliary family.

    1 - d - (d^2/(D+1)) sum_{L>=D} alpha~(L,D) p~(L,D), with table
    values through l_max and the certified extrapolation past it.
    """
    if D < 0:
        raise ParameterError(f"D must be non-negative, got {D}")
    if l_max < D:
        raise ParameterError(f"need D <= l_max, got D={D}, l_max={l_max}")
    _check_probability(d, open_interval=True)
    populated = 0.0
    for L in range(D, l_max + 1):
        populated += (alpha_tilde(L, D, table, "lower")
                      * binomial_weight_tilde(L, D, d).value)
    series = populated + c1_star_tail(D, l_max, d, table, tail_cut)
    return 1.0 - d - d * d / (D + 1) * series


def bound_c2_star(R, l_max, d, table):
    """Upper bound from the fixed-survivors auxiliary family.

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
    if not 0.0 <= d < 1.0:
        raise ParameterError(f"c2_star needs 0 <= d < 1, got {d}")
    alpha_top = alpha(l_max, R, table, "lower")
    total = 0.0
    for L in range(R, l_max + 1):
        total += ((alpha_top - alpha(L, R, table, "lower"))
                  * binomial_weight(L, R, d).value)
    keep = 1.0 - d
    return (keep * keep / (R + 1) * total
            + keep * (1.0 - alpha_top / (R + 1)))


def bound_c3(L, d, table):
    """Upper bound from revealing per-block survivor counts: a finite
    sum, 1 - d - (1/L) sum_R alpha(L,R) p(L,R). Valid on closed [0,1];
    at the endpoints the weight mass sits where alpha vanishes."""
    if L < 1:
        raise ParameterError(f"L must be at least 1, got {L}")
    _check_probability(d, open_interval=False)
    gap = 0.0
    for R in range(L + 1):
        gap += alpha(L, R, table, "lower") * binomial_weight(L, R, d).value
    return 1.0 - d - gap / L


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
    """Dispatch one spec at one d; c4 and the lower bounds take their
    iteration and size budgets from the table's solver settings."""
    p = spec.parameters
    if spec.kind == "erasure":
        _check_probability(d, open_interval=False)
        return 1.0 - d
    if spec.kind == "c1_star":
        return bound_c1_star(p["D"], p["l_max"], d, table,
                             tail_cut=p.get("tail_cut"))
    if spec.kind == "c2_star":
        return bound_c2_star(p["R"], p["l_max"], d, table)
    if spec.kind == "c3":
        return bound_c3(p["L"], d, table)
    if spec.kind == "c4":
        return bound_c4(p["L"], d, spec.solver_tolerance,
                        max_iterations=table.max_iterations,
                        l_cap=table.l_cap, entry_budget=table.entry_budget)
    policy = "optimized" if spec.kind == "lower_opt" else "iud"
    return lower_bound(p["L"], d, policy, spec.solver_tolerance,
                       max_iterations=table.max_iterations,
                       l_cap=table.l_cap, entry_budget=table.entry_budget)


def compose_best_upper(d, specs, table):
    """Pointwise best upper bound, with the erasure bound 1 - d always
    in the running. Returns (value, winning spec)."""
    if not specs:
        raise ParameterError("need at least one upper-bound spec")
    for spec in specs:
        if spec.side != "upper":
            raise ParameterError(
                f"compose_best_upper only takes upper bounds, got {spec.kind}")
    best_value = 1.0 - d
    best_spec = BoundSpec("erasure")
    for spec in specs:
        value = evaluate_bound(spec, d, table)
        if value < best_value:
            best_value, best_spec = value, spec
    return best_value, best_spec


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


def sweep_bound(spec, grid, table, jobs=1):
    """One spec over a d-grid, in grid order. The endpoints d=0 and d=1
    come from the closed forms (capacity is exactly 1 and 0 there), so
    solver-backed kinds only ever run on the open interval."""
    def at(d):
        if d == 0.0 or d == 1.0:
            return 1.0 - d
        return evaluate_bound(spec, d, table)

    if jobs > 1 and len(grid) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(at, grid))
    else:
        values = [at(d) for d in grid]
    points = [(d, value, spec.side) for d, value in zip(grid, values)]
    provenance = (f"table l_max={table.l_max} tolerance={table.tolerance!r};"
                  f" solver_tolerance={spec.solver_tolerance!r}")
    return BoundCurve(spec, points, provenance)


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
