"""Two-sided channel-capacity solver.

Alternating maximization from the uniform input distribution. At every
step the achieved mutual information of the current distribution is a
certified lower estimate of capacity, and the largest single-input
divergence from the induced output distribution is a certified upper
estimate, so the returned bracket contains the true capacity no matter
where the iteration stops. All internal work is in nats; results are
converted to bits at the boundary.

The start law gives each input its channel's input_sizes as weight: one
per input of a full channel, the uniform law, and the orbit size per
row of an OrbitChannel, the uniform law on the full inputs summed over
each orbit. Each step multiplies a row's mass by a function of its
divergence, which is the same for every member of an orbit, so the
reduced iterates are the full ones summed over orbits and the bracket
certifies the full channel's capacity.

The steps are over-relaxed (Matz & Duhamel 2004; Yu 2010), with one
step size per input (the per-weight rates of Jacobs 1988): from the kept
law r with divergences D and mutual information I, the trial law is
proportional to r·exp(λ⊙(D − I)), where plain Blahut-Arimoto is λ = 1.
The gap is centred because λ differs across inputs: the sign of D − I
says whether the plain step raises or lowers an input's mass, and λ
only scales that move. Each λ starts at 2. On an accepted trial it
grows ×1.3, up to 16, where the input's gap has the same sign as under
the previous kept law, and is halved (never below 1) where the sign
flipped, so an input pushed to tiny mass early regrows fast while a
stiff one settles. A trial whose mutual information falls
below the kept lower estimate is rejected: every λ is halved (never
below 1) and the next trial is the plain step from the kept law, which
cannot lower the mutual information; it is kept and leaves λ as it is.
Every reported bracket therefore comes from one kept law. One iteration
is one divergence evaluation, a rejected trial included, so
max_iterations caps the matrix products.

A stack of channels that share their counts C and differ in their
column weights and row term (the binomial channels of one block length
at several d) is solved in one pass. Each channel keeps its own law,
steps and bracket and takes exactly the steps it would take alone, with
the same arithmetic, so its result is bit-identical to its own solve.
Only the work is shared: each step exponentiates and normalises the
open laws together and evaluates all their divergences with one sparse
product per direction, a matrix with one column per law, whose columns
sum in the same order as the product with one law. A channel leaves the
stack when its bracket closes or its iterations run out; the last one
open runs with the single-law products. Laws never pass from one
channel to another, so no channel's result depends on the others.

A large stack is also split across processes. With k = min(CPUs
available to the process, channels), the channels fall into k
interleaved groups (channels i, i + k, i + 2k, ...), and each group is
a smaller stack on the same stored counts, solved by workers.run_shares:
the calling process takes group 0 and a forked worker each other group.
Each law reads and writes only its own columns, so every sum keeps its
order and each channel gets the bits it gets in the serial stack: the
results do not depend on the CPU count through the split. Nor do they
through BLAS: OpenBLAS splits a dot of more than 10,000 entries across
its threads, whose count follows the CPUs, which would move the last
digits of a mutual information from L=16 (16,512 input orbits) on; so
each dot of a law with its divergences (_dot) adds up chunks of at most
10,000 entries, one thread each, in order. A fork and the trip of the
results through a pipe cost a few milliseconds, which is why a stack is
split only when its counts' entries times its laws reach
_SPLIT_MIN_ENTRIES.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .workers import cpu_count, run_shares

LN2 = math.log(2.0)
DEFAULT_TOLERANCE = 5e-3
DEFAULT_MAX_ITERATIONS = 20000

# probabilities below this are treated as zero inside logarithms
_FLOOR = 1e-300
# per-input over-relaxation factor λ: first value, growth per accepted step
# whose gap keeps its sign, ceiling; a sign flip halves that input's λ and a
# rejected trial halves every λ, down to the plain step 1
_STEP_START = 2.0
_STEP_GROWTH = 1.3
_STEP_MAX = 16.0
# a stack is split across forked workers only when its counts C hold at
# least this many entries summed over its laws (entries × laws): on a 2-vCPU
# VM a fork and its join cost 5-8 ms, so a split pays by the work it shares,
# not by the size of C. Split on 2 CPUs against serial (medians of 15
# alternating in-process solves; entries × laws in brackets; a range spans
# four or five runs):
#   L=10 (19,670 entries), 19 laws (374k) 0.85-1.25x the serial time
#   L=11 (57,558), 2 laws (115k) 1.80x, 6 (345k) 1.18x, 19 (1.09M) 0.83-0.91x
#   L=12 (172,596), 2 laws (345k) 1.24x, 4 (690k) 0.71x, 6 (1.04M) 0.91x,
#        19 (3.28M) 0.69-0.91x
#   L=13 (513,799), 2 laws (1.03M) 0.94x, 4 (2.06M) 0.64x
_SPLIT_MIN_ENTRIES = 500_000
# OpenBLAS runs a dot of up to this many entries on one thread and splits a
# longer one across its threads, whose count follows the CPUs
_DOT_CHUNK = 10_000


@dataclass(frozen=True)
class BaaResult:
    """Capacity bracket in bits per channel use, plus the final input law."""

    capacity_lower: float
    capacity_upper: float
    input_distribution: np.ndarray
    iterations: int
    tolerance_achieved: float
    converged: bool


def _dot(a, b):
    """a · b added up over chunks of _DOT_CHUNK entries in order: the same
    bits on any number of BLAS threads, and a @ b itself up to one chunk."""
    total = float(a[:_DOT_CHUNK] @ b[:_DOT_CHUNK])
    for i in range(_DOT_CHUNK, len(a), _DOT_CHUNK):
        total += float(a[i:i + _DOT_CHUNK] @ b[i:i + _DOT_CHUNK])
    return total


def _divergences(channel, dist):
    """KL(P(.|x) || q) in nats for every x, with q induced by dist.

    On a stack, dist holds one law per channel in its rows, and so does
    the result. Both products then take one column per law, and each
    column sums in the same order as the product with that law alone.
    """
    w = channel._column_weights  # the channel is _matrix diag(w)
    if dist.ndim == 1:  # the transposes cost a few % of a small cell's step
        q = w * (channel._matrix_t @ dist)
        log_q = np.log(np.maximum(q, _FLOOR))
        return channel._row_plogp - channel._matrix @ (w * log_q)
    q = w * (channel._matrix_t @ dist.T).T
    log_q = np.log(np.maximum(q, _FLOOR))
    return channel._row_plogp - (channel._matrix @ (w * log_q).T).T


@dataclass(frozen=True)
class StackResult:
    """The brackets of a stack of channels, one BaaResult per channel in
    stack order, and their totals: iterations summed over the channels,
    the widest width, and whether every channel converged."""

    columns: tuple

    @property
    def iterations(self):
        return sum(column.iterations for column in self.columns)

    @property
    def tolerance_achieved(self):
        return max(column.tolerance_achieved for column in self.columns)

    @property
    def converged(self):
        return all(column.converged for column in self.columns)


def _iterate(start, tol_nats, max_iterations, on_iteration):
    """The iteration of one law, as a generator: it yields the
    log-weights of each trial law, is sent back (t, D), the normalised
    trial law and its divergences, and returns the BaaResult once the
    bracket closes or the iterations run out."""
    trial = start  # log-weights of the start law
    step = np.full(len(start), _STEP_START)
    plain = True  # take the trial as is: the start law, or a fallback
    for it in range(1, max_iterations + 1):
        t, t_div = yield trial
        t_lower = _dot(t, t_div)
        if plain or t_lower >= lower:
            t_gap = t_div - t_lower
            if not plain:  # grow where the gap kept its sign, else halve
                step = np.where((t_gap > 0.0) == (gap > 0.0),
                                np.minimum(step * _STEP_GROWTH, _STEP_MAX),
                                np.maximum(step / 2.0, 1.0))
            log_r, r, gap, lower = trial, t, t_gap, t_lower
            upper = float(t_div.max())
            if upper < lower:  # max >= mean up to rounding noise; keep the order
                upper = lower
            plain = False
        else:  # rejected: keep the law, retry with the plain step
            step = np.maximum(step / 2.0, 1.0)
            plain = True
        if on_iteration is not None:
            on_iteration(it, lower / LN2, upper / LN2)
        if upper - lower <= tol_nats:
            return BaaResult(lower / LN2, upper / LN2, r, it,
                             (upper - lower) / LN2, True)
        trial = log_r + (gap if plain else step * gap)
        trial -= trial.max()
    return BaaResult(lower / LN2, upper / LN2, r, max_iterations,
                     (upper - lower) / LN2, False)


def _solve_one(channel, column, trial):
    """Drive one law's iteration on a single channel, from its pending
    trial to its result."""
    try:
        while True:
            w = np.exp(trial)
            t = w / w.sum()
            trial = column.send((t, _divergences(channel, t)))
    except StopIteration as done:
        return done.value


def _rows(stack, index):
    """The channels of a stack at index: a list keeps a stack, one
    integer gives that channel alone."""
    return replace(stack, _column_weights=stack._column_weights[index],
                   _row_plogp=stack._row_plogp[index])


def _solve_stack(stack, columns):
    """Drive one iteration per channel of a stack. Each step normalises
    the open laws and evaluates their divergences together; a channel
    leaves the stack when its iteration returns, and the last one open
    runs on its own, with the single-law products."""
    results = [None] * len(columns)
    open_ = list(range(len(columns)))
    trials = [next(column) for column in columns]
    rows = stack
    while len(open_) > 1:
        w = np.exp(np.array(trials))
        t = w / w.sum(axis=1, keepdims=True)
        t_div = _divergences(rows, t)
        still, trials = [], []
        for j, i in enumerate(open_):
            try:
                trials.append(columns[i].send((t[j], t_div[j])))
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
        if len(still) < len(open_):
            open_ = still
            rows = _rows(stack, open_)
    for i, trial in zip(open_, trials):
        results[i] = _solve_one(_rows(stack, i), columns[i], trial)
    return StackResult(tuple(results))


def solve_capacity(channel, tolerance=DEFAULT_TOLERANCE,
                   max_iterations=DEFAULT_MAX_ITERATIONS, on_iteration=None):
    """Bracket the capacity of a channel to the given width in bits.

    Deterministic: identical inputs give a bit-identical result. Slow
    convergence never raises; the partial bracket comes back flagged with
    converged=False and callers decide how to propagate that.
    One iteration is one divergence evaluation of a trial law: the
    over-relaxed step from the kept law, each input scaled by its own λ
    along its centred gap D − I, or after a rejected trial the plain step
    (see the module docstring). The bracket and the returned
    input_distribution always belong to the same kept law, whose lower
    estimate never drops. on_iteration(iteration, lower_bits, upper_bits)
    is invoked once per iteration with the kept bracket when supplied,
    mainly so tests can watch monotonicity.
    The iteration starts from the law proportional to
    channel.input_sizes, uniform on a full channel; on an OrbitChannel,
    input_distribution holds the mass of each input orbit, not of its
    representative.

    On a stack (the OrbitChannel that orbit_stack builds), each channel
    runs its own iteration, exactly as it would alone: max_iterations
    caps each one, and on_iteration is invoked for each. The result is
    a StackResult. A stack whose counts' entries times its channels
    reach _SPLIT_MIN_ENTRIES is split into k = min(CPUs available to the
    process, channels) interleaved groups, solved by forked workers
    (see the module docstring); the result does not depend on k. A stack
    solved with on_iteration is not split, since a worker's calls could
    not reach the callback.
    """
    if tolerance <= 0.0:
        raise ParameterError("tolerance must be positive")
    if max_iterations < 1:
        raise ParameterError("max_iterations must be at least 1")
    tol_nats = tolerance * LN2
    start = np.log(channel.input_sizes)
    if channel._row_plogp.ndim == 2:
        def solve(stack):
            return _solve_stack(stack, [
                _iterate(start, tol_nats, max_iterations, on_iteration)
                for _ in stack._row_plogp])

        laws = len(channel._row_plogp)
        k = min(cpu_count(), laws)
        if (k == 1 or on_iteration is not None
                or channel._matrix_t.nnz * laws < _SPLIT_MIN_ENTRIES):
            return solve(channel)

        def group(g):  # channels g, g + k, g + 2k, ...
            return solve(_rows(channel, list(range(g, laws, k))))

        merged = [None] * laws
        for g, result in enumerate(run_shares(group, range(k))):
            merged[g::k] = result.columns
        return StackResult(tuple(merged))
    column = _iterate(start, tol_nats, max_iterations, on_iteration)
    return _solve_one(channel, column, next(column))


def mutual_information(channel, input_distribution):
    """I(X;Y) in bits for a given input law, with 0 log 0 = 0. On a
    stack, the law is taken on every channel in one divergence pass, and
    the result lists one value per channel."""
    dist = np.asarray(input_distribution, dtype=np.float64)
    if dist.shape != (channel.input_count,):
        raise ParameterError(
            f"distribution has shape {dist.shape}, channel has"
            f" {channel.input_count} inputs")
    if np.any(dist < 0.0):
        raise ParameterError("distribution entries must be non-negative")
    if abs(float(dist.sum()) - 1.0) > 1e-9:
        raise ParameterError("distribution must sum to 1 within 1e-9")
    if channel._row_plogp.ndim == 1:
        return _dot(dist, _divergences(channel, dist)) / LN2
    laws = np.tile(dist, (len(channel._row_plogp), 1))
    return [_dot(dist, div) / LN2 for div in _divergences(channel, laws)]
