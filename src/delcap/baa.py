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

So a large stack is also split across threads. With k = min(CPUs
available to the process, channels), the channels fall into k
interleaved groups (channels i, i + k, i + 2k, ...), and each group is
a smaller stack on the same stored counts, solved on its own thread;
the calling thread takes group 0. Each law reads and writes only its
own columns, so every sum keeps its order and each channel gets the
bits it gets in the serial stack: the results do not depend on the CPU
count through the split. Nor do they through BLAS: OpenBLAS splits a
dot of more than 10,000 entries across its threads, whose count follows
the CPUs, which would move the last digits of a mutual information from
L=16 (16,512 input orbits) on; so each dot of a law with its divergences
(_dot) adds up chunks of at most 10,000 entries, one thread each, in
order.
scipy's sparse products release the interpreter lock, so the groups'
products run at once; the rest of a step is Python-bound and queues
for the lock, which is why a stack is split only when its counts hold
at least _SPLIT_MIN_ENTRIES entries.
"""

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

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
# a stack is split across threads only when its counts C hold at least this
# many entries. Split on 2 CPUs against serial (medians of 7-9 alternating
# in-process solves of 19, 6 and 2 laws): L=10 (19,670 entries) 1.14-1.81x
# the serial time, L=11 (57,558) 0.92-1.18x, L=12 (172,596) 0.65-0.85x
_SPLIT_MIN_ENTRIES = 100_000
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


def _solve_one(channel, column, trial, stop=None):
    """Drive one law's iteration on a single channel, from its pending
    trial to its result, or to None once the stop event is set."""
    try:
        while stop is None or not stop.is_set():
            w = np.exp(trial)
            t = w / w.sum()
            trial = column.send((t, _divergences(channel, t)))
    except StopIteration as done:
        return done.value
    return None


def _rows(stack, index):
    """The channels of a stack at index: a list keeps a stack, one
    integer gives that channel alone."""
    return replace(stack, _column_weights=stack._column_weights[index],
                   _row_plogp=stack._row_plogp[index])


def _solve_stack(stack, columns, stop=None):
    """Drive one iteration per channel of a stack. Each step normalises
    the open laws and evaluates their divergences together; a channel
    leaves the stack when its iteration returns, and the last one open
    runs on its own, with the single-law products. Once the stop event
    is set, the stack stops at its next step and returns None."""
    results = [None] * len(columns)
    open_ = list(range(len(columns)))
    trials = [next(column) for column in columns]
    rows = stack
    while len(open_) > 1:
        if stop is not None and stop.is_set():
            return None
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
        results[i] = _solve_one(_rows(stack, i), columns[i], trial, stop)
        if results[i] is None:
            return None
    return StackResult(tuple(results))


def _cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _solve_split(stack, columns, k):
    """Solve a stack as k interleaved groups, channels g, g + k, ... in
    group g, each a smaller stack driven on its own thread; the calling
    thread drives group 0. An exception in any group stops every group
    at its next step and is re-raised once all threads are joined."""
    stop = threading.Event()
    groups = [list(range(g, len(columns), k)) for g in range(k)]
    results = [None] * k
    errors = []

    def run(g):
        try:
            results[g] = _solve_stack(_rows(stack, groups[g]),
                                      [columns[i] for i in groups[g]], stop)
        except BaseException as error:  # re-raised below, after the joins
            errors.append(error)
            stop.set()

    threads = [threading.Thread(target=run, args=(g,)) for g in range(1, k)]
    try:
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
    except BaseException:  # an interrupt outside run(0): stop the groups
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if errors:
        raise errors[0]
    merged = [None] * len(columns)
    for group, result in zip(groups, results):
        for i, column in zip(group, result.columns):
            merged[i] = column
    return StackResult(tuple(merged))


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
    a StackResult. A stack whose counts hold at least
    _SPLIT_MIN_ENTRIES entries is split into k = min(CPUs available to
    the process, channels) interleaved groups, one thread each (see the
    module docstring); on_iteration may then run on a worker thread,
    with calls for different channels interleaved. The result does not
    depend on k.
    """
    if tolerance <= 0.0:
        raise ParameterError("tolerance must be positive")
    if max_iterations < 1:
        raise ParameterError("max_iterations must be at least 1")
    tol_nats = tolerance * LN2
    start = np.log(channel.input_sizes)
    if channel._row_plogp.ndim == 2:
        columns = [_iterate(start, tol_nats, max_iterations, on_iteration)
                   for _ in channel._row_plogp]
        k = min(_cpu_count(), len(columns))
        if k > 1 and channel._matrix_t.nnz >= _SPLIT_MIN_ENTRIES:
            return _solve_split(channel, columns, k)
        return _solve_stack(channel, columns)
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
