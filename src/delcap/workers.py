"""Shares of work on forked worker processes.

run_shares(work, shares) returns [work(share) for share in shares]: the
calling process runs share 0 and a worker forked at the start runs each
other share, so every share sees the caller's state as the call began,
without pickling it. A worker ignores SIGINT (the caller stops it), runs
its share, writes one pickled (failed, result) to its own pipe and
leaves with os._exit, flushing no buffer it inherited. A thread in it
ends it once a lifeline pipe, whose one write end the caller holds,
reads EOF: a caller killed outright takes its workers with it. All runs
in the calling process for fewer than two shares, on one CPU, without
os.fork, or in a multiprocessing pool's worker (daemonic: no children).

A process and not a thread, because each solve step makes about twenty
short numpy calls and threads queue for the interpreter lock between
them: on 2 vCPUs the 18 cells of at least 10,000 entries in
`table --l-max 13 --diag-l-max 14`, folded beforehand, solved in a
median 0.16 s on a two-thread pool against 0.13 s serially (slower in 6
of 6 alternating runs), while with one forked worker that command plus
`verify` (the benchmark's `table_build`) took a median 0.15 s against
0.22 s serially (10 alternating pairs of fresh processes, faster in 10).
"""

import os
import pickle
import signal
import sys
import threading


def cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _exit_with_parent(lifeline):
    os.read(lifeline, 1)  # nothing is written: this returns at EOF
    os._exit(1)


def _run_in_worker(work, share, sender, lifeline, held):
    """A forked worker's whole life: send back (False, work(share)), or
    (True, the exception it raised), and exit; code 1 when that fails."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(held)  # so only the caller keeps the lifeline open
        threading.Thread(target=_exit_with_parent, args=(lifeline,),
                         daemon=True).start()
        try:
            message = (False, work(share))
        except Exception as error:  # raised again in the caller
            message = (True, error)
        with open(sender, "wb") as pipe:  # a dump cut short exits with 1
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    except Exception:  # the caller raises with this worker's exit code 1
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(1)


def run_shares(work, shares):
    """[work(share) for share in shares], share 0 in this process and each
    other share in its own forked worker (see the module docstring).

    Results and exceptions come in share order: share 0's exception
    first, then each worker's in turn, so the one raised is the first a
    serial run would raise. Every worker is reaped once on every path,
    and sent SIGTERM first when this process fails or is interrupted or
    a worker's exception is raised; a worker that exits without a result
    (an unpicklable one included) is a RuntimeError naming its exit code.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if (len(shares) < 2 or cpu_count() < 2 or not hasattr(os, "fork")
            or multiprocessing and multiprocessing.current_process().daemon):
        return [work(share) for share in shares]
    lifeline, held = os.pipe()
    pids, pipes = [], []  # the workers not yet reaped, and their pipes
    try:
        for share in shares[1:]:
            receiver, sender = os.pipe()
            pipes.append(open(receiver, "rb"))
            # OpenBLAS joins its thread pool in a pthread_atfork handler,
            # so the process forks with one thread, and Python 3.12+ has
            # no multi-threaded fork to warn about
            try:
                pid = os.fork()
                if pid == 0:
                    _run_in_worker(work, share, sender, lifeline, held)
            finally:
                os.close(sender)  # so a worker that dies unheard is EOF
            pids.append(pid)
        results = [work(shares[0])]
        for pipe in pipes:
            message = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code != 0:
                raise RuntimeError(f"a worker exited with code {code}"
                                   " before sending its result")
            failed, result = pickle.loads(message)
            if failed:
                raise result
            results.append(result)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
        os.close(lifeline)
        os.close(held)
    return results
