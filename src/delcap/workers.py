"""Shares of work on forked worker processes.

run_shares(work, shares) returns [work(share) for share in shares]: the
calling process runs share 0 and a worker forked at the start runs each
other share, so every share sees the caller's state as the call began,
without pickling it. Everything runs in the calling process, share after
share, on one CPU, without the fork start method, or in a daemonic
process (a pool's worker), which may have no children.

A process and not a thread, because each solve step makes about twenty
short numpy calls and threads queue for the interpreter lock between
them: on 2 vCPUs the 18 cells of at least 10,000 entries in
`table --l-max 13 --diag-l-max 14`, folded beforehand, solved in a
median 0.16 s on a two-thread pool against 0.13 s serially (slower in 6
of 6 alternating runs), while with one forked worker that command plus
`verify` (the benchmark's `table_build`) took a median 0.15 s against
0.22 s serially (10 alternating pairs of fresh processes, faster in 10).

multiprocessing is imported with this module, at start-up, and not where
a command first forks: nothing else a command imports loads the modules
it needs, so there it would add 5-7 ms to the command's own run.
"""

import multiprocessing
import os
import signal
import threading


def cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_context():
    """The fork start method, or None where this process may not fork a
    worker: no fork on the platform, or a daemonic process."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def _exit_with_parent():
    """End this worker once its parent is gone: a parent killed outright
    (SIGKILL, or SIGTERM's default action) cannot stop it itself."""
    import multiprocessing.connection
    multiprocessing.connection.wait(
        [multiprocessing.parent_process().sentinel])
    os._exit(1)


def _run_in_worker(work, share, sender):
    """A worker's share: send back (False, work(share)), or (True, the
    exception it raised)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops it
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        message = (False, work(share))
    except Exception as error:  # raised again in the caller
        message = (True, error)
    sender.send(message)


def run_shares(work, shares):
    """[work(share) for share in shares], share 0 in this process and each
    other share in its own forked worker (see the module docstring).

    Results and exceptions come in share order: share 0's exception
    first, then each worker's in turn, so the one raised is the first a
    serial run would raise. Every worker is joined on every path, and
    terminated first when this process fails or is interrupted or a
    worker's exception is raised; a worker that exits without a result
    is a RuntimeError naming its exit code. A worker whose parent is
    killed outright ends itself (_exit_with_parent).
    """
    context = None
    if len(shares) > 1 and cpu_count() > 1:
        context = _fork_context()
    if context is None:
        return [work(share) for share in shares]
    workers, receivers = [], []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            worker = context.Process(target=_run_in_worker,
                                     args=(work, share, sender), daemon=True)
            # OpenBLAS joins its thread pool in a pthread_atfork handler,
            # so the process forks with one thread, and Python 3.12+ has
            # no multi-threaded fork to warn about
            try:
                worker.start()
            finally:
                sender.close()  # so a worker that dies unheard reads as EOF
            workers.append(worker)
        results = [work(shares[0])]
        for worker, receiver in zip(workers, receivers):
            try:
                failed, result = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"a worker exited with code {worker.exitcode}"
                    " before sending its result") from None
            if failed:
                raise result
            results.append(result)
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
        for receiver in receivers:
            receiver.close()
    return results
