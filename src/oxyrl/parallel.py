"""Independent shards of work on every usable CPU, through ``os.fork``.

A forked child inherits the caller's memory, so nothing is sent to it. It
sends back its result, or the exception it raised, as a protocol-5 pickle
(arrays go as their raw bytes) and leaves through ``os._exit``: never back
into the caller's stack, never flushing inherited stdio buffers. What a
child changes stays in the child.
"""

import os
import pickle
import signal


def _usable_cpus() -> int:
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


def ranges(n_items: int, min_size: int = 1) -> list:
    """Contiguous (start, stop) ranges covering range(n_items): one per
    usable CPU, but none under `min_size` items, and at least one."""
    count = max(1, min(n_items // min_size, _usable_cpus()))
    return [(n_items * k // count, n_items * (k + 1) // count) for k in range(count)]


def _child(fn, shard, sink):
    status = 1
    try:
        try:
            outcome = True, fn(shard)
        except BaseException as err:   # raised again in the parent
            outcome = False, err
        pickle.dump(outcome, sink, protocol=5)
        sink.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(pipe):
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):   # the child died first
        return None, None


def run_shards(fn, shards: list) -> list:
    """[fn(shard) for shard in shards]: the first in this process, each other
    in a forked child. An exception here kills the children. Once every
    child is reaped, the first failed child's exception is raised, or a
    RuntimeError for one that died without a result."""
    children = []                     # (pid, read end of its pipe)
    try:
        for shard in shards[1:]:
            read, write = os.pipe()
            pipe = os.fdopen(read, "rb")
            with os.fdopen(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _child(fn, shard, sink)
            children.append((pid, pipe))
        results = [fn(shards[0])]
        received = [_receive(pipe) for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    for pid, _ in children]
    for (ok, value), status in zip(received, statuses):
        if ok is None:
            raise RuntimeError(f"a shard's worker exited with status {status} "
                               "without sending its result")
        if not ok:
            raise value
        results.append(value)
    return results
