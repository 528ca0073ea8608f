"""Worker processes for the train and explain stages; the `threads`
setting counts them.

`workers(threads)` resolves the setting: 1 runs in process, 0 means
`os.cpu_count()`, and no value gives more than `os.cpu_count()`.
`jobs(threads, stage)` yields the stage's `map(fn, *iterables)`: builtin
`map` at one worker; above one, a map that submits every call at once to
the process's pool and hands the results back in order as they are read.
Either way each call runs under `_caught`, which records the warnings it
issues, and the map re-issues them as it hands back the call's result,
so they come in the order an in-process run gives them.

The pool starts with the first stage that submits work and lives as long
as the process, so a run of several stages pays its start-up once. Its
workers are spawned, never forked: they hold nothing of the parent but
the arguments of their calls, each a module-level function of the
package or a bound method of a picklable object. An error raised in a
call reaches the caller as itself, its type, message and attributes
kept. A worker that dies breaks the pool: the stage fails with
WorkerDied, naming the stage, and the pool is dropped, so the next call
starts a fresh one.
"""

from __future__ import annotations

import atexit
import os
import warnings
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from itertools import repeat

from .errors import WorkerDied, warn

_pool = None  # (workers, executor) of this process, once started


def workers(threads: int) -> int:
    """Worker processes for the `threads` setting: 0 means every core,
    and no setting gets more than `os.cpu_count()`."""
    cpus = os.cpu_count() or 1
    return min(threads or cpus, cpus)


def _executor(n: int):
    global _pool
    if _pool is None or _pool[0] != n:
        shutdown()
        # imported here, so that a run that never starts a pool does not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _pool = n, ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("spawn"), initializer=_watch_parent)
    return _pool[1]


def _watch_parent() -> None:
    """Make this worker exit once its parent is gone, however the parent
    ended: killed, it shuts no pool down."""
    import multiprocessing.connection
    import threading

    def watch(sentinel):
        multiprocessing.connection.wait([sentinel])  # ready once the parent's end closes
        os._exit(1)

    threading.Thread(target=watch, args=(multiprocessing.parent_process().sentinel,), daemon=True).start()


def shutdown() -> None:
    """Stop the pool's workers, if it was started; the next call that
    submits work starts a fresh pool."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


# before the interpreter tears its modules down, which the executor's own
# clean-up still uses
atexit.register(shutdown)


def _caught(fn, *args):
    """`fn(*args)` and the warnings it issued, as (message, category)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(str(w.message), w.category) for w in caught]


def _relay(results):
    for result, caught in results:
        for message, category in caught:
            warn(message, category)
        yield result


@contextmanager
def jobs(threads: int, stage: str):
    """The `map` the body of `stage` runs its jobs through, lazy either
    way. A pool's calls that the body did not read are cancelled when it
    ends."""
    n = workers(threads)
    if n == 1:
        yield lambda fn, *iterables: _relay(map(_caught, repeat(fn), *iterables))
        return
    submitted = []

    def pool_map(fn, *iterables):
        executor = _executor(n)
        futures = [executor.submit(_caught, fn, *args) for args in zip(*iterables)]
        submitted.extend(futures)
        return _relay(future.result() for future in futures)

    try:
        yield pool_map
    except BrokenExecutor as exc:
        shutdown()
        raise WorkerDied(f"stage {stage!r}: a worker process died") from exc
    finally:
        for future in submitted:
            future.cancel()
