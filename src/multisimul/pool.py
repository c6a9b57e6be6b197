"""Independent units of work, run on every CPU the process may use."""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import MultisimulError

__all__ = ["ordered_map", "worker_count"]

S = TypeVar("S")
U = TypeVar("U")
R = TypeVar("R")

# a pool worker's unit function and shared inputs, set by _share when it starts
_worker_call: tuple[Callable, object] | None = None


def _share(fn: Callable, shared: object) -> None:
    global _worker_call
    _worker_call = fn, shared


def _pooled_unit(unit):
    fn, shared = _worker_call
    return fn(shared, unit)


def worker_count(units: Sequence) -> int:
    """One worker per CPU the process may run on, and no more than units."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), len(units))


def ordered_map(fn: Callable[[S, U], R], shared: S, units: Sequence[U]) -> Iterator[R]:
    """``fn(shared, unit)`` for each unit, yielded in unit order.

    At one worker the units run in this process, one after another, and no
    process is forked. Otherwise each worker is a fork of this process, so it
    starts with ``shared`` and ``fn`` in memory and neither is pickled; each
    unit and its result are. A unit that raises stops the map with its error,
    and the units not yet started are cancelled. A worker that ends without a
    result (a signal, the out-of-memory killer, an exit) raises
    ``MultisimulError``. The pool is shut down, and its workers reaped, once
    the iterator is exhausted, raises or is closed.
    """
    workers = worker_count(units)
    if workers <= 1:
        for unit in units:
            yield fn(shared, unit)
        return
    # imported here, not at the top, because importing the pool's modules
    # would add 11-16 ms and 1.2 MiB of resident memory to every command's
    # start-up (Python 3.11, 2-vCPU VM)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, so that nothing shared is pickled; the package starts no thread of
    # its own, and the executor starts its thread only after the workers fork
    executor = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_share,
        initargs=(fn, shared),
    )
    try:
        yield from executor.map(_pooled_unit, units)
    except BrokenProcessPool:
        raise MultisimulError("a worker process ended without a result") from None
    finally:
        executor.shutdown(cancel_futures=True)
