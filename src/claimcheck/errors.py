"""Exception hierarchy shared across the toolkit.

The CLI maps ValidationError to exit code 1 and BackendError to exit
code 2; everything raised by the library derives from one of them.
A subclass exists only where the package catches it or reads its data;
every other raise site raises one of the two with its own message.

This module also holds call_backend, the one wrap of a backend call, and map_records, the one
loop over a stage's records. How a message quotes a value (config_value) lives in store.py, with
the schema rules that quote one (value_rule, check_fields, check_range).
"""

import copyreg
import os
from functools import partial


class PipelineError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # Unpickled without calling __init__, which would format the message a second time:
        # an error raised in an explain worker process crosses to the parent as it was.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(PipelineError):
    """Bad inputs, malformed artifacts, or violated contracts."""


class BackendError(PipelineError):
    """A model backend failed or produced unusable output."""


class BackendFailure(BackendError):
    """Wraps any exception raised inside a backend plug-in."""

    def __init__(self, detail: str):
        super().__init__(f"backend failure: {detail}")
        self.detail = detail


def call_backend(role: str, identity: str, fn, *args):
    """Return fn(*args), raising BackendFailure for any exception.

    The one place a backend (method or registry factory) exception is wrapped;
    the message names the role and the backend's identity: "<role> '<identity>': <exc>".
    """
    try:
        return fn(*args)
    except Exception as exc:
        raise BackendFailure(f"{role} {identity!r}: {exc}") from exc


# map_records forks workers only past this many value calls: below it they cost about what they
# save. 2 long-evidence records (2,713 calls) broke even, 3 (5,114) ran 1.3x faster (2 CPUs, stub).
EXPLAIN_POOL_MIN_VALUE_CALLS = 4096

_worker_fn = None  # in a worker process: map_records' fn, set at the fork, so no task pickles it


def _attempt(fn, item) -> tuple:
    """(True, fn(item)), or (False, the PipelineError it raised)."""
    try:
        return True, fn(item)
    except PipelineError as exc:
        return False, exc


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _attempt_in_worker(item) -> tuple:
    return _attempt(_worker_fn, item)


def _attempts(fn, items: dict, value_calls: int):
    """_attempt(fn, item) of each item, in order: in min(CPUs, items) forked workers if there are
    two of each, fork exists and value_calls > EXPLAIN_POOL_MIN_VALUE_CALLS; else lazily here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(items))
    if workers > 1 and value_calls > EXPLAIN_POOL_MIN_VALUE_CALLS:
        import multiprocessing  # the pool's modules cost start-up time and memory

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # Fork, not spawn: a worker inherits fn and the backend it calls, so one registered
            # at run time, or one that cannot be pickled, works in it too.
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_start_worker, initargs=(fn,)) as pool:
                try:
                    return list(pool.map(_attempt_in_worker, items.values(), chunksize=1))
                except BrokenProcessPool as exc:
                    raise BackendError(f"an explain worker process died: {exc}") from exc
    return map(partial(_attempt, fn), items.values())


def map_records(fn, items: dict, value_calls: int = 0) -> tuple[dict, dict[str, str]]:
    """Map fn over {record id: item}: ({id: fn(item)}, {id: why it failed}), both in order.

    The per-record failure policy of every stage: a record whose call raises a PipelineError
    fails alone. The stage writes the others and names each failed id and reason in its summary's
    "failures"; run_command logs each, then exits 2 naming the count and the first. If every
    record fails, the first error is raised and nothing is written. explain passes its value
    calls, so its records may run in worker processes, with the same results and errors."""
    results, errors = {}, {}
    for key, (ok, value) in zip(items, _attempts(fn, items, value_calls)):
        (results if ok else errors)[key] = value
    if errors and not results:
        raise next(iter(errors.values()))
    return results, {key: str(error) for key, error in errors.items()}

