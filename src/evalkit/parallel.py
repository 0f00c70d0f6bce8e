"""Folding corpus files over line-aligned byte ranges in worker processes.

``corpus_io.CorpusFiles.fold`` imports this module only for inputs large
enough to use workers, so a cold start of any other run compiles and
loads none of it.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import current_process
from typing import Any, BinaryIO, Callable, Iterator, Sequence

from .corpus_io import _parse_body, _read_header, iter_records
from .dialogue import IntentSchema

# What the pool initializer hands a worker process: (schema, fold, args).
_worker_task: tuple = ()


def _start_worker(schema: IntentSchema, fold: Callable, args: tuple) -> None:
    global _worker_task
    # A forked worker inherits the parent's heap: frozen, a full collection
    # neither walks those objects nor copies their pages on write.
    gc.freeze()
    _worker_task = (schema, fold, args)


def _range_lines(handle: BinaryIO, size: int) -> Iterator[bytes]:
    """The lines of the next ``size`` bytes of ``handle``, which end at a line end."""
    for line in handle:
        yield line
        size -= len(line)
        if size <= 0:
            return


def _fold_range(path: str, start: int, end: int) -> tuple[set[str], Any]:
    """A worker's fold over the dialogues in bytes [start, end) of ``path``,
    with their ids. Line numbers count from the range's start: a fault is
    reported by the in-process rerun, not from here."""
    schema, fold, args = _worker_task
    seen_ids: set[str] = set()
    with open(path, "rb") as handle:
        handle.seek(start)
        records = iter_records(_range_lines(handle, end - start))
        result = fold(_parse_body(records, schema, seen_ids), *args)
    return seen_ids, result


def line_ranges(paths: Sequence[str], count: int) -> list[tuple[str, int, int]]:
    """About ``count`` ``(path, start, end)`` byte ranges that cover every
    file's records after its header, each starting a line."""
    bodies = []
    for path in paths:
        with open(path, "rb") as handle:
            _read_header(iter_records(handle))
            bodies.append((path, handle.tell(), os.fstat(handle.fileno()).st_size))
    step = -(-sum(end - start for _, start, end in bodies) // count)
    ranges = []
    for path, start, end in bodies:
        with open(path, "rb") as handle:
            while start < end:
                cut = start + step
                if cut < end:
                    # The first line end at or after the target byte.
                    handle.seek(cut - 1)
                    handle.readline()
                    cut = handle.tell()
                cut = min(cut, end)
                ranges.append((path, start, cut))
                start = cut
    return ranges


def fold_in_workers(
    paths: Sequence[str], schema: IntentSchema, workers: int, fold: Callable, args: tuple
) -> list[Any] | None:
    """``fold(dialogues, *args)`` per byte range of ``paths`` on up to
    ``workers`` processes, in file order; None if any range faults or two
    ranges hold one id. In a child process that is still starting up, a
    failure to start workers is raised."""
    try:
        ranges = line_ranges(paths, workers)
        with ProcessPoolExecutor(
            min(workers, len(ranges)), initializer=_start_worker, initargs=(schema, fold, args)
        ) as pool:
            futures = [pool.submit(_fold_range, *part) for part in ranges]
            parts = [future.result() for future in futures]
    except Exception:  # any fault: the caller's in-process rerun reports it
        if getattr(current_process(), "_inheriting", False):
            # multiprocessing's flag for a spawn or forkserver child still
            # importing the main module: one that runs a command without a
            # ``__main__`` guard. Python's own error says so, and the parent,
            # which sees the child fail, reruns in-process.
            raise
        return None
    ids = [part_ids for part_ids, _ in parts]
    if sum(map(len, ids)) != len(set().union(*ids)):
        return None  # an id in two ranges: the rerun names its second line
    return [result for _, result in parts]
