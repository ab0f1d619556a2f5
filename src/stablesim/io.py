"""JSON family-spec documents, ensemble CSV files and report serialization."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import threading
from typing import IO

import numpy as np

from . import kernels as K

SCHEMA_VERSION = 1
_CSV_BLOCK_ROWS = 64  # rows per parse block of read_ensemble_csv
_CSV_SPAN_ROWS = 8  # rows per task of write_ensemble_csv's worker processes
# values below which write_ensemble_csv formats in-process: on 2 CPUs the
# pool's import, fork and round trips (about 30 ms) broke even near 65k values
# with the second CPU idle, and later with it busy
_CSV_POOL_MIN_VALUES = 1 << 17

# a write worker's (times, values), set by its initializer
_worker_arrays: tuple[np.ndarray, np.ndarray] | None = None


def spec_to_dict(spec: K.Kernel) -> dict:
    """JSON document of a family spec."""
    return spec.to_doc()


def spec_from_dict(doc) -> K.Kernel:
    """Family spec of a JSON document, looked up by its "family" in the registry."""
    return K.Kernel.from_doc(doc)


def load_spec(path: str) -> K.Kernel:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def spec_digest(descriptor: dict) -> str:
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_ensemble_csv(fh: IO[str], times: np.ndarray, values: np.ndarray) -> None:
    """CSV with header time,path_0,... and round-trip decimal formatting.
    ``values`` is (paths, times); a ``times`` of another length raises
    ValueError before anything is written.  The rows are formatted in spans
    of ``_CSV_SPAN_ROWS``, on forked worker processes, one per CPU of the
    affinity mask (see ``_span_pool`` for when they run in this process),
    and written in order, so the bytes do not depend on where they were
    formatted."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or times.shape != values.shape[1:]:
        raise ValueError(f"times has {times.size} entries, values has "
                         f"{values.shape[-1] if values.ndim else 0} columns")
    n_paths = values.shape[0]
    fh.write(",".join(["time", *(f"path_{i}" for i in range(n_paths))]) + "\n")
    spans = [(r0, min(r0 + _CSV_SPAN_ROWS, times.size))
             for r0 in range(0, times.size, _CSV_SPAN_ROWS)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pool = _span_pool(min(cpus, len(spans)), times, values)
    try:
        texts = (map(_rows_text, spans, itertools.repeat((times, values)))
                 if pool is None else _in_order(pool, spans, cpus + 1))
        for text in texts:
            fh.write(text)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _rows_text(span: tuple[int, int], arrays=None) -> str:
    """CSV rows span[0] .. span[1] - 1 of ``arrays`` = (times, values), or of
    a write worker's arrays.  One column at a time: the whole matrix as
    Python floats would hold about 32 bytes per value."""
    times, values = arrays or _worker_arrays
    r0, r1 = span
    return "".join(",".join(map(repr, [t, *values[:, j].tolist()])) + "\n"
                   for j, t in enumerate(times[r0:r1].tolist(), start=r0))


def _hold_arrays(parent: int, times: np.ndarray, values: np.ndarray) -> None:
    """Write-worker initializer.  Under fork the arrays are inherited, not
    pickled.  Ctrl-C is left to the parent, which cancels the write.  A
    worker idle on its task queue would outlive a parent killed by its pid,
    so on Linux it asks for SIGTERM when the parent dies."""
    global _worker_arrays
    import signal  # only workers need it, and multiprocessing has loaded it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform.startswith("linux"):
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGTERM)  # 1 = PR_SET_PDEATHSIG
        if os.getppid() != parent:  # it died before the prctl
            os._exit(1)
    _worker_arrays = times, values


def _span_pool(workers: int, times: np.ndarray, values: np.ndarray):
    """A pool of ``workers`` forked processes that hold (times, values), or
    None where the spans are formatted in this process instead: fewer than
    two workers, fewer than ``_CSV_POOL_MIN_VALUES`` values, another live
    thread (fork is unsafe then), no fork start method, or a daemonic
    process (it may not have children)."""
    if workers < 2 or values.size < _CSV_POOL_MIN_VALUES or threading.active_count() > 1:
        return None
    # imported here: about 25 ms, which a small write does not pay
    import multiprocessing as mp
    if "fork" not in mp.get_all_start_methods() or mp.current_process().daemon:
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers, mp.get_context("fork"), _hold_arrays,
                               (os.getpid(), times, values))


def _in_order(pool, spans, depth: int):
    """The texts of ``spans`` from the pool, in order, with at most
    ``depth`` spans in flight."""
    futures = (pool.submit(_rows_text, span) for span in spans)
    pending = list(itertools.islice(futures, depth))
    while pending:
        yield pending.pop(0).result()
        pending.extend(itertools.islice(futures, 1))


class _RowError(ValueError):
    """A data line whose field count differs from the header's."""


def _data_lines(fh: IO[str], n_cols: int, last: list[int]):
    """The stripped nonblank lines of fh, each checked to have n_cols fields;
    last[0] is the line number of the latest one yielded."""
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        n_fields = line.count(",") + 1
        if n_fields != n_cols:
            raise _RowError(f"line {lineno}: {n_fields} fields, the header has {n_cols}")
        last[0] = lineno
        yield line


def read_ensemble_csv(fh: IO[str]) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of an ensemble CSV; a row whose field count differs
    from the header's, or with a non-numeric field, raises ValueError naming
    its line."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "time":
        raise ValueError("not an ensemble CSV (missing 'time' header)")
    n_cols = len(header)
    # numpy's C parser reads blocks of at most _CSV_BLOCK_ROWS lines, pulled
    # one at a time from the generator (it does not read past a bad line), so
    # what the reader holds is the output plus the blocks, whatever the
    # lengths of the lines
    last = [1]
    lines = _data_lines(fh, n_cols, last)
    blocks: list[np.ndarray] = []
    for first in lines:  # a block is parsed only when it has a first line
        rows = itertools.chain((first,), itertools.islice(lines, _CSV_BLOCK_ROWS - 1))
        try:
            blocks.append(np.loadtxt(rows, delimiter=",", ndmin=2, comments=None))
        except _RowError:
            raise
        except ValueError as exc:
            # loadtxt's own row number counts from the start of the block
            reason = str(exc).split(" at row ")[0]
            raise ValueError(f"line {last[0]}: non-numeric field ({reason})") from None
    n_rows = sum(map(len, blocks))
    times = np.empty(n_rows)
    values = np.empty((n_cols - 1, n_rows))
    for r0 in range(0, n_rows, _CSV_BLOCK_ROWS):
        block = blocks.pop(0)
        times[r0:r0 + len(block)] = block[:, 0]
        values[:, r0:r0 + len(block)] = block[:, 1:].T
    return times, values


def ensemble_metadata(ensemble, spec_doc: dict, grid: dict, extra: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": int(ensemble.seed),
        "n_paths": int(ensemble.values.shape[0]),
        "digest": ensemble.spec_digest,
        "grid": grid,
        "spec": spec_doc,
        **extra,
    }
