"""JSON family-spec documents, ensemble CSV files and report serialization."""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import itertools
import json
import mmap
import os
import stat
import sys
import threading
from typing import IO

import numpy as np

from . import kernels as K

SCHEMA_VERSION = 1
_CSV_BLOCK_ROWS = 64  # rows per parse block of read_ensemble_csv
_CSV_SPAN_ROWS = 8  # rows per task of write_ensemble_csv's worker processes
_CSV_SPAN_BYTES = 1 << 20  # bytes, cut at a line end, per task of read_ensemble_csv
# values below which write_ensemble_csv formats in-process: on 2 CPUs the
# pool's import, fork and round trips (about 30 ms) broke even near 65k values
# with the second CPU idle, and later with it busy
_CSV_POOL_MIN_VALUES = 1 << 17
# the same for read_ensemble_csv, which parses a value in about half the time
# it takes to format one: the pool won 2/10 runs at 262k values, 7/10 at 524k
_CSV_READ_POOL_MIN_VALUES = 1 << 19

# the bytes that may begin a line of whitespace: ASCII whitespace, and any
# non-ASCII byte (U+00A0, U+2028 and more are whitespace)
_BLANK_LEAD = np.array([chr(b).isspace() or b >= 128 for b in range(256)])

# a span worker's inherited arrays, set by its initializer
_worker_held: tuple | None = None


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
    of ``_CSV_SPAN_ROWS``, on the workers of ``_span_results`` where there
    are enough values, and written in order, so the bytes do not depend on
    where they were formatted."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or times.shape != values.shape[1:]:
        raise ValueError(f"times has {times.size} entries, values has "
                         f"{values.shape[-1] if values.ndim else 0} columns")
    n_paths = values.shape[0]
    fh.write(",".join(["time", *(f"path_{i}" for i in range(n_paths))]) + "\n")
    spans = [(r0, min(r0 + _CSV_SPAN_ROWS, times.size))
             for r0 in range(0, times.size, _CSV_SPAN_ROWS)]
    big = values.size >= _CSV_POOL_MIN_VALUES
    with _span_results(_rows_text, spans, (times, values), big) as texts:
        for text in texts:
            fh.write(text)


def _rows_text(span: tuple[int, int], arrays) -> str:
    """CSV rows span[0] .. span[1] - 1 of ``arrays`` = (times, values).  One
    column at a time: the whole matrix as Python floats would hold about 32
    bytes per value."""
    times, values = arrays
    r0, r1 = span
    return "".join(",".join(map(repr, [t, *values[:, j].tolist()])) + "\n"
                   for j, t in enumerate(times[r0:r1].tolist(), start=r0))


@contextlib.contextmanager
def _span_results(fn, spans: list, held: tuple, big: bool):
    """An iterator of ``fn(span, held)`` over ``spans``, in order.  Where the
    work is ``big`` they run on forked worker processes, one per CPU of the
    affinity mask and at most one per span, which inherit ``held`` and keep
    at most CPUs + 1 spans in flight; else, or as ``_span_pool`` says, in
    this process.  On leaving the block, no more spans are started, those
    in flight are finished and the workers joined."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pool = _span_pool(min(cpus, len(spans)) if big else 0, held)
    try:
        yield (map(fn, spans, itertools.repeat(held)) if pool is None
               else _in_order(pool, fn, spans, cpus + 1))
    finally:
        if pool is not None:
            # not cancel_futures=True: the pool can then lose a span whose
            # pickling failed, and wait for it forever
            pool.shutdown()


def _hold(parent: int, held: tuple) -> None:
    """Span-worker initializer.  Under fork ``held`` is inherited, not
    pickled.  Ctrl-C is left to the parent, which stops the spans.  A
    worker idle on its task queue would outlive a parent killed by its pid,
    so on Linux it asks for SIGTERM when the parent dies."""
    global _worker_held
    import signal  # only workers need it, and multiprocessing has loaded it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform.startswith("linux"):
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGTERM)  # 1 = PR_SET_PDEATHSIG
        if os.getppid() != parent:  # it died before the prctl
            os._exit(1)
    _worker_held = held


def _held_call(fn, span):
    """``fn(span, held)`` on a span worker."""
    return fn(span, _worker_held)


def _span_pool(workers: int, held: tuple):
    """A pool of ``workers`` forked processes that hold ``held``, or None
    where the spans run in this process instead: fewer than two workers,
    another live thread (fork is unsafe then), no fork start method, or a
    daemonic process (it may not have children)."""
    if workers < 2 or threading.active_count() > 1:
        return None
    # imported here: about 25 ms, which a small read or write does not pay
    import multiprocessing as mp
    if "fork" not in mp.get_all_start_methods() or mp.current_process().daemon:
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers, mp.get_context("fork"), _hold, (os.getpid(), held))


def _in_order(pool, fn, spans, depth: int):
    """The results of ``fn`` on ``spans`` from the pool, in order, with at
    most ``depth`` spans in flight."""
    futures = (pool.submit(_held_call, fn, span) for span in spans)
    pending = list(itertools.islice(futures, depth))
    while pending:
        yield pending.pop(0).result()
        pending.extend(itertools.islice(futures, 1))


class _RowError(ValueError):
    """A data line whose field count differs from the header's."""


def read_ensemble_csv(fh: IO[str]) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of an ensemble CSV; a row whose field count differs
    from the header's, or with a non-numeric field, raises ValueError naming
    its line (the first such line of the file).  A text handle at the start
    of a regular file is parsed by byte spans of whole lines, on the workers
    of ``_span_results`` where there are enough values, straight into one
    output shared with them; any other handle is parsed as a stream.  Both
    leave the handle at its end."""
    source = _file_source(fh)
    if source is not None:
        fd, codec = source
        head = _pread_lines(fd, 0)
        cut = head.find(b"\n") + 1
        header = _lines(head[:cut], *codec)
        if len(header) == 1:  # else lone CRs end lines before the first LF
            out = _read_by_spans(fd, codec, _n_cols(header[0]), cut)
            fh.seek(0, os.SEEK_END)
            return out[0], out[1:]
    n_cols = _n_cols(fh.readline())
    # the stream path holds the output beside every parsed block
    blocks = list(_blocks(fh, n_cols, 2))
    out = np.empty((n_cols, sum(map(len, blocks))))
    _fill(out, blocks)
    return out[0], out[1:]


def _n_cols(header: str) -> int:
    """The column count of a header line."""
    names = header.strip().split(",")
    if names[0] != "time":
        raise ValueError("not an ensemble CSV (missing 'time' header)")
    return len(names)


def _file_source(fh) -> tuple[int, tuple[str, str]] | None:
    """(file descriptor, (encoding, errors)) of a text handle at the start
    of a regular file, in an encoding whose b"\n" and b"\r" bytes are
    always those characters, or None."""
    try:
        fd = fh.fileno()
        if (not stat.S_ISREG(os.fstat(fd).st_mode) or fh.tell() != 0 or not fh.readable()
                or codecs.lookup(fh.encoding).name not in ("utf-8", "ascii")):
            return None
        return fd, (fh.encoding, fh.errors)
    except (AttributeError, OSError, TypeError, ValueError, LookupError):
        return None  # StringIO, a pipe, a binary handle


def _pread_lines(fd: int, pos: int) -> bytes:
    """The bytes of ``fd`` from ``pos`` through the last b"\n" of the next
    ``_CSV_SPAN_BYTES`` (or of the line that is longer), or to the end."""
    data = b""
    while True:
        size = max(_CSV_SPAN_BYTES, len(data))  # doubling, past a long line
        chunk = os.pread(fd, size, pos + len(data))
        data += chunk
        cut = data.rfind(b"\n") + 1
        if len(chunk) < size:
            return data
        if cut:
            return data[:cut]


def _lines(data: bytes, encoding: str, errors: str) -> list[str]:
    """The lines of ``data``, ended as a text handle ends them (by LF, CRLF
    or CR), without their ends."""
    text = data.decode(encoding, errors)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the text after the last line end
        lines.pop()
    return lines


def _read_by_spans(fd: int, codec: tuple[str, str], n_cols: int, pos: int) -> np.ndarray:
    """The (n_cols, rows) output of the data lines of ``fd`` from byte
    ``pos``.  One pass counts each span's lines and rows; then each span is
    parsed into its own columns of an anonymous shared mapping, made before
    any worker is forked, and only a row count (or the span's error) comes
    back."""
    spans = []
    lineno, r0 = 2, 0
    while data := _pread_lines(fd, pos):
        n_lines, n_rows = _line_counts(data, codec)
        spans.append((pos, len(data), lineno, r0, r0 + n_rows))
        pos, lineno, r0 = pos + len(data), lineno + n_lines, r0 + n_rows
    out = np.frombuffer(mmap.mmap(-1, max(8 * n_cols * r0, 1)), count=n_cols * r0)
    out = out.reshape(n_cols, r0)
    held, big = (fd, codec, n_cols, out), out.size >= _CSV_READ_POOL_MIN_VALUES
    with _span_results(_read_span, spans, held, big) as counts:
        if list(counts) != [hi - lo for *_, lo, hi in spans]:
            raise ValueError("the ensemble CSV changed while it was read")
    return out


def _line_counts(data: bytes, codec: tuple[str, str]) -> tuple[int, int]:
    """The numbers of lines and of nonblank lines in ``data``.  Where no
    line starts with a byte that may begin whitespace, and no CR ends one,
    every line is nonblank, and the LFs alone tell their number."""
    a = np.frombuffer(data, np.uint8)
    starts = np.flatnonzero(a[:-1] == 10) + 1  # of every line but the first
    if b"\r" not in data and not (_BLANK_LEAD[a[0]] or _BLANK_LEAD[a[starts]].any()):
        return len(starts) + 1, len(starts) + 1
    lines = _lines(data, *codec)
    return len(lines), sum(1 for line in lines if line.strip())


def _read_span(span: tuple, held: tuple) -> int:
    """Parse the rows of one span into their columns of the output; their
    count."""
    fd, codec, n_cols, out = held
    pos, size, lineno, r0, r1 = span
    lines = _lines(os.pread(fd, size, pos), *codec)
    return _fill(out[:, r0:r1], _blocks(lines, n_cols, lineno))


def _data_lines(lines, n_cols: int, last: list[int], lineno: int):
    """The stripped nonblank ``lines``, numbered from ``lineno``, each
    checked to have n_cols fields; last[0] is the line number of the latest
    one yielded."""
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        n_fields = line.count(",") + 1
        if n_fields != n_cols:
            raise _RowError(f"line {lineno}: {n_fields} fields, the header has {n_cols}")
        last[0] = lineno
        yield line


def _blocks(lines, n_cols: int, lineno: int):
    """The (rows, n_cols) parse blocks of the data ``lines``, numbered from
    ``lineno``.  numpy's C parser reads at most _CSV_BLOCK_ROWS lines at a
    time, pulled one at a time from the generator, and it does not read past
    a bad line, so the first bad line raises, named by its number."""
    last = [lineno]
    data = _data_lines(lines, n_cols, last, lineno)
    for first in data:  # a block is parsed only when it has a first line
        rows = itertools.chain((first,), itertools.islice(data, _CSV_BLOCK_ROWS - 1))
        try:
            block = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
        except _RowError:
            raise
        except ValueError as exc:
            # loadtxt's own row number counts from the start of the block
            reason = str(exc).split(" at row ")[0]
            raise ValueError(f"line {last[0]}: non-numeric field ({reason})") from None
        yield block


def _fill(out: np.ndarray, blocks) -> int:
    """Copy the (rows, n_cols) ``blocks`` into the columns of ``out`` in
    turn; the row count."""
    r = 0
    for block in blocks:
        out[:, r:r + len(block)] = block.T
        r += len(block)
    return r


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
