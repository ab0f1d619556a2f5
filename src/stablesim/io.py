"""JSON family-spec documents, ensemble CSV files and report serialization,
and the forked span workers (``_span_results``) that the CSV writer and
reader and the quadrature oracle (``core.cf_exponents``) share.

The CSV writer prints each value as ``repr`` does, byte for byte, but a
span of values at a time: a shortest-digit search in numpy integer
arithmetic (Schubfach: R. Giulietti, *The Schubfach way to render doubles*,
2020; the digits of Ryu, U. Adams, PLDI 2018, and of ``repr``) and a
gather of each field's characters through a table of ``repr``'s layouts."""

from __future__ import annotations

import codecs
import contextlib
import functools
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
# values per span of write_ensemble_csv, the unit it formats and hands to a
# worker process: a span's temporaries peak near 400 bytes per value, each
# span costs about 0.4 ms more, and 2^13 to 2^15 values format equally fast
_CSV_SPAN_VALUES = 1 << 14
_CSV_SPAN_BYTES = 1 << 20  # bytes, cut at a line end, per task of read_ensemble_csv
# values below which write_ensemble_csv formats in-process: on 2 CPUs, one
# write per fresh interpreter, the pool won 1/10 alternating pairs at 131k
# values, 4/10 at 262k and 8/10 at 524k
_CSV_POOL_MIN_VALUES = 1 << 19
# the same for read_ensemble_csv: the pool won 2/10 runs at 262k values, 7/10
# at 524k
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
    """CSV with header time,path_0,... and each value as its ``repr``.
    ``values`` is (paths, times); a ``times`` of another length raises
    ValueError before anything is written.  The rows are formatted in spans
    of about ``_CSV_SPAN_VALUES`` values (whole rows, or pieces of one row
    that is longer), on the workers of ``_span_results`` where there are
    enough values, and written in order, so the bytes do not depend on
    where they were formatted."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or times.shape != values.shape[1:]:
        raise ValueError(f"times has {times.size} entries, values has "
                         f"{values.shape[-1] if values.ndim else 0} columns")
    n_paths = values.shape[0]
    fh.write(",".join(["time", *(f"path_{i}" for i in range(n_paths))]) + "\n")
    n_cols = n_paths + 1
    n_rows, width = max(1, _CSV_SPAN_VALUES // n_cols), min(n_cols, _CSV_SPAN_VALUES)
    spans = [(r0, min(r0 + n_rows, times.size), c0, min(c0 + width, n_cols))
             for r0 in range(0, times.size, n_rows) for c0 in range(0, n_cols, width)]
    big = values.size >= _CSV_POOL_MIN_VALUES
    with _span_results(_rows_text, spans, (times, values), big) as texts:
        for text in texts:
            fh.write(text)


def _rows_text(span: tuple[int, int, int, int], arrays) -> str:
    """The CSV text of rows span[0] .. span[1] - 1 and columns span[2] ..
    span[3] - 1 (column 0 is the time) of ``arrays`` = (times, values)."""
    times, values = arrays
    r0, r1, c0, c1 = span
    block = np.empty((r1 - r0, c1 - c0))
    if c0 == 0:
        block[:, 0] = times[r0:r1]
    block[:, int(c0 == 0):] = values[max(c0 - 1, 0):c1 - 1, r0:r1].T
    return _fields_text(block, c1 == values.shape[0] + 1)


# The shortest-digit search.  g(e) = ceil(10^e 2^-r), with 2^127 <= g < 2^128,
# in uint64 halves; products are taken in 32-bit halves.  All of it stays in
# uint64, which numpy would promote to float64 beside an int64 array
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW10_MIN = -292  # g(e) for e in [-292, 324], the range of -k below


@functools.cache
def _pow10_table() -> np.ndarray:
    """The (high, low) 64-bit halves of g(e), as two rows, built from exact
    integers on first use."""
    g = []
    for e in range(_POW10_MIN, 325):
        r = ((e * 1741647) >> 19) - 127  # floor(log2 10^e) - 127
        num, den = (10 ** max(e, 0), 10 ** max(-e, 0))
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g.append(-(-num // den))
    return np.array([[v >> 64 for v in g], [v & (1 << 64) - 1 for v in g]], _U64)


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of the products a * b."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U64(32), b & _LOW32, b >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return (a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32)),
            (mid << _U64(32)) | (p00 & _LOW32))


def _shifted(g_hi: np.ndarray, g_lo: np.ndarray, n: np.ndarray) -> tuple:
    """(high, middle, low) 64-bit parts of g * 2^n, for n in [1, 5]."""
    m = _U64(64) - n
    return g_hi >> m, (g_hi << n) | (g_lo >> m), g_lo << n


def _to_odd(top: np.ndarray, middle: np.ndarray) -> np.ndarray:
    """A product's top 64 bits, made odd where the middle ones hold more
    than 2^-64: the Schubfach rounding to odd, which has room for g's."""
    return top | (middle > _U64(1))


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) with d * 10^k the shortest decimal that reads back as each
    finite nonzero x, the nearest to x of those, ties to even d."""
    bits = np.abs(x).view(_U64)
    biased = bits >> _U64(52)
    frac = bits & _U64((1 << 52) - 1)
    c = np.where(biased != 0, frac | _U64(1 << 52), frac)  # x = c 2^q
    q = np.maximum(biased.astype(np.int64), 1) - 1075
    closer = (frac == 0) & (biased > 1)  # the gap below x is half the gap above
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 1741647) >> 19) + 1).astype(_U64)
    g_hi, g_lo = np.take(_pow10_table(), -k - _POW10_MIN, axis=1)
    # p = g * 4c 2^h and the interval's ends p -+ g * (2 or 1) 2^h, in 192 bits
    cp = c << (h + _U64(2))
    x1, p0 = _mul128(g_lo, cp)
    p2, p1 = _mul128(g_hi, cp)
    p1 = p1 + x1
    p2 = p2 + (p1 < x1)
    d2, d1, d0 = _shifted(g_hi, g_lo, h + _U64(1))
    t = p1 + d1
    r1 = t + (p0 + d0 < d0)
    upper = _to_odd(p2 + d2 + (t < d1) + (r1 < t), r1)
    d2, d1, d0 = _shifted(g_hi, g_lo, h + _U64(1) - closer)
    t = p1 - d1
    r1 = t - (p0 < d0)
    lower = _to_odd(p2 - d2 - (p1 < d1) - (r1 > t), r1)
    vb = _to_odd(p2, p1)
    odd = c & _U64(1)  # the interval's ends read back as x when c is even
    lower, upper = lower + odd, upper - odd
    s = vb >> _U64(2)
    sp = s // _U64(10)  # one digit fewer: sp or sp + 1, if just one is inside
    up_in, wp_in = lower <= _U64(40) * sp, _U64(40) * sp + _U64(40) <= upper
    short = (up_in != wp_in) & (s >= _U64(10))
    u_in, w_in = lower <= s << _U64(2), (s << _U64(2)) + _U64(4) <= upper
    mid = (s << _U64(2)) + _U64(2)
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & _U64(1) == 1)))
    return np.where(short, sp + wp_in, s + up), k + short


# The layouts.  A field's characters are gathered from 31 source columns:
# 17 digits right-aligned (0-16), 3 exponent digits (17-19), the separator
# (20), then the characters of _CHARS (21-30), whose NUL pads each field to
# _WIDTH and is then dropped
_CHARS = b".-+e0infa\0"
_DOT, _MINUS, _PLUS, _E, _ZERO, _I, _N, _F, _A, _NUL = range(21, 31)
_WIDTH = 25  # "-1.2345678901234567e-308" and its separator
_SPECIALS = 2 * 17 * 24  # the layout row of 0.0
_TENS = np.array([10 ** i for i in range(1, 18)], _U64)
# the layout form of each decimal exponent e10 in [-330, 330), at e10 + 330:
# repr's fixed form for -4 <= e10 < 16, else its exponent form
_FORMS = np.array([e + 4 if -4 <= e < 16 else 20 + 2 * (e > 0) + (abs(e) >= 100)
                   for e in range(-330, 330)])


def _layout(neg: int, n_digits: int, form: int) -> list[int]:
    """The source columns of one field, without its separator: for form <
    20 the decimal point after digit form - 3 (e10 = form - 4), else the
    exponent form with a negative (20, 21) or positive (22, 23) exponent of
    two (20, 22) or three digits."""
    digits = list(range(17 - n_digits, 17))
    out = [_MINUS] * neg
    point = form - 3
    if form >= 20:
        out += digits[:1] + [_DOT] * (n_digits > 1) + digits[1:]
        out += [_E, _PLUS if form >= 22 else _MINUS] + [17, 18, 19][1 - form % 2:]
    elif point <= 0:
        out += [_ZERO, _DOT] + [_ZERO] * -point + digits
    elif point < n_digits:
        out += digits[:point] + [_DOT] + digits[point:]
    else:
        out += digits + [_ZERO] * (point - n_digits) + [_DOT, _ZERO]
    return out


@functools.cache
def _layout_table() -> np.ndarray:
    """The source columns of each field, row (neg * 17 + digits - 1) * 24 +
    form, then from row _SPECIALS 0.0, -0.0, inf, -inf and nan."""
    fields = [_layout(neg, n, form) for neg in (0, 1) for n in range(1, 18) for form in range(24)]
    fields += [[_ZERO, _DOT, _ZERO], [_MINUS, _ZERO, _DOT, _ZERO], [_I, _N, _F],
               [_MINUS, _I, _N, _F], [_N, _A, _N]]
    return np.array([f + [20] + [_NUL] * (_WIDTH - 1 - len(f)) for f in fields], np.uint8)


def _fields_text(block: np.ndarray, ends_rows: bool) -> str:
    """The ``repr`` of each value of ``block``, row by row, each followed by
    a comma, or a line end after a row's last where ``ends_rows``."""
    x = block.ravel()
    neg = np.signbit(x)
    finite = np.isfinite(x) & (x != 0)
    d, e = _shortest(np.where(finite, x, 1.0))
    for p in (16, 8, 4, 2, 1):  # strip trailing zeros, at most 16
        t = d // _U64(10 ** p)
        zeros = t * _U64(10 ** p) == d
        d, e = np.where(zeros, t, d), e + zeros * p
    more = np.searchsorted(_TENS, d, side="right")  # digits after the first
    e10 = e + more  # x = d.ddd * 10^e10
    key = np.where(finite, (neg * 17 + more) * 24 + _FORMS[e10 + 330],
                   _SPECIALS + np.where(x == 0, neg, np.where(np.isnan(x), 4, 2 + neg)))
    digits = np.empty((20, x.size), np.uint8)  # rows fill about twice as fast as columns
    high = d // _U64(10 ** 8)
    top = high // _U64(10 ** 8)
    digits[0] = top
    for part, row in (((d - high * _U64(10 ** 8)).astype(np.uint32), 16),
                      ((high - top * _U64(10 ** 8)).astype(np.uint32), 8)):
        for j in range(8):  # on uint32 about 4x faster than on 64 bits
            q = part // np.uint32(10)
            digits[row - j] = part - q * np.uint32(10)
            part = q
    mag = np.abs(e10)
    digits[17], digits[18], digits[19] = mag // 100, mag // 10 % 10, mag % 10
    src = np.empty((x.size, 31), np.uint8)
    src[:, :20] = digits.T + ord("0")
    src[:, 20] = ord(",")
    if ends_rows:
        src[block.shape[1] - 1::block.shape[1], 20] = ord("\n")
    src[:, 21:] = np.frombuffer(_CHARS, np.uint8)
    index = np.add(_layout_table()[key], np.arange(0, src.size, 31)[:, None], dtype=np.intp)
    chars = np.take(src, index)
    return chars[chars != 0].tobytes().decode("ascii")


@contextlib.contextmanager
def _span_results(fn, spans: list, held: tuple, big: bool):
    """An iterator of ``fn(span, held)`` over ``spans``, in order.  Where the
    work is ``big`` they run on forked worker processes, one per CPU of the
    affinity mask and at most one per span, which inherit ``held`` and keep
    at most CPUs + 1 spans in flight; else, or as ``_span_pool`` says, in
    this process.  On leaving the block, no more spans are started, those
    in flight are finished and the workers joined."""
    cpus = _cpus()
    pool = _span_pool(min(cpus, len(spans)) if big else 0, held)
    try:
        yield (map(fn, spans, itertools.repeat(held)) if pool is None
               else _in_order(pool, fn, spans, cpus + 1))
    finally:
        if pool is not None:
            # not cancel_futures=True: the pool can then lose a span whose
            # pickling failed, and wait for it forever
            pool.shutdown()


def _cpus() -> int:
    """The CPUs of this process's affinity mask (1 where it has none)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
