"""JSON family-spec documents, ensemble CSV files and report serialization."""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import IO

import numpy as np

from . import kernels as K

SCHEMA_VERSION = 1
_CSV_BLOCK_ROWS = 64  # rows per parse block of read_ensemble_csv


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
    ValueError before anything is written."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or times.shape != values.shape[1:]:
        raise ValueError(f"times has {times.size} entries, values has "
                         f"{values.shape[-1] if values.ndim else 0} columns")
    n_paths = values.shape[0]
    fh.write(",".join(["time", *(f"path_{i}" for i in range(n_paths))]) + "\n")
    # one column at a time: the whole matrix as Python floats would hold
    # about 32 bytes per value
    for j, t in enumerate(times.tolist()):
        fh.write(",".join(map(repr, [t, *values[:, j].tolist()])) + "\n")


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
