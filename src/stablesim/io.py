"""JSON family-spec documents, ensemble CSV files and report serialization."""

from __future__ import annotations

import hashlib
import json
from typing import IO

import numpy as np

from . import kernels as K

SCHEMA_VERSION = 1
_CSV_BLOCK_ROWS = 256  # rows per parse block of read_ensemble_csv


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
    """CSV with header time,path_0,... and round-trip decimal formatting."""
    n_paths = values.shape[0]
    fh.write(",".join(["time", *(f"path_{i}" for i in range(n_paths))]) + "\n")
    for j, t in enumerate(times):
        row = [repr(float(t))] + [repr(float(values[i, j])) for i in range(n_paths)]
        fh.write(",".join(row) + "\n")


def read_ensemble_csv(fh: IO[str]) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of an ensemble CSV; a row whose field count differs
    from the header's, or with a non-numeric field, raises ValueError naming
    its line."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "time":
        raise ValueError("not an ensemble CSV (missing 'time' header)")
    n_cols = len(header)
    # rows are parsed straight into blocks of one fixed shape, never kept as
    # one array per row, so what the reader holds does not depend on the
    # lengths of the lines
    blocks: list[np.ndarray] = []
    n_rows = 0
    for lineno, line in enumerate(fh, start=2):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != n_cols:
            raise ValueError(f"line {lineno}: {len(parts)} fields, the header has {n_cols}")
        if n_rows % _CSV_BLOCK_ROWS == 0:
            blocks.append(np.empty((_CSV_BLOCK_ROWS, n_cols)))
        try:
            blocks[-1][n_rows % _CSV_BLOCK_ROWS] = np.fromiter(map(float, parts), dtype=float,
                                                               count=n_cols)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field ({exc})") from None
        n_rows += 1
    times = np.empty(n_rows)
    values = np.empty((n_cols - 1, n_rows))
    for r0 in range(0, n_rows, _CSV_BLOCK_ROWS):
        block = blocks.pop(0)[:n_rows - r0]
        times[r0:r0 + len(block)] = block[:, 0]
        values[:, r0:r0 + len(block)] = block[:, 1:].T
    return times, values


def ensemble_metadata(ensemble, spec_doc: dict | None, grid: dict, extra: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(ensemble.seed),
        "n_paths": int(ensemble.values.shape[0]),
        "digest": ensemble.spec_digest,
        "grid": grid,
    }
    if spec_doc is not None:
        doc["spec"] = spec_doc
    if extra:
        doc.update(extra)
    return doc
