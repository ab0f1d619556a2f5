"""JSON family-spec documents, ensemble CSV files and report serialization."""

from __future__ import annotations

import hashlib
import json
from typing import IO

import numpy as np

from . import kernels as K

SCHEMA_VERSION = 1


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
    # each row is kept as one float array, never as Python floats, so the
    # reader holds at most two copies of the table
    rows = []
    for lineno, line in enumerate(fh, start=2):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != len(header):
            raise ValueError(f"line {lineno}: {len(parts)} fields, the header has {len(header)}")
        try:
            rows.append(np.fromiter(map(float, parts), dtype=float, count=len(parts)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field ({exc})") from None
    table = np.array(rows).reshape(len(rows), len(header))
    del rows
    return table[:, 0].copy(), np.ascontiguousarray(table[:, 1:].T)


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
