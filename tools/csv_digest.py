"""Print digests of ensemble CSV text, to show that a change kept the bytes
that ``write_ensemble_csv`` writes.

For every ``catalog_specs()`` entry it simulates 37 paths at seed 0 on the
sorted times of the default probes and writes them with
``write_ensemble_csv``.  One line per spec gives the first 16 hex digits of
the SHA-256 of that text.  The line before the last does the same for a
small matrix of special values (-0.0, +-inf, nan, the smallest subnormal,
1e308, 0.1).  Each of those texts is a single span of rows.  The spans line, 1024
standard normal paths from ``default_rng(0)`` on 200 times, spans many;
it is formatted in-process unless the writer's pool gate is at most its
204,800 values (it was 131,072 before the gate rose to 524,288).  The last
line holds enough values for the pool, so on more than one CPU the writer
formats its spans on worker processes.  Under ``taskset -c 0`` it formats
them in-process, and neither line may change.  (The simulated lines may:
with one CPU OpenBLAS runs one thread, and simulate's matrix products then
round differently.)
The read-back line writes 1024 standard normal paths on 600 times (enough
values for the reader's worker processes on more than one CPU) to a
temporary regular file, reads it back with ``read_ensemble_csv`` and
digests ``times.tobytes() + values.tobytes()``; it too must not change
under ``taskset -c 0``, where the file is parsed in-process.
The last line digests 512 paths on 1024 times of random 64-bit patterns
from ``default_rng(0)`` (some of them nan), with the special values above
among the times: every value must print as its ``repr``.
Only public calls are used, so the script runs on older trees too.

usage: python tools/csv_digest.py   (imports the package from src/ next to tools/)
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

_SPECIAL = (-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.1)


def digest(times, values) -> str:
    from stablesim.io import write_ensemble_csv

    buf = io.StringIO()
    write_ensemble_csv(buf, times, values)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def read_back_digest(values) -> str:
    from stablesim.io import read_ensemble_csv, write_ensemble_csv

    times = np.linspace(0.0, 1.0, values.shape[1] + 1)[1:]
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "w") as fh:
            write_ensemble_csv(fh, times, values)
        with open(path) as fh:
            t_back, v_back = read_ensemble_csv(fh)
    finally:
        os.remove(path)
    return hashlib.sha256(t_back.tobytes() + v_back.tobytes()).hexdigest()[:16]


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import stablesim as ss
    from stablesim.verify import default_probes

    probe_times = sorted({t for c in default_probes() for t in c.times})
    for spec in ss.catalog_specs():
        ens = ss.simulate(ss.build(spec), probe_times, 37, seed=0)
        print(f"{digest(ens.times, ens.values)}  37 x {len(probe_times)}  {spec!r}")
    normal = np.random.default_rng(0).standard_normal((1024, 200))
    print(f"{digest(np.linspace(0.0, 1.0, 201)[1:], normal)}  1024 x 200  "
          "standard normal, several spans of rows")
    print(f"{read_back_digest(np.random.default_rng(0).standard_normal((1024, 600)))}  "
          "1024 x 600  standard normal, written to a file and read back")
    special = np.array([_SPECIAL, _SPECIAL[::-1]])
    print(f"{digest(np.arange(len(_SPECIAL), dtype=float), special)}  "
          f"2 x {len(_SPECIAL)}  special values {_SPECIAL!r}")
    bits = np.frombuffer(np.random.default_rng(0).bytes(8 * 513 * 1024), np.uint64)
    patterns = bits.view(np.float64).reshape(513, 1024).copy()
    patterns[0, :len(_SPECIAL)] = _SPECIAL
    print(f"{digest(patterns[0], patterns[1:])}  512 x 1024  random 64-bit patterns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
