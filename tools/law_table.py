"""Print the exact law of each simulated lag-1 increment against the
oracle's, without Monte Carlo: the "Implied sigma^alpha" table of the
roadmap.

A simulated ensemble is a finite SaS sum over the rows of the weighted
kernel matrix kT of ``core._sim_layout`` (one row per drawn column), so its
law at the grid times is known exactly.  For the lag-1 increment
X_{t_j} - X_{t_{j-1}} it has sigma^alpha = sum_c |kT[c, j] - kT[c, j-1]|^alpha,
where a pair of rows drawn as one isotropic pair (``Kernel._sim_pairs``)
counts as the hypot of its two differences.  Every catalog family is self
similar with stationary increments, so the exact reference is
|t_j - t_{j-1}|^(alpha H) sigma^alpha(X_1), with one converged
``cf_exponent`` of X_1.  The ratio of the two is 1 where the simulated law
is right.

For every ``catalog_specs()`` entry, on the 1024 points j / 1024 of (0, 1]
(the shift families: lfsm, linear_motion, log_fractional, mixed_lfsm) and
on ``linspace(0.05, 3, 60)`` (every family), one line gives the grid, the
number of columns (rows of kT), the first 12 hex digits of the SHA-256 of
kT's bytes, the min and max ratio over the positions j = 1 .. n - 1, the
position whose ratio is farthest from 1, with that ratio, and the
reference sigma^alpha(X_1).  Two trees whose simulations agree print the
same digests; their ratios then differ only where their oracles do.  The
layout is read through the private ``core._sim_layout``, at ``simulate``'s
default level 1, so the script follows the tree it runs on.

usage: python tools/law_table.py   (imports the package from src/ next to tools/)
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

_FINE = np.arange(1, 1025) / 1024.0     # 1024 points of (0, 1]
_COARSE = np.linspace(0.05, 3.0, 60)
_SHIFT_LABELS = {"lfsm", "linear_motion", "log_fractional", "mixed_lfsm"}


def lag1_ratios(kernel, times: np.ndarray, x1: float) -> tuple[np.ndarray, np.ndarray]:
    """(kT of the layout, implied over exact sigma^alpha of every lag-1
    increment of a simulation of ``kernel`` on ``times``)."""
    from stablesim.core import _sim_layout

    kT = _sim_layout(kernel, times, 1).kT
    diff = np.abs(np.diff(kT, axis=1))
    if kernel._sim_pairs():
        diff = np.hypot(diff[0::2], diff[1::2])
    implied = np.sum(diff ** kernel.alpha, axis=0)
    exact = np.diff(times) ** (kernel.alpha * kernel.hurst_exponent()) * x1
    return kT, implied / exact


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import stablesim as ss

    for spec in ss.catalog_specs():
        kernel = ss.build(spec)
        x1 = ss.cf_exponent(kernel, ss.combo((1.0, 1.0))).expect()
        grids = [("1024 of (0, 1]", _FINE)] if spec.label in _SHIFT_LABELS else []
        for name, times in [*grids, ("linspace(0.05, 3, 60)", _COARSE)]:
            kT, ratio = lag1_ratios(kernel, times, x1)
            worst = int(np.argmax(np.abs(ratio - 1.0)))
            print(f"{spec.label:<20} {name:<22} {kT.shape[0]:>5} columns "
                  f"{hashlib.sha256(kT.tobytes()).hexdigest()[:12]}  "
                  f"ratio min {ratio.min():.4f} max {ratio.max():.4f}  "
                  f"worst j = {worst + 1} ({ratio[worst]:.4f})  sigma^alpha(X_1) {x1:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
