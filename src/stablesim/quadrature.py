"""Partition builders and the truncation/refinement schedule shared by all kernels.

Improper integrals are evaluated over nested truncated domains with graded
partitions; convergence is certified by comparing successive refinement
levels, divergence by sustained growth of the truncated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_TINY = 1e-300


class DivergenceError(ArithmeticError):
    """Raised when a quantity that must be finite fails its convergence schedule."""


# Refinement schedule of improper-integral evaluation.  Each level doubles
# the node budget and enlarges the truncated domain geometrically.  A relative
# change below RTOL between successive levels counts as converged; divergence
# is declared after _DIVERGENCE_RUNS consecutive enlargements that each grow
# the value, with cumulative growth above _DIVERGENCE_FACTOR.
_LEVELS = range(1, 6)
RTOL = 1e-3
_DIVERGENCE_FACTOR = 1.5
_DIVERGENCE_RUNS = 3


@dataclass(frozen=True)
class Certificate:
    levels: tuple[int, ...]
    values: tuple[float, ...]
    status: str  # "converged" | "diverged" | "exhausted" | "single_level" (one level, unchecked)
    rtol: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def run_levels(eval_level: Callable[[int], float]) -> tuple[float | None, Certificate]:
    """Evaluate ``eval_level`` over the schedule until converged or diverged."""
    levels: list[int] = []
    values: list[float] = []
    for level in _LEVELS:
        v = float(eval_level(level))
        levels.append(level)
        values.append(v)
        if len(values) >= 2:
            prev = values[-2]
            if abs(v - prev) <= RTOL * max(abs(v), _TINY):
                return v, Certificate(tuple(levels), tuple(values), "converged", RTOL)
        k = _DIVERGENCE_RUNS
        if len(values) > k:
            tail = values[-(k + 1):]
            growing = all(tail[i + 1] > tail[i] for i in range(k))
            if growing and tail[0] > 0 and tail[-1] / tail[0] > _DIVERGENCE_FACTOR:
                return None, Certificate(tuple(levels), tuple(values), "diverged", RTOL)
    return values[-1], Certificate(tuple(levels), tuple(values), "exhausted", RTOL)


_GRADE_POWER = 3.0


def _graded_edges(lo: float, hi: float, n: int,
                  grade_lo: bool = True, grade_hi: bool = True) -> np.ndarray:
    """Cell edges on [lo, hi] clustered toward graded endpoints; at least one
    of ``grade_lo`` and ``grade_hi`` is set.

    Power grading resolves integrable endpoint singularities of the
    |kernel|^alpha integrand without evaluating at the endpoint itself.
    """
    if hi <= lo:
        raise ValueError("empty panel")
    u = np.linspace(0.0, 1.0, n + 1)
    if grade_lo and grade_hi:
        mid = 0.5 * (lo + hi)
        left = lo + (mid - lo) * u ** _GRADE_POWER
        right = hi - (hi - mid) * u[::-1] ** _GRADE_POWER
        return np.concatenate([left, right[1:]])
    if grade_lo:
        return lo + (hi - lo) * u ** _GRADE_POWER
    return hi - (hi - lo) * u[::-1] ** _GRADE_POWER


def cells_from_edges(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and Lebesgue widths of the partition given by ``edges``."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    return mids, np.diff(edges)


def power_law_cells(lo: float, hi: float, n_per_decade: int, exponent: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log partition of [lo, hi] with exact masses of the density x**exponent.

    Returns (nodes, masses, edges); nodes are geometric cell midpoints.
    """
    n = max(2, int(np.ceil(np.log10(hi / lo) * n_per_decade)))
    edges = np.geomspace(lo, hi, n + 1)
    nodes = np.sqrt(edges[1:] * edges[:-1])
    c = exponent + 1.0
    if abs(c) > 1e-12:
        masses = (edges[1:] ** c - edges[:-1] ** c) / c
    else:
        masses = np.log(edges[1:] / edges[:-1])
    return nodes, masses, edges


def subdivided_power_cells(lo: float, hi: float, n_per_decade: int, exponent: float,
                           subs: int) -> tuple[np.ndarray, np.ndarray]:
    """Power-law cells with ``subs`` equal-mass geometric sub-nodes per cell.

    Averaging several nodes inside each exact-mass cell suppresses aliasing
    of integrands that oscillate quickly in the radial coordinate.
    """
    _, masses, edges = power_law_cells(lo, hi, n_per_decade, exponent)
    u = (np.arange(subs) + 0.5) / subs
    log_lo = np.log(edges[:-1])
    log_w = np.log(edges[1:] / edges[:-1])
    nodes = np.exp(log_lo[:, None] + log_w[:, None] * u[None, :]).ravel()
    sub_masses = np.repeat(masses / subs, subs)
    return nodes, sub_masses


def shift_partition(breakpoints, level: int, reach: float, *, base_nodes: int = 8,
                    nodes_per_decade: int = 8) -> np.ndarray:
    """Edges of a partition of an interval of the real shift coordinate.

    Panels between consecutive breakpoints are power-graded toward both ends
    (kernels have kinks or integrable singularities exactly there); beyond the
    extreme breakpoints the grid continues on a pad panel and then a geometric
    tail out to distance ``reach`` from them.  The pad and the tail share
    their common edge, so no cell there has zero width.
    """
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    if bp.size == 0:
        raise ValueError("need at least one breakpoint")
    n = base_nodes * 2 ** level
    span = max(bp[-1] - bp[0], 1.0)
    pad = span
    ndec = max(2, int(np.ceil(np.log10(reach / pad) * (nodes_per_decade + 2 * level))))
    pieces = [bp[0] - np.geomspace(reach, pad, ndec + 1),
              _graded_edges(bp[0] - pad, bp[0], n, grade_lo=False)[1:]]
    for a, b in zip(bp[:-1], bp[1:]):
        if b - a < 1e-14 * span:
            continue
        pieces.append(_graded_edges(a, b, n)[1:])
    pieces.append(_graded_edges(bp[-1], bp[-1] + pad, n, grade_hi=False)[1:])
    pieces.append((bp[-1] + np.geomspace(pad, reach, ndec + 1))[1:])
    return np.concatenate(pieces)


_RATIO_BAND = 0.08  # per-decade shell ratios within 1 - this of 1 are not decaying


def shell_tail(masses: np.ndarray, growth: float, floor: float) -> tuple[float, str, float]:
    """Tail analysis of a nonnegative integral from the masses of geometric
    shells, ordered outward, each ``growth`` times as wide as the one before.

    Returns (ratio, verdict, remainder).  ``ratio`` is the geometric-mean
    ratio of successive shell masses over the outermost three shells.  The
    verdict reads the ratio per decade, ratio ** (1 / log10(growth)):
    "finite" below 1 - _RATIO_BAND or when the outer shell carries no more
    than ``floor``, "undecided" up to 0.999, and "divergent" above that
    (a flat ratio is a logarithmic divergence) or when the outer shell is
    infinite.  A nan shell is no evidence either way: the verdict is
    "undecided", with ratio and remainder nan.  ``remainder`` is the
    geometric extrapolation edge * ratio / (1 - ratio) of the mass beyond
    the outer shell: 0 when that shell is negligible, inf when the shells do
    not decay.
    """
    if np.isnan(masses).any():
        return math.nan, "undecided", math.nan
    m = np.maximum(masses[-4:], 1e-300)
    with np.errstate(invalid="ignore"):  # inf / inf
        r = float(np.exp(np.mean(np.log(m[1:] / m[:-1]))))
    edge = masses[-1]
    if edge <= floor and edge < math.inf:
        return r, "finite", 0.0
    per_decade = r ** (1.0 / math.log10(growth))
    if per_decade < 1.0 - _RATIO_BAND:
        verdict = "finite"
    elif per_decade < 0.999:
        verdict = "undecided"
    else:
        verdict = "divergent"
    return r, verdict, edge * r / (1.0 - r) if r < 1.0 else math.inf


def pairwise_sum(x: np.ndarray) -> float:
    # np.sum performs a pairwise tree reduction on contiguous arrays, which is
    # deterministic and does not depend on thread count.
    return float(np.sum(np.ascontiguousarray(x)))
