"""Path-level transforms between stationary-increment, stationary and
self-similar processes, plus increment-kernel extraction.

The forward map subtracts an exponentially weighted history average,
Y_t = X_t - integral_{-inf}^t e^{-(t-s)} X_s ds, inverted by
X_t = Y_t - Y_0 + integral_0^t Y_u du.  The self-similar correspondence is
Y(u) = e^{-Hu} X(e^u) with inverse X(t) = t^H Y(log t), exact on geometric
time grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _grid
from .kernels import Kernel


@dataclass(frozen=True)
class PathFunction:
    """Sampled path(s): values has shape (n_times,) or (n_paths, n_times)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _grid(self.times, 2)
        if np.asarray(self.values).shape[-1] != t.size:
            raise ValueError("values last axis must match times")


def from_ensemble(ensemble) -> PathFunction:
    return PathFunction(np.asarray(ensemble.times, float), np.asarray(ensemble.values, float))


def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    seg = 0.5 * np.diff(times) * (values[..., 1:] + values[..., :-1])
    out = np.zeros_like(values)
    out[..., 1:] = np.cumsum(seg, axis=-1)
    return out


def _cum_left_riemann(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    seg = np.diff(times) * values[..., :-1]
    out = np.zeros_like(values)
    out[..., 1:] = np.cumsum(seg, axis=-1)
    return out


def masani_forward(path: PathFunction, history: float = 20.0) -> tuple[PathFunction, float]:
    """Stationary transform of a stationary-increment path.

    Requires a finite history >= 0 and samples back to -history; the
    neglected tail is bounded by exp(-history) * max|X|, which is returned
    alongside the transform.  The exponential-window integral is evaluated by
    the trapezoid rule.
    """
    if not (math.isfinite(history) and history >= 0.0):
        raise ValueError(f"history must be a finite number >= 0, got {history}")
    t = np.asarray(path.times, float)
    x = np.asarray(path.values, float)
    if t[0] > -history + 1e-9:
        raise ValueError(f"insufficient history: need samples from -{history} "
                         f"or earlier, grid starts at {t[0]}")
    if t[-1] < 0.0:
        raise ValueError("grid must reach t = 0")
    # I(t) = e^-t * cumtrapz(e^s X_s); magnitudes stay within double range for
    # windows of a few tens of time units
    weighted = np.exp(t) * x
    window = np.exp(-t) * _cumtrapz(t, weighted)
    y = x - window
    keep = t >= -1e-12
    bound = float(np.exp(-history) * np.max(np.abs(x)))
    return PathFunction(t[keep], y[..., keep]), bound


def masani_inverse(path: PathFunction) -> PathFunction:
    """Inverse transform: X_t = Y_t - Y_0 + integral_0^t Y_u du, X_0 = 0.

    The integral is a left-tag Riemann sum.  A trapezoid rule here would
    telescope against the forward window quadrature and push the round trip
    to second order; left tags keep the documented first-order round-trip
    behavior on rough sample paths.
    """
    t = np.asarray(path.times, float)
    if abs(t[0]) > 1e-9:
        raise ValueError(f"stationary input must start at t = 0, got {t[0]}")
    y = np.asarray(path.values, float)
    x = y - y[..., :1] + _cum_left_riemann(t, y)
    return PathFunction(t, x)


def _geometric_ratio(times: np.ndarray) -> float:
    if np.any(times <= 0):
        raise ValueError("geometric grid must be strictly positive")
    ratios = times[1:] / times[:-1]
    r = float(ratios[0])
    if np.max(np.abs(ratios - r)) > 1e-9 * r:
        raise ValueError("grid is not geometric (no interpolation is performed)")
    return r


def _check_hurst(hurst: float) -> None:
    if not math.isfinite(hurst):
        raise ValueError(f"hurst must be a finite number, got {hurst}")


def lamperti_to_stationary(path: PathFunction, hurst: float) -> PathFunction:
    """Y(u) = e^{-H u} X(e^u) on the log grid of a geometric time grid."""
    _check_hurst(hurst)
    t = np.asarray(path.times, float)
    _geometric_ratio(t)
    u = np.log(t)
    y = t ** (-hurst) * np.asarray(path.values, float)
    return PathFunction(u, y)


def lamperti_from_stationary(path: PathFunction, hurst: float) -> PathFunction:
    """X(t) = t^H Y(log t) on the exponential of a uniform grid."""
    _check_hurst(hurst)
    u = np.asarray(path.times, float)
    du = np.diff(u)
    if np.max(np.abs(du - du[0])) > 1e-9 * abs(du[0]):
        raise ValueError("stationary input must live on a uniform grid")
    t = np.exp(u)
    x = t ** hurst * np.asarray(path.values, float)
    return PathFunction(t, x)


@dataclass(frozen=True)
class IncrementProcess(Kernel):
    """Increment-process kernel K(t + lag, u) - K(t, u) on the source's grids."""

    source: Kernel
    lag: float

    @property
    def label(self) -> str:
        return f"increment[{self.source.label}]"

    @property
    def alpha(self) -> float:
        return self.source.alpha

    def field(self, t, pts):
        # the increment process is stationary: its kernel is its own field
        # F_T(t, .) = K(t + lag, .) - K(t, .), with no F_T(0, .) term
        return self.source.eval(t + self.lag, pts) - self.source.eval(t, pts)

    def flow(self, t, pts):
        return self.source.flow(t, pts)

    def evals(self, times, pts):
        # the source's K at t + lag and t for every t, from one source F(0, .)
        pairs = self.source.evals((u for t in times for u in (t + self.lag, t)), pts)
        for upper, lower in zip(pairs, pairs):
            upper -= lower
            yield upper

    def combination(self, terms, points, out):
        # the source's own combination of K(t + lag, .) - K(t, .) per term, on
        # the source's grid: a source may integrate a coordinate in closed form
        self.source.combination([u for theta, t in terms
                                 for u in ((theta, t + self.lag), (-theta, t))], points, out)

    def _widened(self, times):
        return tuple(sorted(set(times) | {t + self.lag for t in times}))

    def cf_cells(self, times, level):
        return self.source.cf_cells(self._widened(times), level)

    def cf_grid_key(self, times):
        return self.source.cf_grid_key(self._widened(times))

    def sim_cells(self, t_lo, t_hi, level):
        return self.source.sim_cells(t_lo, t_hi + self.lag, level)

    def _sim_pairs(self):
        # the source's cells, so the source's draws: a pair of its cells
        # stays one pair of the increments
        return self.source._sim_pairs()

    def to_doc(self):
        return {"derived": "increment_process", "lag": self.lag, "source": self.source.to_doc()}


def increment_process(kernel: Kernel, lag: float) -> Kernel:
    """Stationary increment-process kernel K_T(t, u) = K(t + T, u) - K(t, u)."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    return IncrementProcess(kernel, lag)
