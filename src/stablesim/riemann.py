"""Riemann integration of curves with values in a complete F-normed space,
with left-continuous step multipliers, the integral-swap identity, and the
semivariation criterion for integrability."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _grid, philox


@dataclass(frozen=True)
class ValueSpace:
    """Abstract value space: arrays under +/scalar*, compared by an F-norm."""

    label: str
    norm: Callable[[np.ndarray], float]


def scalar_space() -> ValueSpace:
    return ValueSpace("scalar", lambda y: float(np.max(np.abs(np.atleast_1d(y)))))


def ensemble_space() -> ValueSpace:
    """F-norm E min(|Y|, 1) averaged over paths; metrizes convergence in probability."""
    return ValueSpace("ensemble", lambda y: float(np.mean(np.minimum(np.abs(y), 1.0))))


@dataclass(frozen=True)
class Curve:
    """Map t -> E; ``fn`` is vectorized, returning shape (n_t, *value_shape)."""

    fn: Callable[[np.ndarray], np.ndarray]
    space: ValueSpace

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(ts, dtype=float))


def scalar_curve(f: Callable[[np.ndarray], np.ndarray]) -> Curve:
    return Curve(lambda ts: np.asarray(f(ts), dtype=float), scalar_space())


@dataclass(frozen=True)
class StepMultiplier:
    """Left-continuous step function sum_i values[i] * 1_((edges[i], edges[i+1]])."""

    edges: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.values) + 1:
            raise ValueError("need len(edges) == len(values) + 1")
        _grid(self.edges, 2, "edges")

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        # left-continuous: value on (edges[i], edges[i+1]] is values[i]
        idx = np.searchsorted(np.asarray(self.edges), ts, side="left") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]

    def interior_steps(self, a: float, b: float) -> np.ndarray:
        e = np.asarray(self.edges[1:-1])
        return e[(e > a) & (e < b)]

    def tail_integral(self, ts: np.ndarray, b: float) -> np.ndarray:
        """Exact Phi(t) = integral_t^b of the step function."""
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        for lo, hi, v in zip(self.edges[:-1], self.edges[1:], self.values):
            lo_c = np.clip(ts, lo, min(hi, b))
            out += v * np.maximum(min(hi, b) - lo_c, 0.0)
        return out


def constant_multiplier(value: float, a: float, b: float) -> StepMultiplier:
    return StepMultiplier((a, b), (value,))


@dataclass(frozen=True)
class ConvergenceCertificate:
    partition_sizes: tuple[int, ...]
    distances: tuple[float, ...]  # F-norm gap between successive dyadic sums
    converged: bool
    tolerance: float


class NotConvergedError(ArithmeticError):
    pass


def _riemann_sum(curve: Curve, mult, a: float, b: float, n: int) -> np.ndarray:
    edges = np.linspace(a, b, n + 1)
    tags = 0.5 * (edges[1:] + edges[:-1])
    if isinstance(mult, StepMultiplier):
        # multiplier steps are left-continuous; tag cells containing one at
        # their right endpoint so the tag value sits on the correct side
        steps = mult.interior_steps(a, b)
        if steps.size:
            cell = np.searchsorted(edges, steps, side="left") - 1
            cell = cell[(cell >= 0) & (cell < n)]
            inner = np.abs(steps[: cell.size] - edges[1:][cell]) > 1e-15 * max(abs(a), abs(b), 1.0)
            tags[cell[inner]] = edges[1:][cell[inner]]
    phi = mult(tags)
    vals = curve(tags)
    w = (phi * (b - a) / n)
    return np.tensordot(w, vals, axes=(0, 0))


_INTEGRATE_DEPTH = 18  # finest partition of integrate: 2**18 cells


def integrate(curve: Curve, mult, interval: tuple[float, float],
              tol: float = 1e-8) -> tuple[np.ndarray, ConvergenceCertificate]:
    """Riemann integral over dyadic partitions, from 2**3 cells up to
    2**18, until sums are F-norm Cauchy.

    Raises NotConvergedError with the certificate attached when the depth
    budget is exhausted before the Cauchy tolerance is met.
    """
    a, b = _grid(interval, 2, "interval").tolist()
    sizes: list[int] = []
    gaps: list[float] = []
    prev = None
    for depth in range(3, _INTEGRATE_DEPTH + 1):
        n = 2 ** depth
        s = _riemann_sum(curve, mult, a, b, n)
        sizes.append(n)
        if prev is not None:
            gap = curve.space.norm(s - prev)
            gaps.append(gap)
            if gap < tol:
                return s, ConvergenceCertificate(tuple(sizes), tuple(gaps), True, tol)
        prev = s
    cert = ConvergenceCertificate(tuple(sizes), tuple(gaps), False, tol)
    err = NotConvergedError(f"no Cauchy behavior within depth {_INTEGRATE_DEPTH}: gaps {gaps[-3:]}")
    err.certificate = cert
    raise err


def check_fubini(curve: Curve, mult: StepMultiplier, interval: tuple[float, float],
                 tol: float = 1e-8) -> float:
    """F-norm gap between integral phi(t) F(t) dt and integral Phi(t) f(t) dt,
    where F is the running integral of the curve and Phi the exact tail
    integral of the step multiplier."""
    a, b = float(interval[0]), float(interval[1])

    def F(ts: np.ndarray) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = []
        for t in ts:
            if t <= a + 1e-15 * max(1.0, abs(a)):
                probe = np.shape(curve(np.array([a + (b - a) * 0.5])))[1:]
                out.append(np.zeros(probe))
            else:
                v, _ = integrate(curve, constant_multiplier(1.0, a, t), (a, t), tol=tol / 10)
                out.append(v)
        return np.stack(out)

    lhs, _ = integrate(Curve(F, curve.space), mult, (a, b), tol=tol)

    trailing = curve(np.array([a + (b - a) * 0.5])).ndim - 1
    tail = Curve(lambda ts: (mult.tail_integral(ts, b).reshape(-1, *([1] * trailing))
                             * curve(ts)), curve.space)
    rhs, _ = integrate(tail, constant_multiplier(1.0, a, b), (a, b), tol=tol)
    return curve.space.norm(lhs - rhs)


@dataclass(frozen=True)
class SemivariationEstimate:
    value: float            # certified lower bound of A(f, delta)
    delta: float
    partition_sizes: tuple[int, ...]
    exact_pattern: bool     # scalar optimal pattern used


_SEMIVARIATION_DEPTH = 10  # finest partition of semivariation: 2**10 cells


def semivariation(curve: Curve, delta: float) -> SemivariationEstimate:
    """Lower-bound estimate of A(f, delta) = sup ||sum c_j (f(t_j)-f(t_j-1))||
    over partitions of [0, 1].

    For scalar curves the supremum over |c_j| <= delta is attained by
    c_j = delta * sign(increment), giving delta * total variation exactly on
    the sampled partition.  For vector values the search uses the
    coordinate-optimal patterns plus 8 random sign patterns (seed 0), so the
    result is a certified lower bound.  Computed as delta times the unit
    pattern supremum, hence exactly homogeneous in delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    best_unit = 0.0
    sizes = []
    scalar = curve.space.label == "scalar"
    rng = np.random.Generator(philox(0))
    for depth in range(2, _SEMIVARIATION_DEPTH + 1):
        n = 2 ** depth
        sizes.append(n)
        ts = np.linspace(0.0, 1.0, n + 1)
        vals = curve(ts)
        inc = np.diff(vals, axis=0)
        if scalar:
            cand = float(np.sum(np.abs(inc)))
            best_unit = max(best_unit, cand)
        else:
            flat = inc.reshape(n, -1)
            patterns = [np.sign(flat[:, k]) for k in range(min(flat.shape[1], 8))]
            patterns.extend(rng.choice([-1.0, 1.0], size=(8, n)))
            for c in patterns:
                c = np.where(c == 0.0, 1.0, c)
                cand = curve.space.norm(np.tensordot(c, inc, axes=(0, 0)))
                best_unit = max(best_unit, cand)
    return SemivariationEstimate(delta * best_unit, delta, tuple(sizes), scalar)
