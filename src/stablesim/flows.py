"""Nonsingular flows, their Radon-Nikodym cocycle algebra, and a numerical
conservative/dissipative classifier based on truncated orbit integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FlowSpec:
    """One-parameter group of maps with its Radon-Nikodym derivative.

    ``apply(t, pts)`` maps points forward; ``rn_derivative(t, pts)`` is the
    density of mu composed with the time-t map against mu.  Both broadcast an
    array of times against the points, so one point and n times give its
    orbit at those times.  ``distance`` compares two point arrays respecting
    periodic coordinates.
    """

    tag: str
    dim: int
    apply: Callable[[float, np.ndarray], np.ndarray]
    rn_derivative: Callable[[float, np.ndarray], np.ndarray]
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sample_points: Callable[[np.random.Generator, int], np.ndarray]
    orbit_speed: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class CocycleSpec:
    """{-1, +1}-valued multiplicative cocycle over a flow."""

    label: str
    apply: Callable[[float, np.ndarray], np.ndarray]


def _abs_distance(p, q):
    p, q = np.atleast_1d(p, q)
    return np.abs(p - q).reshape(len(p), -1).max(axis=1)


def _circle_distance(p, q):
    # points (angle, x) of (0, 2pi) x R_+: the larger of the angle and x gaps
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    return np.maximum(_angle_gap(p[:, 0], q[:, 0]), np.abs(p[:, 1] - q[:, 1]))


def _orbit_shape(t, pts) -> tuple[int, ...]:
    """Shape of (time, point) broadcast along the points' leading axis."""
    return np.broadcast_shapes(np.shape(t), (len(pts),))


def _angle_gap(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def translation_flow() -> FlowSpec:
    """Shift flow on (R, Lebesgue); measure preserving."""
    return FlowSpec(
        tag="translation", dim=1,
        apply=lambda t, s: s + t,
        rn_derivative=lambda t, s: np.ones(_orbit_shape(t, np.atleast_1d(s))),
        distance=_abs_distance,
        sample_points=lambda rng, n: rng.uniform(-5.0, 5.0, n),
    )


def rotation_flow() -> FlowSpec:
    """Circle rotation with point-dependent speed on (0, 2pi) x R_+.

    phi_t(s, x) = (s + t x mod 2pi, x); preserves Lebesgue x Q for any
    radial measure Q, so the derivative is identically one.
    """
    def apply(t, pts):
        pts = np.atleast_2d(pts)
        s = np.mod(pts[:, 0] + t * pts[:, 1], TWO_PI)
        return np.column_stack([s, np.broadcast_to(pts[:, 1], s.shape)])

    def sample(rng, n):
        return np.column_stack([rng.uniform(0.0, TWO_PI, n),
                                np.exp(rng.uniform(np.log(0.3), np.log(30.0), n))])

    return FlowSpec("rotation", 2, apply,
                    lambda t, pts: np.ones(_orbit_shape(t, np.atleast_2d(pts))),
                    _circle_distance, sample, orbit_speed=lambda pts: np.atleast_2d(pts)[:, 1])


def circle_scaling_flow(beta: float) -> FlowSpec:
    """Radial scaling (s, x) -> (s, e^t x) against Lebesgue x x^(-1-beta) dx.

    The pushforward density ratio is constant: exp(-beta t).
    """
    def apply(t, pts):
        pts = np.atleast_2d(pts)
        x = pts[:, 1] * np.exp(t)
        return np.column_stack([np.broadcast_to(pts[:, 0], x.shape), x])

    def sample(rng, n):
        return np.column_stack([rng.uniform(0.0, TWO_PI, n),
                                np.exp(rng.uniform(-2.0, 2.0, n))])

    return FlowSpec("scaling", 2, apply,
                    lambda t, pts: np.exp(-beta * t) * np.ones(_orbit_shape(t, np.atleast_2d(pts))),
                    _circle_distance, sample)


def dilation_flow() -> FlowSpec:
    """Contraction s -> e^(-t) s on (R, Lebesgue): translation in log coordinates."""
    return FlowSpec(
        tag="log_translation", dim=1,
        apply=lambda t, s: np.asarray(s) * np.exp(-t),
        rn_derivative=lambda t, s: np.exp(-t) * np.ones(_orbit_shape(t, np.atleast_1d(s))),
        distance=_abs_distance,
        sample_points=lambda rng, n: np.exp(rng.uniform(-2.0, 2.0, n)) * rng.choice([-1.0, 1.0], n),
    )


def catalog_flows() -> tuple[FlowSpec, ...]:
    return (translation_flow(), rotation_flow(), circle_scaling_flow(0.8), dilation_flow())


def constant_cocycle() -> CocycleSpec:
    return CocycleSpec("constant", lambda t, pts: np.ones(len(np.atleast_1d(pts))))


def coboundary_cocycle(b: Callable[[np.ndarray], np.ndarray], flow: FlowSpec,
                       label: str = "coboundary") -> CocycleSpec:
    """a_t(s) = b(phi_t(s)) * b(s); telescopes exactly for sign-valued b."""
    def apply(t, pts):
        return b(flow.apply(t, pts)) * b(pts)

    return CocycleSpec(label, apply)


def broken_cocycle() -> CocycleSpec:
    """sign(sin(s + t)) under translation: violates the cocycle identity."""
    def apply(t, pts):
        v = np.sign(np.sin(np.asarray(pts) + t))
        return np.where(v == 0.0, 1.0, v)

    return CocycleSpec("broken", apply)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowLawReport:
    max_group_residual: float
    max_chain_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.max_group_residual, self.max_chain_residual) < self.tolerance


def check_flow_laws(flow: FlowSpec, t_pairs: Sequence[tuple[float, float]],
                    points: np.ndarray, tol: float = 1e-10) -> FlowLawReport:
    """Max deviation of the group law and of the derivative chain rule."""
    g_res = 0.0
    c_res = 0.0
    for t1, t2 in t_pairs:
        lhs = flow.apply(t1 + t2, points)
        rhs = flow.apply(t1, flow.apply(t2, points))
        g_res = max(g_res, float(flow.distance(lhs, rhs).max()))
        rho_sum = flow.rn_derivative(t1 + t2, points)
        rho_chain = flow.rn_derivative(t1, points) * flow.rn_derivative(t2, flow.apply(t1, points))
        c_res = max(c_res, float(np.max(np.abs(rho_sum - rho_chain) / np.maximum(np.abs(rho_sum), 1e-300))))
    return FlowLawReport(g_res, c_res, tol)


@dataclass(frozen=True)
class CocycleReport:
    checked: int
    failures: int
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def check_cocycle(cocycle: CocycleSpec, flow: FlowSpec,
                  t_pairs: Sequence[tuple[float, float]], points: np.ndarray) -> CocycleReport:
    """Exact boolean check of a_{t1+t2}(s) = a_{t2}(s) a_{t1}(phi_{t2}(s))."""
    checked = 0
    failures = 0
    worst = 0.0
    for t1, t2 in t_pairs:
        lhs = cocycle.apply(t1 + t2, points)
        rhs = cocycle.apply(t2, points) * cocycle.apply(t1, flow.apply(t2, points))
        bad = np.abs(lhs - rhs) > 1e-12
        checked += len(np.atleast_1d(lhs))
        failures += int(np.count_nonzero(bad))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CocycleReport(checked, failures, worst)


# ---------------------------------------------------------------------------
# Hopf classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfVerdict:
    """Per-point conservative/dissipative verdicts with truncation traces."""

    points: np.ndarray
    verdicts: tuple[str, ...]   # "dissipative" | "conservative" | "undecided" | "degenerate"
    traces: tuple[tuple[tuple[float, float], ...], ...]  # per point: ((L, value), ...)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for v in self.verdicts:
            out[v] = out.get(v, 0) + 1
        return out


def _orbit_integral_increment(flow: FlowSpec, g0, alpha: float, point: np.ndarray,
                              lo: float, hi: float, step: float) -> float:
    n = max(8, int(math.ceil((hi - lo) / step)))
    ts = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    pts = np.atleast_2d(point) if flow.dim > 1 else np.atleast_1d(point)
    # midpoint rule along the orbit, every step at once; summed in chunks of
    # about 4096 steps
    vals = np.abs(g0(flow.apply(ts, pts))) ** alpha * flow.rn_derivative(ts, pts)
    total = 0.0
    for chunk in np.array_split(vals, max(1, n // 4096)):
        total += float(np.sum(chunk)) * (hi - lo) / n
    return total


# half-widths L of the time windows [-L, L] of hopf_classify, and the relative
# change under the last doubling below which an orbit integral has stabilized
_HOPF_WINDOWS = (4.0, 8.0, 16.0, 32.0, 64.0)
_HOPF_RTOL = 1e-3


def hopf_classify(flow: FlowSpec, g0, alpha: float, points: np.ndarray) -> HopfVerdict:
    """Classify points by the truncated orbit integral of |g0 o phi_t|^alpha rho_t.

    Dissipative when the integral stabilizes under doubling of the time
    window, conservative when it grows linearly in the window (R^2 above
    0.99 for periodic orbit integrands), undecided otherwise.
    """
    pts = np.atleast_2d(points) if flow.dim > 1 else np.atleast_1d(points)
    n_points = len(pts)
    verdicts: list[str] = []
    traces: list[tuple[tuple[float, float], ...]] = []
    for i in range(n_points):
        point = pts[i]
        if flow.orbit_speed is not None:
            speed = float(flow.orbit_speed(np.atleast_2d(point))[0])
            step = min(0.05, 0.05 / max(speed, 1e-9))
        else:
            step = 0.05
        vals = []
        total = 0.0
        prev_L = 0.0
        for L in _HOPF_WINDOWS:
            total += _orbit_integral_increment(flow, g0, alpha, point, prev_L, L, step)
            total += _orbit_integral_increment(flow, g0, alpha, point, -L, -prev_L, step)
            prev_L = L
            vals.append(total)
        trace = tuple(zip(_HOPF_WINDOWS, vals))
        traces.append(trace)
        if vals[-1] <= 1e-12:
            verdicts.append("degenerate")
            continue
        tail_change = abs(vals[-1] - vals[-2]) / max(abs(vals[-1]), 1e-300)
        prev_change = abs(vals[-2] - vals[-3]) / max(abs(vals[-1]), 1e-300)
        if tail_change < _HOPF_RTOL and prev_change < 10 * _HOPF_RTOL:
            verdicts.append("dissipative")
            continue
        x = np.array(_HOPF_WINDOWS)
        y = np.array(vals)
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        ss_res = float(np.sum((y - fit) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / max(ss_tot, 1e-300)
        grew = vals[-1] > 1.5 * vals[0]
        if r2 > 0.99 and slope > 0 and grew:
            verdicts.append("conservative")
        else:
            verdicts.append("undecided")
    return HopfVerdict(pts, tuple(verdicts), tuple(traces))
