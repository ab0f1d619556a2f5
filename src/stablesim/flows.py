"""Nonsingular flows, their Radon-Nikodym cocycle algebra, and a numerical
conservative/dissipative classifier based on truncated orbit integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import shell_tail

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FlowSpec:
    """One-parameter group of maps with its Radon-Nikodym derivative.

    ``apply(t, pts)`` maps points forward; ``rn_derivative(t, pts)`` is the
    density of mu composed with the time-t map against mu.  Both broadcast an
    array of times against the points, so one point and n times give its
    orbit at those times.  ``distance`` compares two point arrays respecting
    periodic coordinates.  ``period(pts)``, declared only by a flow whose
    map and derivative both repeat in t, gives each point's period (inf at
    a fixed point).
    """

    tag: str
    dim: int
    apply: Callable[[float, np.ndarray], np.ndarray]
    rn_derivative: Callable[[float, np.ndarray], np.ndarray]
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sample_points: Callable[[np.random.Generator, int], np.ndarray]
    period: Callable[[np.ndarray], np.ndarray] | None = None


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

    def period(pts):
        with np.errstate(divide="ignore"):  # a point with x = 0 is fixed
            return TWO_PI / np.abs(np.atleast_2d(pts)[:, 1])

    return FlowSpec("rotation", 2, apply,
                    lambda t, pts: np.ones(_orbit_shape(t, np.atleast_2d(pts))),
                    _circle_distance, sample, period)


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


def coboundary_cocycle(b: Callable[[np.ndarray], np.ndarray], flow: FlowSpec) -> CocycleSpec:
    """a_t(s) = b(phi_t(s)) * b(s); telescopes exactly for sign-valued b."""
    def apply(t, pts):
        return b(flow.apply(t, pts)) * b(pts)

    return CocycleSpec("coboundary", apply)


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


def _orbit_integral_increment(flow: FlowSpec, g0, alpha: float, pts: np.ndarray,
                              lo: float, hi: float, step: float) -> float:
    n = max(8, int(math.ceil((hi - lo) / step)))
    ts = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    # midpoint rule along the orbit, evaluated and summed in chunks of about
    # 4096 steps, so the temporaries stay small on long windows.  A far orbit
    # may overflow the flow map, its derivative or the sum to inf; where
    # |g0|^alpha is 0 the integrand is 0 even if the derivative is inf
    # (0 * inf = 0, as in the Lebesgue integral)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in np.array_split(ts, max(1, n // 4096)):
            g = np.abs(g0(flow.apply(chunk, pts))) ** alpha
            vals = np.where(g == 0.0, 0.0, g * flow.rn_derivative(chunk, pts))
            total += float(np.sum(vals)) * (hi - lo) / n
    return total


# half-widths L of the time windows [-L, L] of hopf_classify: 4 * 2^k up to 2048
_HOPF_WINDOWS = tuple(4.0 * 2.0 ** k for k in range(10))


def hopf_classify(flow: FlowSpec, g0, alpha: float, points: np.ndarray) -> HopfVerdict:
    """Classify points by the orbit integral of |g0 o phi_t|^alpha rho_t.

    A point is dissipative when the orbit integral over the whole time line
    is finite, conservative when it diverges (Hopf's criterion for a
    positive g0), and degenerate when the integrand vanishes on every
    window.  Each point integrates every window [-L, L] of ``_HOPF_WINDOWS``;
    the masses of the doubling shells L/2 < |t| <= L go to ``shell_tail``
    with growth 2, whose "finite" / "divergent" / "undecided" verdict is the
    point's dissipative / conservative / undecided one.  No point stops at
    an early window: a slow power tail can read either way there.  Where
    the flow declares a finite period P at a point, the step is
    0.05 min(1, P / 2pi) and the orbit integral over [0, P] is taken once:
    a window piece holding q >= 1 whole periods is q times it plus the
    midpoint sum over the rest of the piece.

    Expected tail of a moving average on the translation flow: for
    g0 = K(1, .) = f(1 - .) - f(-.) with the LFSM profile
    f(u) = u_+^(H - 1/alpha), the mean-value theorem gives
    |K(1, s)| ~ |H - 1/alpha| |s|^(H - 1/alpha - 1) as s -> -inf (and
    K(1, s) = 0 for s > 1), so the integrand decays like
    |s|^(alpha H - 1 - alpha) and the shell 2^k < |t| <= 2^(k+1) carries
    mass proportional to 2^(-k alpha (1 - H)).  The doubling-shell ratio
    therefore tends to 2^(-alpha (1 - H)) < 1, and the orbit integral is
    finite: every point is dissipative.  log_fractional has
    |K(1, s)| ~ 1/|s| and H = 1/alpha, the same ratio 2^(1 - alpha).  A
    periodic orbit (the rotation flow) has shell masses proportional to
    the shell width, ratio 2: conservative.
    """
    if not 0.0 < alpha < 2.0:  # also rejects nan
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    pts = np.atleast_2d(points) if flow.dim > 1 else np.atleast_1d(points)
    verdicts: list[str] = []
    traces: list[tuple[tuple[float, float], ...]] = []
    for point in pts:
        point = np.atleast_2d(point) if flow.dim > 1 else np.atleast_1d(point)
        period = math.inf if flow.period is None else float(flow.period(point)[0])
        step = 0.05 * min(1.0, period / TWO_PI)  # 0.05 / x on the rotation flow
        one_period = None

        def piece(lo, hi):
            # a window holding q >= 1 whole periods is q times the orbit
            # integral over one period plus the rest; q is 0 at inf or nan
            nonlocal one_period
            q = math.floor((hi - lo) / period) if period < math.inf else 0
            if q == 0:  # no 0 * (one period), which is nan where g0 is
                return _orbit_integral_increment(flow, g0, alpha, point, lo, hi, step)
            if one_period is None:
                one_period = _orbit_integral_increment(flow, g0, alpha, point, 0.0, period, step)
            return q * one_period + _orbit_integral_increment(flow, g0, alpha, point,
                                                              lo + q * period, hi, step)

        shells, vals = [], []
        total = 0.0
        prev_L = 0.0
        for L in _HOPF_WINDOWS:
            right = piece(prev_L, L)
            left = piece(-L, -prev_L)
            total = total + right + left  # each half added in turn, not their sum
            prev_L = L
            shells.append(right + left)
            vals.append(total)
        traces.append(tuple(zip(_HOPF_WINDOWS, vals)))
        if total <= 1e-12:
            verdicts.append("degenerate")
            continue
        _, tail, _ = shell_tail(np.array(shells), 2.0, 1e-9 * total)
        verdicts.append({"finite": "dissipative", "divergent": "conservative"}.get(tail, "undecided"))
    return HopfVerdict(pts, tuple(verdicts), tuple(traces))
