"""Distributional-equality machinery: mixing-measure pushforwards onto the
unit alpha-sphere, ray concentration, periodic minimality and matching of
rotating-average profiles up to sign/shift/constant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # kernels imports this module in same_law
    from .kernels import FourierSeries

TWO_PI = 2.0 * math.pi

Atoms = Sequence[tuple[tuple[float, float], float]]


@dataclass(frozen=True)
class EquivalenceWitness:
    epsilon: int          # +1 or -1
    shift: float
    offset: float         # additive constant


def _alpha_norm(b1: float, b2: float, alpha: float) -> float:
    return (abs(b1) ** alpha + abs(b2) ** alpha) ** (1.0 / alpha)


_ANGLE_TOL = 1e-9  # sphere directions closer than this (radians) are one atom


def _merge_atoms(atoms: list[tuple[tuple[float, float], float]]
                 ) -> tuple[tuple[tuple[float, float], float], ...]:
    angled = sorted((math.atan2(o[1], o[0]) % TWO_PI, o, w) for o, w in atoms)
    merged: list[list] = []
    for ang, o, w in angled:
        if merged and abs(ang - merged[-1][0]) <= _ANGLE_TOL:
            merged[-1][2] += w
        else:
            merged.append([ang, o, w])
    # wraparound: 0 and 2pi are the same direction
    if len(merged) > 1 and abs(merged[-1][0] - TWO_PI - merged[0][0]) <= _ANGLE_TOL:
        merged[0][2] += merged.pop()[2]
    return tuple(((o[0], o[1]), w) for _, o, w in merged)


def mixing_measure(atoms: Atoms, alpha: float) -> tuple[tuple[tuple[float, float], float], ...]:
    """Atoms (direction, weight) of the symmetrized pushforward of an atomic
    mixing measure onto the alpha-sphere.

    An atom (b, w) lands at direction b/|b|_alpha with weight w * |b|_alpha^alpha;
    symmetrization places the combined weight of each +-direction pair on both.
    """
    raw: list[tuple[tuple[float, float], float]] = []
    for (b1, b2), w in atoms:
        r = _alpha_norm(b1, b2, alpha)
        if r == 0.0:
            raise ValueError("mixing atoms must be nonzero")
        raw.append(((b1 / r, b2 / r), w * r ** alpha))
    one_sided = _merge_atoms(raw)
    return _merge_atoms([(o, w) for o, w in one_sided] +
                        [((-o[0], -o[1]), w) for o, w in one_sided])


_SPHERE_TOL = 1e-9  # angular and relative weight tolerance of same_mixed_lfsm


def same_mixed_lfsm(q1: Atoms, q2: Atoms, alpha: float) -> bool:
    """Equality in law of two mixed-LFSM mixing measures: equal symmetrized
    sphere measures (directions within _SPHERE_TOL radians, weights within
    _SPHERE_TOL relative)."""
    m1 = mixing_measure(q1, alpha)
    m2 = mixing_measure(q2, alpha)
    if len(m1) != len(m2):
        return False
    for (o1, w1), (o2, w2) in zip(m1, m2):
        ang1 = math.atan2(o1[1], o1[0]) % TWO_PI
        ang2 = math.atan2(o2[1], o2[0]) % TWO_PI
        gap = abs(ang1 - ang2)
        gap = min(gap, TWO_PI - gap)
        if gap > _SPHERE_TOL:
            return False
        if abs(w1 - w2) > _SPHERE_TOL * max(abs(w1), abs(w2)):
            return False
    return True


def ray_test(atoms: Atoms) -> bool:
    """True iff all atoms lie on one line through the origin (a single +-direction)."""
    dirs = [(b1, b2) for (b1, b2), _ in atoms if (b1, b2) != (0.0, 0.0)]
    if not dirs:
        return False
    b1, b2 = dirs[0]
    scale = math.hypot(b1, b2)
    for c1, c2 in dirs[1:]:
        cross = b1 * c2 - b2 * c1
        if abs(cross) > 1e-12 * scale * math.hypot(c1, c2):
            return False
    return True


def is_periodically_minimal(series: FourierSeries) -> bool:
    return reduce(math.gcd, series.active_harmonics() or (0,)) == 1


def _harmonic_coeff(series: FourierSeries, k: int) -> complex:
    a = sum(c for kk, c, _ in series.terms if kk == k)
    b = sum(s for kk, _, s in series.terms if kk == k)
    return complex(a, -b)  # g(s) = Re(gamma_k e^{iks}) summed over harmonics


def match_rotating(g1: FourierSeries, beta1: float, g2: FourierSeries, beta2: float,
                   tol: float = 1e-3) -> EquivalenceWitness | None:
    """Match two rotating-average profiles: g2(.) = eps * g1(. + tau) + c.

    Both profiles must be periodically minimal.  Distinct radial exponents
    can never match; otherwise tau candidates come from the phase of the
    fundamental harmonic and are validated against the whole profile on a
    circle grid.
    """
    for g in (g1, g2):
        if not is_periodically_minimal(g):
            raise ValueError("profiles must be periodically minimal "
                             "(gcd of active harmonics equal to 1)")
    if abs(beta1 - beta2) > 1e-12:
        return None
    k0 = min(g1.active_harmonics())
    gam1 = _harmonic_coeff(g1, k0)
    gam2 = _harmonic_coeff(g2, k0)
    if abs(gam1) < 1e-15 or abs(gam2) < 1e-15:
        return None
    grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    ref = g2(grid)
    scale = max(float(np.max(np.abs(ref - ref.mean()))), 1e-15)
    for eps in (1, -1):
        base = (np.angle(gam2 / (eps * gam1))) / k0
        for m in range(k0):
            tau = (base + TWO_PI * m / k0) % TWO_PI
            c = g2.constant - eps * g1.constant
            cand = eps * g1(grid + tau) + c
            resid = float(np.max(np.abs(ref - cand))) / scale
            if resid < tol:
                return EquivalenceWitness(eps, float(tau), float(c))
    return None

