"""Verification harness: deterministic quadrature identities for stationary
increments and self-similarity, kernel-form identities (the stationary and
the Lamperti flow form of each family), and Monte Carlo distribution checks
against the quadrature oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import CfBatch, LinearCombo, PathEnsemble, cf_exponents, combo, empirical_cf, simulate
from .kernels import FourierSeries, Kernel, RotatingAverage, _circle_sim_edges, build
from .quadrature import cells_from_edges

_FLOOR = 1e-12  # machine-level invariance floor for refinement comparisons
_LEVEL = 2  # quadrature level of the self-similarity and Monte Carlo checks


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    tolerance: float
    residuals: tuple[float, ...]
    details: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "tolerance": self.tolerance, "residuals": list(self.residuals),
                "details": _jsonable(self.details)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _timed_batch(kernel: Kernel, combos, level: int) -> tuple[CfBatch, float]:
    """``cf_exponents`` and the ``time.perf_counter`` seconds it took."""
    start = time.perf_counter()
    batch = cf_exponents(kernel, combos, level)
    return batch, time.perf_counter() - start


def _work(timed: list[tuple[CfBatch, float]]) -> dict:
    """Quadrature work behind a report: grids built, (probe, nonzero-theta
    term) kernel evaluations and wall seconds, summed over its timed batches,
    and the most processes that computed one of them (1: all in-process)."""
    return {"grids": sum(b.grids for b, _ in timed),
            "kernel_evals": sum(b.kernel_evals for b, _ in timed),
            "wall_s": sum(s for _, s in timed),
            "workers": max(b.workers for b, _ in timed)}


def default_probes() -> tuple[LinearCombo, ...]:
    """Eight probes mixing one to three time points, thetas in {+-0.5, +-1}."""
    return (
        combo((1.0, 1.0)),
        combo((1.0, 2.0)),
        combo((-0.5, 0.5)),
        combo((1.0, 0.5), (-1.0, 2.0)),
        combo((0.5, 1.0), (0.5, 3.0)),
        combo((1.0, 0.5), (-0.5, 1.5), (0.5, 3.0)),
        combo((-1.0, 1.0), (0.5, 2.5)),
        combo((0.5, 0.5), (-1.0, 1.0), (1.0, 2.0)),
    )


# ---------------------------------------------------------------------------
# stationary increments
# ---------------------------------------------------------------------------

def check_stationary_increments(kernel: Kernel, combos=None,
                                shifts=(0.5, 1.0, 2.0, 5.0),
                                tol: float = 1e-3) -> VerificationReport:
    """h-invariance of sigma^alpha over shifted increment probes.

    Evaluates at a coarse and a refined quadrature level (1 and 2); passes
    when the refined relative deviation is below tol and did not grow past
    the coarse one (up to the machine floor, since several families are
    h-invariant by construction down to rounding noise).
    """
    combos = combos or default_probes()
    hs = (0.0, *shifts)
    per_level: dict[int, list[float]] = {}
    timed = []
    for level in (1, 2):
        batch, seconds = _timed_batch(
            kernel, [c.shifted_increments(h) for c in combos for h in hs], level)
        timed.append((batch, seconds))
        devs = []
        for j in range(len(combos)):
            base, *vals = batch.values[j * len(hs):(j + 1) * len(hs)]
            worst = 0.0
            for val in vals:
                worst = max(worst, abs(val - base) / max(abs(base), 1e-300))
            devs.append(worst)
        per_level[level] = devs
    coarse = max(per_level[1])
    fine = max(per_level[2])
    passed = fine < tol and fine <= max(coarse, _FLOOR)
    return VerificationReport(
        "stationary_increments", passed, tol, tuple(per_level[2]),
        {"shifts": list(shifts), "deviation_by_level": {str(k): v for k, v in per_level.items()},
         "coarse_max": coarse, "fine_max": fine, **_work(timed)})


# ---------------------------------------------------------------------------
# self-similarity exponent
# ---------------------------------------------------------------------------

_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)  # time scales c of check_self_similar


def check_self_similar(kernel: Kernel, combos=None, tol: float = 0.01,
                       target_hurst: float | None = None) -> VerificationReport:
    """Fit the scaling slope of log sigma^alpha against log c per probe.

    For an H-self-similar process the slope is alpha * H; the report carries
    the fitted exponent and compares it with the kernel's Hurst exponent
    relative to tol.
    """
    combos = combos or default_probes()
    target = target_hurst if target_hurst is not None else kernel.hurst_exponent()
    if target is None:
        raise ValueError("kernel has no Hurst exponent; pass target_hurst")
    batch, seconds = _timed_batch(
        kernel, [c.scaled_times(sc) for c in combos for sc in _SCALES], _LEVEL)
    n, log_scales = len(_SCALES), np.log(np.asarray(_SCALES))
    slopes = []
    for j in range(len(combos)):
        logs = [math.log(v) for v in batch.values[j * n:(j + 1) * n]]
        slopes.append(float(np.polyfit(log_scales, np.asarray(logs), 1)[0]))
    fitted = [s / kernel.alpha for s in slopes]
    residuals = tuple(abs(f - target) / abs(target) for f in fitted)
    passed = max(residuals) < tol
    return VerificationReport("self_similarity", passed, tol, residuals,
                              {"fitted_hurst": fitted, "target_hurst": target,
                               "scales": list(_SCALES), **_work([(batch, seconds)])})


# ---------------------------------------------------------------------------
# kernel-form identities: the stationary flow form (Masani) and the scaling
# flow form (Lamperti) of each family
# ---------------------------------------------------------------------------

class UnsupportedFamilyError(TypeError):
    pass


@dataclass(frozen=True)
class KernelIdentityFixture:
    label: str
    lhs: callable         # closed-form kernel (t, pts) -> values
    rhs: callable         # flow/cocycle form (t, pts) -> values
    times: tuple[float, ...]
    points: object        # an array, or a broadcastable pair of coordinate arrays


_FLOW_TIMES = (0.0, 0.25, 1.0, 2.5)  # times of flow_identity_fixture
_LAMPERTI_TIMES = (0.25, 0.5, 1.0, 2.0, 4.0)  # powers of two: psi_{1/t} is exact in binary
_MAP_TOL = 1e-12  # residual bound of check_scaling_maps


def flow_identity_fixture(spec: Kernel) -> KernelIdentityFixture:
    """The spec's field in its stationary flow form F(t, .) = F(0, phi_t .),
    with phi_t = ``spec.flow(t, .)``, unit cocycle and unit derivative.  Both
    sides are taken relative to F(0, .), so they vanish at t = 0, and they
    are evaluated on the spec's own level-1 ``sim_cells`` points over
    [0, 2.5], a full (radial, shift) product on the two-coordinate families
    (``cf_cells`` may integrate the shift in closed form).  Where those
    cells are pairs (``_sim_pairs``), whose two shift nodes stand for the
    whole circle, the shift nodes are those of the circle's level-1
    simulation cells."""
    points = spec.sim_cells(0.0, max(_FLOW_TIMES), 1)[0]
    if spec._sim_pairs():
        points = (points[0], cells_from_edges(_circle_sim_edges(1))[0][None, :])

    def lhs(t, pts):
        return spec.field(t, pts) - spec.field(0.0, pts)

    def rhs(t, pts):
        return spec.field(0.0, spec.flow(t, pts)) - spec.field(0.0, pts)

    return KernelIdentityFixture(f"{spec.label}_flow_form", lhs, rhs, _FLOW_TIMES, points)


def rotating_identity_fixture(series: FourierSeries) -> KernelIdentityFixture:
    """Rotating-average kernel as the stationary flow form
    g o phi_t - g with unit cocycle and unit derivative (alpha and beta do
    not enter the field)."""
    return flow_identity_fixture(RotatingAverage(1.5, 0.8, series))


def _lamperti_flow(spec: Kernel):
    """The Lamperti flow of the spec's declared scaling flow
    psi_c(x, s) = (c^g x, c^h s), as (xs, phi, rho, exponents): the flow
    phi(t, p) = psi_{1/t}(p) and its derivative rho(t) = t^{-(beta2 + h)} at
    u = log t, the radial test points xs of ``scaling_maps`` and the
    exponents g, h, beta1, beta2 and H.

    On a radial density x**e dx, psi_c maps a radial set A to c^g A of mass
    int_{c^g A} x^e dx = c^{g(e + 1)} int_A x^e dx, so beta2 = g(e + 1) (0 for
    an atomic or absent radial coordinate), and it multiplies Lebesgue shift
    mass by c^h: mu o psi_c = c^{beta2 + h} mu, and phi_u = psi_{e^{-u}} has
    derivative e^{-u(beta2 + h)}.  If K(cT, psi_c p) = c^{beta1} K(T, p),
    the substitution p = psi_c q in X_{cT} = int K(cT, p) M(dp) and
    M o psi_c = c^{(beta2 + h)/alpha} M in law give
    X_{cT} = c^{beta1 + (beta2 + h)/alpha} X_T in law, jointly in T, so an
    H-self-similar family has beta1 = H - (beta2 + h) / alpha.  Raises
    UnsupportedFamilyError for a spec that declares no scaling flow."""
    maps = spec.scaling_maps()
    if maps is None:
        raise UnsupportedFamilyError(f"{type(spec).__name__} declares no scaling flow")
    xs, exponent, g, h = maps
    beta2 = 0.0 if exponent is None else g * (exponent + 1.0)
    hurst = spec.hurst_exponent()

    def phi(t, pts):
        c = 1.0 / t
        return c ** h * pts if xs is None else (c ** g * pts[0], c ** h * pts[1])

    return xs, phi, lambda t: t ** -(beta2 + h), {
        "g": g, "h": h, "beta1": hurst - (beta2 + h) / spec.alpha, "beta2": beta2, "hurst": hurst}


def lamperti_identity_fixture(spec: Kernel) -> KernelIdentityFixture:
    """The spec's kernel in the Lamperti form of its declared scaling flow,
    K(t, p) = t^H rho_{log t}^{1/alpha} g0(phi_{log t} p) with g0 = K(1, .) and
    phi, rho from ``_lamperti_flow``: K(t, psi_t q) = t^{beta1} K(1, q) at
    q = psi_{1/t} p, with t^{beta1} = t^H rho^{1/alpha}.  So the stationary
    Y(u) = e^{-Hu} X(e^u) is int rho_u^{1/alpha} g0 o phi_u dM.

    The times are powers of two and the points are the declared radial test
    points times the shifts linspace(-4, 4, 17) + 0.125, which avoid s = 0
    and s = t: there a profile is evaluated at 0, where an assigned value
    (log_fractional's f(0) := 0) breaks homogeneity on a null set, which no
    integral sees.  Raises UnsupportedFamilyError for a spec that declares
    no scaling flow."""
    xs, phi, rho, exponents = _lamperti_flow(spec)
    hurst, s = exponents["hurst"], np.linspace(-4.0, 4.0, 17) + 0.125
    points = s if xs is None else (np.asarray(xs, dtype=float)[:, None], s[None, :])

    def rhs(t, pts):
        return t ** hurst * rho(t) ** (1.0 / spec.alpha) * spec.eval(1.0, phi(t, pts))

    return KernelIdentityFixture(f"{spec.label}_lamperti_form", spec.eval, rhs,
                                 _LAMPERTI_TIMES, points)


def check_kernel_identity(fixture: KernelIdentityFixture, tol: float = 1e-10) -> VerificationReport:
    """One residual per time, max over the points of |lhs - rhs| / max(|rhs|, 1).
    Passes when every residual is below tol and lhs is nonzero at some point
    and time: an identity between zeros shows nothing."""
    residuals, live = [], False
    for t in fixture.times:
        a = fixture.lhs(t, fixture.points)
        b = fixture.rhs(t, fixture.points)
        residuals.append(float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0))))
        live = live or bool(np.any(a != 0.0))
    return VerificationReport(f"kernel_identity[{fixture.label}]",
                              live and all(r < tol for r in residuals), tol, tuple(residuals),
                              {"times": list(fixture.times)})


def check_scaling_maps(spec: Kernel) -> VerificationReport:
    """``check_kernel_identity`` of the spec's ``lamperti_identity_fixture`` at
    tolerance 1e-12, reported as "scaling_maps" with the flow's exponents
    g, h, beta1, beta2 and H: one residual per time, and a wrong flow, a
    wrong Hurst exponent or a kernel that is 0 everywhere fails."""
    rep = check_kernel_identity(lamperti_identity_fixture(spec), _MAP_TOL)
    return replace(rep, name="scaling_maps", details={**_lamperti_flow(spec)[3], **rep.details})


# ---------------------------------------------------------------------------
# Monte Carlo distribution check
# ---------------------------------------------------------------------------

def mc_distribution_check(ensemble: PathEnsemble, kernel: Kernel, combos=None,
                          tol: float | None = None) -> VerificationReport:
    """Max over probes of |empirical CF - exp(-sigma^alpha)|.

    Default tolerance is the CLT scale 3/sqrt(n_paths) plus a 2% allowance
    for cell discretization bias.
    """
    if ensemble.n_paths < 1:  # the CLT tolerance 1/sqrt(n_paths) is undefined
        raise ValueError(f"a Monte Carlo check needs n_paths >= 1, got {ensemble.n_paths}")
    combos = combos or default_probes()
    tol = tol if tol is not None else 3.0 / math.sqrt(ensemble.n_paths) + 0.02
    batch, seconds = _timed_batch(kernel, combos, _LEVEL)
    residuals = [abs(empirical_cf(ensemble, c) - math.exp(-sigma))
                 for c, sigma in zip(combos, batch.values)]
    return VerificationReport("mc_distribution", max(residuals) < tol, tol,
                              tuple(residuals), {"n_paths": ensemble.n_paths,
                                                 **_work([(batch, seconds)])})


# ---------------------------------------------------------------------------
# convenience suite
# ---------------------------------------------------------------------------

_CHECK_NAMES = ("si", "ss", "scaling", "kernel-identity", "mc")


def run_suite(spec: Kernel, checks=("si", "ss"), n_paths: int = 2000,
              seed: int = 0) -> list[VerificationReport]:
    """Run the named verification suites for one family spec; every name is
    checked before any suite runs."""
    if not checks:
        raise ValueError("no checks given")
    for name in checks:
        if name not in _CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}")
    kernel = build(spec)
    reports: list[VerificationReport] = []
    for name in checks:
        if name == "si":
            reports.append(check_stationary_increments(kernel))
        elif name == "ss":
            reports.append(check_self_similar(kernel))
        elif name == "scaling":
            try:
                reports.append(check_scaling_maps(spec))
            except UnsupportedFamilyError as exc:
                reports.append(VerificationReport("scaling_maps", True, 0.0, (),
                                                  {"skipped": str(exc)}))
        elif name == "kernel-identity":
            reports.append(check_kernel_identity(flow_identity_fixture(kernel)))
        else:  # "mc"
            times = sorted({t for c in default_probes() for t in c.times})
            ens = simulate(kernel, times, n_paths, seed, level=1)
            reports.append(mc_distribution_check(ens, kernel))
    return reports
