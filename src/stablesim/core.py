"""Sampling of standard SaS variables, discretized stable integrals and
characteristic-function machinery.

The sampler follows Chambers, Mallows & Stuck (1976) in the symmetric case,
normalized so that the characteristic function is exp(-|theta|^alpha).
Simulation draws one counter-based random stream per path (Philox), so
ensembles are reproducible bit-for-bit regardless of worker threads, for a
given OpenBLAS thread count: with one BLAS thread the chunk products of six
of the eight catalog specs (all but linear_motion and rotating_average)
round differently, by at most 2.5e-15 of a row's largest value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .io import _cpus, _span_results, spec_digest
from .kernels import Kernel
from .quadrature import RTOL, Certificate, DivergenceError, pairwise_sum, run_levels

_PATH_CHUNK = 256  # fixed so that results cannot depend on the worker count


@dataclass(frozen=True)
class LinearCombo:
    """Finite probe sum_j theta_j X_{t_j} for joint characteristic functions."""

    terms: tuple[tuple[float, float], ...]  # (theta, t)

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("combo needs at least one term")
        for theta, t in self.terms:
            if not (math.isfinite(theta) and math.isfinite(t)):
                raise ValueError(f"combo terms need a finite theta and t, got ({theta}, {t})")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.terms)

    def scaled_times(self, c: float) -> "LinearCombo":
        return LinearCombo(tuple((th, c * t) for th, t in self.terms))

    def shifted_increments(self, h: float) -> "LinearCombo":
        """Probe of sum_j theta_j (X_{t_j + h} - X_h), the h-shifted increment combo."""
        terms = [(th, t + h) for th, t in self.terms]
        total = sum(th for th, _ in self.terms)
        if total != 0.0:
            terms.append((-total, h))
        return LinearCombo(tuple(terms))


def combo(*terms: tuple[float, float]) -> LinearCombo:
    return LinearCombo(tuple((float(th), float(t)) for th, t in terms))


def _grid(values, min_points: int, name: str = "times") -> np.ndarray:
    """``values`` as floats, once they form a 1-d, strictly increasing grid of
    at least ``min_points`` finite points; ValueError naming ``name`` otherwise.
    Finiteness is its own test: ``diff(t) <= 0`` is False at a nan anywhere
    and at a last point of +inf."""
    t = np.asarray(values, dtype=float)
    if (t.ndim != 1 or t.size < min_points or not np.isfinite(t).all()
            or np.any(np.diff(t) <= 0)):
        raise ValueError(f"{name} must be a strictly increasing 1-d grid of at least "
                         f"{min_points} finite points")
    return t


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def philox(seed: int) -> np.random.Philox:
    """The Philox bit generator keyed by ``seed``, which must lie in [0, 2^64)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Philox(key=np.uint64(seed))


def _cms(u: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of uniforms u on [0, 1) and standard
    exponentials w into standard SaS variables, elementwise.  At alpha = 1
    the same formula gives sin(u) / cos(u) times 1, the Cauchy tan(u)."""
    u = (u - 0.5) * np.pi     # uniform on (-pi/2, pi/2)
    w = np.maximum(w, 1e-300)
    su = np.sin(alpha * u)
    cu = np.cos(u)
    t1 = su / cu ** (1.0 / alpha)
    t2 = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return t1 * t2


def sample_standard_sas(alpha: float, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. standard SaS variables (CF exp(-|theta|^alpha)),
    deterministic in (seed, n).

    For alpha = 2 the output is centered Gaussian with variance 2; for
    alpha = 1 it is standard Cauchy.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = np.random.Generator(philox(seed))
    n = int(n)
    return _cms(gen.random(n), gen.standard_exponential(n), alpha)


# ---------------------------------------------------------------------------
# characteristic-function exponent by quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CfExponent:
    """sigma^alpha value for a probe, with its refinement certificate."""

    value: float | None
    certificate: Certificate

    @property
    def status(self) -> str:
        return self.certificate.status

    def expect(self) -> float:
        if self.value is None:
            raise DivergenceError(
                f"cf exponent diverged under domain enlargement: {self.certificate.values}")
        return self.value


@dataclass(frozen=True)
class CfBatch:
    """sigma^alpha of a batch of probes at one refinement level, with the work it took."""

    values: tuple[float, ...]
    grids: int          # quadrature grids built
    kernel_evals: int   # (combo, nonzero-theta term) pairs evaluated
    workers: int        # processes that computed the values, 1 in this process


_BLOCK_CELLS = 1 << 16  # cells per row block of the oracle integrand
# integrand work (the first grid's cells times the batch's nonzero-theta
# terms) below which cf_exponents runs in-process: on 2 CPUs the pool (about
# 10 ms to fork and join, 0.13 ms a span) won most runs from 3.4M cell-terms
# on the truncated grids, but on the rotating shift grids (multi-harmonic
# profiles only) lost 5 of 7 at 7.2M and won 6 of 7 only at 11.4M
_ORACLE_POOL_MIN_WORK = 1 << 23


def _row_blocks(points, shape: tuple[int, ...]):
    """(points, rows) of each row block of a ``cf_cells`` grid: runs of about
    ``_BLOCK_CELLS`` cells of the radial rows of a two-coordinate grid, or
    the whole array of a shift grid.  Coordinate arrays whose leading axis
    is the row axis are sliced; the shift row is passed whole."""
    if not isinstance(points, tuple):
        yield points, slice(None)
        return
    n_rows = shape[0]
    step = max(1, _BLOCK_CELLS // shape[1])
    for r0 in range(0, n_rows, step):
        rows = slice(r0, r0 + step)
        yield tuple(c[rows] if c.shape[0] == n_rows else c for c in points), rows


def _abs_power(o: np.ndarray, alpha: float) -> None:
    """|o|^alpha in place, the power taken on the nonzero entries only, since
    numpy's power is about 3x slower on exact zeros (which stay 0).  At
    alpha 0.5 ``**`` takes numpy's sqrt path, so this does too."""
    np.abs(o, out=o)
    nonzero = o != 0.0
    if alpha == 0.5:
        np.sqrt(o, out=o, where=nonzero)
    else:
        np.power(o, alpha, out=o, where=nonzero)


def cf_exponents(kernel: Kernel, combos: Sequence[LinearCombo], level: int) -> CfBatch:
    """sigma^alpha(combo) = integral of |sum_j theta_j K(t_j, .)|^alpha dmu for
    every combo, at one refinement level.

    Combos with equal ``kernel.cf_grid_key`` share one grid.  A combo's
    integrand is built row block by row block (``_row_blocks``) in one array
    shaped like the masses: per block, ``kernel.combination`` writes
    sum_j theta_j K(t_j, .) over the nonzero-theta terms, then the absolute
    value, the power and the masses are applied in place.  Nothing is shared
    between combos but the grid, so every value equals the one a batch of
    that combo alone gives, wherever it was computed.

    The groups of combos are the spans of ``io._span_results``: a batch with
    at least ``_ORACLE_POOL_MIN_WORK`` integrand work runs on its forked
    workers, any other in this process.  The first grid is built here, to
    size that work, and the workers inherit it; a worker builds any other
    group's grid itself.  A pooled group's combos are dealt round-robin into
    at most two spans per CPU.
    """
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    combos = tuple(combos)
    groups: dict = {}
    for i, c in enumerate(combos):
        groups.setdefault(kernel.cf_grid_key(c.times), []).append(i)
    groups = list(groups.values())
    n_evals = sum(theta != 0.0 for c in combos for theta, _ in c.terms)
    grids = [kernel.cf_cells(combos[g[0]].times, level) for g in groups[:1]]
    big = bool(grids) and grids[0][1].size * n_evals >= _ORACLE_POOL_MIN_WORK
    # a pooled group's combos are dealt round-robin into at most two spans
    # per CPU: one span per combo took about 10 % longer
    step = 2 * _cpus()
    spans = ([(k, g[j::step]) for k, g in enumerate(groups) for j in range(min(step, len(g)))]
             if big else list(enumerate(groups)))
    values = [0.0] * len(combos)
    pids = set()
    with _span_results(_group_values, spans, (kernel, combos, level, grids), big) as results:
        for (_, members), (pid, vals) in zip(spans, results):
            pids.add(pid)
            for i, v in zip(members, vals):
                values[i] = v
    return CfBatch(tuple(values), len(groups), n_evals, len(pids) or 1)


def _group_values(span: tuple, held: tuple) -> tuple[int, list[float]]:
    """(this process's pid, sigma^alpha of each combo of a span): its grid
    is the held one of its group, where there is one, else built here."""
    kernel, combos, level, grids = held
    k, members = span
    pts, masses = grids[k] if k < len(grids) else kernel.cf_cells(combos[members[0]].times, level)
    blocks = list(_row_blocks(pts, masses.shape))
    out = np.empty(masses.shape)
    values = []
    for i in members:
        terms = [(theta, t) for theta, t in combos[i].terms if theta != 0.0]
        for bpts, rows in blocks:
            o = out[rows]
            kernel.combination(terms, bpts, o)
            _abs_power(o, kernel.alpha)
            o *= masses[rows]
        values.append(pairwise_sum(out.ravel()))
    return os.getpid(), values


def cf_exponent(kernel: Kernel, combo: LinearCombo, *, level: int | None = None) -> CfExponent:
    """sigma^alpha(combo), the one-combo case of ``cf_exponents``.

    With ``level`` given, evaluates that one refinement level only (status
    "single_level"); otherwise runs the refinement schedule of
    ``quadrature.run_levels`` (levels 1 to 5, relative tolerance ``RTOL``).
    """

    def eval_level(lvl: int) -> float:
        return cf_exponents(kernel, (combo,), lvl).values[0]

    if level is not None:
        v = eval_level(level)
        return CfExponent(v, Certificate((level,), (v,), "single_level", RTOL))
    value, cert = run_levels(eval_level)
    return CfExponent(value, cert)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathEnsemble:
    """Seeded matrix of sample paths on a fixed time grid."""

    times: np.ndarray            # strictly increasing, shape (n_times,)
    values: np.ndarray           # shape (n_paths, n_times)
    seed: int
    spec_digest: str

    def __post_init__(self):
        t = _grid(self.times, 0)
        object.__setattr__(self, "times", t)  # a list input is kept as the checked array
        shape = np.shape(self.values)
        if len(shape) != 2 or shape[1] != t.size:
            raise ValueError(f"values must have shape (n_paths, {t.size}), got {shape}")

    def time_index(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t))
        for j in (idx - 1, idx, idx + 1):
            if 0 <= j < self.times.size and abs(self.times[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return j
        raise LookupError(f"time {t} is not on the ensemble grid (no interpolation)")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def simulate(kernel: Kernel, times: Sequence[float], n_paths: int, seed: int,
             level: int = 1, threads: int = 1) -> PathEnsemble:
    """Simulate sample paths of the kernel's process on a time grid.

    X_t is realized as sum over control-measure cells of
    K(t, cell) * mass^{1/alpha} * S_cell with i.i.d. standard SaS weights
    S_cell drawn from a per-path counter-based stream; the joint CF of the
    output converges to exp(-cf_exponent) as n_paths grows and the cell grid
    refines.  Row i depends only on (seed, i), never on thread scheduling,
    for a given OpenBLAS thread count (see the module docstring).

    The cells are ``kernel.sim_cells`` over the window of the grid.  Each
    K(t_j, .) is evaluated on their factored points (``kernel.evals``, one
    F(0, .) for the grid) and raveled, with the masses, in C order: the cell
    order of ``kernel.sim_grid``.  Cells whose weighted kernel is 0 at every
    grid time are dead: they take no draws and are not transformed or
    summed.  Path i takes one uniform per live cell, in cell order, then one
    exponential per live cell, from ``philox(seed).jumped(i)``.  A cell's
    draw thus depends on which cells are live, and ensembles of one seed on
    two grids over the same window share one realization only when the
    grids leave the same cells live.  Each chunk of
    ``_PATH_CHUNK`` paths is reduced by one matrix product of fixed shape,
    zero-padded past the last path, so a row's arithmetic does not depend on
    n_paths or on the worker count.  The chunks run on a pool of
    ``threads`` workers, or in the calling thread when ``threads`` is 1.
    """
    t = _grid(times, 1)
    if n_paths < 0:
        raise ValueError(f"n_paths must be nonnegative, got {n_paths}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    base = philox(seed)
    points, masses = kernel.sim_cells(float(t[0]), float(t[-1]), level)
    weights = masses.ravel() ** (1.0 / kernel.alpha)
    kmat = np.empty((t.size, weights.size))
    for j, k_t in enumerate(kernel.evals(t.tolist(), points)):
        kmat[j] = k_t.ravel()
    del k_t  # else the last field stays allocated through the simulation
    kmat *= weights[None, :]
    live = np.any(kmat != 0.0, axis=0)
    kT = np.ascontiguousarray(kmat[:, live].T)    # (n_live, n_times)
    del kmat

    values = np.empty((int(n_paths), t.size))
    chunks = [(lo, min(lo + _PATH_CHUNK, int(n_paths)))
              for lo in range(0, int(n_paths), _PATH_CHUNK)]

    def fill(chunk: tuple[int, int]) -> None:
        lo, hi = chunk
        n_live = kT.shape[0]
        S = np.zeros((_PATH_CHUNK, n_live))
        for i in range(lo, hi):
            gen = np.random.Generator(base.jumped(i))
            u = gen.random(n_live)
            S[i - lo] = _cms(u, gen.standard_exponential(n_live), kernel.alpha)
        # always the full chunk shape: a product with fewer rows may take
        # another BLAS kernel (one row goes through gemv) and round differently
        values[lo:hi] = (S @ kT)[:hi - lo]

    if threads == 1:  # inline: a pool thread's malloc arena adds about 1.7 MB of peak RSS
        for chunk in chunks:
            fill(chunk)
    else:
        # imported here: concurrent.futures loads logging, about 11 ms that
        # `import stablesim` would otherwise pay
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(fill, chunks))

    return PathEnsemble(t, values, int(seed), spec_digest(kernel.to_doc()))


def empirical_cf(ensemble: PathEnsemble, combo: LinearCombo) -> complex:
    """Monte Carlo estimate of E exp(i sum_j theta_j X_{t_j}); modulus <= 1.
    An ensemble without paths estimates nothing and raises ValueError."""
    if ensemble.n_paths < 1:
        raise ValueError(f"empirical_cf needs n_paths >= 1, got {ensemble.n_paths}")
    phase = np.zeros(ensemble.n_paths)
    for theta, t in combo.terms:
        if theta == 0.0:
            continue
        phase = phase + theta * ensemble.values[:, ensemble.time_index(t)]
    return complex(np.mean(np.exp(1j * phase)))
