"""Sampling of standard SaS variables, discretized stable integrals and
characteristic-function machinery.

The sampler follows Chambers, Mallows & Stuck (1976) in the symmetric case,
normalized so that the characteristic function is exp(-|theta|^alpha).  Its
three trigonometric values come from half-angle tangents: numpy 2.4 runs
``tan`` in SIMD, about 2 ns a value on an AVX-512 host, but calls scalar
libm for ``sin`` and ``cos``, 11-15 ns each.  It works in place, so
``simulate`` fills each path's row without allocating anything per path.

Simulation draws one counter-based random stream per path (Philox), so
ensembles are reproducible bit-for-bit regardless of worker threads, for a
given OpenBLAS thread count: with one BLAS thread the chunk products of six
of the eight catalog specs (all but linear_motion and rotating_average)
round differently on ``linspace(0.05, 3, 60)``, by at most 2.9e-15 of a
row's largest value; on the default probe times only mixed_lfsm's and
truncated_fractional's do.  A path draws once per distinct kernel column
of its live cells: cells with equal columns are one cell of their summed
mass, which leaves the law unchanged by the stability property of SaS
sums (Samorodnitsky & Taqqu, 1994, property 1.2.1; see ``_sim_layout``).
A one-harmonic rotating average draws isotropic SaS pairs, sub-Gaussian
with a positive stable mixing variable from Kanter's (1975) transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .io import spec_digest
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

def _count(value, name: str) -> int:
    """``value`` as an int, once it is a Python or numpy integer (not a bool);
    ValueError naming ``name`` otherwise, so 2.5 paths are not silently 2."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _key(seed: int) -> np.uint64:
    """``seed`` as a Philox key, once it is an integer in [0, 2^64)."""
    seed = _count(seed, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.uint64(seed)


def philox(seed: int) -> np.random.Philox:
    """The Philox bit generator keyed by ``seed``, an integer in [0, 2^64)."""
    return np.random.Philox(key=_key(seed))


_M_MIN = 2.0 ** -54  # half the smallest positive uniform numpy draws


def _tan_and_sec2(x: np.ndarray, k: float, out: np.ndarray, tmp: np.ndarray) -> None:
    """out <- t = tan(k x) and tmp <- 1 + t^2, elementwise; ``tmp`` may be ``x``."""
    np.multiply(x, k, out=out)
    np.tan(out, out=out)
    np.multiply(out, out, out=tmp)
    tmp += 1.0


def _cms(u: np.ndarray, w: np.ndarray, alpha: float, out: np.ndarray,
         tmp: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of uniforms u on [0, 1) and standard
    exponentials w into standard SaS variables, written into ``out``:

        X = sin(aV) / cos(V)^(1/a) * (cos((1 - a)V) / w)^((1 - a)/a),

    with V = (u - 1/2) pi uniform on (-pi/2, pi/2).  ``u``, ``w`` and the
    scratch ``tmp`` are overwritten; all four arrays have one shape.

    Each trigonometric value comes from a half-angle tangent, which numpy
    vectorizes where it does not vectorize sin and cos:
    - sin(aV) = 2s / (1 + s^2), s = tan(aV/2);
    - cos((1 - a)V) = (1 - c)(1 + c) / (1 + c^2), c = tan((1 - a)V/2), so
      |c| < 1 for 0 < a <= 2 and the base of the power stays positive;
    - cos V = sin(pi m) = 2 tau / (1 + tau^2), m = min(u, 1 - u) and
      tau = tan(pi m / 2).  Near u = 0 or 1 this keeps cos V to a few ulps,
      where cos((u - 1/2) pi) loses the about 2e-16 absolute rounding of
      its argument.  m = 1/2 - |u - 1/2|, exact for numpy's uniforms
      (multiples of 2^-53).
    So a draw is within a few ulps of the formula, except near u = 0 or 1
    at alpha close to 2, where sin(aV) and cos((1 - a)V) both tend to 0 and
    still carry V's rounding: at alpha = 2, up to about 2e-10 relative on
    2^20 draws.  At alpha = 1 the draw is the Cauchy tan(V).

    The two powers stay separate: folding cos V into w underflows at small
    w.  Two clamps keep both bases positive: w >= 1e-300, and m >= 2^-54,
    half the smallest positive uniform, so u = 0 reads as m = 2^-54.  A
    draw is infinite only where the clamped formula leaves the float range
    (alpha = 1/2, u = 0 and w = 0: about -1.6e331)."""
    np.subtract(u, 0.5, out=u)                      # V / pi
    np.maximum(w, 1e-300, out=w)
    _tan_and_sec2(u, np.pi * (1.0 - alpha) / 2, out, tmp)    # c, 1 + c^2
    w *= tmp
    np.subtract(1.0, out, out=tmp)
    out += 1.0
    out *= tmp
    np.divide(out, w, out=w)
    w **= (1.0 - alpha) / alpha                     # (cos((1 - a)V) / w)^((1 - a)/a)
    np.abs(u, out=tmp)
    np.subtract(0.5, tmp, out=tmp)
    np.maximum(tmp, _M_MIN, out=tmp)                # m
    _tan_and_sec2(tmp, np.pi / 2, out, tmp)         # tau, 1 + tau^2
    out /= tmp
    out *= 2.0
    out **= 1.0 / alpha                             # cos(V)^(1/a)
    w /= out
    _tan_and_sec2(u, np.pi * alpha / 2, out, tmp)   # s, 1 + s^2
    out /= tmp
    out *= 2.0
    out *= w
    return out


def _kanter(u: np.ndarray, w: np.ndarray, rho: float, out: np.ndarray) -> np.ndarray:
    """Kanter's (1975) transform of uniforms u on [0, 1) and standard
    exponentials w into positive rho-stable variables A with
    E exp(-sA) = exp(-s^rho), 0 < rho < 1, written into ``out``:

        A = sin(rho U) / sin(U)^(1/rho) * (sin((1 - rho)U) / w)^((1 - rho)/rho),

    with U = pi u.  ``u`` and ``w`` are overwritten; all three arrays have
    one shape.  It is evaluated as B^(1/rho), with the one base
    B = sin(rho U)^rho sin((1 - rho)U)^(1 - rho) / (sin U w^(1 - rho)), so A
    is 0 or infinite only where the clamped formula itself leaves the float
    range, not where one of its factors does (at rho = 1/4 it leaves it for
    every u once w <= 1e-300 or w = 1e300).  On 2^20 draws A is within
    3e-15 of the formula at rho 1/4, 1/2, 5/8, 3/4 and 0.95.  sin U is
    taken as sin(pi m), m = min(u, 1 - u), which keeps it to a few ulps
    near u = 1.  The clamps are those of ``_cms``: w >= 1e-300, and
    u >= 2^-54, which keeps U off 0."""
    np.maximum(u, _M_MIN, out=u)
    np.maximum(w, 1e-300, out=w)
    w **= 1.0 - rho
    np.multiply(u, np.pi * (1.0 - rho), out=out)
    np.sin(out, out=out)
    out **= 1.0 - rho
    np.divide(out, w, out=w)                        # (sin((1 - rho)U) / w)^(1 - rho)
    np.multiply(u, np.pi * rho, out=out)
    np.sin(out, out=out)
    out **= rho
    w *= out
    u -= 0.5
    np.abs(u, out=u)
    np.subtract(0.5, u, out=u)                      # m
    u *= np.pi
    np.sin(u, out=u)                                # sin U
    np.divide(w, u, out=out)                        # B
    out **= 1.0 / rho
    return out


def _sas_pairs(gen: np.random.Generator, alpha: float, out: np.ndarray, u: np.ndarray,
               w: np.ndarray, tmp: np.ndarray) -> None:
    """Isotropic standard SaS pairs, CF exp(-|theta|^alpha), written into
    ``out``: pair p at out[2p] and out[2p + 1].  A pair is sub-Gaussian,
    sqrt(2A) (Z_1, Z_2) with A positive alpha/2-stable and Z_1, Z_2
    standard normal (Samorodnitsky & Taqqu, 1994, section 2.5), since
    E exp(-A |theta|^2) = exp(-|theta|^alpha).  ``gen`` draws u.size
    uniforms into u, u.size exponentials into w, which ``_kanter`` turns
    into A, then 2 u.size standard normals into out.  u, w and tmp hold
    half as many values as out, and all three are overwritten."""
    gen.random(out=u)
    gen.standard_exponential(out=w)
    gen.standard_normal(out=out)
    _kanter(u, w, 0.5 * alpha, tmp)
    tmp *= 2.0
    np.sqrt(tmp, out=tmp)
    pairs = out.reshape(-1, 2)
    pairs *= tmp[:, None]


def sample_standard_sas(alpha: float, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. standard SaS variables (CF exp(-|theta|^alpha)),
    deterministic in (seed, n): n uniforms, then n exponentials, from
    ``philox(seed)``.

    For alpha = 2 the output is centered Gaussian with variance 2; for
    alpha = 1 it is standard Cauchy.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    n = _count(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = np.random.Generator(philox(seed))
    return _cms(gen.random(n), gen.standard_exponential(n), alpha, np.empty(n), np.empty(n))


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


_BLOCK_CELLS = 1 << 16  # cells per row block of the oracle integrand


def _row_blocks(points, shape: tuple[int, ...], block_cells: int):
    """(points, rows) of each row block of a ``cf_cells`` or ``sim_cells``
    grid: runs of about ``block_cells`` cells of the radial rows of a
    two-coordinate grid, or the whole array of a shift grid.  Coordinate
    arrays whose leading axis is the row axis are sliced; the shift row is
    passed whole."""
    if not isinstance(points, tuple):
        yield points, slice(None)
        return
    n_rows = shape[0]
    step = max(1, block_cells // max(shape[1], 1))  # chentsov's cells at times {0}: none
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
    every combo, at one refinement level, in the calling process.

    Combos with equal ``kernel.cf_grid_key`` share one grid, built once.  A
    combo's integrand is built row block by row block (``_row_blocks``) in
    one array shaped like the masses: per block, ``kernel.combination``
    writes sum_j theta_j K(t_j, .) over the nonzero-theta terms, then the
    absolute value, the power and the masses are applied in place.  Nothing
    is shared between combos but the grid, so every value equals the one a
    batch of that combo alone gives.
    """
    if _count(level, "level") < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    combos = tuple(combos)
    groups: dict = {}
    for i, c in enumerate(combos):
        groups.setdefault(kernel.cf_grid_key(c.times), []).append(i)
    values = [0.0] * len(combos)
    for members in groups.values():
        pts, masses = kernel.cf_cells(combos[members[0]].times, level)
        blocks = list(_row_blocks(pts, masses.shape, _BLOCK_CELLS))
        out = np.empty(masses.shape)
        for i in members:
            terms = [(theta, t) for theta, t in combos[i].terms if theta != 0.0]
            for bpts, rows in blocks:
                o = out[rows]
                kernel.combination(terms, bpts, o)
                _abs_power(o, kernel.alpha)
                o *= masses[rows]
            values[i] = pairwise_sum(out.ravel())
    n_evals = sum(theta != 0.0 for c in combos for theta, _ in c.terms)
    return CfBatch(tuple(values), len(groups), n_evals)


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


_HASH_BLOCK = 1 << 16  # kernel-matrix entries hashed or compared at a time
_LAYOUT_BLOCK = 1 << 20  # kernel-matrix entries of a row block of _sim_layout
_SPLITMIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_TIME_SALT = np.uint64(0x9E3779B97F4A7C15)


def _spans(n_rows: int, row_size: int):
    """Slices of about ``_HASH_BLOCK`` entries over ``n_rows`` rows of ``row_size``."""
    step = max(1, _HASH_BLOCK // max(row_size, 1))
    return [slice(r, r + step) for r in range(0, n_rows, step)]


def _column_hash(columns: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of ``columns`` (a uint64 view of kernel
    columns, one per row): the sum mod 2^64 over times j of splitmix64's
    finalizer of the entry xor a constant of j.  The finalizer spreads every
    input bit over all 64, so columns that differ only in the top bits of a
    value (chentsov's 0 and +-1) still hash apart."""
    salt = _TIME_SALT * np.arange(1, columns.shape[1] + 1, dtype=np.uint64)
    h = np.empty(columns.shape[0], np.uint64)
    for rows in _spans(*columns.shape):
        x = columns[rows] ^ salt
        for m in _SPLITMIX:
            x ^= x >> np.uint64(30)
            x *= m
        x ^= x >> np.uint64(31)
        x.sum(axis=1, out=h[rows])
    return h


def _first_equal(columns: np.ndarray) -> np.ndarray:
    """For each row of ``columns`` (a uint64 view), the index of the first row
    equal to it.  Rows are matched by ``_column_hash``, and each match is
    confirmed entry by entry; where rows share a hash but not their bytes,
    the rows of those hashes are matched anew by a sort of their bytes."""
    _, first, label = np.unique(_column_hash(columns), return_index=True, return_inverse=True)
    head = first[label]
    dup = np.flatnonzero(head != np.arange(head.size))
    same = np.empty(dup.size, dtype=bool)
    for rows in _spans(dup.size, columns.shape[1]):
        np.all(columns[dup[rows]] == columns[head[dup[rows]]], axis=1, out=same[rows])
    if not same.all():
        hit = np.flatnonzero(np.isin(label, label[dup[~same]]))
        keys = columns[hit].view(np.dtype((np.void, 8 * columns.shape[1]))).ravel()
        _, first, label = np.unique(keys, return_index=True, return_inverse=True)
        head[hit] = hit[first[label]]
    return head


class _SimLayout(NamedTuple):
    """What ``simulate`` reduces its draws against, and the counts behind it."""

    kT: np.ndarray   # weighted kernel columns, one row per draw, (n_columns, n_times)
    n_cells: int     # cells of ``kernel.sim_grid``
    n_live: int      # cells with a nonzero weighted kernel at some grid time
    n_columns: int   # rows of kT: distinct live columns, or the cells of live pairs


def _sim_layout(kernel: Kernel, t: np.ndarray, level: int) -> _SimLayout:
    """The simulation layout of ``kernel`` on the time grid ``t``.

    The cells are ``kernel.sim_cells`` of the grid, taken
    in row blocks of about ``_LAYOUT_BLOCK`` kernel-matrix entries
    (``_row_blocks``).  On each block every K(t_j, .) is evaluated on the
    factored points (``kernel.evals``, one F(0, .) a block) and raveled,
    with the masses, in C order: the cell order of ``kernel.sim_grid``.  A
    cell is live where K(t_j, cell) mass^{1/alpha} is nonzero at some grid
    time.  Only a block's live columns are kept, written straight into kT:
    no kernel matrix over all the cells is filled, and no cell is evaluated
    twice.  Live cells whose
    unweighted columns K(t_., cell) are equal byte for byte become one
    column: that of their first cell, weighted by (sum of their
    masses)^{1/alpha}.  For independent standard SaS S_1, S_2 and S,
    S_1 m_1^{1/alpha} + S_2 m_2^{1/alpha} has the law of
    S (m_1 + m_2)^{1/alpha} (Samorodnitsky & Taqqu, 1994, property 1.2.1),
    so every finite-dimensional law of the simulated sum stays that of one
    weight per cell.  Columns come in the order of their first cells.
    Where the kernel draws pairs (``kernel._sim_pairs()``), a pair is live
    where either of its cells is, and no cells are merged."""
    points, masses = kernel.sim_cells(t, level)
    weights = masses ** (1.0 / kernel.alpha)
    pairs = kernel._sim_pairs()
    # a row for every cell, but only live columns are written, and a page
    # never written takes no memory
    kT = np.empty((masses.size, t.size))
    cells, n_live, n_kept, start = [], 0, 0, 0
    for block, rows in _row_blocks(points, masses.shape, _LAYOUT_BLOCK // t.size):
        w = weights[rows].ravel()
        kmat = np.empty((t.size, w.size))
        live = np.zeros(w.size, dtype=bool)
        for j, k_t in enumerate(kernel.evals(t.tolist(), block)):
            k_t = k_t.ravel()
            kmat[j] = k_t
            k_t *= w
            live |= k_t != 0.0
        n_live += int(live.sum())
        if pairs:  # a pair is drawn whole: live where either of its cells is
            live = np.repeat(live.reshape(-1, 2).any(axis=1), 2)
        kept = np.flatnonzero(live)
        np.take(kmat.T, kept, axis=0, out=kT[n_kept:n_kept + kept.size], mode="clip")
        cells.append(start + kept)
        n_kept += kept.size
        start += w.size
    del kmat, k_t  # else the last block stays allocated through the grouping
    cells, masses, weights = np.concatenate(cells), masses.ravel(), weights.ravel()
    kT = kT[:n_kept]
    if pairs:
        weights = weights[cells]
    else:
        first, group = np.unique(_first_equal(kT.view(np.uint64)), return_inverse=True)
        weights = np.bincount(group, weights=masses[cells]) ** (1.0 / kernel.alpha)
        if first.size < cells.size:
            kT = kT[first]
    kT *= weights[:, None]
    return _SimLayout(kT, masses.size, n_live, kT.shape[0])


def simulate(kernel: Kernel, times: Sequence[float], n_paths: int, seed: int,
             level: int = 1, threads: int = 1) -> PathEnsemble:
    """Simulate sample paths of the kernel's process on a time grid.

    X_t is realized as a sum over the columns of ``_sim_layout``,
    K(t, cell) * mass^{1/alpha} * S, with i.i.d. standard SaS weights S, or
    i.i.d. isotropic pairs of them (below), drawn from a per-path
    counter-based stream.  A column stands for the live cells whose kernel
    columns over the grid are equal, drawn as one cell of their summed mass:
    every finite-dimensional law of the sum is that of one weight per cell.
    The joint CF of the output converges to exp(-cf_exponent) as n_paths
    grows and the cell grid refines.  Row i depends only on (seed, i),
    never on thread scheduling, for a given OpenBLAS thread count (see the
    module docstring).

    Path i draws from the stream of ``philox(seed).jumped(i)``, built
    directly as the Philox of key seed and counter (0, 0, i, 0).  It takes
    one uniform per column, in column order (the order of each column's
    first cell), then one exponential per column.  Dead cells, whose
    weighted kernel is 0 at every grid time, take no draws.  Where the
    kernel draws pairs (``kernel._sim_pairs()``: one-harmonic rotating
    averages, whose shift integral is closed form), path i takes one
    uniform per live pair, then one exponential per live pair, then two
    standard normals per live pair (``_sas_pairs``).  A draw thus depends
    on which cells are live and which columns are equal, and ensembles of
    one seed on two grids over the same window share one realization only
    when the grids give the same layout.  Each worker has one set of draw
    buffers, made in the calling thread, and ``_cms`` or ``_sas_pairs``
    writes each path's weights straight into the chunk's row, so no path
    or chunk allocates.  Each chunk of
    ``_PATH_CHUNK`` paths is reduced by one matrix product of fixed shape,
    zero-padded past the last path, so a row's arithmetic does not depend on
    n_paths or on the worker count.  The chunks run on a pool of
    ``threads`` workers, or in the calling thread when ``threads`` is 1.
    """
    t = _grid(times, 1)
    n_paths = _count(n_paths, "n_paths")
    if n_paths < 0:
        raise ValueError(f"n_paths must be nonnegative, got {n_paths}")
    if _count(threads, "threads") < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if _count(level, "level") < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    key = _key(seed)
    pairs = kernel._sim_pairs()
    kT = _sim_layout(kernel, t, level).kT

    values = np.empty((n_paths, t.size))
    chunks = [(lo, min(lo + _PATH_CHUNK, n_paths)) for lo in range(0, n_paths, _PATH_CHUNK)]
    n_columns = kT.shape[0]
    n_draws = n_columns // 2 if pairs else n_columns
    # One set of buffers per worker, allocated here in the calling thread:
    # a buffer made in a pool thread lands in that thread's malloc arena,
    # which keeps it resident after the call, and whether the next call's
    # threads find that arena free depends on when the old threads exit,
    # so peak RSS would step by whole buffers from one run to the next.  At
    # most ``threads`` chunks run at once, so a chunk always finds a set.
    free = [(np.zeros((_PATH_CHUNK, n_columns)), np.empty((_PATH_CHUNK, t.size)),
             np.empty(n_draws), np.empty(n_draws), np.empty(n_draws))
            for _ in range(min(threads, len(chunks)))]

    def fill(chunk: tuple[int, int]) -> None:
        lo, hi = chunk
        S, prod, u, w, tmp = free.pop()
        S[hi - lo:] = 0.0  # padding rows; a draw fills its whole row
        for i in range(lo, hi):
            # the stream of philox(seed).jumped(i), at about half its cost
            gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, i, 0]))
            if pairs:
                _sas_pairs(gen, kernel.alpha, S[i - lo], u, w, tmp)
            else:
                gen.random(out=u)
                gen.standard_exponential(out=w)
                _cms(u, w, kernel.alpha, S[i - lo], tmp)
        # always the full chunk shape: a product with fewer rows may take
        # another BLAS kernel (one row goes through gemv) and round differently
        np.matmul(S, kT, out=prod)
        values[lo:hi] = prod[:hi - lo]
        free.append((S, prod, u, w, tmp))

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
