"""Process families, each its own spectral kernel, and the well-posedness
region of the truncated-fractional family.

Every family writes X_t as the integral of an increment kernel K(t, .)
against an independently scattered SaS random measure on its state space,
with X_0 = 0 (Samorodnitsky & Taqqu, 1994).  A family is one frozen
dataclass deriving from ``Kernel``: its fields are the parameters, and it
carries the admissibility inequalities (``violations``), the Hurst exponent,
the field of its kernel (``field``), the control-measure discretizations
used for quadrature (``cf_cells``) and path simulation (``sim_cells``), its
JSON document (``to_doc`` / ``from_doc``), the stationary flow of its
Masani form (``flow``), the scaling flow of its lag kernel
(``scaling_maps``) and, where the family has one, its test of equality in
law with another spec (``same_law``).  ``FAMILIES`` registers every family
by name.

Every family's kernel has the Masani form K(t, .) = F(t, .) - F(0, .) of a
stationary-increment process: the family implements the field F(t, .) once,
and ``Kernel`` derives ``eval``, ``evals`` and the oracle's ``combination``
from it.

Both discretizations are functions of (times, level): ``cf_cells`` of the
probe times, ``sim_cells`` of the simulation grid, of which every family
reads only the window [min(*times, 0), max(*times, 0)] so far.  The oracle
cells of the two indicator kernels, linear motion and chentsov, are exact
(one cell per region on which the kernel is constant) and do not depend on
the level.

Both discretizations share one cell layout.  On the shift families the
points are an array of shifts.  Every two-coordinate family is a mixed
moving average over (radial or atom coordinate, shift), and its points are
a pair of coordinate arrays that broadcast to the 2-d mass array: radial
nodes down, shift nodes across.  Most of these cells are a product, one
radial column for every shift; the radial nodes may also vary by shift
column, as in the truncated family's ``cf_cells``, which splits each
column's radial axis at that column's own kinks, or be one row of cells, as
in chentsov's ``cf_cells``.  ``cf_grid`` and ``sim_grid`` are the same
cells flattened to one mass per cell in C order, with each coordinate
raveled alike: still a pair, of two 1-d arrays.  ``field``, ``eval`` and ``flow`` take either
layout, since both unpack as x, s = points.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
import sys
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .quadrature import (
    cells_from_edges,
    pairwise_sum,
    power_law_cells,
    shell_tail,
    shift_partition,
    subdivided_power_cells,
)


class InvalidSpecError(ValueError):
    """Raised when a family spec violates its parameter domain."""


@dataclass(frozen=True)
class FourierSeries:
    """Finite real Fourier series sum_k (cos_k * cos(k s) + sin_k * sin(k s)) + constant."""

    terms: tuple[tuple[int, float, float], ...]  # (harmonic k >= 1, cos coeff, sin coeff)
    constant: float = 0.0

    def __post_init__(self):
        for i, (k, _, _) in enumerate(self.terms):
            if int(k) != k or k < 1:
                raise InvalidSpecError(f"spec field 'harmonics[{i}].k' must be a positive "
                                       f"integer, got {k!r}")

    def active_harmonics(self) -> tuple[int, ...]:
        return tuple(int(k) for k, a, b in self.terms if a != 0.0 or b != 0.0)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, self.constant, dtype=float)
        for k, a, b in self.terms:
            if a != 0.0:
                out += a * np.cos(k * s)
            if b != 0.0:
                out += b * np.sin(k * s)
        return out


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    hurst: float | None
    violations: tuple[str, ...]


# ---------------------------------------------------------------------------
# the family base class
# ---------------------------------------------------------------------------

class Kernel(ABC):
    """Increment kernel K(t, u) of a family paired with control-measure
    discretizations.  Points u are scalar shifts, or (radial, shift) pairs on
    two-coordinate state spaces."""

    label: ClassVar[str]  # family name: the "family" of its JSON document
    # the paths of its JSON document that hold a list or object, with each
    # list index written "[]"; every other field holds a number
    doc_containers: ClassVar[frozenset[str]] = frozenset()
    alpha: float

    def violations(self) -> Iterator[str]:
        """Yield every violated admissibility inequality, by name."""
        if not (0.0 < self.alpha < 2.0):
            yield f"requires 0 < alpha < 2, got alpha={self.alpha}"

    def hurst_exponent(self) -> float | None:
        """Self-similarity exponent of an admissible spec; None if it has none."""
        return None

    @abstractmethod
    def field(self, t: float, points) -> np.ndarray:
        """F(t, point) for every point, the field of the Masani form
        K(t, .) = F(t, .) - F(0, .).  ``points`` are shifts, or on
        two-coordinate spaces a (radial, shift) pair unpacked as
        x, s = points: the broadcastable pair of ``cf_cells`` / ``sim_cells``
        (the result has the shape of the masses) or the flat pair of
        ``cf_grid`` / ``sim_grid`` (one value per cell).  The result is a new
        array, which the caller may overwrite."""

    def eval(self, t: float, points) -> np.ndarray:
        """K(t, point) = F(t, point) - F(0, point) for every point, in the
        layout of ``field``: the one-time case of ``evals``."""
        return next(self.evals((t,), points))

    def evals(self, times: Iterable[float], points) -> Iterator[np.ndarray]:
        """K(t, .) = F(t, .) - F(0, .) on ``points`` for each of ``times`` in
        turn, with F(0, .) evaluated once for all of them and subtracted in
        place."""
        f0 = self.field(0.0, points)
        for t in times:
            k_t = self.field(t, points)
            k_t -= f0
            yield k_t

    def combination(self, terms: Sequence[tuple[float, float]], points, out: np.ndarray) -> None:
        """sum_j theta_j K(t_j, .) over the (theta, t) ``terms`` on a row block
        of ``cf_cells`` points, written into ``out`` (shaped like the block's
        masses; 0 for no terms).  The fields come from one ``evals`` call and
        are scaled and added in the order of ``terms``.  A family whose
        ``cf_cells`` integrate a coordinate in closed form writes instead what
        its ``|.|^alpha`` times those masses integrates against."""
        if not terms:
            out.fill(0.0)
        for j, ((theta, _), v) in enumerate(zip(terms, self.evals([t for _, t in terms], points))):
            if j == 0:
                np.multiply(theta, v, out=out)
            else:
                v *= theta
                out += v

    @abstractmethod
    def cf_cells(self, times: Sequence[float], level: int) -> tuple:
        """Quadrature cells (points, masses) adapted to the probe times: kinks
        and singular shifts land on cell edges.  The two indicator kernels
        (linear motion and chentsov) are constant on finitely many regions
        that the times fix; their cells are those regions, exact, and the
        same at every level.  On two-coordinate state
        spaces the points are a pair of coordinate arrays that broadcast to
        the shape of ``masses`` (radial nodes down, shift nodes across), so a
        kernel evaluation never materializes one row per cell.  The radial
        nodes are one column shared by every shift, or a 2-d array whose
        nodes vary by shift column; the shift nodes are one row."""

    def cf_grid(self, times: Sequence[float], level: int) -> tuple[np.ndarray, np.ndarray]:
        """The cells of ``cf_cells`` flattened: one mass per cell and its
        point, a shift or an entry of each (radial, shift) coordinate row."""
        return _flat_cells(*self.cf_cells(times, level))

    def cf_grid_key(self, times: Sequence[float]):
        """Probes whose times give equal keys share one ``cf_cells`` grid; the
        grids of every family depend on the set of probe times only."""
        return frozenset(times)

    @abstractmethod
    def sim_cells(self, times: Sequence[float], level: int) -> tuple:
        """Simulation cells (points, masses) for the time grid ``times``, in
        the layout of ``cf_cells``.  Every family's cells cover the window
        [min(*times, 0), max(*times, 0)] and read no more of the grid than
        that window."""

    def sim_grid(self, t_lo: float, t_hi: float, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The cells of ``sim_cells((t_lo, t_hi), level)`` flattened as in
        ``cf_grid``, in the cell order of ``core.simulate``: the window-only
        view that the benchmark's counts read, kept until the simulation
        layouts read more of the grid than its window."""
        return _flat_cells(*self.sim_cells((t_lo, t_hi), level))

    def _sim_pairs(self) -> bool:
        """Whether ``core.simulate`` draws the cells of ``sim_grid`` in pairs:
        cells 2p and 2p + 1 read the cos and the sin coefficient of one
        harmonic of a circle shift coordinate [0, 2 pi), and their weights
        are one isotropic SaS pair with CF exp(-|theta|^alpha), not two
        independent ones."""
        return False

    def flow(self, t: float, points):
        """phi_t(points), the stationary flow of the Masani form:
        F(t, p) = F(0, phi_t p), with unit cocycle and unit Radon-Nikodym
        derivative, on every point layout of ``field``.  The default
        translates the shift coordinate of a (radial, shift) pair by -t.
        ``verify.flow_identity_fixture`` checks it."""
        x, s = points
        return x, s - t

    def same_law(self, other: Kernel) -> dict:
        """The ``identify`` document comparing this spec with ``other`` in
        law: "kind", "equal_in_law" and the family's evidence.  Raises
        ValueError for a pair of families with no comparison."""
        raise ValueError("identify supports two mixed_lfsm specs or two rotating_average specs")

    def scaling_maps(self) -> tuple | None:
        """The scaling flow psi_c(x, s) = (c^g x, c^h s) of the lag kernel
        f_T(x, s) = K(T, (x, -s)) as (xs, radial_exponent, g, h), or None if the
        family declares none.  xs are test points of the radial or atom
        coordinate (None without one) and radial_exponent the exponent e of the
        radial density x**e (None for an atomic or absent coordinate).
        ``verify.check_scaling_maps`` derives beta1 and beta2 from them."""
        return None

    def to_doc(self) -> dict:
        """JSON document: the family name and every parameter."""
        return {"family": self.label, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_doc(cls, doc) -> Kernel:
        """Spec of a JSON document; ``Kernel.from_doc`` reads any registered family.

        Outside input is checked here, once: besides "family" and the
        family's ``doc_containers``, every value must be a finite number (JSON
        integers are kept as given, so digests do not change), and every field
        must also be one of the spec's own ``to_doc``, so that loading drops
        nothing.  Anything else raises InvalidSpecError naming the field."""
        if not isinstance(doc, dict):
            raise InvalidSpecError(f"spec document must be a JSON object, got {type(doc).__name__}")
        name = doc.get("family")
        family = FAMILIES.get(name) if isinstance(name, str) else None
        if family is None or not issubclass(family, cls):
            raise InvalidSpecError(f"unknown family {name!r}")
        for path, value in _doc_fields(doc):
            if isinstance(value, (dict, list, tuple)):
                if re.sub(r"\[\d+\]", "[]", path) in family.doc_containers:
                    continue
            elif path == "family" or (not isinstance(value, bool)
                                      and isinstance(value, numbers.Real)
                                      # finite as a float: no nan, inf or int past 1.8e308
                                      and abs(value) <= sys.float_info.max):
                continue
            raise InvalidSpecError(f"spec field {path!r} must be a finite number, got {value!r}")
        try:
            spec = family(**family._fields_from_doc(doc))
        except KeyError as exc:
            raise InvalidSpecError(f"spec document missing field {exc}") from exc
        except (TypeError, IndexError) as exc:
            raise InvalidSpecError(f"malformed {name} spec document: {exc}") from exc
        known = dict(_doc_fields(spec.to_doc()))
        for path, _ in _doc_fields(doc):
            if path not in known:
                raise InvalidSpecError(f"unknown spec field {path!r}")
        return spec

    @classmethod
    def _fields_from_doc(cls, doc: dict) -> dict:
        return {f.name: doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
                for f in fields(cls)}


def _doc_fields(value, path: str = "") -> Iterator[tuple[str, object]]:
    """(path, value) of every field below the root of a JSON document, depth
    first, with paths like 'atoms[0].b[1]'."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, v) for key, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        items = []
    for sub, v in items:
        yield sub, v
        yield from _doc_fields(v, sub)


# ---------------------------------------------------------------------------
# kernel evaluation primitives and shared grids
# ---------------------------------------------------------------------------

def _power_plus(u: np.ndarray, g: float) -> np.ndarray:
    # u_+^g with the convention 0^g := 0 also for g < 0
    out = np.zeros_like(u)
    pos = u > 0.0
    out[pos] = u[pos] ** g
    return out


def _two_sided(u: np.ndarray, g: float, c_plus: float, c_minus: float) -> np.ndarray:
    # c_plus u_+^g + c_minus u_-^g; a zero coefficient's term is skipped, not
    # multiplied, since 0 * inf^g is nan at u = +-inf for g > 0
    out = np.zeros_like(u)
    if c_plus != 0.0:
        out += c_plus * _power_plus(u, g)
    if c_minus != 0.0:
        out += c_minus * _power_plus(-u, g)
    return out


def _trunc_f(u: np.ndarray, p: np.ndarray, a: float) -> np.ndarray:
    # u_+^a ^ p^a with 0^a := 0, for either sign of a; the powers are taken on
    # u and p separately, so broadcast (radial, shift) factors stay cheap
    return np.minimum(p ** a, _power_plus(u, a))


def _power_hurst_violations(alpha: float, hurst: float) -> Iterator[str]:
    if not (0.0 < hurst < 1.0):
        yield f"requires 0 < H < 1, got H={hurst}"
    elif alpha > 0.0 and abs(hurst - 1.0 / alpha) < 1e-12:
        yield ("H = 1/alpha degenerates the power kernel; "
               "use LinearMotion or LogFractional for that exponent")


def _shift_cf_edges(times: Sequence[float], level: int) -> np.ndarray:
    """Shift partition of the moving-average families, graded at every probe time."""
    return shift_partition(sorted(set(times) | {0.0}), level, 1e3 * 10.0 ** level)


def _shift_sim_edges(times: Sequence[float], level: int) -> np.ndarray:
    """Uniform core over the padded window [min(*times, 0), max(*times, 0)]
    and geometric tails out to 1e3 * 4**level."""
    lo, hi = min(*times, 0.0), max(*times, 0.0)
    pad = max(hi - lo, 1.0)
    core = np.linspace(lo - 0.25 * pad, hi + 0.25 * pad, 256 * 2 ** level + 1)
    reach = 1e3 * 4.0 ** level
    ndec = max(2, int(np.ceil(np.log10(reach / (0.25 * pad)) * 8)))
    left = core[0] - np.geomspace(reach, 0.25 * pad, ndec + 1) + 0.25 * pad
    right = core[-1] + np.geomspace(0.25 * pad, reach, ndec + 1) - 0.25 * pad
    # the tails' inner edges can miss the core's ends by an ulp, which would
    # leave a sliver cell next to each end
    left[-1], right[0] = core[0], core[-1]
    return np.unique(np.concatenate([left, core, right]))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1] as (nodes, weights), read-only
    since they are shared."""
    # imported on use: numpy.polynomial costs about 4 ms of import time
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(n)
    for c in rule:
        c.setflags(write=False)
    return rule


def _circle_moment(alpha: float) -> float:
    """c_alpha = int_0^{2 pi} |cos s|^alpha ds = 2 sqrt(pi) Gamma((alpha + 1)/2) / Gamma(alpha/2 + 1)."""
    return 2.0 * math.sqrt(math.pi) * math.gamma(0.5 * (alpha + 1.0)) / math.gamma(0.5 * alpha + 1.0)


def _product_cells(radial: tuple[np.ndarray, np.ndarray], shift_edges: np.ndarray):
    """Product of radial cells and shift cells in the factored layout of
    ``cf_cells`` and ``sim_cells``."""
    r_nodes, r_mass = radial
    s_nodes, s_w = cells_from_edges(shift_edges)
    return (r_nodes[:, None], s_nodes[None, :]), np.multiply.outer(r_mass, s_w)


def _flat_cells(points, masses) -> tuple[np.ndarray, np.ndarray]:
    """Cells with one mass each: a 2-d mass array is raveled in C order, and
    each coordinate of a pair alike, into the two rows of one array."""
    if not isinstance(points, tuple):
        return points, masses
    return np.stack([np.broadcast_to(c, masses.shape).ravel() for c in points]), masses.ravel()


def _circle_sim_edges(level: int) -> np.ndarray:
    """Edges of the 64 * 2^level uniform simulation cells of the circle [0, 2 pi)."""
    return np.linspace(0.0, 2.0 * np.pi, 64 * 2 ** level + 1)


_RADIAL_TEST_POINTS = tuple(np.geomspace(0.05, 20.0, 8))  # radial points of scaling_maps


# -- moving-average families (state space R, Lebesgue control measure) -----

class _ShiftFamily(Kernel):
    """F(t, s) = f(t - s) for the moving-average profile f = ``self.profile``."""

    def field(self, t, s):
        return self.profile(t - s)

    def flow(self, t, s):
        return s - t

    def cf_cells(self, times, level):
        return cells_from_edges(_shift_cf_edges(times, level))

    def sim_cells(self, times, level):
        return cells_from_edges(_shift_sim_edges(times, level))

    def scaling_maps(self):
        return None, None, 0.0, 1.0


@dataclass(frozen=True)
class Lfsm(_ShiftFamily):
    """Linear fractional stable motion with kernel weights on the two power tails."""

    label = "lfsm"
    alpha: float
    hurst: float
    c_plus: float = 1.0
    c_minus: float = 0.0

    def violations(self):
        yield from super().violations()
        yield from _power_hurst_violations(self.alpha, self.hurst)
        if self.c_plus == 0.0 and self.c_minus == 0.0:
            yield "requires (c_plus, c_minus) != (0, 0)"

    def hurst_exponent(self):
        return self.hurst

    def profile(self, u):
        return _two_sided(u, self.hurst - 1.0 / self.alpha, self.c_plus, self.c_minus)


@dataclass(frozen=True)
class LinearMotion(_ShiftFamily):
    """Moving-average form of the linear SaS motion (H = 1/alpha)."""

    label = "linear_motion"
    alpha: float
    c_plus: float = 1.0
    c_minus: float = 0.0

    def violations(self):
        yield from super().violations()
        if self.c_plus == self.c_minus:
            yield ("requires c_plus != c_minus (the increment kernel is "
                   "(c_plus - c_minus) times an indicator)")

    def hurst_exponent(self):
        return 1.0 / self.alpha

    def profile(self, u):
        """Lfsm's profile at H = 1/alpha, where g = 0: u_+^0 is the indicator
        of u > 0, also at u = +inf."""
        return _two_sided(u, 0.0, self.c_plus, self.c_minus)

    def cf_cells(self, times, level):
        """The intervals between consecutive points of sorted(times | {0}), at
        every level: K(t, .) is constant on each of them for every probe
        time t, and 0 outside them for either sign of c_plus and c_minus."""
        return cells_from_edges(np.array(sorted({*times, 0.0})))


@dataclass(frozen=True)
class LogFractional(_ShiftFamily):
    """Logarithmic-kernel motion, the second H = 1/alpha family."""

    label = "log_fractional"
    alpha: float
    scale: float = 1.0

    def violations(self):
        yield from super().violations()
        if self.alpha <= 1.0:
            yield (f"log kernel is alpha-integrable at infinity only for alpha > 1, "
                   f"got alpha={self.alpha}")
        if self.scale == 0.0:
            yield "requires scale != 0"

    def hurst_exponent(self):
        return 1.0 / self.alpha

    def profile(self, u):
        out = np.zeros_like(u)
        nz = u != 0.0
        out[nz] = self.scale * np.log(np.abs(u[nz]))
        return out


# -- two-coordinate families: points are (radial or atom index, shift) ------

@dataclass(frozen=True)
class MixedLfsm(Kernel):
    """Mixture of LFSM kernels over a finite atomic mixing measure on R^2."""

    label = "mixed_lfsm"
    doc_containers = frozenset({"atoms", "atoms[]", "atoms[].b"})
    alpha: float
    hurst: float
    atoms: tuple[tuple[tuple[float, float], float], ...]  # ((b1, b2), weight)

    def violations(self):
        yield from super().violations()
        yield from _power_hurst_violations(self.alpha, self.hurst)
        if len(self.atoms) == 0:
            yield "requires at least one mixing atom"
        else:
            if all(b1 == 0.0 and b2 == 0.0 for (b1, b2), _ in self.atoms):
                yield "requires at least one atom with b != 0"
            if any(w <= 0.0 for _, w in self.atoms):
                yield "requires all atom weights > 0"

    def hurst_exponent(self):
        return self.hurst

    def field(self, t, pts):
        g = self.hurst - 1.0 / self.alpha
        b1 = np.array([b[0] for b, _ in self.atoms])
        b2 = np.array([b[1] for b, _ in self.atoms])
        idx, s = pts
        idx = idx.astype(int)
        u = t - s
        return b1[idx] * _power_plus(u, g) + b2[idx] * _power_plus(-u, g)

    def _atom_cells(self, shift_edges: np.ndarray):
        weights = np.array([w for _, w in self.atoms])
        return _product_cells((np.arange(len(self.atoms)), weights), shift_edges)

    def cf_cells(self, times, level):
        return self._atom_cells(_shift_cf_edges(times, level))

    def sim_cells(self, times, level):
        return self._atom_cells(_shift_sim_edges(times, level))

    def scaling_maps(self):
        return tuple(range(len(self.atoms))), None, 0.0, 1.0

    def same_law(self, other):
        if not isinstance(other, MixedLfsm):
            return super().same_law(other)
        # imported on use: loading a spec need not pay for identify's import
        from .identify import mixing_measure, ray_test, same_mixed_lfsm

        # an atom with b = 0 has kernel 0 and leaves the law as it is, and
        # the sphere has no direction for it
        q1, q2 = ([((b1, b2), w) for (b1, b2), w in spec.atoms if (b1, b2) != (0.0, 0.0)]
                  for spec in (self, other))
        if abs(self.alpha - other.alpha) > 1e-12 or abs(self.hurst - other.hurst) > 1e-12:
            equal = False
        else:
            equal = same_mixed_lfsm(q1, q2, self.alpha)
        return {"kind": "mixed_lfsm", "equal_in_law": equal,
                "sphere_measure_1": [{"direction": list(o), "weight": w}
                                     for o, w in mixing_measure(q1, self.alpha)],
                "sphere_measure_2": [{"direction": list(o), "weight": w}
                                     for o, w in mixing_measure(q2, other.alpha)],
                "ray_1": ray_test(q1), "ray_2": ray_test(q2)}

    def to_doc(self):
        return {**super().to_doc(),
                "atoms": [{"b": [b1, b2], "weight": w} for (b1, b2), w in self.atoms]}

    @classmethod
    def _fields_from_doc(cls, doc):
        atoms = tuple(((float(a["b"][0]), float(a["b"][1])), float(a["weight"]))
                      for a in doc["atoms"])
        return {"alpha": doc["alpha"], "hurst": doc["hurst"], "atoms": atoms}


@dataclass(frozen=True)
class TruncatedFractional(Kernel):
    """Truncated left power kernel with radial density p**(-1-b); H = (alpha*a - b + 1)/alpha."""

    label = "truncated_fractional"
    alpha: float
    a: float
    b: float

    def violations(self):
        yield from super().violations()
        if self.a == 0.0:
            yield "a = 0 is ill posed for every b (radial integral diverges)"
        elif self.a > 0.0 and self.alpha <= 1.0:
            yield (f"a > 0 requires alpha > 1 (region max(0, alpha*a-alpha+1) < b < alpha*a "
                   f"is empty), got alpha={self.alpha}")
        else:
            lo, hi, formula = _truncated_bounds(self.alpha, self.a)
            if not lo < self.b < hi:
                yield f"requires {formula}, i.e. {lo:.6g} < b < {hi:.6g}; got b={self.b}"

    def hurst_exponent(self):
        return (self.alpha * self.a - self.b + 1.0) / self.alpha

    def field(self, t, pts):
        p, s = pts
        return _trunc_f(t - s, p, self.a)

    def cf_cells(self, times, level):
        """Cells exact in the radial coordinate p outside the probe's kinks.

        At a shift node s the field F(T_j, (p, s)) = min(p^a, u_j^a) of each
        T_j of T = times | {0} kinks at u_j = T_j - s when u_j > 0, and is 0
        when u_j <= 0 (0^a := 0).  Below the first positive kink q every
        term is a constant times p^e, and so is every term above the last
        kink u_max, with e = a below and 0 above when a > 0, the other way
        round when a < 0.  So on each end interval |sum_j theta_j K|^alpha
        is |C|^alpha p^(alpha e) for every probe on these times, and one
        cell integrates it exactly against p^(-1-b) dp: its point p* lies
        inside the interval and its mass is
        w_s * int p^(alpha e - 1 - b) dp / p*^(alpha e).  The integrals are
        finite exactly where the spec is admissible (0 < b < alpha a for
        a > 0, alpha a < b < 0 for a < 0).  Each panel between consecutive
        positive kinks takes 4 * 2^max(level - 1, 0) Gauss-Legendre nodes
        in log p, of mass w_s * g_i * h * p_i^(-b) (g_i the weights on
        [-1, 1] and h half the panel's log length).

        Every column has 2 + (|T| - 1) n_g rows: the two end cells and the
        n_g nodes of one panel per pair of consecutive times of T.  A column
        with fewer distinct positive kinks (right of a probe time, or far
        out in the shift tail, where kinks meet in floating point) gives the
        rows of its missing panels to closed-form pieces
        (q 2^(r-1-L), q 2^(r-L)], r = 1..L, of its lower end, above a first
        piece (0, q 2^-L]: each is exact.  Radial points are down each
        column (an (n_r, n_s) array), and p increases down it; the shift
        nodes are one (1, n_s) row, so (t - s)_+^a is still taken once per
        shift column.

        The shift partition reaches 4e6 * 1e3^level and is cut at
        m = max(times, 0): for s >= m both (t - s)_+ and (-s)_+ are 0, so
        F(t, .) = F(0, .) = 0 and the cells right of m would add exact
        zeros only.  m is an edge of the partition unless the panel ending
        there was too narrow to keep; then the last cell ends at m instead,
        so every column has a positive kink."""
        a, b, alpha = self.a, self.b, self.alpha
        m = max(*times, 0.0)
        edges = shift_partition([*times, 0.0], level, 4e6 * 1e3 ** level, nodes_per_decade=10)
        s, w = cells_from_edges(np.append(edges[edges < m], m))
        kinks = np.array(sorted({*times, 0.0}))[:, None] - s  # ascending down each column
        n_t, n_s = kinks.shape
        cols = np.arange(n_s)
        n_g = 4 * 2 ** max(level - 1, 0)
        x, g = _gauss_legendre(n_g)
        q = kinks[(kinks <= 0.0).sum(axis=0), cols]  # the first positive kink
        u = np.maximum(kinks, q)
        # panels of log length 0 move to the front, onto q, and rows
        # 0..n_low of a column are its lower-end pieces
        empty = u[1:] == u[:-1]
        u = np.sort(np.vstack([u[:1], np.where(empty, q, u[1:])]), axis=0)
        n_low = empty.sum(axis=0) * n_g
        row = np.arange(1 + (n_t - 1) * n_g)[:, None]
        panel, node = divmod(np.maximum(row - 1, 0), n_g)
        lo = u[panel, cols]
        half = 0.5 * np.log(u[panel + 1, cols] / lo)
        p = lo * np.exp(half * (1.0 + x[node]))
        mass = g[node] * half * p ** -b
        e_lo, e_hi = (a, 0.0) if a > 0.0 else (0.0, a)
        c_lo, c_hi = alpha * e_lo - b, alpha * e_hi - b  # > 0 and < 0 where admissible
        low = row <= n_low
        top = q * 2.0 ** np.minimum(row - n_low, 0)
        p_low = top * np.where(row == 0, 0.5, math.sqrt(0.5))
        piece = np.where(row == 0, 1.0, -math.expm1(-c_lo * math.log(2.0)))  # of top^c_lo / c_lo
        p = np.where(low, p_low, p)
        mass = np.where(low, top ** c_lo * piece / c_lo / p_low ** (alpha * e_lo), mass)
        p_top = 2.0 * kinks[-1]
        mass_top = kinks[-1] ** c_hi / -c_hi / p_top ** (alpha * e_hi)
        return (np.vstack([p, p_top]), s[None, :]), np.vstack([mass, mass_top]) * w

    def sim_cells(self, times, level):
        p_hi = 1e4 * 10.0 ** level
        radial = power_law_cells(1e-4 * 0.1 ** level, p_hi, 8 + 2 * level, -1.0 - self.b)[:2]
        lo, hi = min(*times, 0.0), max(*times, 0.0)
        edges = shift_partition([lo, hi], level, 4.0 * p_hi, base_nodes=64, nodes_per_decade=6)
        # cut as in cf_cells: right of hi, K(t, .) is exactly 0 for every t
        # of the window
        end = int(np.searchsorted(edges, hi))
        return _product_cells(radial, edges[:end + 1])

    def scaling_maps(self):
        return _RADIAL_TEST_POINTS, -1.0 - self.b, 1.0, 1.0


def _trapezoid_masses(r0, g, big, beta):
    """int x^(beta - 2) L(x) dx over x > 0 for the trapezoids L that are 0 up
    to r0 >= 0, rise with slope 2 over a length g > 0, stay flat over
    big - g >= 0 and fall with slope -2 back to 0 at r0 + g + big (or stay
    flat for good where big = inf).  That is 2 / (beta (1 - beta)) times
    the second difference r_1^beta + r_2^beta - r_0^beta - r_3^beta of the
    kinks r_0 = r0, r_1 = r0 + g, r_2 = r0 + big, r_3 = r0 + g + big, taken
    as D(r0) - D(r0 + big) with D(c) = (c + g)^beta - c^beta =
    c^beta expm1(beta log1p(g / c)), free of cancellation, and D(inf) = 0.
    Where big < 1e-3 r0 those two nearly cancel, and the second difference
    is taken from its Taylor series about the trapezoid's center m instead:
    beta (1 - beta) g big m^(beta - 2) (1 + (beta - 2)(beta - 3)
    (g^2 + big^2) / (24 m^2)), whose next term is below 5e-12 of it there.
    Every mass is finite and > 0."""
    # c = 0 and big = inf give nan or inf in branches that np.where drops
    with np.errstate(divide="ignore", invalid="ignore"):
        def step(c):
            return np.where(c > 0.0, c ** beta * np.expm1(beta * np.log1p(g / c)), g ** beta)

        exact = (step(r0) - np.where(np.isfinite(big), step(r0 + big), 0.0)) / (beta * (1.0 - beta))
        m = r0 + 0.5 * (g + big)
        return 2.0 * np.where(big < 1e-3 * r0, g * big * m ** (beta - 2.0) * (
            1.0 + (beta - 2.0) * (beta - 3.0) * (g * g + big * big) / (24.0 * m * m)), exact)


@dataclass(frozen=True)
class Chentsov(Kernel):
    """Indicator-difference kernel over expanding intervals, radial density x**(beta-2)."""

    label = "chentsov"
    alpha: float
    beta: float

    def violations(self):
        yield from super().violations()
        if not (0.0 < self.beta < 1.0):
            yield f"well-defined if and only if 0 < beta < 1, got beta={self.beta}"

    def hurst_exponent(self):
        return self.beta / self.alpha

    def field(self, t, pts):
        x, s = pts
        return (np.abs(t - s) < x).astype(float)

    def cf_cells(self, times, level):
        """One exact cell per index range [a, b) of tau = sorted(times | {0}),
        at every level; the cells form one row, as in the 2-d radial layout
        of the truncated family.

        For x > 0 the tau_i with |tau_i - s| < x are a range tau[a:b], so
        K(t_j, (x, s)) = 1{t_j in tau[a:b]} - 1{0 in tau[a:b]} on the whole
        set of (x, s) that selects it.  With tau_{-1} = -inf and
        tau_n = +inf (n = len(tau)) its width in s is
        L(x) = max(0, min(tau_a + x, tau_b - x) - max(tau_{b-1} - x, tau_{a-1} + x)),
        a trapezoid in x with kinks at half the gaps of tau: 0 up to
        (tau_{b-1} - tau_a) / 2, rising over the smaller of the half-gaps
        (tau_a - tau_{a-1}) / 2 and (tau_b - tau_{b-1}) / 2 and flat over
        their difference.  ``_trapezoid_masses`` integrates it against
        x^(beta - 2) dx.  The range of all of tau has column 0 and infinite
        mass and is left out, which leaves n (n + 1) / 2 - 1 cells.  A
        cell's point is where its flat top begins, x = (tau_{b-1} - tau_a) / 2
        plus the smaller half-gap, at the middle s of the shifts that select
        the range there (twice that half-gap wide), so ``field`` reads the
        range's column."""
        ends = np.array([-np.inf, *sorted({*times, 0.0}), np.inf])  # ends[i + 1] = tau_i
        n = ends.size - 2
        # every 0 <= a < b <= n but the range of all of tau, the n-th pair
        a, b = np.delete(np.triu_indices(n + 1, 1), n - 1, axis=1)
        out_lo, in_lo, in_hi, out_hi = ends[a], ends[a + 1], ends[b], ends[b + 1]
        r0 = 0.5 * (in_hi - in_lo)
        g, big = 0.5 * np.sort([in_lo - out_lo, out_hi - in_hi], axis=0)
        x = r0 + g
        s = 0.5 * (np.maximum(in_hi - x, out_lo + x) + np.minimum(in_lo + x, out_hi - x))
        return (x[None, :], s[None, :]), _trapezoid_masses(r0, g, big, self.beta)[None, :]

    def sim_cells(self, times, level):
        lo, hi = min(*times, 0.0), max(*times, 0.0)
        scale = max(-lo, hi, 1.0)
        radial = power_law_cells(1e-6 * scale, 1e6 * scale, 12 + 4 * level, self.beta - 2.0)[:2]
        edges = shift_partition([lo, hi], level, 4e6 * scale, base_nodes=48, nodes_per_decade=8)
        return _product_cells(radial, edges)

    def scaling_maps(self):
        return _RADIAL_TEST_POINTS, self.beta - 2.0, 1.0, 1.0


@dataclass(frozen=True)
class RotatingAverage(Kernel):
    """Circle-rotation family driven by a finite Fourier profile; H = beta/alpha."""

    label = "rotating_average"
    doc_containers = frozenset({"harmonics", "harmonics[]"})
    alpha: float
    beta: float
    series: FourierSeries

    def violations(self):
        yield from super().violations()
        if not self.series.active_harmonics():
            yield "requires a nonzero Fourier profile"
        if not (0.0 < self.beta < self.alpha):
            yield (f"requires 0 < beta < alpha (Lipschitz profile gives smoothness "
                   f"exponent r = alpha), got beta={self.beta}, alpha={self.alpha}")

    def hurst_exponent(self):
        return self.beta / self.alpha

    def field(self, t, pts):
        # series(s + t x) by angle addition: with c = cos(k t x), d = sin(k t x),
        #   a cos(k (s + t x)) + b sin(k (s + t x)) = (a c + b d) cos(k s) + (b c - a d) sin(k s),
        # so trig runs on the radial and shift factors only and a cell costs a
        # few multiply-adds
        x, s = pts
        out = np.full(np.broadcast_shapes(np.shape(x), np.shape(s)), self.series.constant)
        for k, a, b in self.series.terms:
            if a == 0.0 and b == 0.0:
                continue
            ktx, ks = k * (t * x), k * s
            c, d = np.cos(ktx), np.sin(ktx)
            out += (a * c + b * d) * np.cos(ks)
            out += (b * c - a * d) * np.sin(ks)
        return out

    def combination(self, terms, points, out):
        # by the angle addition of ``field``, with F(0, .) at c = 1, d = 0,
        #   sum_j theta_j K(t_j, .) = sum_k C_k(x) cos(k s) + S_k(x) sin(k s),
        #   C_k = sum_j theta_j ((a c_kj + b d_kj) - a), S_k = sum_j theta_j ((b c_kj - a d_kj) - b),
        # so the block is one product of radial coefficients and shift harmonics;
        # with one harmonic it is R(x) cos(k s - phi(x)), R = hypot(C, S), and
        # the one shift node of ``cf_cells`` takes R(x)
        x, s = points[0][:, 0], points[1][0]
        theta = np.array([th for th, _ in terms])
        tx = np.multiply.outer(x, [t for _, t in terms])
        harmonics = [(k, a, b) for k, a, b in self.series.terms if a != 0.0 or b != 0.0]
        coef = np.empty((x.size, 2 * len(harmonics)))
        trig = np.empty((2 * len(harmonics), s.size))
        for i, (k, a, b) in enumerate(harmonics):
            ktx = k * tx
            c, d = np.cos(ktx), np.sin(ktx)
            coef[:, 2 * i] = (((a * c + b * d) - a) * theta).sum(axis=1)
            coef[:, 2 * i + 1] = (((b * c - a * d) - b) * theta).sum(axis=1)
            trig[2 * i], trig[2 * i + 1] = np.cos(k * s), np.sin(k * s)
        if len(harmonics) == 1:
            np.hypot(coef[:, 0], coef[:, 1], out=out[:, 0])
        else:
            np.matmul(coef, trig, out=out)

    def cf_grid_key(self, times):
        return None  # one grid for every probe

    def flow(self, t, points):
        # the circle rotation s -> s + t x at the speed x of each radial node
        x, s = points
        return x, s + t * x

    def same_law(self, other):
        if not isinstance(other, RotatingAverage):
            return super().same_law(other)
        from .identify import match_rotating

        if abs(self.alpha - other.alpha) > 1e-12:
            witness = None
        else:
            witness = match_rotating(self.series, self.beta, other.series, other.beta)
        doc = {"kind": "rotating_average", "equal_in_law": witness is not None}
        if witness is not None:
            doc["witness"] = {"epsilon": witness.epsilon, "shift": witness.shift,
                              "offset": witness.offset}
        return doc

    def scaling_maps(self):
        # x -> x / c keeps t x, and so the kernel, fixed; the circle does not scale
        return _RADIAL_TEST_POINTS, -1.0 - self.beta, -1.0, 0.0

    def cf_cells(self, times, level):
        # radial sub-sampling beats plain refinement here: the shift-averaged
        # integrand oscillates in x with frequency growing linearly in x
        x_nodes, x_mass = subdivided_power_cells(1e-3 * 0.125 ** level, 1e3 * 8.0 ** level,
                                                 10 + 4 * level, -1.0 - self.beta, subs=8)
        if len(self.series.active_harmonics()) == 1:
            # |R(x) cos(k s - phi(x))|^alpha integrates over the circle to
            # R(x)^alpha c_alpha, c_alpha = int_0^{2 pi} |cos s|^alpha ds: one
            # shift node, at 0, carries it (Samorodnitsky & Taqqu, 1994)
            return (x_nodes[:, None], np.zeros((1, 1))), (x_mass * _circle_moment(self.alpha))[:, None]
        return _product_cells((x_nodes, x_mass), np.linspace(0.0, 2.0 * np.pi, 128 * 2 ** level + 1))

    def _sim_pairs(self):
        return len(self.series.active_harmonics()) == 1

    def sim_cells(self, times, level):
        x_nodes, x_mass, _ = power_law_cells(1e-4 * 0.1 ** level, 1e4 * 10.0 ** level,
                                             12 + 4 * level, -1.0 - self.beta)
        if self._sim_pairs():
            # with one harmonic k, K(t, (x, s)) = C_t(x) cos(k s) + S_t(x) sin(k s)
            # (see ``combination``), so a radial cell's share of the integral
            # is C_t times the measure's cos(k s) integral plus S_t times its
            # sin(k s) one.  That pair has CF exp(-x_mass c_alpha |theta|^alpha)
            # (the circle integral of ``cf_cells``): an isotropic SaS pair.
            # Its two cells, at s = 0 and pi / (2k), read C_t and S_t, carry
            # x_mass c_alpha each, and ``core.simulate`` draws them as a pair
            (k,) = self.series.active_harmonics()
            return ((x_nodes[:, None], np.array([[0.0, 0.5 * np.pi / k]])),
                    np.repeat((x_mass * _circle_moment(self.alpha))[:, None], 2, axis=1))
        return _product_cells((x_nodes, x_mass), _circle_sim_edges(level))

    def to_doc(self):
        return {"family": self.label, "alpha": self.alpha, "beta": self.beta,
                "harmonics": [{"k": k, "cos": a, "sin": b} for k, a, b in self.series.terms],
                "constant": self.series.constant}

    @classmethod
    def _fields_from_doc(cls, doc):
        # int() only where it is exact: FourierSeries must see a 2.5, not a 2
        terms = tuple((int(k) if int(k) == k else k, float(h.get("cos", 0.0)),
                       float(h.get("sin", 0.0))) for h in doc["harmonics"] for k in [h["k"]])
        return {"alpha": doc["alpha"], "beta": doc["beta"],
                "series": FourierSeries(terms, float(doc.get("constant", 0.0)))}


FAMILIES: dict[str, type[Kernel]] = {f.label: f for f in (
    Lfsm, LinearMotion, LogFractional, MixedLfsm, TruncatedFractional, Chentsov, RotatingAverage)}

# ---------------------------------------------------------------------------
# validation and construction
# ---------------------------------------------------------------------------

def truncated_region(alpha: float, a: float, b: float) -> bool:
    """Closed-form well-posedness region of the truncated-fractional family.

    For a > 0: max(0, alpha*a - alpha + 1) < b < alpha*a (empty when alpha <= 1).
    For a < 0: max(alpha*a, alpha*a - alpha + 1) < b < min(0, alpha*a + 1).
    The a = 0 line is always ill posed.
    """
    if a == 0.0:
        return False
    lo, hi, _ = _truncated_bounds(alpha, a)
    return lo < b < hi


def _truncated_bounds(alpha: float, a: float) -> tuple[float, float, str]:
    """(lo, hi, formula) for a != 0: the truncated-fractional family is well
    posed exactly when lo < b < hi, and ``formula`` states the two bounds."""
    aa = alpha * a
    if a > 0.0:
        return max(0.0, aa - alpha + 1.0), aa, "max(0, alpha*a-alpha+1) < b < alpha*a"
    return (max(aa, aa - alpha + 1.0), min(0.0, aa + 1.0),
            "max(alpha*a, alpha*a-alpha+1) < b < min(0, alpha*a+1)")


def validate(spec: Kernel) -> Admissibility:
    """Deterministic admissibility report; names every violated inequality."""
    v = tuple(spec.violations())
    if v:
        return Admissibility(False, None, v)
    return Admissibility(True, spec.hurst_exponent(), ())


def build(spec: Kernel) -> Kernel:
    """The spec itself, once it is admissible: every family spec is its own kernel."""
    rep = validate(spec)
    if not rep.ok:
        raise InvalidSpecError("; ".join(rep.violations))
    return spec


def catalog_specs() -> tuple[Kernel, ...]:
    """Admissible representatives of every family, used by the verification suite."""
    return (
        Lfsm(1.5, 0.7),
        LinearMotion(1.5),
        LogFractional(1.5),
        MixedLfsm(1.5, 0.7, (((1.0, 0.0), 1.0), ((0.0, 1.0), 0.5))),
        TruncatedFractional(1.5, 0.5, 0.5),
        Chentsov(1.25, 0.5),
        Chentsov(0.5, 0.6),
        RotatingAverage(1.5, 0.8, FourierSeries(((1, 1.0, 0.0),))),
    )


# ---------------------------------------------------------------------------
# the well-posedness integral of the truncated family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralVerdict:
    """Truncated-integral estimate with a per-frontier convergence analysis.

    ``verdict`` is "finite", "divergent" or "undecided".  ``value`` is the
    tail-extrapolated estimate when finite, the last truncated value
    otherwise.  ``frontiers`` maps each truncation frontier to its measured
    per-decade mass ratio (> 1 means mass still growing outward).
    """

    verdict: str
    value: float
    frontiers: dict
    trace: tuple[float, ...]


def _decade_masses(vals: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Sum per-cell contributions into whole decades of the cell positions."""
    dec = np.floor(np.log10(np.maximum(positions, 1e-250)) + 1e-12).astype(int)
    lo = dec.min()
    out = np.zeros(dec.max() - lo + 1)
    np.add.at(out, dec - lo, vals)
    return out


@functools.lru_cache(maxsize=8)
def _corner_cells(p_lo: float, p_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Shift cells (nodes, widths) of ``integral_I`` at t = 1 and radial
    range [p_lo, p_hi]: log shells around both kernel corners s = 0 and
    s = 1 down to a scale commensurate with the radial cutoff, which is what
    lets the decade analysis see joint (shift, radial) singularities of the
    integrand, and geometric tails beyond them.  The cells do not depend on
    (a, b), so ``region_map`` builds them once per level; the arrays are
    read-only since they are shared."""
    inner = max(0.1 * p_lo, 1e-13)  # below this, shells hit rounding
    reach = 4.0 * p_hi + 4.0
    n = max(4, int(np.ceil(np.log10(reach / 2.0) * 8)))
    pieces = [np.array([0.0, 1.0]), -np.geomspace(2.0, reach, n + 1),
              1.0 + np.geomspace(2.0, min(reach, 20.0), n + 1)]
    # inner <= 1e-8 at every level of _integral_I, far below each gap
    for corner, sign, gap in ((0.0, -1.0, 2.0), (0.0, 1.0, 0.5),
                              (1.0, -1.0, 0.5), (1.0, 1.0, 2.0)):
        pieces.append(corner + sign * power_law_cells(inner, gap, 8, 0.0)[2])
    cells = cells_from_edges(np.unique(np.concatenate(pieces)))
    for c in cells:
        c.setflags(write=False)
    return cells


def _check_integral_args(alpha: float, values: dict[str, float]) -> None:
    """Reject a non-finite alpha or value of ``values``, naming the argument,
    and an alpha outside (0, 2)."""
    for name, v in {"alpha": alpha, **values}.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be a finite number, got {v}")
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def integral_I(alpha: float, a: float, b: float, t: float = 1.0) -> IntegralVerdict:
    """Estimate the truncated-kernel well-posedness integral and classify it.

    I(t) = int int |K(t; p, s)|^alpha p^(-1-b) dp ds with
    K(t; p, s) = min(p^a, (t - s)_+^a) - min(p^a, (-s)_+^a).  K is
    homogeneous of degree a in (t, p, s), so the substitution
    (p, s) = (t p', t s') gives K(t; t p', t s') = t^a K(1; p', s') and
    I(t) = t^(alpha a) t^(-b) t I(1) = t^(alpha H) I(1), alpha H = alpha a - b + 1.
    The verdict therefore does not depend on t: the t = 1 problem is solved
    and its value and trace are multiplied by t^(alpha H).

    The integrand is nonnegative, so truncated values are monotone in the
    domain; the classifier (``shell_tail``) watches the outermost decades at
    each truncation frontier (radial low/high end, the far shift tail and
    the shells around the kernel corners).  A frontier whose per-decade mass
    keeps growing marks divergence; decaying domain frontiers are
    extrapolated geometrically into the reported value.  Levels 1 to 5 are
    tried until two successive levels agree on "finite" or "divergent".
    alpha must lie in (0, 2), a and b must be finite and t finite and > 0.
    """
    _check_integral_args(alpha, {"t": t, "a": a, "b": b})
    if t <= 0:
        raise ValueError("t must be positive")
    return _integral_I(alpha, a, b, t, {})


def _integral_I(alpha: float, a: float, b: float, t: float, weighted: dict) -> IntegralVerdict:
    """``integral_I`` on checked arguments.  Of the level's
    W = |K(1, .)|^alpha times the shift widths on the (radial, shift) nodes,
    ``weighted`` maps a level to its row sums and its far-shift and corner
    column blocks (transposed, contiguous).  Only the radial masses depend
    on b and nothing on t, so calls with one (alpha, a) may share the dict,
    which is filled on first use of a level; each call reduces them with
    its radial masses, in sums that do not depend on the thread count."""
    if a == 0.0:
        # kernel is an indicator of 0 < s < t times the full radial integral
        ratio = 10.0 ** b if b > 0 else (10.0 ** (-b) if b < 0 else 1.0)
        frontiers = {"radial_low": max(ratio, 1.0), "radial_high": max(1.0 / ratio if b != 0 else 1.0, 1.0)}
        return IntegralVerdict("divergent", math.inf, frontiers, ())

    kernel = TruncatedFractional(alpha, a, b)
    trace: list[float] = []
    last = None
    for level in range(1, 6):
        p_lo = 1e-5 * 10.0 ** (-2 * level)
        p_hi = 1e5 * 10.0 ** (2 * level)
        p_nodes, p_mass, _ = power_law_cells(p_lo, p_hi, 10, -1.0 - b)
        s_nodes, s_w = _corner_cells(p_lo, p_hi)
        # far shift tail: |s| shells on the negative side; corner shells:
        # distance to the nearest kernel breakpoint
        far = s_nodes < -2.0
        corner_dist = np.minimum(np.abs(s_nodes), np.abs(s_nodes - 1.0))
        near = corner_dist < 0.5
        if level not in weighted:
            G = kernel.eval(1.0, (p_nodes[:, None], s_nodes[None, :]))
            W = np.abs(G) ** alpha * s_w[None, :]
            weighted[level] = (W.sum(axis=1), np.ascontiguousarray(W[:, far].T),
                               np.ascontiguousarray(W[:, near].T))
        row_sums, far_block, near_block = weighted[level]
        rows = p_mass * row_sums
        total = pairwise_sum(rows)
        floor = 1e-9 * max(total, 1e-300)

        dm_p = _decade_masses(rows, p_nodes)
        shells = {"radial_low": dm_p[::-1], "radial_high": dm_p}
        per_far = np.einsum("sp,p->s", far_block, p_mass)
        if per_far.size and per_far.sum() > 1e-12 * total:
            shells["shift_far"] = _decade_masses(per_far, np.abs(s_nodes[far]))
        per_near = np.einsum("sp,p->s", near_block, p_mass)
        if per_near.size and per_near.sum() > 1e-12 * total:
            shells["corner"] = _decade_masses(per_near, corner_dist[near])[::-1]

        frontier, verdicts = {}, {}
        value = total
        for name in ("radial_low", "radial_high", "shift_far", "corner"):
            if name not in shells:  # a frontier without mass
                frontier[name], verdicts[name] = 0.0, "finite"
                continue
            frontier[name], verdicts[name], remainder = shell_tail(shells[name], 10.0, floor)
            # geometric tail extrapolation of decaying domain frontiers
            if verdicts[name] == "finite" and name != "corner":
                value += remainder

        if "divergent" in verdicts.values():
            overall = "divergent"
        elif all(v == "finite" for v in verdicts.values()):
            overall = "finite"
        else:
            overall = "undecided"
        trace.append(value if overall == "finite" else total)

        done = last is not None and last[0] == overall != "undecided"
        last = (overall, math.inf if overall == "divergent" and done else value, frontier)
        if done:
            break
    scale = t ** (alpha * a - b + 1.0)
    return IntegralVerdict(last[0], scale * last[1], last[2], tuple(scale * v for v in trace))


@dataclass(frozen=True)
class RegionMap:
    alpha: float
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    verdicts: np.ndarray       # (na, nb) of strings
    values: np.ndarray         # (na, nb) floats
    expected: np.ndarray       # closed-form admissibility
    scored: np.ndarray         # bool mask, margin-distant points
    agreement: float           # fraction of scored points matching


def _boundary_distance(alpha: float, a: float, b: float) -> float:
    lines = [abs(a),
             abs(b),
             abs(b - alpha * a) / math.hypot(1.0, alpha),
             abs(b - alpha * a - 1.0) / math.hypot(1.0, alpha),
             abs(b - alpha * a + alpha - 1.0) / math.hypot(1.0, alpha)]
    return min(lines)


def region_map(alpha: float, a_values: Sequence[float], b_values: Sequence[float],
               margin: float = 0.05) -> RegionMap:
    """Classify the (a, b) grid by integral_I at t = 1 and score against the
    closed form.  The verdicts do not depend on t (see ``integral_I``).

    Points within ``margin`` of any region boundary line are reported but
    excluded from the agreement score.  Within one call, the |K(1, .)|^alpha
    field of each a value is evaluated once per level and reused for all of
    its b values; every point's verdict and value equal those of its own
    ``integral_I(alpha, a, b)`` call bit for bit.
    """
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be a finite number >= 0, got {margin}")
    a_values = tuple(float(x) for x in a_values)
    b_values = tuple(float(x) for x in b_values)
    _check_integral_args(alpha, {**{f"a_values[{i}]": a for i, a in enumerate(a_values)},
                                 **{f"b_values[{j}]": b for j, b in enumerate(b_values)}})
    verdicts = np.empty((len(a_values), len(b_values)), dtype=object)
    values = np.full((len(a_values), len(b_values)), np.nan)
    expected = np.zeros_like(values, dtype=bool)
    scored = np.zeros_like(values, dtype=bool)
    hits = 0
    n_scored = 0
    for i, a in enumerate(a_values):
        weighted: dict = {}
        for j, b in enumerate(b_values):
            res = _integral_I(alpha, a, b, 1.0, weighted)
            verdicts[i, j] = res.verdict
            values[i, j] = res.value
            expected[i, j] = truncated_region(alpha, a, b)
            if _boundary_distance(alpha, a, b) >= margin:
                scored[i, j] = True
                n_scored += 1
                want = "finite" if expected[i, j] else "divergent"
                hits += res.verdict == want
    agreement = hits / n_scored if n_scored else float("nan")
    return RegionMap(alpha, a_values, b_values, verdicts, values, expected, scored, agreement)
