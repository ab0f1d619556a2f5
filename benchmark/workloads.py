"""Benchmark workloads: what one timed iteration does, the gates its outputs
must pass, and the work counts computed from public calls and array shapes.

Every call into stablesim goes through its public API.  A workload has
``build`` (kernels, traced as ``kernels.build``), ``counts`` (work counts),
``iterate`` (the timed work), ``check_iteration`` (untimed gates on the
iteration's outputs) and ``finish`` (gates that run after the timed loop).
"""

from __future__ import annotations

import math
import os

import numpy as np

import stablesim as ss
from stablesim import io as sio
from stablesim.flows import hopf_classify, rotation_flow, translation_flow
from stablesim.verify import (
    check_self_similar,
    check_stationary_increments,
    default_probes,
    mc_distribution_check,
)

# The ensembles of this many iterations are pooled into the lag-1 law
# estimate, so simulation workloads always run at least this many.
LAW_ITERS = 4
SIM_LABELS = ("lfsm", "chentsov", "truncated_fractional", "rotating_average")
CATALOG_LABELS = ("lfsm", "linear_motion", "log_fractional", "mixed_lfsm",
                  "truncated_fractional", "chentsov", "rotating_average")
PROBE_TIMES = tuple(sorted({t for c in default_probes() for t in c.times}))


def iteration_seed(seed: int, i: int) -> int:
    """Simulation seed of iteration i of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Ops:
    """Operations attempted, each with None (passed) or its first failure."""

    def __init__(self):
        self.verdicts: dict = {}

    def record(self, key, failure: str | None = None) -> None:
        if self.verdicts.get(key) is None:
            self.verdicts[key] = failure

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    def failures(self) -> dict:
        return {k: v for k, v in self.verdicts.items() if v is not None}


def _build(spec_docs, tr):
    kernels = []
    for doc in spec_docs:
        with tr.span("kernels.build"):
            k = ss.build(sio.spec_from_dict(doc))
        kernels.append((k.label, k))
    return kernels


class SimWorkload:
    """One iteration simulates every spec on one time grid at level 1; with
    ``csv`` it also writes each ensemble to CSV and reads it back."""

    min_iters = LAW_ITERS

    def __init__(self, name, spec_docs, times, n_paths, threads, csv):
        self.name = name
        self.spec_docs = list(spec_docs)
        self.times = np.asarray(times, dtype=float)
        self.n_paths = int(n_paths)
        self.threads = int(threads)
        self.csv = csv
        self.kernels = []
        self.csv_bytes: list[int] = []
        self.law: dict[str, tuple[float, float, float]] = {}
        self.cf_levels = 0

    def build(self, seed, tr):
        self.kernels = _build(self.spec_docs, tr)

    def counts(self) -> dict:
        out = {"core.simulate.draws": 0, "core.simulate.flops": 0, "core.simulate.bytes": 0}
        P, T = self.n_paths, self.times.size
        for label, k in self.kernels:
            pts, masses = k.sim_grid(self.times[0], self.times[-1], 1)
            live = np.zeros(masses.size, dtype=bool)
            for t in self.times:
                live |= k.eval(t, pts) != 0.0
            C = masses.size
            out[f"kernels.sim_grid.cells.{label}"] = C
            out[f"kernels.sim_grid.live_frac.{label}"] = int(live.sum()) / C
            out["core.simulate.draws"] += P * C
            out["core.simulate.flops"] += 2 * P * T * C
            out["core.simulate.bytes"] += 8 * (P * C + T * C + P * T)
        return out

    def op_keys(self, i):
        return [(i, label) for label, _ in self.kernels]

    def _csv_path(self, work_dir, label):
        return os.path.join(work_dir, f"{label}.csv")

    def _spill_path(self, work_dir, i, label):
        return os.path.join(work_dir, f"{label}-{i}.npy")

    def iterate(self, i, seed, tr, work_dir):
        out = {}
        for label, k in self.kernels:
            with tr.span("core.simulate", label):
                ens = ss.simulate(k, self.times, self.n_paths, seed, level=1,
                                  threads=self.threads)
            back = None
            if self.csv:
                path = self._csv_path(work_dir, label)
                with open(path, "w") as fh:
                    with tr.span("io.write_ensemble_csv", label):
                        sio.write_ensemble_csv(fh, ens.times, ens.values)
                with open(path) as fh:
                    with tr.span("io.read_ensemble_csv", label):
                        back = sio.read_ensemble_csv(fh)
            out[label] = (ens, back)
        return out

    def check_iteration(self, i, seed, out, ops, work_dir):
        size = 0
        for label, (ens, back) in out.items():
            key = (i, label)
            ops.record(key)
            if ens.values.shape != (self.n_paths, self.times.size):
                ops.record(key, f"ensemble shape {ens.values.shape}")
            if not np.all(np.isfinite(ens.values)):
                ops.record(key, "non-finite values")
            if back is not None:
                t_back, v_back = back
                if not (np.array_equal(t_back, ens.times) and np.array_equal(v_back, ens.values)):
                    ops.record(key, "CSV round trip is not bit-exact")
                size += os.path.getsize(self._csv_path(work_dir, label))
            # kept on disk, not in memory, so the gates do not raise peak RSS
            np.save(self._spill_path(work_dir, i, label), ens.values)
        if self.csv:
            self.csv_bytes.append(size)

    def _load(self, work_dir, i, label, seed):
        values = np.load(self._spill_path(work_dir, i, label))
        return ss.PathEnsemble(self.times, values, seed, "")

    def finish(self, seeds, ops, tr, work_dir):
        """Distribution gate per (iteration, spec) and the lag-1 law estimate.

        The Monte Carlo check probes the default probe times.  When the timed
        grid lacks them, the same spec and seed are simulated on the probe
        times here, outside the timed loop.
        """
        on_grid = all(np.any(np.abs(self.times - t) <= 1e-9 * max(1.0, t)) for t in PROBE_TIMES)
        for i, seed in enumerate(seeds):
            for label, k in self.kernels:
                key = (i, label)
                try:
                    if on_grid:
                        ens = self._load(work_dir, i, label, seed)
                    else:
                        ens = ss.simulate(k, PROBE_TIMES, self.n_paths, seed, level=1,
                                          threads=self.threads)
                    with tr.span("verify.mc_distribution_check", label):
                        rep = mc_distribution_check(ens, k)
                    if not rep.passed:
                        ops.record(key, f"mc_distribution_check residual {rep.max_residual:.4g} "
                                        f">= tol {rep.tolerance:.4g}")
                except Exception as exc:  # a failed operation, not a crash
                    ops.record(key, f"{type(exc).__name__}: {exc}")
        for label, k in self.kernels:
            key = ("lag1", label)
            ops.record(key)
            try:
                self._lag1_law(k, label, seeds[:LAW_ITERS], ops, key, tr, work_dir)
            except Exception as exc:
                ops.record(key, f"{type(exc).__name__}: {exc}")

    def _lag1_law(self, k, label, seeds, ops, key, tr, work_dir):
        """Empirical over oracle sigma^alpha of lag-1 increments.

        theta is set so that the oracle sigma^alpha is 1; the empirical CF is
        pooled over every grid position, and the standard error is taken
        across paths, which are independent.
        """
        dt = float(self.times[1] - self.times[0])
        with tr.span("core.cf_exponent", label):
            ref = ss.cf_exponent(k, ss.combo((1.0, dt)))
        self.cf_levels += len(ref.certificate.levels)
        if ref.status != "converged":
            ops.record(key, f"lag-1 reference cf_exponent is {ref.status}")
            return
        theta = ref.value ** (-1.0 / k.alpha)
        z, n_z, per_path = 0j, 0, []
        for i, seed in enumerate(seeds):
            ens = self._load(work_dir, i, label, seed)
            t = ens.times
            for j in range(1, t.size):
                with tr.span("core.empirical_cf", label):
                    z += ss.empirical_cf(ens, ss.combo((theta, t[j]), (-theta, t[j - 1])))
            n_z += t.size - 1
            per_path.append(np.cos(theta * np.diff(ens.values, axis=1)).mean(axis=1))
        phi = abs(z / n_z)
        m = np.concatenate(per_path)
        ratio = -math.log(phi)
        se = float(m.std(ddof=1)) / math.sqrt(m.size) / phi
        # upper confidence bound on the deviation: never 0, even once unbiased
        self.law[label] = (ratio, se, abs(ratio - 1.0) + 2.0 * se)

    def lag1_law_err(self) -> float:
        return max((v[2] for v in self.law.values()), default=math.nan)


class VerifyCatalog:
    """One iteration runs the default SI and SS checks on every catalog spec,
    Hopf-classifies rotation and translation points (g0 as in the CLI) and
    maps the truncated-family region."""

    min_iters = 1
    alpha = 1.5

    def __init__(self, name, specs=None, n_hopf=8, region_n=11):
        self.name = name
        self.spec_docs = [sio.spec_to_dict(s) for s in (specs or ss.catalog_specs())]
        self.n_hopf = n_hopf
        self.grid = np.linspace(-1.0, 1.0, region_n)
        self.kernels = []
        self.flows = []
        self.si_lag1: list[float] = []
        self.law: dict = {}
        self.csv_bytes: list[int] = []
        self.cf_levels = 0

    def build(self, seed, tr):
        self.kernels = _build(self.spec_docs, tr)
        self.flows = []
        for flow, g0, want in (
                (rotation_flow(), lambda pts: np.cos(np.atleast_2d(pts)[:, 0]), "conservative"),
                (translation_flow(),
                 lambda s: ((np.asarray(s) >= 0.0) & (np.asarray(s) <= 1.0)).astype(float),
                 "dissipative")):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            self.flows.append((flow, g0, flow.sample_points(rng, self.n_hopf), want))

    def counts(self) -> dict:
        out = {"kernels.cf_grid.cells": 0,
               "flows.hopf_classify.points": sum(len(p) for _, _, p, _ in self.flows),
               "kernels.region_map.points": self.grid.size ** 2}
        times = default_probes()[0].times
        for label, k in self.kernels:
            n = int(k.cf_grid(times, 2)[1].size)
            key = f"kernels.cf_grid.cells.{label}"
            out[key] = out.get(key, 0) + n
            out["kernels.cf_grid.cells"] += n
        return out

    def op_keys(self, i):
        keys = [(i, check, j) for j in range(len(self.kernels)) for check in ("si", "ss")]
        return keys + [(i, "hopf", f.tag) for f, _, _, _ in self.flows] + [(i, "region")]

    def iterate(self, i, seed, tr, work_dir):
        reports = []
        for label, k in self.kernels:
            with tr.span("verify.check_stationary_increments", label):
                si = check_stationary_increments(k)
            with tr.span("verify.check_self_similar", label):
                ss_rep = check_self_similar(k)
            reports.append((si, ss_rep))
        verdicts = []
        for flow, g0, pts, want in self.flows:
            with tr.span("flows.hopf_classify", flow.tag):
                verdicts.append((flow.tag, want, hopf_classify(flow, g0, self.alpha, pts)))
        with tr.span("kernels.region_map"):
            rm = ss.region_map(self.alpha, self.grid, self.grid)
        return reports, verdicts, rm

    def check_iteration(self, i, seed, out, ops, work_dir):
        reports, verdicts, rm = out
        for j, (si, ss_rep) in enumerate(reports):
            for check, rep in (("si", si), ("ss", ss_rep)):
                ops.record((i, check, j))
                if not rep.passed:
                    ops.record((i, check, j), f"{rep.name} failed on spec {j}: "
                                              f"max residual {rep.max_residual:.4g}")
        for tag, want, v in verdicts:
            ops.record((i, "hopf", tag))
            wrong = [x for x in v.verdicts if x != want]
            if wrong:
                ops.record((i, "hopf", tag), f"{tag}: {len(wrong)} points not {want}")
        ops.record((i, "region"))
        if rm.agreement != 1.0:
            ops.record((i, "region"), f"region_map agreement {rm.agreement}")
        # residual of the lag-1 probe X_{1+h} - X_h across shifts h
        self.si_lag1 = [si.residuals[0] for si, _ in reports]

    def finish(self, seeds, ops, tr, work_dir):
        pass

    def lag1_law_err(self) -> float:
        return max(self.si_lag1, default=math.nan)


def make(name: str):
    """The workload called ``name``, at the size the benchmark measures."""
    if name == "lfsm_fine_io":
        return SimWorkload(name, [{"family": "lfsm", "alpha": 1.5, "hurst": 0.7}],
                           np.linspace(0.0, 1.0, 1025)[1:], n_paths=2000, threads=1, csv=True)
    if name == "twocoord_threads":
        return SimWorkload(name, [
            {"family": "chentsov", "alpha": 1.25, "beta": 0.5},
            {"family": "truncated_fractional", "alpha": 1.5, "a": 0.5, "b": 0.5},
            {"family": "rotating_average", "alpha": 1.5, "beta": 0.8,
             "harmonics": [{"k": 1, "cos": 1.0, "sin": 0.0}], "constant": 0.0},
        ], np.linspace(0.05, 3.0, 60), n_paths=512, threads=2, csv=False)
    if name == "verify_catalog":
        return VerifyCatalog(name)
    raise KeyError(name)


WORKLOADS = ("lfsm_fine_io", "twocoord_threads", "verify_catalog")
