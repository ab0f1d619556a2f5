"""stablesim benchmark: one command, three workloads, every metric by name.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones of a separate
traced pass.  See benchmark/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_LAUNCHES = 5

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
              "lag1_law_err": "frac"}


def _per_layer_units() -> dict[str, str]:
    from workloads import CATALOG_LABELS, SIM_LABELS

    units = {"kernels.build.s": "s", "core.simulate.s": "s"}
    for lab in SIM_LABELS:
        units[f"core.simulate.s.{lab}"] = "s"
        units[f"kernels.sim_grid.cells.{lab}"] = "count"
        units[f"kernels.sim_grid.live_frac.{lab}"] = "frac"
    units.update({"core.simulate.draws": "count", "core.simulate.flops": "flop",
                  "core.simulate.bytes": "B", "io.write_ensemble_csv.s": "s",
                  "io.write_ensemble_csv.bytes": "B", "io.read_ensemble_csv.s": "s"})
    for check in ("verify.check_stationary_increments", "verify.check_self_similar"):
        units[f"{check}.s"] = "s"
        for lab in CATALOG_LABELS:
            units[f"{check}.s.{lab}"] = "s"
    units["kernels.cf_grid.cells"] = "count"
    for lab in CATALOG_LABELS:
        units[f"kernels.cf_grid.cells.{lab}"] = "count"
    units.update({"flows.hopf_classify.s": "s", "flows.hopf_classify.points": "count",
                  "kernels.region_map.s": "s", "kernels.region_map.points": "count",
                  "verify.mc_distribution_check.s": "s", "core.cf_exponent.s": "s",
                  "core.cf_exponent.levels": "count", "core.empirical_cf.s": "s"})
    for lab in SIM_LABELS:
        units[f"bench.lag1.ratio.{lab}"] = "ratio"
        units[f"bench.lag1.se.{lab}"] = "ratio"
    units.update({"bench.iteration.self_s": "s", "trace.overhead.s": "s",
                  "trace.overhead.frac": "frac"})
    return units


def machine_info() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path) as fh:
                info["cpu_quota"] = f"{path}: {fh.read().strip()}"
            break
        except OSError:
            info["cpu_quota"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    info["thread_env"] = {k: os.environ.get(k) for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def measure_setup(spec_docs) -> float:
    """Median wall time of fresh interpreters that import stablesim, read the
    workload's spec documents and build their kernels."""
    probe = os.path.join(HERE, "setup_probe.py")
    arg = json.dumps(spec_docs)
    walls = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, arg], check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """Build, run the timed loop, gate the outputs; returns raw measurements."""
    from tracing import Tracer
    from workloads import Ops, iteration_seed

    tr = Tracer(enabled=trace)
    ops = Ops()
    workload.build(seed, tr)
    counts = workload.counts()
    min_iters = max(workload.min_iters, 3 if trace else 1)
    seeds, times, traced = [], [], []
    measured = 0.0
    i = 0
    while i < min_iters or measured < seconds:
        # The traced pass alternates untraced and traced iterations; the
        # difference of their medians is the tracing overhead.  Iteration 0,
        # often the slowest, runs untraced and is left out of that comparison.
        tr.enabled = trace and i % 2 == 1
        s = iteration_seed(seed, i)
        out = None
        t0 = time.perf_counter()
        try:
            with tr.span("bench.iteration"):
                out = workload.iterate(i, s, tr, work_dir)
            dt = time.perf_counter() - t0
            workload.check_iteration(i, s, out, ops, work_dir)
            times.append(dt)
            traced.append(None if i == 0 else tr.enabled)
        except Exception as exc:  # a failed operation, not a crash
            dt = time.perf_counter() - t0
            for key in workload.op_keys(i):
                ops.record(key, f"{type(exc).__name__}: {exc}")
        del out
        measured += dt
        seeds.append(s)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tr.enabled = trace
    workload.finish(seeds, ops, tr, work_dir)
    ops.record(("counts",))
    if workload.counts() != counts:
        ops.record(("counts",), "work counts did not repeat exactly")
    return {"tracer": tr, "ops": ops, "counts": counts, "times": times, "traced": traced,
            "peak_rss_mb": peak_rss_mb}


def end_to_end_metrics(workload, raw, setup_s) -> dict:
    ops = raw["ops"]
    return {
        "run_s": statistics.median(raw["times"]) if raw["times"] else math.nan,
        "setup_s": setup_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - len(ops.failures()) / ops.attempted,
        "lag1_law_err": workload.lag1_law_err(),
    }


def per_layer_metrics(workload, raw) -> dict:
    tr = raw["tracer"]
    units = _per_layer_units()
    out = dict.fromkeys(units, 0.0)
    # layers inside the timed iteration: per-iteration self time, median over
    # traced iterations
    per_iter = [tr.self_times([r]) for r in tr.roots("bench.iteration")]
    for key in {k for d in per_iter for k in d}:
        layer, lab = key
        name = "bench.iteration.self_s" if layer == "bench.iteration" else f"{layer}.s"
        if lab is not None:
            name += f".{lab}"
        if name in out:
            out[name] = statistics.median(d.get(key, 0.0) for d in per_iter)
    # layers outside it (build and gates): total self time over the run
    for layer in ("kernels.build", "verify.mc_distribution_check", "core.cf_exponent",
                  "core.empirical_cf"):
        out[layer + ".s"] = tr.self_times(tr.roots(layer)).get((layer, None), 0.0)
    out.update(raw["counts"])
    out["core.cf_exponent.levels"] = workload.cf_levels
    if workload.csv_bytes:
        out["io.write_ensemble_csv.bytes"] = statistics.median(workload.csv_bytes)
    for lab, (ratio, se, _) in workload.law.items():
        out[f"bench.lag1.ratio.{lab}"] = ratio
        out[f"bench.lag1.se.{lab}"] = se
    on = [t for t, f in zip(raw["times"], raw["traced"]) if f is True]
    off = [t for t, f in zip(raw["times"], raw["traced"]) if f is False]
    if on and off:
        out["trace.overhead.s"] = statistics.median(on) - statistics.median(off)
        out["trace.overhead.frac"] = out["trace.overhead.s"] / statistics.median(off)
    return {k: out[k] for k in units}


def _finite_or_none(v):
    v = float(v)
    return v if math.isfinite(v) else None


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload``; prints the human-readable lines and
    returns the result object."""
    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    setup_s = None if trace else measure_setup(workload.spec_docs)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        raw = run_workload(workload, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = raw["ops"]
    for key, why in ops.failures().items():
        print(f"FAILED {key}: {why}", file=sys.stderr)
    print(f"iterations: {len(raw['times'])}, times (s): {raw['times']}")
    print("work counts (computed from sim_grid/cf_grid/eval shapes, repeat-checked): "
          + json.dumps(raw["counts"], sort_keys=True))
    for lab, (ratio, se, err) in workload.law.items():
        print(f"lag1 law {lab}: empirical/oracle sigma^alpha = {ratio:.6f}, se = {se:.6f}, "
              f"|ratio-1|+2se = {err:.6f}")
    if trace:
        metrics = per_layer_metrics(workload, raw)
        units = _per_layer_units()
        trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": workload.name, "seed": seed, "machine": info,
                       "spans": raw["tracer"].to_doc()}, fh)
        print(f"spans: {len(raw['tracer'].spans)} written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = end_to_end_metrics(workload, raw, setup_s)
        units = END_TO_END
    failed = len(ops.failures())
    return {"correct": failed == 0, "attempted": ops.attempted, "failed": failed,
            "metrics": {k: {"value": _finite_or_none(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stablesim", "__init__.py")):
        print(f"benchmark: no stablesim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {W.WORKLOADS}",
              file=sys.stderr)
        return 2
    result = measure(W.make(args.workload), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
