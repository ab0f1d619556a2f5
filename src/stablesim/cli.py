"""Command-line front end: simulate ensembles, run verification suites,
classify flows, map well-posedness regions, compare specs, apply transforms.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as sio
from .core import philox, simulate
from .flows import hopf_classify, rotation_flow, translation_flow
from .kernels import build, region_map
from .transforms import (
    PathFunction,
    lamperti_from_stationary,
    lamperti_to_stationary,
    masani_forward,
    masani_inverse,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_IO = 3


def _seed(given: int | None) -> int:
    """--seed, else $STABLESIM_SEED, else 0.  Checked by ``philox`` for every
    command that takes a seed, also one whose checks draw nothing."""
    text = os.environ.get("STABLESIM_SEED", "0")
    try:
        seed = int(text) if given is None else given
    except ValueError:
        raise ValueError(f"STABLESIM_SEED must be an integer, got {text!r}") from None
    philox(seed)
    return seed


def _parse_grid(text: str) -> np.ndarray:
    """lo:hi:n (linear) or lo:hi:nxg (geometric n-point grid), finite lo and
    hi, n >= 1."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        geometric = n_s.endswith("g")
        n = int(n_s[:-1] if geometric else n_s)
        lo, hi = float(lo_s), float(hi_s)
        if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
        if geometric:
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    except ValueError:
        raise ValueError(f"bad grid spec {text!r}: want lo:hi:n with finite lo, hi "
                         "and n >= 1") from None


def _check_alpha(alpha: float) -> None:
    """Reject alpha outside the stable range (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"--alpha must lie in (0, 2), got {alpha}")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    spec = build(sio.load_spec(args.spec))
    times = _parse_grid(args.t)
    ens = simulate(spec, times, args.n_paths, args.seed,
                   level=args.level, threads=args.threads)
    with open(args.out, "w") as fh:
        sio.write_ensemble_csv(fh, ens.times, ens.values)
    meta = sio.ensemble_metadata(
        ens, sio.spec_to_dict(spec),
        {"t_min": float(times[0]), "t_max": float(times[-1]), "n": int(times.size)},
        {"sim_level": args.level})
    _write_json(args.meta or args.out + ".meta.json", meta)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = build(sio.load_spec(args.spec))
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    reports = run_suite(spec, checks, n_paths=args.n_paths, seed=args.seed)
    doc = {"schema_version": sio.SCHEMA_VERSION, "spec": sio.spec_to_dict(spec),
           "reports": [r.to_dict() for r in reports]}
    if args.out:
        _write_json(args.out, doc)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: max residual "
              f"{r.max_residual:.3g} (tol {r.tolerance:g})")
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_classify(args) -> int:
    rng = np.random.Generator(philox(args.seed))
    if args.flow == "rotation":
        flow = rotation_flow()
        g0 = lambda pts: np.cos(np.atleast_2d(pts)[:, 0])
    else:
        flow = translation_flow()
        g0 = lambda s: ((np.asarray(s) >= 0.0) & (np.asarray(s) <= 1.0)).astype(float)
    if args.n_points < 1:
        raise ValueError(f"--n-points must be at least 1, got {args.n_points}")
    _check_alpha(args.alpha)
    pts = flow.sample_points(rng, args.n_points)
    verdict = hopf_classify(flow, g0, args.alpha, pts)
    counts = verdict.counts()
    doc = {"schema_version": sio.SCHEMA_VERSION, "flow": args.flow, "alpha": args.alpha,
           "counts": counts,
           "points": [{"point": np.atleast_1d(p).tolist(), "verdict": v,
                       "trace": [[L, val] for L, val in tr]}
                      for p, v, tr in zip(np.atleast_2d(verdict.points), verdict.verdicts,
                                          verdict.traces)]}
    if args.out:
        _write_json(args.out, doc)
    majority = max(counts, key=counts.get)
    print(f"{args.flow}: {majority} ({counts})")
    return EXIT_OK


def cmd_region(args) -> int:
    _check_alpha(args.alpha)
    a_vals = _parse_grid(args.a)
    b_vals = _parse_grid(args.b)
    rm = region_map(args.alpha, a_vals, b_vals, margin=args.margin)
    if not rm.scored.any():
        raise ValueError(f"--margin {args.margin:g} leaves no grid point to score")
    with open(args.out, "w") as fh:
        fh.write("a,b,verdict,value\n")
        for i, a in enumerate(rm.a_values):
            for j, b in enumerate(rm.b_values):
                v = rm.values[i, j]
                fh.write(f"{a!r},{b!r},{rm.verdicts[i, j]},{'' if not math.isfinite(v) else repr(float(v))}\n")
    print(f"scored {int(rm.scored.sum())} points, agreement with closed-form "
          f"region: {rm.agreement:.4f}")
    return EXIT_OK if rm.agreement == 1.0 else EXIT_FAIL


def cmd_identify(args) -> int:
    s1 = build(sio.load_spec(args.spec1))
    doc = s1.same_law(build(sio.load_spec(args.spec2)))
    doc["schema_version"] = sio.SCHEMA_VERSION
    if args.out:
        _write_json(args.out, doc)
    print("equal in law" if doc["equal_in_law"] else "distinct")
    return EXIT_OK


def cmd_transform(args) -> int:
    # checked before the input is read, so a missing --hurst is reported first
    if args.op.startswith("lamperti") and args.hurst is None:
        raise ValueError("--hurst is required for the Lamperti maps")
    with open(args.input) as fh:
        times, values = sio.read_ensemble_csv(fh)
    pf = PathFunction(times, values)
    if args.op == "masani-forward":
        out, bound = masani_forward(pf, history=args.history)
        print(f"history truncation bound: {bound:.3g}")
    elif args.op == "masani-inverse":
        out = masani_inverse(pf)
    elif args.op == "lamperti-to-stationary":
        out = lamperti_to_stationary(pf, args.hurst)
    else:
        out = lamperti_from_stationary(pf, args.hurst)
    with open(args.out, "w") as fh:
        sio.write_ensemble_csv(fh, out.times, np.atleast_2d(out.values))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stablesim",
                                description="Simulate and verify symmetric alpha-stable "
                                            "self-similar processes.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate a path ensemble to CSV")
    sp.add_argument("--spec", required=True, help="family spec JSON file")
    sp.add_argument("--n-paths", type=int, default=100)
    sp.add_argument("--t", required=True, help="time grid lo:hi:n (append g for geometric)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--level", type=int, default=1, help="cell-grid refinement level")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", required=True, help="ensemble CSV path")
    sp.add_argument("--meta", help="metadata JSON path (default <out>.meta.json)")
    sp.set_defaults(fn=cmd_simulate)

    vp = sub.add_parser("verify", help="run verification suites on a spec")
    vp.add_argument("--spec", required=True)
    vp.add_argument("--checks", default="si,ss",
                    help="comma list from si,ss,scaling,mc,kernel-identity")
    vp.add_argument("--n-paths", type=int, default=2000)
    vp.add_argument("--seed", type=int)
    vp.add_argument("--out", help="JSON report path")
    vp.set_defaults(fn=cmd_verify)

    cp = sub.add_parser("classify", help="Hopf-classify a catalog flow")
    cp.add_argument("--flow", required=True, choices=["rotation", "translation"])
    cp.add_argument("--alpha", type=float, default=1.5)
    cp.add_argument("--n-points", type=int, default=40)
    cp.add_argument("--seed", type=int)
    cp.add_argument("--out", help="JSON verdict path")
    cp.set_defaults(fn=cmd_classify)

    rp = sub.add_parser("region", help="map the truncated-family well-posedness region")
    rp.add_argument("--alpha", type=float, required=True)
    rp.add_argument("--a", required=True, help="a grid lo:hi:n")
    rp.add_argument("--b", required=True, help="b grid lo:hi:n")
    rp.add_argument("--margin", type=float, default=0.05)
    rp.add_argument("--out", required=True, help="CSV path (a,b,verdict,value)")
    rp.set_defaults(fn=cmd_region)

    ip = sub.add_parser("identify", help="compare two family specs in law")
    ip.add_argument("--spec1", required=True)
    ip.add_argument("--spec2", required=True)
    ip.add_argument("--out", help="JSON verdict path")
    ip.set_defaults(fn=cmd_identify)

    tp = sub.add_parser("transform", help="apply a path transform to an ensemble CSV")
    tp.add_argument("--input", required=True)
    tp.add_argument("--op", required=True,
                    choices=["masani-forward", "masani-inverse",
                             "lamperti-to-stationary", "lamperti-from-stationary"])
    tp.add_argument("--hurst", type=float, help="Hurst exponent for the Lamperti maps")
    tp.add_argument("--history", type=float, default=20.0)
    tp.add_argument("--out", required=True)
    tp.set_defaults(fn=cmd_transform)
    return p


def _glue_negative_grids(argv):
    """Join '--a -1:1:21' into '--a=-1:1:21' so argparse does not read the
    negative grid bound as an option."""
    out = []
    i = 0
    grid_flags = {"--a", "--b", "--t"}
    while i < len(argv):
        tok = argv[i]
        if tok in grid_flags and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and ":" in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    """Run one command; the one place where rejected input becomes exit 2
    and an I/O failure exit 3, each reported on one stderr line."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_negative_grids(list(argv)))
    try:
        if "seed" in args:
            args.seed = _seed(args.seed)
        return args.fn(args)
    except OSError as exc:
        print(f"stablesim {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # InvalidSpecError, json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        message = " ".join(str(exc).splitlines())
        print(f"stablesim {args.command}: {message}", file=sys.stderr)
        return EXIT_INVALID

if __name__ == "__main__":
    sys.exit(main())
