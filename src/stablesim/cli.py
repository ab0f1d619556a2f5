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
from .core import simulate
from .flows import hopf_classify, rotation_flow, translation_flow
from .kernels import InvalidSpecError, RotatingAverage, region_map, validate
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


def _default_seed() -> int:
    return int(os.environ.get("STABLESIM_SEED", "0"))


def _parse_grid(text: str) -> np.ndarray:
    """lo:hi:n (linear) or lo:hi:nxg (geometric n-point grid), n >= 1; exit 2 if malformed."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        geometric = n_s.endswith("g")
        n = int(n_s[:-1] if geometric else n_s)
        lo, hi = float(lo_s), float(hi_s)
        if n < 1:
            raise ValueError
        if geometric:
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    except ValueError:
        print(f"bad grid spec {text!r}: want lo:hi:n with n >= 1", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _check_alpha(alpha: float) -> None:
    """Exit 2 unless alpha is a stable index in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        print(f"--alpha must lie in (0, 2), got {alpha}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_spec_or_exit(path: str):
    try:
        spec = sio.load_spec(path)
    except OSError as exc:
        print(f"cannot read spec file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except json.JSONDecodeError as exc:
        print(f"spec file is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    except InvalidSpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    rep = validate(spec)
    if not rep.ok:
        print("inadmissible spec: " + "; ".join(rep.violations), file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return spec


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def cmd_simulate(args) -> int:
    spec = _load_spec_or_exit(args.spec)
    times = _parse_grid(args.t)
    try:
        ens = simulate(spec, times, args.n_paths, args.seed,
                       level=args.level, threads=args.threads)
    except ValueError as exc:
        print(f"invalid simulation request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        with open(args.out, "w") as fh:
            sio.write_ensemble_csv(fh, ens.times, ens.values)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    meta = sio.ensemble_metadata(
        ens, sio.spec_to_dict(spec),
        {"t_min": float(times[0]), "t_max": float(times[-1]), "n": int(times.size)},
        {"sim_level": args.level})
    _write_json(args.meta or args.out + ".meta.json", meta)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec_or_exit(args.spec)
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    try:
        reports = run_suite(spec, checks, n_paths=args.n_paths, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
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
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    if args.flow == "rotation":
        flow = rotation_flow()
        g0 = lambda pts: np.cos(np.atleast_2d(pts)[:, 0])
    elif args.flow == "translation":
        flow = translation_flow()
        g0 = lambda s: ((np.asarray(s) >= 0.0) & (np.asarray(s) <= 1.0)).astype(float)
    else:
        print(f"unknown flow {args.flow!r} (choose rotation or translation)", file=sys.stderr)
        return EXIT_INVALID
    if args.n_points < 1:
        print(f"--n-points must be at least 1, got {args.n_points}", file=sys.stderr)
        return EXIT_INVALID
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
    try:
        with open(args.out, "w") as fh:
            fh.write("a,b,verdict,value\n")
            for i, a in enumerate(rm.a_values):
                for j, b in enumerate(rm.b_values):
                    v = rm.values[i, j]
                    fh.write(f"{a!r},{b!r},{rm.verdicts[i, j]},{'' if not math.isfinite(v) else repr(float(v))}\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"scored {int(rm.scored.sum())} points, agreement with closed-form "
          f"region: {rm.agreement:.4f}")
    return EXIT_OK if rm.agreement == 1.0 else EXIT_FAIL


def cmd_identify(args) -> int:
    s1 = _load_spec_or_exit(args.spec1)
    s2 = _load_spec_or_exit(args.spec2)
    from .identify import match_rotating, mixing_measure, ray_test, same_mixed_lfsm
    from .kernels import MixedLfsm

    if isinstance(s1, MixedLfsm) and isinstance(s2, MixedLfsm):
        if abs(s1.alpha - s2.alpha) > 1e-12 or abs(s1.hurst - s2.hurst) > 1e-12:
            equal = False
        else:
            equal = same_mixed_lfsm(s1.atoms, s2.atoms, s1.alpha)
        doc = {"kind": "mixed_lfsm", "equal_in_law": equal,
               "sphere_measure_1": [{"direction": list(o), "weight": w}
                                    for o, w in mixing_measure(s1.atoms, s1.alpha).atoms],
               "sphere_measure_2": [{"direction": list(o), "weight": w}
                                    for o, w in mixing_measure(s2.atoms, s2.alpha).atoms],
               "ray_1": ray_test(s1.atoms), "ray_2": ray_test(s2.atoms)}
    elif isinstance(s1, RotatingAverage) and isinstance(s2, RotatingAverage):
        if abs(s1.alpha - s2.alpha) > 1e-12:
            witness = None
        else:
            witness = match_rotating(s1.series, s1.beta, s2.series, s2.beta)
        doc = {"kind": "rotating_average", "equal_in_law": witness is not None}
        if witness is not None:
            doc["witness"] = {"epsilon": witness.epsilon, "shift": witness.shift,
                              "offset": witness.offset}
    else:
        print("identify supports two mixed_lfsm specs or two rotating_average specs",
              file=sys.stderr)
        return EXIT_INVALID
    doc["schema_version"] = sio.SCHEMA_VERSION
    if args.out:
        _write_json(args.out, doc)
    print("equal in law" if doc["equal_in_law"] else "distinct")
    return EXIT_OK


def cmd_transform(args) -> int:
    try:
        with open(args.input) as fh:
            times, values = sio.read_ensemble_csv(fh)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    pf = PathFunction(times, values)
    try:
        if args.op == "masani-forward":
            out, bound = masani_forward(pf, history=args.history)
            print(f"history truncation bound: {bound:.3g}")
        elif args.op == "masani-inverse":
            out = masani_inverse(pf)
        elif args.op == "lamperti-to-stationary":
            out = lamperti_to_stationary(pf, args.hurst)
        elif args.op == "lamperti-from-stationary":
            out = lamperti_from_stationary(pf, args.hurst)
        else:
            print(f"unknown op {args.op!r}", file=sys.stderr)
            return EXIT_INVALID
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    try:
        with open(args.out, "w") as fh:
            sio.write_ensemble_csv(fh, out.times, np.atleast_2d(out.values))
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
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
    sp.add_argument("--seed", type=int, default=_default_seed())
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
    vp.add_argument("--seed", type=int, default=_default_seed())
    vp.add_argument("--out", help="JSON report path")
    vp.set_defaults(fn=cmd_verify)

    cp = sub.add_parser("classify", help="Hopf-classify a catalog flow")
    cp.add_argument("--flow", required=True, choices=["rotation", "translation"])
    cp.add_argument("--alpha", type=float, default=1.5)
    cp.add_argument("--n-points", type=int, default=40)
    cp.add_argument("--seed", type=int, default=_default_seed())
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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_negative_grids(list(argv)))
    if getattr(args, "op", "").startswith("lamperti") and args.hurst is None:
        print("--hurst is required for the Lamperti maps", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
