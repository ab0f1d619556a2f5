"""Print digests of the quadrature oracle's values, to show that a change
kept every value bit-identical.

For every ``catalog_specs()`` entry, ``increment_process(Lfsm(1.5, 0.7), 1.0)``
and the two-harmonic ``RotatingAverage(1.5, 0.8, FourierSeries(((1, 1.0, 0.0),
(2, 0.3, 0.1))))``, whose shift integral has no closed form, it evaluates
176 ``cf_exponents`` values: at levels 1 and 2, the
stationary-increment probes (each default probe shifted by 0, 0.5, 1, 2
and 5), the self-similarity probes (each default probe scaled by 0.25,
0.5, 1, 2 and 4) and the eight default probes.  One line per spec gives
the first 16 hex digits of the SHA-256 of the comma-joined ``repr`` of
those values, in that order.  A line does the same for the values and
verdicts of ``region_map(1.5)`` on an 11 x 11 grid over [-1, 1]^2.  Two
more lines digest the verdicts and then the (window, value) traces of
``hopf_classify`` on 8 points drawn from ``philox(5)``: on the translation
flow with g0 = K(1, .) for lfsm(1.5, 0.7), lfsm(1.5, 0.3), lfsm(1.2, 0.9),
linear_motion(1.5) and log_fractional(1.5) in turn, and on the rotation
flow with g0 = cos s; each line also counts the verdicts.  The 14th line
digests ``check_scaling_maps`` on every ``catalog_specs()`` entry: per spec
its ``passed`` and residuals, or "unsupported" where the check raises
``UnsupportedFamilyError``, and it counts the outcomes.  A 15th line
digests ``check_kernel_identity(flow_identity_fixture(spec))`` on every
``catalog_specs()`` entry the same way (``passed`` and residuals), or reads
"unsupported" on a tree without ``flow_identity_fixture``.  Only public
calls are used, so the script runs on older trees too.

With ``--values FILE`` it also writes the raw values as JSON, one list of
176 per spec keyed by the spec's ``repr``, so that two trees whose digests
differ can be compared value by value.  With ``--against FILE`` it reads
such a file, written by another tree, and prints under each spec's line how
many of its values are identical to that tree's and the largest relative
difference |x - y| / max(|x|, |y|) among the others.

usage: python tools/oracle_digest.py [--values FILE] [--against FILE]
       (imports the package from src/ next to tools/)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

_SHIFTS = (0.0, 0.5, 1.0, 2.0, 5.0)
_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


def digest(values) -> str:
    return hashlib.sha256(",".join(repr(v) for v in values).encode()).hexdigest()[:16]


def compare(values, other) -> str:
    """How many of ``values`` equal ``other`` entry by entry, and the largest
    relative difference of the rest (a nan equals a nan; any other unequal
    pair with a non-finite member differs by inf)."""
    if other is None:
        return "absent"
    if len(other) != len(values):
        return f"{len(other)} values, not {len(values)}"
    same, worst = 0, 0.0
    for x, y in zip(values, other):
        if x == y or (math.isnan(x) and math.isnan(y)):
            same += 1
        elif math.isfinite(x) and math.isfinite(y):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        else:
            worst = math.inf
    return f"{same}/{len(values)} identical, largest relative difference {worst:.3g}"


def oracle_values(ss, kernel) -> list[float]:
    from stablesim.verify import default_probes

    probes = default_probes()
    sets = ([c.shifted_increments(h) for c in probes for h in _SHIFTS],
            [c.scaled_times(s) for c in probes for s in _SCALES],
            list(probes))
    values: list[float] = []
    for level in (1, 2):
        for combos in sets:
            values.extend(ss.cf_exponents(kernel, combos, level).values)
    return values


def hopf_lines(ss) -> list[str]:
    from stablesim.core import philox
    from stablesim.flows import hopf_classify, rotation_flow, translation_flow

    def points(flow):
        return flow.sample_points(np.random.Generator(philox(5)), 8)

    trans = translation_flow()
    cases = [("translation, g0 = K(1, .) of lfsm(1.5, 0.7), lfsm(1.5, 0.3), lfsm(1.2, 0.9), "
              "linear_motion, log_fractional",
              [hopf_classify(trans, lambda s, k=k: k.eval(1.0, np.asarray(s, dtype=float)),
                             k.alpha, points(trans))
               for k in (ss.Lfsm(1.5, 0.7), ss.Lfsm(1.5, 0.3), ss.Lfsm(1.2, 0.9),
                         ss.LinearMotion(1.5), ss.LogFractional(1.5))])]
    rot = rotation_flow()
    cases.append(("rotation, g0 = cos s",
                  [hopf_classify(rot, lambda p: np.cos(np.atleast_2d(p)[:, 0]), 1.5, points(rot))]))
    lines = []
    for label, verdicts in cases:
        names = [x for v in verdicts for x in v.verdicts]
        traces = [x for v in verdicts for trace in v.traces for pair in trace for x in pair]
        lines.append(f"{digest(names + traces)}  hopf_classify({label}; "
                     f"8 points of philox(5)) {dict(Counter(names))}")
    return lines


def scaling_maps_line(ss) -> str:
    from stablesim.verify import UnsupportedFamilyError, check_scaling_maps

    items, outcomes = [], []
    for spec in ss.catalog_specs():
        try:
            rep = check_scaling_maps(spec)
        except UnsupportedFamilyError:
            items.append("unsupported")
            outcomes.append("unsupported")
            continue
        items.extend([rep.passed, *rep.residuals])
        outcomes.append("passed" if rep.passed else "failed")
    return (f"{digest(items)}  check_scaling_maps({len(outcomes)} catalog specs) "
            f"{dict(Counter(outcomes))}")


def flow_identity_line(ss) -> str:
    from stablesim import verify

    if not hasattr(verify, "flow_identity_fixture"):
        return "unsupported  check_kernel_identity(flow_identity_fixture)"
    items, outcomes = [], []
    for spec in ss.catalog_specs():
        rep = verify.check_kernel_identity(verify.flow_identity_fixture(spec))
        items.extend([rep.passed, *rep.residuals])
        outcomes.append("passed" if rep.passed else "failed")
    return (f"{digest(items)}  check_kernel_identity(flow_identity_fixture, "
            f"{len(outcomes)} catalog specs) {dict(Counter(outcomes))}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Digest the quadrature oracle's values.")
    parser.add_argument("--values", metavar="FILE",
                        help="also write the raw values per spec to FILE as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="compare each spec's values with those a --values FILE holds")
    args = parser.parse_args()
    against = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            against = json.load(fh)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import stablesim as ss
    from stablesim.transforms import increment_process

    two_harmonics = ss.FourierSeries(((1, 1.0, 0.0), (2, 0.3, 0.1)))
    specs = (*ss.catalog_specs(), increment_process(ss.Lfsm(1.5, 0.7), 1.0),
             ss.RotatingAverage(1.5, 0.8, two_harmonics))
    raw = {}
    for spec in specs:
        values = raw[repr(spec)] = oracle_values(ss, ss.build(spec))
        print(f"{digest(values)}  {len(values)} values  {spec!r}")
        if against is not None:
            print(f"    against {args.against}: {compare(values, against.get(repr(spec)))}")
    if args.values:
        with open(args.values, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
    grid = np.linspace(-1.0, 1.0, 11)
    rm = ss.region_map(1.5, grid, grid)
    print(f"{digest([*rm.values.ravel(), *rm.verdicts.ravel()])}  "
          f"{rm.values.size} values and verdicts  region_map(1.5, 11x11 over [-1, 1]^2)")
    for line in hopf_lines(ss):
        print(line)
    print(scaling_maps_line(ss))
    print(flow_identity_line(ss))
    return 0


if __name__ == "__main__":
    sys.exit(main())
