"""Self-test of the benchmark at tiny sizes (about two minutes on 2 CPUs).

    python3 benchmark/selftest.py

Checks that each workload emits exactly the metrics BENCHMARK.json names,
each with its unit and a finite value, in both the untraced and the traced
pass; and that a corrupted ensemble (one CSV value altered before read-back,
or every value scaled by 2) makes operations fail.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import stablesim as ss  # noqa: E402
import workloads as W  # noqa: E402
from stablesim import io as sio  # noqa: E402


def tiny(name: str):
    w = W.make(name)
    if name == "lfsm_fine_io":
        w.times = np.linspace(0.0, 1.0, 65)[1:]
        w.n_paths = 256
    elif name == "twocoord_threads":
        w.times = np.asarray(W.PROBE_TIMES)   # holds the probe times, so no extra simulation
        w.n_paths = 256
    else:
        w = W.VerifyCatalog(name, specs=(ss.Lfsm(1.5, 0.7), ss.Chentsov(1.25, 0.5)),
                            n_hopf=1, region_n=5)
    return w


def check_metrics(result: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), sorted(set(got) ^ set(want))
    for name, m in got.items():
        assert m["unit"] == want[name], (name, m["unit"], want[name])
        assert isinstance(m["value"], float), (name, m["value"])


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)

    for name in W.WORKLOADS:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            res = run.measure(tiny(name), seed=5, seconds=0.0, trace=trace)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
            check_metrics(res, declared)
            print(f"ok: {name} trace={int(trace)} emits {len(res['metrics'])} metrics")

    real_write, real_simulate = sio.write_ensemble_csv, ss.simulate

    def write_one_altered(fh, times, values):
        bad = values.copy()
        bad[0, 0] += 1.0
        real_write(fh, times, bad)

    def simulate_doubled(*args, **kwargs):
        ens = real_simulate(*args, **kwargs)
        return ss.PathEnsemble(ens.times, 2.0 * ens.values, ens.seed, ens.spec_digest)

    for label, module, attr, real, fake in (
            ("CSV value altered", sio, "write_ensemble_csv", real_write, write_one_altered),
            ("values scaled by 2", ss, "simulate", real_simulate, simulate_doubled)):
        setattr(module, attr, fake)
        try:
            res = run.measure(tiny("lfsm_fine_io"), seed=5, seconds=0.0, trace=False)
        finally:
            setattr(module, attr, real)
        ok_frac = res["metrics"]["ok_frac"]["value"]
        assert res["failed"] > 0 and not res["correct"] and ok_frac < 1.0, res
        print(f"ok: {label} -> failed {res['failed']} of {res['attempted']}, ok_frac {ok_frac}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
