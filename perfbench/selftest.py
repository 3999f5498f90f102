#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload tpcb_closed]

Checks, in order:
  1. BENCHMARK.json names exactly the workloads and metrics run.py reports;
  2. two runs with the same seed report byte-identical virtual-time metrics;
  3. the held-out seed passes the correctness gate. Do not tune on it.
Exits 0 when all three hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

HELD_OUT_SEED = 20261017
HOST_METRICS = {"setup_s", "host_us_per_op", "peak_rss_mb"}


def check_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    workloads = {w["name"] for w in spec["workloads"]}
    if workloads != set(run.WORKLOADS):
        errors.append("workloads: %s" % sorted(workloads))
    want_e2e = set(HOST_METRICS) | {
        "%s.%s" % (fam, arch) for fam, _ in run.E2E_FAMILIES
        for arch in run.ARCHS}
    got_e2e = {m["name"] for m in spec["end_to_end"]}
    if got_e2e != want_e2e:
        errors.append("end_to_end differs: %s" % sorted(got_e2e ^ want_e2e))
    want_layer = {(n, u, b) for n, u, b in run.per_layer_spec()}
    got_layer = {(m["name"], m["unit"], m["better"])
                 for m in spec["per_layer"]}
    if got_layer != want_layer:
        errors.append("per_layer differs: %s" % sorted(got_layer ^ want_layer))
    return errors


def bench(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return out.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="tpcb_closed")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    errors = check_spec()
    print("spec: %s" % ("ok" if not errors else "; ".join(errors)))

    virtual = []
    for i in range(2):
        rc, res = bench(args.workload, args.seed)
        if rc != 0 or not res["correct"]:
            errors.append("seed %d run %d: exit %d correct %s" % (
                args.seed, i, rc, res["correct"]))
        virtual.append({k: v["value"] for k, v in res["metrics"].items()
                        if k not in HOST_METRICS})
    same = json.dumps(virtual[0], sort_keys=True) == json.dumps(
        virtual[1], sort_keys=True)
    if not same:
        errors.append("same-seed virtual metrics differ")
    print("determinism (%s, seed %d, %d virtual metrics): %s" % (
        args.workload, args.seed, len(virtual[0]),
        "identical" if same else "DIFFER"))

    rc, res = bench(args.workload, HELD_OUT_SEED)
    held_ok = rc == 0 and res["correct"]
    if not held_ok:
        errors.append("held-out seed failed the gate")
    print("held-out seed %d: %s" % (HELD_OUT_SEED,
                                    "gate passed" if held_ok else "FAILED"))
    for e in errors:
        print("FAIL: " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
