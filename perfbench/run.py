#!/usr/bin/env python3
"""lfstx benchmark: TPC-B closed loop and scan-after-update.

    python3 perfbench/run.py --workload tpcb_closed --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The first run builds the driver (this
directory's CMakeLists.txt, which compiles ../src) into .bench_build/.
Every configuration -- workload x architecture -- runs in a child process
of its own, so a crash costs only that configuration's numbers; it still
fails the gate.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
from untraced runs. With --trace 1 they are the per-layer metrics: one
untraced round, one traced round (spans + windowed Stats) and one round of
a -pg build folded into host CPU by source module. README.md maps each
metric to the layer it measures and the end-to-end metric it should move.

The exit code is 1 when the correctness gate fails (a configuration that
crashed, exited nonzero or left no result; any configuration's balance,
acknowledged-commit, key-order or fsck check; or two rounds of the same
seed disagreeing on a virtual-time result) and 2 on a usage or build
error; no result line is printed for a build error. A configuration that
crashed contributes no metric: its virtual-time metrics are left out, and
host metrics come only from rounds in which every configuration finished.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ARCHS = ("user_ffs", "user_lfs", "embedded_lfs")
WORKLOADS = ("tpcb_closed", "scan_after_update")
JOBS = 3  # configurations run side by side (host time is per-process CPU)
RUN_DEADLINE_S = 170

# Paper reference values, printed next to the measured ones (not gated).
PAPER_TPS = {"user_ffs": 12.3, "user_lfs": 13.6, "embedded_lfs": 13.8}
PAPER_SCAN_RATIO = 1.5


class Config:
    """One child process: a workload x architecture point."""

    def __init__(self, workload, arch, **flags):
        self.workload = workload
        self.arch = arch
        self.name = arch
        self.flags = flags


def workload_configs(workload):
    if workload == "tpcb_closed":
        # Power cut + restart on the two LFS architectures (LFS roll-forward,
        # then LIBTP redo on user_lfs).
        return [Config(workload, a, warmup=250, txns=3000,
                       restart=int(a != "user_ffs")) for a in ARCHS]
    if workload == "scan_after_update":
        return [Config(workload, a, warmup=0, txns=25000) for a in ARCHS]
    raise ValueError(workload)


def seeds_for(seed):
    """The TPC-B driver and update seeds, derived from --seed."""
    rng = random.Random(seed)
    return {"driver": rng.getrandbits(32), "update": rng.getrandbits(32)}


# ---------------------------------------------------------------------------
# Build

def build(root):
    """Builds the plain and the -pg driver; returns their paths."""
    out = {}
    logdir = os.path.join(root, ".bench_build")
    os.makedirs(logdir, exist_ok=True)
    for kind, extra in (("plain", []), ("gprof", ["-DPERFBENCH_GPROF=ON"])):
        bdir = os.path.join(root, ".bench_build", "perfbench-" + kind)
        log = os.path.join(logdir, "perfbench-%s.log" % kind)
        cmds = [["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2),
                 "--target", "perfbench_driver"]]
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            cmds.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + extra)
        with open(log, "w") as f:
            for cmd in cmds:
                rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT,
                                     cwd=root)
                if rc != 0:
                    f.flush()
                    with open(log) as r:
                        sys.stderr.write(r.read()[-4000:])
                    sys.stderr.write("perfbench: build failed (%s)\n" % log)
                    sys.exit(2)
        out[kind] = os.path.join(bdir, "perfbench_driver")
    return out


# ---------------------------------------------------------------------------
# Child processes

class Child:
    def __init__(self, cfg, binary, seeds, workdir, spans=False):
        self.cfg = cfg
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.out = os.path.join(workdir, "result.json")
        seed = seeds["update" if cfg.workload == "scan_after_update"
                     else "driver"]
        flags = dict(cfg.flags, workload=cfg.workload, arch=cfg.arch,
                     out=self.out, **{"driver-seed": seed})
        if spans:
            flags["spans"] = os.path.join(workdir, "spans.jsonl")
        self.argv = [binary] + ["--%s=%s" % kv for kv in sorted(flags.items())]
        self.proc = None
        self.status = None
        self.maxrss_kb = 0

    def start(self):
        self.stdout = open(os.path.join(self.workdir, "stdout.txt"), "w")
        self.stderr = open(os.path.join(self.workdir, "stderr.txt"), "w")
        self.proc = subprocess.Popen(self.argv, cwd=self.workdir,
                                     stdout=self.stdout, stderr=self.stderr)

    def reap(self, block):
        pid, status, ru = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.status = self.proc.returncode
        self.maxrss_kb = ru.ru_maxrss
        self.stdout.close()
        self.stderr.close()
        return True

    def kill(self):
        if self.proc is not None and self.status is None:
            self.proc.kill()
            self.reap(block=True)

    def result(self):
        """The driver's JSON, or a crash record with the failed operations."""
        if os.path.exists(self.out):
            with open(self.out) as f:
                return json.load(f)
        return crash_record(self.cfg, self.status)


def crash_record(cfg, status):
    """A configuration that died or left no result: every planned operation
    failed."""
    return {"crashed": True, "exit": status,
            "attempted": cfg.flags["txns"], "failed": cfg.flags["txns"]}


def run_round(configs, binary, seeds, workdir, deadline, spans=False):
    """Runs every configuration once, JOBS at a time. Past the deadline the
    running ones are killed, and they and the unstarted ones count as
    crashed."""
    pending = [Child(c, binary, seeds, os.path.join(workdir, c.name),
                     spans=spans) for c in configs]
    running, done = [], []
    try:
        while pending or running:
            while pending and len(running) < JOBS:
                running.append(pending.pop(0))
                running[-1].start()
            time.sleep(0.02)
            for ch in [c for c in running if c.reap(block=False)]:
                running.remove(ch)
                done.append(ch)
            if time.monotonic() > deadline:
                sys.stderr.write("perfbench: run deadline reached\n")
                break
    finally:
        for ch in running:
            ch.kill()
    results = {ch.cfg.name: (ch, ch.result()) for ch in done + running}
    results.update({ch.cfg.name: (ch, crash_record(ch.cfg, None))
                    for ch in pending})
    return results


# ---------------------------------------------------------------------------
# Metrics

E2E_FAMILIES = (("tps", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
                ("scan_s", "s"))


def finished(results):
    """True when every configuration of the round left a result."""
    return not any(r.get("crashed") for _, r in results.values())


def host_us_per_op(results):
    ops = sum(r["host"]["ops"] for _, r in results.values())
    window = sum(r["host"]["window_s"] for _, r in results.values())
    return 1e6 * window / ops


def end_to_end(rounds):
    """Host metrics: median over the rounds in which every configuration
    finished. Virtual ones: from the first round in which that
    configuration finished (rounds of one seed agree exactly, which the gate
    checks). A crashed configuration reports nothing, so it can never read
    as a gain.
    """
    m = {}
    complete = [r for r in rounds if finished(r)]
    if complete:
        m["setup_s"] = (statistics.median(
            sum(r["host"]["setup_s"] for _, r in results.values())
            for results in complete), "s")
        m["host_us_per_op"] = (statistics.median(
            host_us_per_op(results) for results in complete), "us")
        m["peak_rss_mb"] = (statistics.median(
            max(ch.maxrss_kb for ch, _ in results.values()) / 1024.0
            for results in complete), "MB")
    for arch in ARCHS:
        res = next((r[arch][1] for r in rounds
                    if not r[arch][1].get("crashed")), None)
        if res is None:
            continue
        for family, unit in E2E_FAMILIES:
            m["%s.%s" % (family, arch)] = (res["virtual"][family], unit)
    return m


def determinism_errors(rounds):
    """Virtual-time results must be byte-identical across same-seed rounds."""
    errors = []
    for results in rounds[1:]:
        for name, (_, res) in results.items():
            base = rounds[0].get(name)
            if base is None or res.get("crashed") or base[1].get("crashed"):
                continue
            if json.dumps(res["virtual"], sort_keys=True) != json.dumps(
                    base[1]["virtual"], sort_keys=True):
                errors.append("%s: virtual results differ between rounds"
                              % name)
    return errors


def gate(rounds):
    """(correct, attempted, failed, errors) over every round."""
    attempted = failed = 0
    errors = determinism_errors(rounds)
    for results in rounds:
        for name, (ch, res) in results.items():
            attempted += res["attempted"]
            failed += res["failed"]
            if res.get("crashed"):
                errors.append("%s: crashed or left no result (exit %s)"
                              % (name, res["exit"]))
            elif not res["ok"] or ch.status != 0:
                errors.append("%s: %s" % (name, "; ".join(res["errors"])
                                          or "exit %s" % ch.status))
    return not errors, attempted, failed, errors


def print_table(workload, rounds):
    """Human-readable rows, with the paper's reference values."""
    results = rounds[0]
    print("workload %s (%d round%s)" % (
        workload, len(rounds), "" if len(rounds) == 1 else "s"))
    for name, (ch, res) in sorted(results.items()):
        if res.get("crashed"):
            print("  %-14s CRASHED (exit %s); %d operations counted as failed"
                  % (name, res["exit"], res["failed"]))
            continue
        v = res["virtual"]
        print("  %-14s tps %8.3f  p50 %9.1f ms  p99 %9.1f ms  restart %8.3f s"
              "  scan %8.2f s  %s" % (
                  name, v["tps"], v["p50_ms"], v["p99_ms"], v["restart_s"],
                  v["scan_s"], "ok" if res["ok"] else "GATE FAILED"))
    print("  host per round: " + "; ".join(
        "setup %.2f s, %.1f us/op" % (
            sum(r["host"]["setup_s"] for _, r in results.values()),
            host_us_per_op(results)) if finished(results) else "crashed"
        for results in rounds))
    if workload == "tpcb_closed":
        print("  paper Fig 4 TPS (reference, not gated): " + ", ".join(
            "%s %.1f" % kv for kv in PAPER_TPS.items()))
    if workload == "scan_after_update":
        ffs = results["user_ffs"][1]
        lfs = results["user_lfs"][1]
        if not ffs.get("crashed") and not lfs.get("crashed"):
            print("  LFS/FFS scan ratio %.2f (paper Fig 6: ~%.1f, not gated)"
                  % (lfs["virtual"]["scan_s"] / ffs["virtual"]["scan_s"],
                     PAPER_SCAN_RATIO))


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

CPU_MODULES = ("common", "sim", "disk", "cache", "lfs", "libtp", "embedded",
               "db")
PHASES = ("run", "runq_wait", "disk_read_wait", "disk_write_wait",
          "lock_wait", "log_wait", "cleaner_stall")
LFS_CATS = ("user_data", "inode", "imap", "summary", "checkpoint", "wal",
            "cleaner")
LFS_ARCHS = ("user_lfs", "embedded_lfs")
USER_ARCHS = ("user_ffs", "user_lfs")


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in report order.

    Names end in the architecture whose configuration measured them.
    """
    spec = []

    def add(names, unit, better, archs=ARCHS):
        for n in names:
            for a in archs:
                spec.append(("%s.%s" % (n, a), unit, better))

    add(["sim.phase.%s_ms" % p for p in PHASES], "ms/txn", "lower")
    add(["disk.service_ms.%s" % c for c in
         ("txn", "cleaner", "checkpoint", "syncer")] + ["disk.wait_ms"],
        "ms", "lower")
    add(["disk.requests"], "count", "lower")
    add(["cache.hit_rate", "cache.readahead_hit_rate"], "ratio", "higher")
    add(["lfs.blocks.%s" % c for c in LFS_CATS], "blocks/txn", "lower",
        LFS_ARCHS)
    add(["cleaner.busy_frac"], "ratio", "lower", LFS_ARCHS)
    add(["cleaner.read_amp"], "ratio", "lower", LFS_ARCHS)
    add(["cleaner.victim_util_p50"], "ratio", "lower", LFS_ARCHS)
    add(["ffs.blocks"], "blocks/txn", "lower", ("user_ffs",))
    add(["libtp.pool_hit_rate"], "ratio", "higher", USER_ARCHS)
    add(["libtp.log_bytes"], "B/txn", "lower", USER_ARCHS)
    add(["libtp.log_flushes"], "1/txn", "lower", USER_ARCHS)
    add(["libtp.recover_s"], "s", "lower", ("user_lfs",))
    add(["restart_s"], "s", "lower", LFS_ARCHS)
    for n in ("load_s", "restart_s", "scan_s"):
        spec.append(("host." + n, "s", "lower"))
    spec.append(("host.txn_us_p50", "us", "lower"))
    spec.append(("host.trace_overhead_us_per_op", "us", "lower"))
    for m in CPU_MODULES:
        spec.append(("host.cpu_frac." + m, "ratio", "lower"))
    return spec


def gprof_profile(binary, results, top_n=10):
    """Folds every configuration's gprof flat profile by source module."""
    locs = {}
    nm = subprocess.run(["nm", "-C", "-l", "--defined-only", binary],
                        capture_output=True, text=True).stdout
    for line in nm.splitlines():
        parts = line.split("\t")
        if len(parts) != 2:
            continue
        sym = parts[0].split(" ", 2)
        if len(sym) == 3 and sym[1] in "tTwW":
            locs[sym[2].replace(" [clone .cold]", "")] = parts[1]
    by_func = defaultdict(float)
    for ch, res in results.values():
        gmon = os.path.join(ch.workdir, "gmon.out")
        if res.get("crashed") or not os.path.exists(gmon):
            continue
        flat = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                              capture_output=True, text=True).stdout
        for line in flat.splitlines():
            f = line.split(None, 6)
            if len(f) < 4:
                continue
            try:
                self_s = float(f[2])
            except ValueError:
                continue
            name = f[-1] if len(f) == 7 else f[3]
            by_func[name] += self_s
    total = sum(by_func.values()) or 1.0
    by_module = defaultdict(float)
    for name, s in by_func.items():
        path = locs.get(name, "")
        mod = "other"
        if "/src/" in path:
            mod = path.split("/src/", 1)[1].split("/", 1)[0]
        elif "/perfbench/" in path:
            mod = "perfbench"
        by_module[mod] += s
    top = sorted(by_func.items(), key=lambda kv: -kv[1])[:top_n]
    return ({m: by_module.get(m, 0.0) / total for m in CPU_MODULES},
            [(n, s / total) for n, s in top], dict(by_module), total)


def per_layer(untraced, traced, profiled, profile):
    """Per-layer metrics from the untraced, traced and -pg rounds.

    A layer the workload does not run (the restart on scan_after_update)
    reports 0. When a configuration crashed, the gate fails and only what
    was measured is reported: nothing of the crashed configuration, and no
    host sum or profile over a round that did not finish.
    """
    metrics = {}
    for arch, (_, res) in traced.items():
        if res.get("crashed"):
            continue
        for key, v in res["layer"].items():
            metrics["%s.%s" % (key, arch)] = v
        metrics["restart_s." + arch] = res["virtual"]["restart_s"]
    txn_us = [res["host"]["txn_us_p50"] for _, res in traced.values()
              if not res.get("crashed")]
    if txn_us:
        metrics["host.txn_us_p50"] = statistics.median(txn_us)
    if finished(untraced):
        for k in ("load_s", "restart_s", "scan_s"):
            metrics["host." + k] = sum(res["host"][k]
                                       for _, res in untraced.values())
        if finished(traced):
            metrics["host.trace_overhead_us_per_op"] = (
                host_us_per_op(traced) - host_us_per_op(untraced))
    if finished(profiled):
        for mod, frac in profile[0].items():
            metrics["host.cpu_frac." + mod] = frac
    spec = per_layer_spec()
    if all(finished(r) for r in (untraced, traced, profiled)):
        return {name: (float(metrics.get(name, 0.0)), unit)
                for name, unit, _ in spec}
    return {name: (float(metrics[name]), unit) for name, unit, _ in spec
            if name in metrics}


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    root = os.getcwd()
    binaries = build(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    seeds = seeds_for(args.seed)
    configs = workload_configs(args.workload)
    # Only the latest run's directories (results, spans, gmon.out) are kept.
    runs = os.path.join(root, ".bench_build", "perfbench-runs")
    shutil.rmtree(runs, ignore_errors=True)
    base = os.path.join(runs, "%s-%d-%d" % (args.workload, args.seed,
                                            args.trace))
    env_vars = {k: v for k, v in os.environ.items() if k.startswith("LFSTX_")}
    print("perfbench: workload %s seed %d (driver %d, update %d) backend "
          "fibers, LFSTX_* env %s" % (
              args.workload, args.seed, seeds["driver"], seeds["update"],
              json.dumps(env_vars, sort_keys=True)))

    rounds = []
    if args.trace == 0:
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(run_round(configs, binaries["plain"], seeds,
                                    os.path.join(base, "r%d" % len(rounds)),
                                    deadline))
            if time.monotonic() > deadline - 60:
                break
        metrics = end_to_end(rounds)
    else:
        untraced = run_round(configs, binaries["plain"], seeds,
                             os.path.join(base, "untraced"), deadline)
        traced = run_round(configs, binaries["plain"], seeds,
                           os.path.join(base, "traced"), deadline, spans=True)
        profiled = run_round(configs, binaries["gprof"], seeds,
                             os.path.join(base, "gprof"), deadline)
        rounds = [untraced, traced, profiled]
        profile = gprof_profile(binaries["gprof"], profiled)
        metrics = per_layer(untraced, traced, profiled, profile)
        print("host CPU by module (gprof, %.1f s sampled): %s" % (
            profile[3], ", ".join("%s %.1f%%" % (m, 100 * s / profile[3])
                                  for m, s in sorted(profile[2].items(),
                                                     key=lambda kv: -kv[1]))))
        print("top %d functions:" % len(profile[1]))
        for name, frac in profile[1]:
            print("  %5.1f%%  %s" % (100 * frac, name[:110]))

    correct, attempted, failed, errors = gate(rounds)
    print_table(args.workload, rounds)
    for e in errors:
        print("GATE: " + e)
    print("perfbench: %.1f s" % (time.monotonic() - t0))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
