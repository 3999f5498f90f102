#!/usr/bin/env python3
"""Offline layer-by-layer reports and committed baselines for lfstx benches.

Each subcommand breaks an end-to-end number down by layer, from a saved
trace (`--trace-file`) or bench summary (`--summary`):

  profile TRACE     per-transaction phase attribution (`--trace=prof`)
  blame TRACE       causal wait-blame and exact critical paths
                    (`--trace=prof,blame`)
  tail SUMMARY      why p99 is slow: fig_tail exemplars, refined by
                    `--trace` (`--trace=prof,blame,openloop`)
  cleaning SUMMARY  where the bytes went: fig_cleaning provenance and
                    write amplification, re-derived from `--trace`
                    (`--trace=disk,logecon,cleaner`)
  baseline KIND     run a small bench from ./build, check its gates and
                    write BENCH_<KIND>.json (fig4, tail, recovery,
                    cleaning)

Usage:
    ./build/bench/fig4_tps --users=10 --blame --trace=prof,blame \\
        --trace-file=/tmp/trace.jsonl
    python3 tools/report.py profile /tmp/trace.jsonl
    python3 tools/report.py blame /tmp/trace.jsonl --check \\
        --require-disk-blame=cleaner
    python3 tools/report.py baseline fig4

Every invariant is checked by one function that both the report over a
saved summary or trace and the baseline run call. Everything printed
derives from integer virtual-time microseconds with deterministic
tie-breaking, so two runs of the same seeded bench produce byte-identical
reports and baselines; CI diffs them.

Exit status: 1 on malformed input or on a traced span whose phases do not
sum to its elapsed time; otherwise 0, or 1 under --check when an invariant
fails (each failure is printed on stderr as "CHECK FAILED: ..."). A
baseline always checks its gates and writes nothing when one fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import defaultdict

import tracelib
from tracelib import LOGECON_CATS, PHASES

LOCK_KINDS = ("lock.kernel", "lock.libtp")
COMMIT_KINDS = ("group_commit", "log")

TOP = 5               # rows per blame ranking table
MIN_LOCK_SHARE = 0.9  # share of lock_wait that must name its holder
MIN_COVERAGE = 0.95   # share of fig4's window inside transaction spans
BLOCK_SIZE = 4096
FIG4_ARCHS = ["user_ffs", "user_lfs", "embedded_lfs"]
TAIL_PERCENTILES = ["p50", "p90", "p95", "p99", "p999"]


def pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def group_by(items, key):
    groups = defaultdict(list)
    for item in items:
        groups[item[key]].append(item)
    return groups


def finish(failures, check):
    """Prints every failure on stderr; returns 1 under check, else 0."""
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    return 1 if check and failures else 0


def load_summary(path, bench):
    with open(path, "r", encoding="utf-8") as f:
        summary = json.load(f)
    if summary.get("bench") != bench:
        sys.exit(f"{path}: not a {bench} summary")
    return summary


# ---- profile ---------------------------------------------------------------

def cmd_profile(args):
    """The attribution table a bench prints under --profile, per manager."""
    spans, _ = tracelib.load(args.trace)
    groups = defaultdict(list)
    for machine, events in spans.items():
        for e in events:
            groups[(machine, e["mgr"])].append(e)
    if not groups:
        sys.exit(f"{args.trace}: no txn_profile events "
                 "(run the bench with --trace=prof)")
    for (machine, mgr), events in sorted(groups.items()):
        n = len(events)
        committed = sum(1 for e in events if e.get("committed"))
        elapsed = sum(e["elapsed_us"] for e in events)
        print(f"\n[profile] machine={machine} mgr={mgr}: "
              f"{n} spans ({committed} committed)")
        rows = [("phase", "total (us)", "per-txn (us)", "% of txn time")]
        for p in PHASES:
            total = sum(e.get(p, 0) for e in events)
            rows.append((p, total, f"{total / n:.1f}",
                         f"{pct(total, elapsed):.1f}"))
        rows.append(("total", elapsed, f"{elapsed / n:.1f}", "100.0"))
        tracelib.print_table(rows)
    return 0


# ---- blame -----------------------------------------------------------------

def attach_edges(spans, edges):
    """Maps each waiter edge onto the span whose interval covers it.

    `spans` are in time order. Returns {id(span): [edge, ...]} plus the edges that matched no span
    (daemon waiters — the syncer and cleaner run outside transaction
    spans and stamp waiter 0).
    """
    by_txn = defaultdict(list)
    for s in spans:
        by_txn[s["txn"]].append(s)
    attached = defaultdict(list)
    orphans = []
    for e in edges:
        waiter = e.get("waiter", 0)
        home = None
        if waiter:
            for s in by_txn.get(waiter, ()):
                if s["t"] - s["elapsed_us"] <= e["since"] < s["t"]:
                    home = s
                    break
        if home is None:
            orphans.append(e)
        else:
            attached[id(home)].append(e)
    return attached, orphans


def critical_path(phases, edges):
    """Exact decomposition of one span into ((phase, blamed), us) pieces.

    `phases` maps each profiler phase to its microseconds (a span event
    or a tail exemplar's phases). The blocking phases decompose into the
    blame edges: lock_wait exactly (every lock-wait microsecond carries a
    wait_edge naming the holder), log_wait into group-commit / log-flush
    leader edges, cleaner_stall into cleaner edges; whatever the edges do
    not cover, and every other phase, stays "self" time. The pieces
    therefore sum exactly to the span's elapsed time.

    Returns (sorted pieces, whether the lock edges sum exactly to the
    lock_wait phase — they must).
    """
    segs = defaultdict(int)
    blamed = defaultdict(int)
    for e in edges:
        if e["kind"] in LOCK_KINDS:
            seg = ("lock_wait", f"txn {e['holder']}")
        elif e["kind"] in COMMIT_KINDS:
            seg = ("log_wait", f"leader txn {e['holder']}")
        elif e["kind"] == "lfs":
            seg = ("cleaner_stall", "cleaner")
        else:
            # Disk edges explain time *inside* the disk phases rather
            # than partitioning them; admission edges precede the span.
            continue
        segs[seg] += e["waited_us"]
        blamed[seg[0]] += e["waited_us"]
    for phase in PHASES:
        rest = phases.get(phase, 0) - blamed[phase]
        if rest:
            segs[(phase, "self")] += rest
    return sorted(segs.items()), blamed["lock_wait"] == phases.get(
        "lock_wait", 0)


def find_cycles(edges):
    """Mutual-blame pairs with overlapping wait intervals.

    Two transactions blocked on each other at the same time would be a
    deadlock the lock manager failed to see; expected count is zero and
    any hit is printed as an anomaly.
    """
    blames = defaultdict(list)  # (waiter, holder) -> [(since, until)]
    for e in edges:
        w, h = e.get("waiter", 0), e.get("holder", 0)
        if w and h:
            blames[(w, h)].append((e["since"], e["since"] + e["waited_us"]))
    hits = []
    for (w, h), ivals in sorted(blames.items()):
        if w >= h:  # count each unordered pair once
            continue
        for s0, u0 in ivals:
            for s1, u1 in blames.get((h, w), ()):
                if s0 < u1 and s1 < u0:
                    hits.append((w, h, max(s0, s1), min(u0, u1)))
    return hits


def count_by_source(edges):
    """{(kind, src): [edges, us]} over wait edges."""
    totals = defaultdict(lambda: [0, 0])
    for e in edges:
        t = totals[(e["kind"], e["src"])]
        t[0] += 1
        t[1] += e["waited_us"]
    return totals


def blame_manager(machine, mgr, spans, edges):
    """Prints one manager's blame report; returns (paths_exact, lock_share)."""
    spans = sorted(spans, key=lambda s: s["t"])
    committed = sum(1 for s in spans if s.get("committed"))
    elapsed = sum(s["elapsed_us"] for s in spans)
    lock_wait = sum(s.get("lock_wait", 0) for s in spans)
    print(f"\n[blame] machine={machine} mgr={mgr}: {len(spans)} spans "
          f"({committed} committed), {elapsed} us inside transactions")

    attached, orphans = attach_edges(spans, edges)

    rows = [("edge", "count", "total (us)")]
    for (kind, src), (n, us) in sorted(count_by_source(edges).items()):
        rows.append((f"{kind}/{src}", n, us))
    if len(rows) > 1:
        tracelib.print_table(rows)
    else:
        print("  (no wait edges recorded)")

    # ---- lock blame ------------------------------------------------------
    holders = defaultdict(lambda: [0, 0, set()])    # txn -> n, us, waiters
    resources = defaultdict(lambda: [0, 0, set()])  # (file, page) -> same
    for es in attached.values():
        for e in es:
            if e["kind"] not in LOCK_KINDS:
                continue
            for agg in (holders[e["holder"]],
                        resources[(e["file"], e["page"])]):
                agg[0] += 1
                agg[1] += e["waited_us"]
                agg[2].add(e["waiter"])
    lock_attr = sum(v[1] for v in holders.values())
    lock_share = lock_attr / lock_wait if lock_wait else 1.0
    print(f"  lock blame: {lock_attr} of {lock_wait} us of lock_wait "
          f"attributed to identified holders ({pct(lock_attr, lock_wait):.1f}%)")
    if holders:
        rows = [("holder", "edges", "blamed (us)", "distinct waiters")]
        ranked = sorted(holders.items(), key=lambda kv: (-kv[1][1], kv[0]))
        for txn, (n, us, waiters) in ranked[:TOP]:
            rows.append((f"txn {txn}", n, us, len(waiters)))
        tracelib.print_table(rows)
        rows = [("resource", "edges", "blamed (us)", "waiters", "shape")]
        ranked = sorted(resources.items(), key=lambda kv: (-kv[1][1], kv[0]))
        for (fileno, page), (n, us, waiters) in ranked[:TOP]:
            shape = ("convoy" if len(waiters) >= 3
                     and us * 2 >= lock_attr else "")
            rows.append((f"file {fileno} page {page}", n, us, len(waiters),
                         shape))
        tracelib.print_table(rows)

    # ---- critical paths --------------------------------------------------
    path_totals = defaultdict(int)
    inexact = 0
    for s in spans:
        segs, lock_exact = critical_path(s, attached.get(id(s), []))
        inexact += not lock_exact
        for key, us in segs:
            path_totals[key] += us
    check_sum = sum(path_totals.values())
    exact = check_sum == elapsed and not inexact
    print(f"  critical path: segment totals sum to {check_sum} us over "
          f"{elapsed} us of span time ({'exact' if exact else 'INEXACT'})")
    if inexact:
        print(f"  WARNING: {inexact} spans whose lock edges do not sum to "
              f"their lock_wait phase")
    rows = [("segment", "total (us)", "% of txn time")]
    ranked = sorted(path_totals.items(), key=lambda kv: (-kv[1], kv[0]))
    for (phase, blamed), us in ranked[:TOP + 5]:
        rows.append((f"{phase}[{blamed}]", us, f"{pct(us, elapsed):.1f}"))
    tracelib.print_table(rows)

    # ---- most-blamed transactions (any mechanism) ------------------------
    blamed_txns = defaultdict(int)
    for e in edges:
        if e["kind"] in LOCK_KINDS or e["kind"] in COMMIT_KINDS:
            blamed_txns[e["holder"]] += e["waited_us"]
        elif e["kind"] == "disk" and e.get("ahead_txn"):
            blamed_txns[e["ahead_txn"]] += e["waited_us"]
    if blamed_txns:
        ranked = sorted(blamed_txns.items(), key=lambda kv: (-kv[1], kv[0]))
        head = ", ".join(f"txn {t}={us} us" for t, us in ranked[:TOP])
        print(f"  most-blamed transactions: {head}")

    if orphans:
        parts = ", ".join(f"{k}/{s}: {n} edges {us} us" for (k, s), (n, us)
                          in sorted(count_by_source(orphans).items()))
        print(f"  outside transaction spans (daemons): {parts}")

    cycles = find_cycles(edges)
    if cycles:
        print(f"  ANOMALY: {len(cycles)} mutual-blame interval overlaps "
              f"(possible undetected deadlock):")
        for w, h, s, u in cycles[:TOP]:
            print(f"    txn {w} <-> txn {h} overlapping [{s}, {u}] us")
    else:
        print("  no mutual-blame cycles (no overlapping A<->B waits)")

    return exact, lock_share


def cmd_blame(args):
    """Why each transaction waited: holders, leaders, cleaner, disk.

    Gates: every critical path is exact, at least MIN_LOCK_SHARE of
    lock_wait names its holder, and each --require-disk-blame source has
    at least one disk wait edge.
    """
    spans, edges = tracelib.load(args.trace)
    if not spans:
        sys.exit(f"{args.trace}: no txn_profile events "
                 "(run the bench with --trace=prof,blame)")
    failures = []
    for machine in sorted(set(spans) | set(edges)):
        by_mgr = group_by(spans.get(machine, ()), "mgr")
        for mgr in sorted(by_mgr):
            exact, lock_share = blame_manager(machine, mgr, by_mgr[mgr],
                                              edges.get(machine, []))
            where = f"machine {machine} mgr {mgr}"
            if not exact:
                failures.append(f"{where}: critical paths do not sum exactly")
            if lock_share < MIN_LOCK_SHARE:
                failures.append(f"{where}: lock blame covers only "
                                f"{lock_share:.1%} of lock_wait "
                                f"(floor {MIN_LOCK_SHARE:.0%})")
    for src in args.require_disk_blame:
        n = sum(1 for es in edges.values() for e in es
                if e["kind"] == "disk" and e["src"] == src)
        if n == 0:
            failures.append(f"no disk wait edges blamed on '{src}'")
        else:
            print(f"\ndisk blame on '{src}': {n} edges")
    return finish(failures, args.check)


# ---- tail ------------------------------------------------------------------

def tail_checks(summary):
    """Queueing invariants every open-loop sweep satisfies exactly.

    Returns (failures, one goodput note per architecture).
    """
    failures, notes = [], []
    by_arch = group_by(summary.get("configs", []), "arch")
    if len(by_arch) < 2:
        failures.append(f"need >= 2 architectures, got {sorted(by_arch)}")
    for arch, points in sorted(by_arch.items()):
        offered = [p["offered_tps"] for p in points]
        if offered != sorted(set(offered)) or len(offered) < 2:
            failures.append(f"{arch}: offered axis must be strictly "
                            f"increasing with >= 2 points, got {offered}")
        for p in points:
            where = f"{arch} @ {p['offered_tps']} tps"
            if p["goodput_tps"] > p["offered_tps"] + 1e-9:
                failures.append(f"{where}: goodput {p['goodput_tps']} "
                                f"exceeds the offered rate — accounting bug")
            if p["admitted"] + p["shed"] != p["arrivals"]:
                failures.append(f"{where}: admitted {p['admitted']} + shed "
                                f"{p['shed']} != arrivals {p['arrivals']}")
            if p["completed"] != p["admitted"]:
                failures.append(f"{where}: completed {p['completed']} != "
                                f"admitted {p['admitted']} (requests lost)")
            if p["committed"] > p["completed"]:
                failures.append(f"{where}: committed {p['committed']} > "
                                f"completed {p['completed']}")
            if p["queue"]["max_depth"] > p["queue"]["cap"]:
                failures.append(f"{where}: queue depth "
                                f"{p['queue']['max_depth']} exceeded the cap "
                                f"{p['queue']['cap']}")
            for name, h in sorted(p["latency"].items()):
                if h["count"] != p["completed"]:
                    failures.append(f"{where}: {name} histogram count "
                                    f"{h['count']} != completed "
                                    f"{p['completed']}")
                seq = ([float(h["min"])] + [h[q] for q in TAIL_PERCENTILES]
                       + [float(h["max"])])
                if any(a > b + 1e-9 for a, b in zip(seq, seq[1:])):
                    failures.append(f"{where}: {name} percentiles are not "
                                    f"non-decreasing: {seq}")
            for ex in p["exemplars"]:
                txn = f"{where} txn {ex['txn']}"
                err = tracelib.phase_error(ex["phases"], ex["service_us"],
                                           "service_us")
                if err:
                    failures.append(f"{txn}: {err}")
                if ex["queued_us"] + ex["service_us"] != ex["sojourn_us"]:
                    failures.append(
                        f"{txn}: queued {ex['queued_us']} + service "
                        f"{ex['service_us']} != sojourn {ex['sojourn_us']}")
        rates = ", ".join(
            f"{p['offered_tps']:g}->{p['goodput_tps']:.2f}" for p in points)
        notes.append(f"  {arch}: offered->goodput tps: {rates}")
    return failures, notes


def tail_components(ex):
    """[(label, us)] pieces that partition one exemplar's sojourn exactly.

    queued_us plus the seven phase buckets (phases partition service time
    by construction).
    """
    ph = ex["phases"]
    return [
        ("admission", ex["queued_us"]),
        ("lock", ph["lock_wait"]),
        ("log", ph["log_wait"]),
        ("cleaner", ph["cleaner_stall"]),
        ("disk", ph["disk_read_wait"] + ph["disk_write_wait"]),
        ("cpu", ph["run"] + ph["runq_wait"]),
    ]


def top_holder(edges, kinds):
    """The holder blamed for the most microseconds over `kinds` edges."""
    holders = defaultdict(int)
    for e in edges:
        if e["kind"] in kinds:
            holders[e["holder"]] += e["waited_us"]
    if holders:
        return min(holders.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return None


def tail_source(label, edges):
    """Human-readable source name, refined by this transaction's edges."""
    if label == "admission":
        return "admission queue"
    if label == "lock":
        holder = top_holder(edges, LOCK_KINDS)
        return ("lock wait" if holder is None
                else f"lock convoy (behind txn {holder})")
    if label == "log":
        leader = top_holder(edges, COMMIT_KINDS)
        return ("log flush (self)" if leader is None
                else f"group commit (leader txn {leader})")
    if label == "cleaner":
        return "cleaner stall"
    if label == "disk":
        if any(e["kind"] == "disk" and e.get("src") == "cleaner"
               for e in edges):
            return "disk queue (behind cleaner)"
        return "disk I/O"
    return "cpu/scheduling"


def tail_config(cfg, edges, have_trace):
    """Prints one load point's exemplar table; returns its failures.

    Every p99 exemplar (sojourn at or above the point's sojourn p99) needs
    a dominant source with nonzero time. With a trace, a retry-free
    exemplar's lock edges sum exactly to its lock_wait phase, and a
    queued exemplar's admission edges sum exactly to its queued time.
    """
    sojourn = cfg["latency"]["sojourn"]
    print(f"\n[tail] {cfg['arch']} @ {cfg['offered_tps']} tps: "
          f"goodput {cfg['goodput_tps']:.2f} tps, "
          f"{cfg['committed']}/{cfg['arrivals']} committed, "
          f"{cfg['shed']} shed, sojourn p50/p99/p99.9 = "
          f"{sojourn['p50']:.0f}/{sojourn['p99']:.0f}/"
          f"{sojourn['p999']:.0f} us")
    rows = [("txn", "sojourn (us)", "p99?", "dominant source", "share",
             "breakdown")]
    failures = []
    machine = cfg.get("machine", 0)
    for ex in cfg["exemplars"]:
        where = f"{cfg['arch']} @ {cfg['offered_tps']} tps txn {ex['txn']}"
        txn_edges = edges.get((machine, ex["txn"]), [])
        comps = tail_components(ex)
        # Deterministic dominance: largest time, label order breaks ties.
        dom_label, dom_us = max(comps, key=lambda c: (c[1], -comps.index(c)))
        is_p99 = ex["sojourn_us"] >= sojourn["p99"]
        rows.append((ex["txn"], ex["sojourn_us"], "*" if is_p99 else "",
                     tail_source(dom_label, txn_edges),
                     f"{pct(dom_us, ex['sojourn_us']):.0f}%",
                     " ".join(f"{label}={us}" for label, us in comps if us)))
        if is_p99 and dom_us == 0:
            failures.append(f"{where}: p99 exemplar has no nonzero blame "
                            f"source")
        if not have_trace:
            continue
        # Deadlock retries run under earlier (aborted) transaction ids,
        # whose edges do not carry this txn's id — skip exact matching.
        if (ex["deadlock_retries"] == 0
                and not critical_path(ex["phases"], txn_edges)[1]):
            failures.append(f"{where}: lock edges do not sum to the "
                            f"lock_wait phase "
                            f"{ex['phases']['lock_wait']} — blame bug")
        if ex["queued_us"] > 0:
            adm = [e["waited_us"] for e in txn_edges
                   if e["kind"] == "admission"]
            if not adm:
                failures.append(f"{where}: queued {ex['queued_us']} us but "
                                f"no admission wait_edge")
            elif sum(adm) != ex["queued_us"]:
                failures.append(f"{where}: admission edges sum to "
                                f"{sum(adm)} but queued_us is "
                                f"{ex['queued_us']}")
    if len(rows) > 1:
        tracelib.print_table(rows)
    else:
        print("  (no exemplars captured)")
    return failures


def cmd_tail(args):
    """Names the dominant blame source of every fig_tail exemplar.

    Sources: admission queue (waiting room before a server picked the
    request up), lock convoy (refined to the holder), group commit
    (refined to the flush leader), cleaner stall, disk queue (refined to
    "behind cleaner" I/O) and cpu/scheduling.
    """
    summary = load_summary(args.summary, "fig_tail")
    edges = defaultdict(list)
    if args.trace:
        for machine, es in tracelib.load(args.trace)[1].items():
            for e in es:
                edges[(machine, e.get("waiter", 0))].append(e)
    failures, _ = tail_checks(summary)
    for cfg in summary.get("configs", []):
        failures += tail_config(cfg, edges, bool(args.trace))
    return finish(failures, args.check)


# ---- cleaning --------------------------------------------------------------

def point_name(p):
    return f"{p['arch']}/{p['watermark']}/{p['fullness_pct']}%"


def provenance_error(where, charged, written, unit):
    """A message unless byte provenance partitions what the disk wrote.

    Every block the disk writes is charged to exactly one category
    (OBSERVABILITY.md, "Log economics"), so the identity is exact.
    """
    if charged != written:
        return (f"{where}: provenance charges {charged} {unit} but the disk "
                f"wrote {written} — partition broken")
    return None


def cleaning_checks(summary):
    """Log-economics gates of a fig_cleaning sweep.

    Per point: the categories partition the disk's written bytes exactly,
    physical write amplification is at least 1.0 and the churn window is
    not empty. Over the sweep: at least one point shows cleaner-rewrite
    bytes, or the economics went untested. Returns (failures, notes).
    """
    points = summary.get("points", [])
    if not points:
        sys.exit("no sweep points")
    failures, notes = [], []
    archs = {p["arch"] for p in points}
    if len(archs) < 2:
        failures.append(f"need >= 2 architectures, got {sorted(archs)}")
    for p in points:
        where = point_name(p)
        if sorted(p["bytes"]) != sorted(LOGECON_CATS):
            failures.append(f"{where}: category set {sorted(p['bytes'])} "
                            f"does not match tracelib.LOGECON_CATS")
        err = provenance_error(where, sum(p["bytes"].values()),
                               p["disk_blocks"] * BLOCK_SIZE, "bytes")
        if err:
            failures.append(err)
        if p["wa_physical"] < 1.0:
            failures.append(f"{where}: physical WA {p['wa_physical']} < 1.0 "
                            f"— payload accounting broken")
        if p["churn"]["disk_blocks"] <= 0:
            failures.append(f"{where}: empty churn window")
        notes.append(f"  {where}: run WA {p['wa_physical']:.2f}, "
                     f"churn WA {p['churn']['wa_physical']:.2f}, "
                     f"write cost {p['write_cost']:.2f}, "
                     f"{p['cleaner']['segments_cleaned']} cleaned")
    if not any(p["bytes"].get("cleaner", 0) > 0 for p in points):
        failures.append("no sweep point has nonzero cleaner-rewrite bytes — "
                        "the sweep never exercised the cleaner")
    return failures, notes


def cleaning_tables(points):
    print("byte provenance (share of bytes written to disk):")
    rows = [["point"] + LOGECON_CATS + ["total MB"]]
    for p in points:
        total = sum(p["bytes"].values())
        rows.append([point_name(p)] + [
            "0" if not p["bytes"].get(cat, 0)
            else f"{pct(p['bytes'][cat], total):.1f}%"
            for cat in LOGECON_CATS] + [f"{total / (1 << 20):.1f}"])
    tracelib.print_table(rows)

    print("\nwrite amplification & cleaning economics:")
    rows = [["point", "live frac", "run WA", "churn WA", "write cost",
             "victim u p50/p90", "victims", "cleaned", "lifetime p50 (s)"]]
    for p in points:
        vu = p["victim_util"]
        rows.append([
            point_name(p),
            f"{p['live_fraction_end']:.3f}",
            f"{p['wa_physical']:.2f}",
            f"{p['churn']['wa_physical']:.2f}",
            f"{p['write_cost']:.2f}",
            f"{vu['p50']:.0f}/{vu['p90']:.0f}",
            vu["count"],
            p["cleaner"]["segments_cleaned"],
            f"{p['segment_lifetime_us']['p50'] / 1e6:.1f}",
        ])
    tracelib.print_table(rows)


def cleaning_trace(path, points):
    """Re-derives the provenance partition from the raw event stream.

    Returns the failures: a machine whose logecon charges differ from its
    disk writes, or trace totals that differ from the summary's (the two
    files come from different runs).
    """
    events = [ev for _, ev in tracelib.read_events(path)]
    totals = tracelib.block_totals(events)
    print(f"\ntrace: {len(events)} events, {len(totals)} machine(s)")
    failures = []
    rows = [["machine", "charged blk", "disk write blk", "exact"]]
    for m, (charged, written) in sorted(totals.items()):
        err = provenance_error(f"trace machine {m}", charged, written,
                               "blocks")
        rows.append([m, charged, written, "NO" if err else "yes"])
        if err:
            failures.append(err)
    tracelib.print_table(rows)
    trace_total = sum(charged for charged, _ in totals.values())
    summary_total = sum(p["disk_blocks"] for p in points)
    if trace_total != summary_total:
        failures.append(f"trace charges {trace_total} blocks total but the "
                        f"summary reports {summary_total} — trace and "
                        f"summary are from different runs?")
    victims = cleaned = 0
    for ev in events:
        if ev.get("cat") == "logecon":
            victims += ev.get("ev") == "victim"
            cleaned += ev.get("ev") == "seg_cleaned"
    print(f"\n  victim picks in trace: {victims}, "
          f"segments cleaned: {cleaned}")
    return failures


def cmd_cleaning(args):
    """Byte provenance, the write-amplification curve over fullness and
    watermark (whole-run and churn-window physical WA, plus Rosenblum's
    2/(1-u) write cost), and victim-utilization / segment-lifetime
    percentiles for one fig_cleaning sweep.
    """
    summary = load_summary(args.summary, "fig_cleaning")
    failures, _ = cleaning_checks(summary)
    cleaning_tables(summary["points"])
    if args.trace:
        failures += cleaning_trace(args.trace, summary["points"])
    if args.check and not failures:
        print("\nall cleaning-economics invariants hold")
    return finish(failures, args.check)


# ---- baselines -------------------------------------------------------------

def fig4_checks(summary):
    """Closed-loop TPC-B gates: positive TPS, exact phase partition, span
    coverage of the measured window, and exact lock-wait blame."""
    configs = summary.get("configs", [])
    archs = [c.get("arch") for c in configs]
    if archs != FIG4_ARCHS:
        return [f"expected configs {FIG4_ARCHS}, got {archs}"], []
    failures, notes = [], []
    for c in configs:
        arch, prof = c["arch"], c["prof"]
        if not c["tps"] > 0:
            failures.append(f"{arch}: non-positive TPS {c['tps']}")
        if sorted(prof["phases"]) != sorted(PHASES):
            failures.append(f"{arch}: phase set {sorted(prof['phases'])} "
                            f"does not match the profiler's "
                            f"({sorted(PHASES)})")
        err = tracelib.phase_error(prof["phases"], prof["elapsed_us"])
        if err:
            failures.append(f"{arch}: {err}")
        if c["coverage"] < MIN_COVERAGE:
            failures.append(f"{arch}: only {c['coverage']:.1%} of the "
                            f"measured window attributed to transaction "
                            f"spans (floor {MIN_COVERAGE:.0%})")
        # Every lock-wait microsecond inside a measured span carries
        # exactly one wait_edge naming the holder, so the histogram's
        # windowed sum equals the windowed lock_wait phase.
        lock_sum = sum(v for k, v in c.get("blame", {}).items()
                       if k.startswith("blame.lock.") and k.endswith(".sum"))
        if "blame" not in c:
            failures.append(f"{arch}: no blame object in the summary")
        elif lock_sum != prof["phases"]["lock_wait"]:
            failures.append(f"{arch}: blame.lock.* sums to {lock_sum} but "
                            f"the lock_wait phase is "
                            f"{prof['phases']['lock_wait']} — blame bug")
        notes.append(f"  {arch}: {c['tps']:.2f} TPS, "
                     f"coverage {c['coverage']:.1%}, "
                     f"{prof['phases']['log_wait']} us in log_wait")
    return failures, notes


def growth(points, key):
    return points[-1][key] / points[0][key]


def recovery_checks(summary):
    """Bounded-recovery gates: no-checkpoint recovery grows with the log,
    fuzzy-checkpoint recovery does not, and the checkpoint daemon's TPS
    overhead is bounded."""
    by_mode = group_by(summary.get("curve", []), "mode")
    for mode in ("nocp", "fuzzy"):
        pts = by_mode[mode]
        rounds = [p["rounds"] for p in pts]
        if rounds != sorted(set(rounds)) or len(rounds) < 3:
            return [f"{mode}: rounds axis must be strictly increasing with "
                    f">= 3 points, got {rounds}"], []
        for p in pts:
            if p["recovery_us"] <= 0 or p["written_blocks"] <= 0:
                return [f"{mode} @ {p['rounds']} rounds: non-positive "
                        f"recovery_us/written_blocks"], []
    by_daemon = {p["checkpointer"]: p for p in summary.get("overhead", [])}
    if set(by_daemon) != {False, True}:
        return [f"overhead needs daemon-off and daemon-on points, "
                f"got {sorted(by_daemon)}"], []
    off, on = by_daemon[False], by_daemon[True]
    if off["tps"] <= 0 or on["tps"] <= 0:
        return ["non-positive TPS in the overhead measurement"], []

    failures = []
    nocp, fuzzy = by_mode["nocp"], by_mode["fuzzy"]
    log_growth = growth(nocp, "written_blocks")
    nocp_growth = growth(nocp, "recovery_us")
    fuzzy_growth = growth(fuzzy, "recovery_us")
    # The unbounded baseline must actually track the log (recovery time is
    # what the log makes it) ...
    if nocp_growth < 0.5 * log_growth:
        failures.append(f"nocp recovery grew {nocp_growth:.2f}x over a "
                        f"{log_growth:.2f}x log — baseline is not log-bound, "
                        f"the sublinearity comparison is vacuous")
    # ... while fuzzy checkpoints must decouple recovery from log size:
    # sublinear growth, and strictly cheaper than the baseline at the top.
    if fuzzy_growth > 0.5 * log_growth:
        failures.append(f"fuzzy recovery grew {fuzzy_growth:.2f}x over a "
                        f"{log_growth:.2f}x log — checkpoints are not "
                        f"bounding replay")
    if fuzzy[-1]["recovery_us"] > 0.25 * nocp[-1]["recovery_us"]:
        failures.append(f"fuzzy recovery at the largest log "
                        f"({fuzzy[-1]['recovery_us']} us) is not well under "
                        f"the no-checkpoint baseline "
                        f"({nocp[-1]['recovery_us']} us)")
    if on["fuzzy_checkpoints"] == 0:
        failures.append("daemon-on run took no fuzzy checkpoints — overhead "
                        "measurement is vacuous")
    if on["tps"] < 0.5 * off["tps"]:
        failures.append(f"checkpoint daemon halved TPS ({off['tps']:.2f} -> "
                        f"{on['tps']:.2f}) — overhead is not bounded")
    notes = [
        f"  nocp: {nocp_growth:.2f}x recovery over {log_growth:.2f}x log; "
        f"fuzzy: {fuzzy_growth:.2f}x ({fuzzy[-1]['recovery_us']} us at the "
        f"top vs {nocp[-1]['recovery_us']} us unbounded)",
        f"  daemon overhead: {off['tps']:.2f} -> {on['tps']:.2f} TPS "
        f"with {on['fuzzy_checkpoints']} fuzzy checkpoints",
    ]
    return failures, notes


# kind -> (bench, its arguments with "{}" for the summary path, checks).
# The arguments are constants so a baseline is only ever regenerated at
# the shape that was committed.
BASELINES = {
    "fig4": ("fig4_tps", ["--scale=64", "--txns=40", "--users=1",
                          "--summary={}", "--blame"], fig4_checks),
    "tail": ("fig_tail", ["--scale=64", "--txns=400", "--users=100",
                          "--offered-tps=4,8,16,32", "--queue-cap=64",
                          "--exemplars=8", "--summary={}"], tail_checks),
    "recovery": ("fig_recovery", ["--summary={}"], recovery_checks),
    "cleaning": ("fig_cleaning", ["--summary={}"], cleaning_checks),
}


def cmd_baseline(args):
    """Runs the kind's bench, checks its gates, writes BENCH_<kind>.json.

    The file is re-serialized with sorted keys so it is canonical
    regardless of the emitting code's field order; the simulation is
    virtual-time and seeded, so it only changes when behaviour does.
    """
    bench, bench_args, checks = BASELINES[args.kind]
    exe = os.path.join("build", "bench", bench)
    if not os.path.exists(exe):
        sys.exit(f"{exe} not found (build first)")
    fd, tmp = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        cmd = [exe] + [a.format(tmp) for a in bench_args]
        print("+ " + " ".join(cmd), flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"bench failed with exit code {proc.returncode}")
        summary = load_summary(tmp, bench)
    finally:
        os.unlink(tmp)

    failures, notes = checks(summary)
    if failures:
        return finish(failures, True)
    for line in notes:
        print(line)
    out = f"BENCH_{args.kind}.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}")
    return 0


def main():
    # Die quietly when piped into `head`.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    check_help = "exit 1 unless every invariant holds"

    p = sub.add_parser("profile", help="per-transaction phase attribution")
    p.add_argument("trace", help="JSONL written with --trace=prof")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("blame", help="causal wait-blame attribution")
    p.add_argument("trace", help="JSONL written with --trace=prof,blame")
    p.add_argument("--check", action="store_true", help=check_help)
    p.add_argument("--require-disk-blame", action="append", default=[],
                   metavar="SRC",
                   help="with --check: require disk wait edges blamed on "
                        "this cause (e.g. cleaner); repeatable")
    p.set_defaults(func=cmd_blame)

    for name, cats, func in (("tail", "prof,blame,openloop", cmd_tail),
                             ("cleaning", "disk,logecon,cleaner",
                              cmd_cleaning)):
        bench = BASELINES[name][0]
        p = sub.add_parser(name, help=f"{bench} summary report")
        p.add_argument("summary", help=f"JSON written by {bench} --summary=")
        p.add_argument("--trace", help=f"JSONL from --trace={cats} of the "
                                       f"same run")
        p.add_argument("--check", action="store_true", help=check_help)
        p.set_defaults(func=func)

    p = sub.add_parser("baseline", help="regenerate a BENCH_<kind>.json")
    p.add_argument("kind", choices=sorted(BASELINES))
    p.set_defaults(func=cmd_baseline)

    args = ap.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
