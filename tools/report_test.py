#!/usr/bin/env python3
"""Gate tests for tools/report.py on the fixtures in tools/testdata/report/.

Every subcommand exits 0 on the valid fixtures. Each --check gate exits 1
on a copy of a fixture mutated to break that gate's invariant and nothing
else. The baseline checks are called directly on fixture summaries, since
they share their invariant functions with the subcommands.

    python3 tools/report_test.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TOOLS, "testdata", "report")
sys.path.insert(0, TOOLS)
import report  # noqa: E402


def fixture(name):
    path = os.path.join(DATA, name)
    with open(path, "r", encoding="utf-8") as f:
        if name.endswith(".jsonl"):
            return [json.loads(line) for line in f]
        return json.load(f)


def find(items, **fields):
    """The one item whose fields match."""
    hits = [i for i in items if all(i.get(k) == v for k, v in fields.items())]
    assert len(hits) == 1, (fields, hits)
    return hits[0]


def tail_exemplar(summary, arch, offered):
    return find(summary["configs"], arch=arch,
                offered_tps=offered)["exemplars"][0]


class ReportTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = tmp.name

    def write(self, name, data):
        """Writes a mutated fixture; returns its path."""
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            if name.endswith(".jsonl"):
                f.writelines(json.dumps(ev) + "\n" for ev in data)
            else:
                json.dump(data, f)
        return path

    def report(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(TOOLS, "report.py"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def assertPasses(self, *args):
        proc = self.report(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stderr, "")
        return proc.stdout

    def assertFails(self, message, *args, failures=1):
        """Exit 1 with `message` on stderr and exactly `failures` gates."""
        proc = self.report(*args)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(message, proc.stderr)
        self.assertEqual(proc.stderr.count("CHECK FAILED"), failures,
                         proc.stderr)

    # ---- valid fixtures ------------------------------------------------

    def test_valid_fixtures_pass(self):
        out = self.assertPasses("profile", os.path.join(DATA, "trace.jsonl"))
        self.assertIn("[profile] machine=1 mgr=libtp: 3 spans", out)
        out = self.assertPasses("blame", os.path.join(DATA, "trace.jsonl"),
                                "--check", "--require-disk-blame=cleaner")
        self.assertIn("3500 us of span time (exact)", out)
        out = self.assertPasses("tail", os.path.join(DATA, "tail.json"),
                                "--trace", os.path.join(DATA, "tail.jsonl"),
                                "--check")
        self.assertIn("lock convoy (behind txn 5)", out)
        out = self.assertPasses("cleaning",
                                os.path.join(DATA, "cleaning.json"), "--trace",
                                os.path.join(DATA, "cleaning.jsonl"), "--check")
        self.assertIn("all cleaning-economics invariants hold", out)

    def test_baseline_checks_pass(self):
        for kind in sorted(report.BASELINES):
            failures, notes = report.BASELINES[kind][2](
                fixture(f"{kind}.json"))
            self.assertEqual(failures, [], kind)
            self.assertTrue(notes, kind)

    def test_failures_exit_zero_without_check(self):
        summary = fixture("cleaning.json")
        summary["points"][1]["wa_physical"] = 0.9
        proc = self.report("cleaning", self.write("c.json", summary))
        self.assertEqual(proc.returncode, 0)
        self.assertIn("physical WA 0.9 < 1.0", proc.stderr)

    # ---- phase partition -----------------------------------------------

    def test_span_phases_not_elapsed(self):
        trace = fixture("trace.jsonl")
        find(trace, ev="txn_profile", txn=1)["elapsed_us"] += 1
        path = self.write("t.jsonl", trace)
        for command in ("profile", "blame"):
            self.assertFails("phases sum to 1000 but elapsed_us is 1001",
                             command, path, failures=0)

    def test_exemplar_phases_not_service(self):
        summary = fixture("tail.json")
        tail_exemplar(summary, "user_lfs", 4)["phases"]["run"] += 1
        self.assertFails("phases sum to 901 but service_us is 900", "tail",
                         self.write("t.json", summary), "--check")

    def test_fig4_phases_not_elapsed(self):
        summary = fixture("fig4.json")
        summary["configs"][1]["prof"]["elapsed_us"] += 1
        failures, _ = report.fig4_checks(summary)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("user_lfs: phases sum to", failures[0])

    # ---- lock blame ----------------------------------------------------

    def test_lock_edges_not_lock_wait(self):
        trace = fixture("trace.jsonl")
        span = find(trace, ev="txn_profile", txn=2)
        span["lock_wait"] += 1
        span["run"] -= 1
        self.assertFails("critical paths do not sum exactly", "blame",
                         self.write("t.jsonl", trace), "--check")

    def test_exemplar_lock_edges_not_lock_wait(self):
        summary = fixture("tail.json")
        phases = tail_exemplar(summary, "user_lfs", 4)["phases"]
        phases["lock_wait"] += 1
        phases["run"] -= 1
        self.assertFails("lock edges do not sum to the lock_wait phase 501",
                         "tail", self.write("t.json", summary), "--trace",
                         os.path.join(DATA, "tail.jsonl"), "--check")

    def test_fig4_lock_blame_not_lock_wait(self):
        summary = fixture("fig4.json")
        summary["configs"][2]["blame"]["blame.lock.kernel.txn_us.sum"] += 1
        failures, _ = report.fig4_checks(summary)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("embedded_lfs: blame.lock.* sums to 51", failures[0])

    def test_lock_share_below_floor(self):
        # Dropping the holder edges also leaves each path's lock_wait
        # undecomposed, so the exactness gate fires alongside.
        trace = [ev for ev in fixture("trace.jsonl")
                 if not ev.get("kind", "").startswith("lock.")]
        self.assertFails("lock blame covers only 0.0% of lock_wait", "blame",
                         self.write("t.jsonl", trace), "--check", failures=2)

    def test_required_disk_blame_missing(self):
        self.assertFails("no disk wait edges blamed on 'syncer'", "blame",
                         os.path.join(DATA, "trace.jsonl"), "--check",
                         "--require-disk-blame=syncer")

    # ---- tail accounting -----------------------------------------------

    def test_queued_plus_service_not_sojourn(self):
        summary = fixture("tail.json")
        tail_exemplar(summary, "user_lfs", 4)["sojourn_us"] += 1
        self.assertFails("queued 100 + service 900 != sojourn 1001", "tail",
                         self.write("t.json", summary), "--trace",
                         os.path.join(DATA, "tail.jsonl"), "--check")

    def test_missing_admission_edge(self):
        trace = [ev for ev in fixture("tail.jsonl")
                 if ev.get("kind") != "admission"]
        self.assertFails("queued 100 us but no admission wait_edge", "tail",
                         os.path.join(DATA, "tail.json"), "--trace",
                         self.write("t.jsonl", trace), "--check")

    def test_p99_exemplar_without_source(self):
        summary = fixture("tail.json")
        cfg = find(summary["configs"], arch="embedded_lfs", offered_tps=8)
        ex = cfg["exemplars"][0]
        ex["phases"] = dict.fromkeys(ex["phases"], 0)
        ex["service_us"] = ex["sojourn_us"] = 0
        for q in ("min", "p50", "p90", "p95", "p99"):
            cfg["latency"]["sojourn"][q] = 0
        self.assertFails("txn 41: p99 exemplar has no nonzero blame source",
                         "tail", self.write("t.json", summary), "--check")

    # ---- log economics -------------------------------------------------

    def test_provenance_not_disk_blocks(self):
        summary = fixture("cleaning.json")
        summary["points"][0]["disk_blocks"] += 1
        self.assertFails("embedded_lfs/lazy/70%: provenance charges 409600 "
                         "bytes but the disk wrote 413696", "cleaning",
                         self.write("c.json", summary), "--check")

    def test_trace_provenance_not_disk_blocks(self):
        trace = fixture("cleaning.jsonl")
        trace.remove(find(trace, ev="io_submit", block=200))
        self.assertFails("trace machine 1: provenance charges 100 blocks but "
                         "the disk wrote 75", "cleaning",
                         os.path.join(DATA, "cleaning.json"), "--trace",
                         self.write("c.jsonl", trace), "--check")

    def test_write_amplification_below_one(self):
        summary = fixture("cleaning.json")
        summary["points"][1]["wa_physical"] = 0.9
        self.assertFails("user_lfs/lazy/70%: physical WA 0.9 < 1.0",
                         "cleaning", self.write("c.json", summary), "--check")

    def test_no_cleaner_bytes(self):
        summary = fixture("cleaning.json")
        moved = summary["points"][0]["bytes"]
        moved["user_data"] += moved["cleaner"]
        moved["cleaner"] = 0
        self.assertFails("the sweep never exercised the cleaner", "cleaning",
                         self.write("c.json", summary), "--check")

    def test_empty_churn_window(self):
        summary = fixture("cleaning.json")
        summary["points"][0]["churn"]["disk_blocks"] = 0
        self.assertFails("embedded_lfs/lazy/70%: empty churn window",
                         "cleaning", self.write("c.json", summary), "--check")

    # ---- recovery ------------------------------------------------------

    def test_fuzzy_recovery_tracks_log(self):
        summary = fixture("recovery.json")
        find(summary["curve"], mode="fuzzy", rounds=8)["recovery_us"] = 900
        failures, _ = report.recovery_checks(summary)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("fuzzy recovery grew 9.00x over a 4.00x log", failures[0])


if __name__ == "__main__":
    unittest.main()
