// Benchmark driver: runs ONE configuration (workload x architecture) of
// the lfstx benchmark and writes its measurements as one JSON object.
//
//   perfbench_driver --workload=tpcb_closed|scan_after_update
//       --arch=user_ffs|user_lfs|embedded_lfs --out=FILE [--warmup=N]
//       [--txns=N] [--restart=0|1] [--driver-seed=N] [--spans=FILE]
//
// Every configuration runs at the benches' default --scale=4 proportions
// (BenchConfig in bench/bench_common.h). It builds the rig, loads TPC-B,
// syncs and warms up (all of it "set-up"), then runs the measured phase:
//   tpcb_closed        --txns closed-loop TPC-B transactions, one terminal
//   scan_after_update  --txns random TPC-B updates (the scan below is
//                      measured too)
// With --restart=1 the last commit of the measured phase is followed by a
// power cut: the disk's persisted bytes are copied at that instant, and
// after the run a fresh machine boots on them (Machine::Options::format =
// false), rolls the LFS log forward and runs LIBTP redo. The running
// machine then syncs and scans the account file in key order.
//
// Correctness gate, outside every timed window: the TPC-B balance
// invariant (sum of account, teller and branch deltas all equal the sum of
// the history deltas), one history row per acknowledged commit, an account
// scan that returns every key in order, and a clean RunAllChecks sweep —
// on the running machine and again after the restart. Any failure makes
// "ok" false and the exit code 1.
//
// --spans=FILE turns on the traced run: a span around each public call,
// Stats sampled at span boundaries, and a "layer" object with the
// per-layer metrics of the measured window (see README.md). Without it
// nothing is recorded beyond a few clock reads per phase.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "snapshot.h"
#include "spans.h"
#include "tpcb/loader.h"

namespace lfstx {
namespace perfbench {
namespace {

/// LoadTpcb's opening balance for every account, teller and branch row.
constexpr int64_t kInitialBalance = 1000;

struct Args {
  std::string workload;
  std::string arch;
  uint64_t warmup = 250;
  uint64_t txns = 3000;
  uint64_t driver_seed = 17;
  bool restart = false;
  std::string out;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr, "perfbench_driver: %s\n", why);
  exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const char* eq = strchr(argv[i], '=');
    if (strncmp(argv[i], "--", 2) != 0 || eq == nullptr) {
      Usage("arguments are --key=value");
    }
    std::string key(argv[i] + 2, static_cast<size_t>(eq - argv[i] - 2));
    const char* v = eq + 1;
    auto u64 = [&] { return strtoull(v, nullptr, 10); };
    if (key == "workload") a.workload = v;
    else if (key == "arch") a.arch = v;
    else if (key == "warmup") a.warmup = u64();
    else if (key == "txns") a.txns = u64();
    else if (key == "driver-seed") a.driver_seed = u64();
    else if (key == "restart") a.restart = u64() != 0;
    else if (key == "out") a.out = v;
    else if (key == "spans") a.spans = v;
    else Usage(("unknown flag --" + key).c_str());
  }
  if (a.workload != "tpcb_closed" && a.workload != "scan_after_update") {
    Usage("--workload must be tpcb_closed or scan_after_update");
  }
  if (a.out.empty()) Usage("--out is required");
  return a;
}

Arch ParseArch(const std::string& s) {
  if (s == "user_ffs") return Arch::kUserFfs;
  if (s == "user_lfs") return Arch::kUserLfs;
  if (s == "embedded_lfs") return Arch::kEmbedded;
  Usage("--arch must be user_ffs, user_lfs or embedded_lfs");
}

// ---------------------------------------------------------------------------
// Correctness gate.

/// Everything the balance invariant needs, read in one transaction.
struct Ledger {
  Status status;
  uint64_t accounts = 0;   ///< rows returned by the key-order scan
  bool key_order = true;   ///< keys were exactly 0, 1, ..., accounts-1
  int64_t account_delta = 0;
  int64_t teller_delta = 0;
  int64_t branch_delta = 0;
  int64_t history_delta = 0;
  uint64_t history_rows = 0;

  bool Balanced() const {
    return account_delta == history_delta && teller_delta == history_delta &&
           branch_delta == history_delta;
  }
};

Status SumBalances(Db* rel, TxnId txn, uint64_t* rows, bool* ordered,
                   int64_t* delta) {
  uint64_t next = 0;
  Status s = rel->Scan(txn, [&](Slice key, Slice val) {
    if (DecodeKey(key) != next) *ordered = false;
    next++;
    *delta += RecordBalance(val) - kInitialBalance;
    return true;
  });
  *rows = next;
  return s;
}

Ledger ReadLedger(DbBackend* backend, TpcbDatabase* db) {
  Ledger l;
  auto t = backend->Begin();
  if (!t.ok()) {
    l.status = t.status();
    return l;
  }
  TxnId txn = t.value();
  uint64_t rows = 0;
  bool ordered = true;
  Status s = SumBalances(db->accounts.get(), txn, &l.accounts, &l.key_order,
                         &l.account_delta);
  if (s.ok()) {
    s = SumBalances(db->tellers.get(), txn, &rows, &ordered, &l.teller_delta);
  }
  if (s.ok()) {
    s = SumBalances(db->branches.get(), txn, &rows, &ordered,
                    &l.branch_delta);
  }
  if (s.ok()) {
    auto n = db->history->RecordCount(txn);
    s = n.status();
    if (s.ok()) l.history_rows = n.value();
    std::string rec;
    for (uint64_t r = 0; s.ok() && r < l.history_rows; r++) {
      s = db->history->GetRecord(txn, r, &rec);
      if (!s.ok()) break;
      auto row = ParseHistoryRecord(rec);
      s = row.status();
      if (s.ok()) l.history_delta += row.value().delta;
    }
  }
  if (!s.ok()) {
    Status aborted = backend->Abort(txn);
    (void)aborted;
    l.status = s;
    return l;
  }
  l.status = backend->Commit(txn);
  return l;
}

/// Named pass/fail results, in the order they were checked.
struct Gate {
  std::vector<std::pair<std::string, bool>> results;
  std::vector<std::string> errors;

  void Check(const std::string& name, bool ok, const std::string& why = "") {
    results.emplace_back(name, ok);
    if (!ok) errors.push_back(name + (why.empty() ? "" : ": " + why));
  }
  bool ok() const {
    for (const auto& r : results) {
      if (!r.second) return false;
    }
    return !results.empty();
  }
};

/// The balance, acknowledged-commit and key-order checks over one ledger.
void CheckLedger(Gate* gate, const std::string& where, const Ledger& l,
                 const TpcbConfig& cfg, uint64_t acked) {
  gate->Check(where + ".ledger_read", l.status.ok(), l.status.ToString());
  gate->Check(where + ".balance", l.Balanced(),
              Fmt("account %lld teller %lld branch %lld history %lld",
                  static_cast<long long>(l.account_delta),
                  static_cast<long long>(l.teller_delta),
                  static_cast<long long>(l.branch_delta),
                  static_cast<long long>(l.history_delta)));
  gate->Check(where + ".acked_commits", l.history_rows == acked,
              Fmt("%llu history rows, %llu acknowledged commits",
                  static_cast<unsigned long long>(l.history_rows),
                  static_cast<unsigned long long>(acked)));
  gate->Check(where + ".account_order",
              l.key_order && l.accounts == cfg.accounts,
              Fmt("%llu of %llu accounts, in order: %d",
                  static_cast<unsigned long long>(l.accounts),
                  static_cast<unsigned long long>(cfg.accounts),
                  l.key_order ? 1 : 0));
}

/// RunAllChecks needs a quiescent point: nothing dirty and no daemon
/// mid-operation. A cleaner engagement runs until the log is back at its
/// high watermark, so sync and wait until a poll interval passes with no
/// segment cleaned.
void CheckSweep(Gate* gate, const std::string& where, ArchRig* rig) {
  constexpr int kMaxWaits = 64;
  Machine* m = rig->machine.get();
  Status s = m->fs->SyncAll();
  bool settled = m->cleaner == nullptr;
  for (int i = 0; s.ok() && !settled && i < kMaxWaits; i++) {
    uint64_t cleaned = m->cleaner->stats().segments_cleaned;
    rig->env()->SleepFor(2 * m->cleaner->options().poll_interval);
    settled = m->cleaner->stats().segments_cleaned == cleaned;
    if (!settled) s = m->fs->SyncAll();
  }
  gate->Check(where + ".quiesce", s.ok() && settled,
              s.ok() ? "cleaner still busy" : s.ToString());
  CheckSummary sweep = RunAllChecks(*rig);
  gate->Check(where + ".fsck", sweep.clean(), sweep.ToString());
}

// ---------------------------------------------------------------------------
// Measurement.

struct Measurement {
  // Operations.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;   ///< measured-phase commits
  uint64_t acked = 0;       ///< commits acknowledged before the power cut
  uint64_t scanned = 0;     ///< accounts returned by RunScan
  // Virtual time.
  SimTime txn_elapsed_us = 0;
  HdrHistogram latency;  ///< per-txn latency
  SimTime scan_us = 0;
  SimTime restart_us = 0;
  SimTime recover_us = 0;  ///< LibTp::Recover alone
  // Host time (CPU seconds).
  double setup_s = 0;
  double window_s = 0;   ///< measured windows (txns; + the scan on scan)
  double load_s = 0;
  double scan_s = 0;
  double restart_s = 0;
  // Windowed snapshots of the traced run.
  Snapshot d_txn;        ///< the transaction window
  Snapshot d_scan;       ///< the scan window
  std::vector<std::pair<double, double>> victim_util;  ///< (util, victims)
  HdrHistogram txn_cpu_ns;  ///< host CPU per RunOne span
  Gate gate;
};

/// Per-victim utilization estimates from the cleaner counters sampled at
/// consecutive span boundaries inside [v0, v1]: each interval that cleaned
/// k segments contributes its mean live fraction with weight k.
void CollectVictimUtil(const SpanRecorder& rec, const StatsProbe& probe,
                       SimTime v0, SimTime v1, uint32_t segment_blocks,
                       Measurement* out) {
  const auto& names = probe.names();
  auto idx = [&](const char* n) {
    for (size_t i = 0; i < names.size(); i++) {
      if (names[i] == n) return static_cast<int>(i);
    }
    return -1;
  };
  int segs = idx("stats.cleaner.segments_cleaned");
  int live = idx("stats.cleaner.live_blocks_copied");
  if (segs < 0 || live < 0) return;
  const std::vector<double>* prev = nullptr;
  for (const Span& s : rec.spans()) {
    if (s.probe != &probe || s.v0 < v0 || s.v1 > v1) continue;
    for (const std::vector<double>* cur : {&s.stats0, &s.stats1}) {
      if (prev != nullptr) {
        double k = (*cur)[segs] - (*prev)[segs];
        if (k > 0) {
          double util = ((*cur)[live] - (*prev)[live]) /
                        (k * static_cast<double>(segment_blocks));
          out->victim_util.emplace_back(util, k);
        }
      }
      prev = cur;
    }
  }
}

double WeightedMedian(std::vector<std::pair<double, double>> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double total = 0;
  for (const auto& e : v) total += e.second;
  double acc = 0;
  for (const auto& e : v) {
    acc += e.second;
    if (acc >= total / 2) return e.first;
  }
  return v.back().first;
}

std::string Num(double v) { return Fmt("%.17g", v); }

/// Per-layer metrics of the measured window (traced run only). Keys are
/// the BENCHMARK.json per-layer names without the architecture suffix;
/// layers this architecture does not run are left out.
std::vector<std::pair<std::string, double>> LayerMetrics(const Args& a,
                                                         Arch arch,
                                                         const Measurement& r) {
  std::vector<std::pair<std::string, double>> m;
  const Snapshot& t = r.d_txn;
  // Disk and cache describe the scan on scan_after_update: reads follow
  // writes there, and the scan is what the layout decides.
  const Snapshot& io = a.workload == "scan_after_update" ? r.d_scan : r.d_txn;
  double txns = std::max<double>(1, static_cast<double>(r.committed));
  for (int p = 0; p < kNumPhases; p++) {
    std::string ph = PhaseName(static_cast<Phase>(p));
    m.emplace_back("sim.phase." + ph + "_ms",
                   At(t, "stats.span." + ph + "_us") / txns / 1000.0);
  }
  double wait = 0, requests = 0;
  for (int c = 0; c < kNumIoCauses; c++) {
    std::string cause = IoCauseName(static_cast<IoCause>(c));
    std::string base = "stats.diskcause." + cause;
    m.emplace_back("disk.service_ms." + cause,
                   At(io, base + ".service_us") / 1000.0);
    wait += At(io, base + ".wait_us");
    requests += At(io, base + ".requests");
  }
  m.emplace_back("disk.wait_ms", wait / 1000.0);
  m.emplace_back("disk.requests", requests);
  double hits = At(io, "stats.cache.hits");
  double refs = hits + At(io, "stats.cache.misses");
  m.emplace_back("cache.hit_rate", refs > 0 ? hits / refs : 0);
  double ra = At(io, "stats.cache.readahead_blocks");
  m.emplace_back("cache.readahead_hit_rate",
                 ra > 0 ? At(io, "stats.cache.readahead_hits") / ra : 0);
  if (arch != Arch::kUserFfs) {
    for (const char* cat : {"user_data", "inode", "imap", "summary",
                            "checkpoint", "wal", "cleaner"}) {
      m.emplace_back(std::string("lfs.blocks.") + cat,
                     At(t, std::string("logecon.bytes.") + cat) / kBlockSize /
                         txns);
    }
    double window = static_cast<double>(std::max<SimTime>(1, r.txn_elapsed_us));
    m.emplace_back("cleaner.busy_frac",
                   At(t, "stats.cleaner.busy_us") / window);
    double copied = At(t, "stats.cleaner.live_blocks_copied");
    m.emplace_back("cleaner.read_amp",
                   copied > 0 ? At(t, "stats.cleaner.blocks_read") / copied
                              : 0);
    m.emplace_back("cleaner.victim_util_p50", WeightedMedian(r.victim_util));
  } else {
    m.emplace_back("ffs.blocks", At(t, "stats.disk.blocks_written") / txns);
  }
  if (arch != Arch::kEmbedded) {
    double ph = At(t, "stats.pool.hits");
    double pr = ph + At(t, "stats.pool.misses");
    m.emplace_back("libtp.pool_hit_rate", pr > 0 ? ph / pr : 0);
    m.emplace_back("libtp.log_bytes", At(t, "stats.log.bytes_appended") / txns);
    m.emplace_back("libtp.log_flushes", At(t, "stats.log.flushes") / txns);
    m.emplace_back("libtp.recover_s", ToSeconds(r.recover_us));
  }
  return m;
}

/// Exactness check of the profiler partition: the seven phases of the
/// measured window's transaction spans sum to their elapsed time.
void CheckPhasePartition(Gate* gate, const Snapshot& t) {
  double sum = 0;
  for (int p = 0; p < kNumPhases; p++) {
    sum += At(t, std::string("stats.span.") +
                     PhaseName(static_cast<Phase>(p)) + "_us");
  }
  double elapsed = At(t, "stats.span.elapsed_us");
  gate->Check("phase_partition", sum == elapsed && elapsed > 0,
              Fmt("phases %.0f us, elapsed %.0f us", sum, elapsed));
}

int Run(const Args& a) {
  const double cpu_start = CpuSeconds();
  const Arch arch = ParseArch(a.arch);
  const bool scan_workload = a.workload == "scan_after_update";
  BenchConfig bench;  // --scale=4: 250k accounts, 512-block cache, 256 pages
  bench.sim_backend = "fibers";
  const TpcbConfig tpcb = bench.Tpcb();
  SpanRecorder rec(!a.spans.empty());
  Measurement r;

  Machine::Options mo = bench.MachineOptions();
  std::unique_ptr<ArchRig> rig;
  std::unique_ptr<ArchRig> restart;
  {
    int id = rec.Begin("ArchRig::Create", nullptr, nullptr);
    rig = ArchRig::Create(arch, mo, bench.LibTpOptions());
    if (a.restart) {
      Machine::Options ro = mo;
      ro.format = false;
      restart = ArchRig::Create(arch, ro, bench.LibTpOptions());
    }
    rec.End(id, rig->env());
  }
  StatsProbe probe(rig.get());
  SimEnv* env = rig->env();

  std::string fatal;  // a setup step failed: nothing was measured
  SimTime window_v0 = 0;
  rig->env()->Spawn("main", [&] {
    {
      ScopedSpan span(&rec, "Machine::Boot", env, &probe);
      Status s = rig->Boot();
      if (!s.ok()) {
        fatal = "boot: " + s.ToString();
        return;
      }
    }
    std::optional<Result<TpcbDatabase>> loaded;
    {
      ScopedSpan span(&rec, "LoadTpcb", env, &probe);
      double c0 = CpuSeconds();
      loaded = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb);
      r.load_s = CpuSeconds() - c0;
    }
    if (!loaded->ok()) {
      fatal = "load: " + loaded->status().ToString();
      return;
    }
    TpcbDatabase& db = loaded->value();
    {
      ScopedSpan span(&rec, "FileSystem::SyncAll", env, &probe);
      Status s = rig->machine->fs->SyncAll();
      if (!s.ok()) {
        fatal = "sync: " + s.ToString();
        return;
      }
    }
    TpcbDriver driver(rig->backend.get(), &db, tpcb, a.driver_seed);
    if (a.warmup > 0) {
      ScopedSpan span(&rec, "TpcbDriver::Run", env, &probe);
      auto w = driver.Run(a.warmup);
      if (!w.ok()) {
        fatal = "warm-up: " + w.status().ToString();
        return;
      }
    }
    r.acked = a.warmup;
    r.setup_s = CpuSeconds() - cpu_start;

    // ---- measured phase ----
    Snapshot before;
    if (rec.enabled()) before = probe.Take(env->metrics());
    window_v0 = env->Now();
    double c0 = CpuSeconds();
    r.attempted = a.txns;
    for (uint64_t i = 0; i < a.txns; i++) {
      SimTime t0 = env->Now();
      double h0 = rec.enabled() ? CpuSeconds() : 0;
      Status s;
      {
        ScopedSpan span(&rec, "TpcbDriver::RunOne", env, &probe);
        s = driver.RunOne();
      }
      if (!s.ok()) {
        r.failed += a.txns - i;
        r.gate.Check("run.txn", false, s.ToString());
        break;
      }
      if (rec.enabled()) {
        r.txn_cpu_ns.Add(static_cast<uint64_t>(1e9 * (CpuSeconds() - h0)));
      }
      r.latency.Add(env->Now() - t0);
      r.committed++;
    }
    r.txn_elapsed_us = env->Now() - window_v0;
    r.acked += r.committed;
    r.window_s = CpuSeconds() - c0;
    SimTime window_v1 = env->Now();
    if (rec.enabled()) {
      r.d_txn = Diff(probe.Take(env->metrics()), before);
      CheckPhasePartition(&r.gate, r.d_txn);
      if (Lfs* lfs = rig->machine->lfs()) {
        CollectVictimUtil(rec, probe, window_v0, window_v1,
                          lfs->segment_blocks(), &r);
      }
    }

    // ---- power cut: the platter as of the last acknowledged commit ----
    if (restart != nullptr) {
      restart->machine->disk->CopyContentsFrom(*rig->machine->disk);
    }

    // ---- sync + key-order scan on the running machine ----
    Status synced = rig->machine->fs->SyncAll();
    r.gate.Check("run.sync", synced.ok(), synced.ToString());
    if (synced.ok()) {
      Snapshot scan0;
      if (rec.enabled()) scan0 = probe.Take(env->metrics());
      double s0 = CpuSeconds();
      std::optional<Result<ScanResult>> opt;
      {
        ScopedSpan span(&rec, "RunScan", env, &probe);
        opt = RunScan(rig->backend.get(), db.accounts.get(),
                      tpcb.account_record_len);
      }
      const Result<ScanResult>& sc = *opt;
      r.scan_s = CpuSeconds() - s0;
      if (scan_workload) r.window_s += r.scan_s;
      if (rec.enabled()) r.d_scan = Diff(probe.Take(env->metrics()), scan0);
      r.gate.Check("run.scan", sc.ok() && sc.value().records == tpcb.accounts,
                   sc.ok() ? Fmt("%llu records", static_cast<unsigned long long>(
                                                     sc.value().records))
                           : sc.status().ToString());
      if (sc.ok()) {
        r.scan_us = sc.value().elapsed;
        r.scanned = sc.value().records;
      }
      if (scan_workload) r.attempted += tpcb.accounts;
    }

    // ---- correctness gate on the running machine ----
    CheckLedger(&r.gate, "run", ReadLedger(rig->backend.get(), &db), tpcb,
                r.acked);
    CheckSweep(&r.gate, "run", rig.get());
  });
  rig->env()->Run();
  if (!fatal.empty()) {
    fprintf(stderr, "perfbench_driver: %s\n", fatal.c_str());
    return 1;
  }
  rig.reset();  // the restart machine needs only the copied platter

  // ---- restart on the persisted bytes ----
  std::unique_ptr<StatsProbe> restart_probe;
  if (restart != nullptr) {
    restart_probe = std::make_unique<StatsProbe>(restart.get());
    SimEnv* renv = restart->env();
    restart->env()->Spawn("main", [&] {
      double c0 = CpuSeconds();
      SimTime v0 = renv->Now();
      {
        ScopedSpan span(&rec, "Machine::Boot", renv, restart_probe.get());
        Status s = restart->machine->Boot(restart->options);
        r.gate.Check("restart.boot", s.ok(), s.ToString());
        if (!s.ok()) return;
      }
      if (restart->libtp != nullptr) {
        // Crash-restart order (tests/crash_matrix_test.cc): open the log
        // without recovering, register the relations in creation order so
        // redo resolves file references, then recover.
        Status s = restart->libtp->Open("/txn.log", /*run_recovery=*/false);
        for (const std::string& path : {tpcb.AccountPath(), tpcb.TellerPath(),
                                        tpcb.BranchPath(),
                                        tpcb.HistoryPath()}) {
          if (!s.ok()) break;
          s = restart->libtp->pool()->RegisterFile(path, false).status();
        }
        if (s.ok()) {
          ScopedSpan span(&rec, "LibTp::Recover", renv, restart_probe.get());
          SimTime rv0 = renv->Now();
          s = restart->libtp->Recover();
          r.recover_us = renv->Now() - rv0;
        }
        r.gate.Check("restart.recover", s.ok(), s.ToString());
        if (!s.ok()) return;
      }
      r.restart_us = renv->Now() - v0;
      r.restart_s = CpuSeconds() - c0;
      auto db = OpenTpcb(restart->backend.get(), tpcb);
      r.gate.Check("restart.open", db.ok(), db.status().ToString());
      if (!db.ok()) return;
      CheckLedger(&r.gate, "restart",
                  ReadLedger(restart->backend.get(), &db.value()), tpcb,
                  r.acked);
      CheckSweep(&r.gate, "restart", restart.get());
    });
    restart->env()->Run();
  }

  // ---- result ----
  std::string j = "{";
  j += Fmt("\"workload\": \"%s\", \"arch\": \"%s\", ", a.workload.c_str(),
           a.arch.c_str());
  j += Fmt("\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, ",
           r.gate.ok() ? "true" : "false",
           static_cast<unsigned long long>(r.attempted),
           static_cast<unsigned long long>(r.failed));
  j += "\"gates\": {";
  for (size_t i = 0; i < r.gate.results.size(); i++) {
    j += Fmt("%s\"%s\": %s", i ? ", " : "", r.gate.results[i].first.c_str(),
             r.gate.results[i].second ? "true" : "false");
  }
  j += "}, \"errors\": [";
  for (size_t i = 0; i < r.gate.errors.size(); i++) {
    // Appended directly: Fmt truncates long strings such as a sweep report.
    std::string e = r.gate.errors[i];
    for (char& c : e) {
      if (c == '"') c = '\'';
      if (c == '\\') c = '/';
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    }
    j += (i ? ", \"" : "\"") + e + "\"";
  }
  double tps = r.txn_elapsed_us > 0 ? static_cast<double>(r.committed) /
                                          ToSeconds(r.txn_elapsed_us)
                                    : 0;
  j += "], \"virtual\": {";
  j += Fmt("\"committed\": %llu, \"elapsed_s\": %s, ",
           static_cast<unsigned long long>(r.committed),
           Num(ToSeconds(r.txn_elapsed_us)).c_str());
  j += Fmt("\"tps\": %s, \"p50_ms\": %s, \"p99_ms\": %s, ", Num(tps).c_str(),
           Num(r.latency.Percentile(50) / 1000).c_str(),
           Num(r.latency.Percentile(99) / 1000).c_str());
  j += Fmt("\"restart_s\": %s, \"scan_s\": %s}, ",
           Num(ToSeconds(r.restart_us)).c_str(),
           Num(ToSeconds(r.scan_us)).c_str());
  j += Fmt("\"host\": {\"setup_s\": %s, \"window_s\": %s, \"ops\": %llu, ",
           Num(r.setup_s).c_str(), Num(r.window_s).c_str(),
           static_cast<unsigned long long>(
               scan_workload ? r.scanned : r.committed));
  j += Fmt("\"load_s\": %s, \"scan_s\": %s, \"restart_s\": %s, "
           "\"txn_us_p50\": %s, \"total_s\": %s}",
           Num(r.load_s).c_str(), Num(r.scan_s).c_str(),
           Num(r.restart_s).c_str(), Num(r.txn_cpu_ns.Percentile(50) / 1000).c_str(),
           Num(CpuSeconds() - cpu_start).c_str());
  if (rec.enabled()) {
    j += ", \"layer\": {";
    bool first = true;
    for (const auto& [name, v] : LayerMetrics(a, arch, r)) {
      j += Fmt("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
               Num(v).c_str());
      first = false;
    }
    j += "}";
    if (!rec.Write(a.spans)) {
      fprintf(stderr, "perfbench_driver: cannot write %s\n", a.spans.c_str());
      return 1;
    }
  }
  j += "}\n";
  FILE* f = fopen(a.out.c_str(), "w");
  if (f == nullptr || fwrite(j.data(), 1, j.size(), f) != j.size() ||
      fclose(f) != 0) {
    fprintf(stderr, "perfbench_driver: cannot write %s\n", a.out.c_str());
    return 1;
  }
  for (const std::string& e : r.gate.errors) {
    fprintf(stderr, "perfbench_driver: %s\n", e.c_str());
  }
  return r.gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace lfstx

int main(int argc, char** argv) {
  return lfstx::perfbench::Run(lfstx::perfbench::ParseArgs(argc, argv));
}
