// Virtual-clock profiler tests: per-transaction phase breakdowns must
// partition elapsed time *exactly* (integer microseconds, no epsilon), be
// byte-identical across identical runs, and attribute lock contention to
// the transaction that blocked.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "machines.h"
#include "sim/profiler.h"

namespace lfstx {
namespace {

// All phase field names a txn_profile event carries, in emit order.
const char* kPhaseFields[kNumPhases] = {
    "run",       "runq_wait", "disk_read_wait", "disk_write_wait",
    "lock_wait", "log_wait",  "cleaner_stall",
};

std::vector<std::string> Lines(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size();
    if (nl > pos) out.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

// Extracts an unsigned JSON field from one trace line; -1 if absent.
int64_t Field(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return static_cast<int64_t>(
      strtoull(line.c_str() + pos + needle.size(), nullptr, 10));
}

// Three committed transactions on a protected file, with the profiler's
// trace category captured into `captured` (txn_profile events only).
void RunProfiledWorkload(std::string* captured) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  rig->Run([&] {
    Kernel* k = rig->machine->kernel.get();
    rig->env()->tracer()->Enable(TraceCat::kProf);
    rig->env()->tracer()->SetCapture(captured);
    InodeNum ino = k->Create("/bank").value();
    ASSERT_TRUE(k->SetTxnProtected("/bank", true).ok());
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(ino, static_cast<uint64_t>(i) * 64,
                           Slice("balance update")).ok());
      ASSERT_TRUE(k->TxnCommit().ok());
    }
    rig->env()->tracer()->SetCapture(nullptr);
  });
}

TEST(ProfilerTest, PhaseBreakdownSumsToElapsedExactly) {
  std::string captured;
  RunProfiledWorkload(&captured);
  std::vector<std::string> events = Lines(captured);
  ASSERT_EQ(events.size(), 3u);
  for (const std::string& ev : events) {
    ASSERT_NE(ev.find("\"ev\":\"txn_profile\""), std::string::npos) << ev;
    EXPECT_NE(ev.find("\"mgr\":\"embedded\""), std::string::npos) << ev;
    int64_t elapsed = Field(ev, "elapsed_us");
    ASSERT_GT(elapsed, 0) << ev;
    int64_t sum = 0;
    for (const char* ph : kPhaseFields) {
      int64_t v = Field(ev, ph);
      ASSERT_GE(v, 0) << ph << " missing in " << ev;
      sum += v;
    }
    // Exact partition: integer microseconds, no epsilon.
    EXPECT_EQ(sum, elapsed) << ev;
    // A commit forces the dirty pages into the log; the wait for that
    // durability must be attributed to log_wait, not lost in "run".
    EXPECT_GT(Field(ev, "log_wait"), 0) << ev;
  }
}

TEST(ProfilerTest, BreakdownIsByteIdenticalAcrossRuns) {
  std::string first;
  std::string second;
  RunProfiledWorkload(&first);
  RunProfiledWorkload(&second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ProfilerTest, LockBlockedTransactionShowsLockWait) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  rig->Run([&] {
    Kernel* k = rig->machine->kernel.get();
    InodeNum ino = k->Create("/shared").value();
    ASSERT_TRUE(k->SetTxnProtected("/shared", true).ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("init")).ok());
    ASSERT_TRUE(k->Sync().ok());

    bool t1_done = false, t2_done = false;
    rig->env()->Spawn("t1", [&] {
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(ino, 0, Slice("t1-x")).ok());
      rig->env()->SleepFor(300 * kMillisecond);  // hold the page lock
      ASSERT_TRUE(k->TxnCommit().ok());
      t1_done = true;
    });
    rig->env()->Spawn("t2", [&] {
      rig->env()->SleepFor(50 * kMillisecond);
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(ino, 0, Slice("t2-y")).ok());  // blocks on t1
      ASSERT_TRUE(k->TxnCommit().ok());
      t2_done = true;
    });
    while (!t1_done || !t2_done) rig->env()->SleepFor(10 * kMillisecond);

    Profiler::SpanAgg agg = rig->env()->profiler()->AggFor("embedded");
    EXPECT_EQ(agg.spans, 2u);
    EXPECT_EQ(agg.committed, 2u);
    // t2 spent its blocked interval in lock_wait — roughly the 250 ms left
    // of t1's hold when it arrived; assert the attribution, not the exact
    // figure.
    int lock_wait = static_cast<int>(Phase::kLockWait);
    EXPECT_GT(agg.phase_us[lock_wait], 100000u);
    uint64_t sum = 0;
    for (int i = 0; i < kNumPhases; i++) sum += agg.phase_us[i];
    EXPECT_EQ(sum, agg.elapsed_us);
  });
}

// A window that opens mid-run: the registry delta of the profiler's
// prof.<mgr>.* histograms and prof.disk.<cause>.* gauges (what the benches
// read) must equal the delta of its own aggregates exactly.
void RegistryWindowMatchesAggregates(SimBackend backend) {
  SCOPED_TRACE(SimBackendName(backend));
  Machine::Options mo;
  mo.sim_backend = backend;
  auto rig = TestRig::Create(Arch::kEmbedded, mo);
  rig->Run([&] {
    Kernel* k = rig->machine->kernel.get();
    Profiler* prof = rig->env()->profiler();
    MetricsRegistry* metrics = rig->env()->metrics();
    InodeNum ino = k->Create("/bank").value();
    ASSERT_TRUE(k->SetTxnProtected("/bank", true).ok());
    auto txns = [&](int n, int first) {
      for (int i = first; i < first + n; i++) {
        ASSERT_TRUE(k->TxnBegin().ok());
        ASSERT_TRUE(k->Write(ino, static_cast<uint64_t>(i) * kBlockSize,
                             Slice("balance update")).ok());
        ASSERT_TRUE(k->TxnCommit().ok());
      }
      ASSERT_TRUE(k->Sync().ok());
    };
    txns(3, 0);  // before the window: nonzero baselines to subtract
    const std::map<std::string, double> sample0 = metrics->SampleNumeric();
    const Profiler::SpanAgg agg0 = prof->AggFor("embedded");
    Profiler::DiskAgg cause0[kNumIoCauses];
    for (int c = 0; c < kNumIoCauses; c++) {
      cause0[c] = prof->DiskCauseAgg(static_cast<IoCause>(c));
    }
    txns(5, 3);
    const std::map<std::string, double> window =
        MetricDelta(metrics->SampleNumeric(), sample0);
    auto at = [&window](const std::string& name) {
      auto it = window.find(name);
      return it != window.end() ? it->second : 0.0;
    };
    const Profiler::SpanAgg agg = prof->AggFor("embedded");
    ASSERT_EQ(agg.spans - agg0.spans, 5u);
    EXPECT_EQ(at("prof.embedded.elapsed_us.count"), 5.0);
    EXPECT_EQ(at("prof.embedded.elapsed_us.sum"),
              static_cast<double>(agg.elapsed_us - agg0.elapsed_us));
    EXPECT_EQ(at("txn.embedded.committed"),
              static_cast<double>(agg.committed - agg0.committed));
    for (int i = 0; i < kNumPhases; i++) {
      EXPECT_EQ(at(std::string("prof.embedded.") + kPhaseFields[i] +
                   "_us.sum"),
                static_cast<double>(agg.phase_us[i] - agg0.phase_us[i]))
          << kPhaseFields[i];
      EXPECT_EQ(at(std::string("prof.embedded.") + kPhaseFields[i] +
                   "_us.count"),
                5.0)
          << kPhaseFields[i];
    }
    double window_requests = 0;
    for (int c = 0; c < kNumIoCauses; c++) {
      const Profiler::DiskAgg& d =
          prof->DiskCauseAgg(static_cast<IoCause>(c));
      std::string base =
          std::string("prof.disk.") + IoCauseName(static_cast<IoCause>(c));
      EXPECT_EQ(at(base + ".requests"),
                static_cast<double>(d.requests - cause0[c].requests))
          << base;
      EXPECT_EQ(at(base + ".wait_us"),
                static_cast<double>(d.wait_us - cause0[c].wait_us))
          << base;
      EXPECT_EQ(at(base + ".service_us"),
                static_cast<double>(d.service_us - cause0[c].service_us))
          << base;
      window_requests += at(base + ".requests");
    }
    EXPECT_GT(window_requests, 0.0);  // the window really did disk I/O
  });
}

TEST(ProfilerTest, RegistryWindowMatchesAggregatesThreads) {
  RegistryWindowMatchesAggregates(SimBackend::kThreads);
}

TEST(ProfilerTest, RegistryWindowMatchesAggregatesFibers) {
  RegistryWindowMatchesAggregates(SimBackend::kFibers);
}

}  // namespace
}  // namespace lfstx
