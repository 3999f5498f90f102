// Trace format contract tests: every emitted event must parse as a flat
// JSON object, timestamps must be monotone per machine, wait_edge blame
// must point at transactions whose spans overlap the wait interval, and
// identical seeded runs must produce byte-identical traces. The offline
// report tool (tools/report.py, via tools/tracelib.py) parses these files
// with a strict JSON reader, so format drift here breaks it.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "machines.h"
#include "tpcb/driver.h"

namespace lfstx {
namespace {

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

// ---- minimal strict JSON checker (flat objects only) ----------------------
// The tracer only ever emits one-level objects of strings, numbers, and
// booleans; this parser accepts exactly that and nothing more.

bool SkipString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\') {
      ++*i;
      if (*i >= s.size()) return false;
    }
    ++*i;
  }
  if (*i >= s.size()) return false;
  ++*i;  // closing quote
  return true;
}

bool SkipNumber(const std::string& s, size_t* i) {
  size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  while (*i < s.size() && (isdigit(s[*i]) || s[*i] == '.' || s[*i] == 'e' ||
                           s[*i] == 'E' || s[*i] == '+' || s[*i] == '-')) {
    ++*i;
  }
  return *i > start;
}

bool SkipValue(const std::string& s, size_t* i) {
  if (*i >= s.size()) return false;
  if (s[*i] == '"') return SkipString(s, i);
  if (s.compare(*i, 4, "true") == 0) return *i += 4, true;
  if (s.compare(*i, 5, "false") == 0) return *i += 5, true;
  return SkipNumber(s, i);
}

bool IsFlatJsonObject(const std::string& line) {
  size_t i = 0;
  if (line.empty() || line[i++] != '{') return false;
  bool first = true;
  while (i < line.size() && line[i] != '}') {
    if (!first && line[i++] != ',') return false;
    first = false;
    if (!SkipString(line, &i)) return false;
    if (i >= line.size() || line[i++] != ':') return false;
    if (!SkipValue(line, &i)) return false;
  }
  return i < line.size() && line[i] == '}' && i + 1 == line.size();
}

// Extracts an integer JSON field from one trace line; -1 if absent.
int64_t Field(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return strtoll(line.c_str() + pos + needle.size(), nullptr, 10);
}

// Extracts a string JSON field; "" if absent.
std::string StrField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = line.find('"', pos);
  return line.substr(pos, end - pos);
}

// Contended multi-terminal TPC-B on one architecture with every trace
// category captured: lots of lock blame, commit piggybacking, and disk
// queueing in a few hundred virtual milliseconds.
std::string RunContendedWorkload(Arch arch) {
  std::string captured;
  auto rig = TestRig::Create(arch);
  rig->Run([&] {
    TpcbConfig cfg;
    cfg.accounts = 500;
    cfg.tellers = 10;
    cfg.branches = 2;
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), cfg,
                       100);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    rig->env()->tracer()->Enable(kTraceAll);
    rig->env()->tracer()->SetCapture(&captured);
    const uint32_t kMpl = 4;
    uint32_t finished = 0;
    std::vector<std::unique_ptr<TpcbDriver>> drivers;
    for (uint32_t p = 0; p < kMpl; p++) {
      drivers.push_back(std::make_unique<TpcbDriver>(
          rig->backend.get(), &db.value(), cfg, 7 + p));
    }
    for (uint32_t p = 0; p < kMpl; p++) {
      rig->env()->Spawn("terminal" + std::to_string(p), [&, p] {
        auto r = drivers[p]->Run(25);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        finished++;
      });
    }
    while (finished < kMpl) rig->env()->SleepFor(10 * kMillisecond);
    rig->env()->tracer()->SetCapture(nullptr);
    rig->env()->tracer()->DisableAll();
  });
  return captured;
}

TEST(TraceFormatTest, EveryEventIsAFlatJsonObject) {
  std::string trace = RunContendedWorkload(Arch::kEmbedded);
  std::vector<std::string> lines = Lines(trace);
  ASSERT_GT(lines.size(), 100u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(IsFlatJsonObject(line)) << "unparseable: " << line;
    EXPECT_GE(Field(line, "t"), 0) << line;
    EXPECT_NE(StrField(line, "cat"), "") << line;
    EXPECT_NE(StrField(line, "ev"), "") << line;
  }
}

TEST(TraceFormatTest, TimestampsMonotonePerMachine) {
  // A capture is a single machine's stream (no "m" field), and the
  // simulation is single-threaded, so timestamps may never go backwards.
  std::string trace = RunContendedWorkload(Arch::kUserLfs);
  int64_t last = 0;
  for (const std::string& line : Lines(trace)) {
    int64_t t = Field(line, "t");
    ASSERT_GE(t, last) << "time went backwards: " << line;
    last = t;
  }
}

TEST(TraceFormatTest, WaitEdgeBlamesLiveSpans) {
  for (Arch arch : {Arch::kEmbedded, Arch::kUserLfs}) {
    std::string trace = RunContendedWorkload(arch);
    // txn -> [begin, end] of its profile span.
    std::map<int64_t, std::pair<int64_t, int64_t>> spans;
    for (const std::string& line : Lines(trace)) {
      if (StrField(line, "ev") != "txn_profile") continue;
      int64_t end = Field(line, "t");
      spans[Field(line, "txn")] = {end - Field(line, "elapsed_us"), end};
    }
    ASSERT_EQ(spans.size(), 100u);  // 4 terminals x 25 txns
    size_t checked = 0;
    for (const std::string& line : Lines(trace)) {
      if (StrField(line, "ev") != "wait_edge") continue;
      int64_t holder = Field(line, "holder");
      if (holder <= 0) continue;  // disk edges blame ahead_txn, not holder
      int64_t since = Field(line, "since");
      int64_t until = since + Field(line, "waited_us");
      ASSERT_TRUE(spans.count(holder))
          << "edge blames a transaction with no span: " << line;
      // The blamed transaction must have been alive during the wait: a
      // lock holder held the lock at `since`; a group-commit/log leader
      // flushed somewhere inside the window.
      EXPECT_LE(spans[holder].first, until) << line;
      EXPECT_GE(spans[holder].second, since) << line;
      // The waiter, when it is a transaction, must have an enclosing span.
      int64_t waiter = Field(line, "waiter");
      if (waiter > 0) {
        ASSERT_TRUE(spans.count(waiter)) << line;
        EXPECT_LE(spans[waiter].first, since) << line;
        EXPECT_GE(spans[waiter].second, since) << line;
      }
      checked++;
    }
    EXPECT_GT(checked, 10u) << "contended run produced no blame edges";
  }
}

TEST(TraceFormatTest, IdenticalRunsProduceByteIdenticalTraces) {
  std::string a = RunContendedWorkload(Arch::kEmbedded);
  std::string b = RunContendedWorkload(Arch::kEmbedded);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceFormatTest, FlightRecorderBuffersWithoutEmitting) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  rig->Run([&] {
    Tracer* tr = rig->env()->tracer();
    // Machine::Build turns the recorder on by default when no trace spec
    // is active; the user-visible mask stays off.
    ASSERT_TRUE(tr->flight_enabled());
    ASSERT_EQ(tr->mask(), 0u);
    uint64_t emitted0 = tr->events_emitted();
    Kernel* k = rig->machine->kernel.get();
    InodeNum ino = k->Create("/f").value();
    ASSERT_TRUE(k->SetTxnProtected("/f", true).ok());
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("x")).ok());
    ASSERT_TRUE(k->TxnCommit().ok());
    // Buffered-only events do not count as emitted and reach no sink.
    EXPECT_EQ(tr->events_emitted(), emitted0);
    FILE* tmp = tmpfile();
    ASSERT_NE(tmp, nullptr);
    tr->DumpFlight(tmp);
    fflush(tmp);
    long size = ftell(tmp);
    ASSERT_GT(size, 0);
    std::string dump(static_cast<size_t>(size), '\0');
    rewind(tmp);
    ASSERT_EQ(fread(dump.data(), 1, dump.size(), tmp), dump.size());
    fclose(tmp);
    EXPECT_NE(dump.find("[flight]"), std::string::npos);
    EXPECT_NE(dump.find("\"ev\":\"txn_commit\""), std::string::npos);
    for (const std::string& line : Lines(dump)) {
      if (!line.empty() && line[0] == '{') {
        EXPECT_TRUE(IsFlatJsonObject(line)) << line;
      }
    }
  });
}

}  // namespace
}  // namespace lfstx
