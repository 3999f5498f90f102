// Span recorder for the traced run: one span around each public call the
// benchmark makes (ArchRig::Create, Machine::Boot, LoadTpcb, TpcbDriver,
// RunScan, LibTp::Recover, ...). A span records its
// name, parent, host wall and CPU start/end, virtual start/end, and the
// StatsProbe values at both boundaries. Spans stay in memory and are
// written out as JSON lines when the run ends.
//
// A span's host time includes every simulated process that ran while the
// span's caller waited (the cleaner, the syncer), so
// host attribution by module comes from the gprof profile, not from here.
#ifndef LFSTX_PERFBENCH_SPANS_H_
#define LFSTX_PERFBENCH_SPANS_H_

#include <time.h>

#include <cstdio>
#include <string>
#include <vector>

#include "snapshot.h"

namespace lfstx {
namespace perfbench {

inline double WallSeconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host CPU time of this process. The simulator runs every simulated
/// process on one OS thread, so this is the simulator's own cost and is
/// not inflated by other load on the machine.
inline double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
  std::string name;
  int parent = -1;
  double wall0 = 0, wall1 = 0;
  double cpu0 = 0, cpu1 = 0;
  SimTime v0 = 0, v1 = 0;
  const StatsProbe* probe = nullptr;
  std::vector<double> stats0, stats1;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. -1 when disabled.
  int Begin(const char* name, SimEnv* env, const StatsProbe* probe) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.probe = probe;
    if (probe != nullptr) s.stats0 = probe->Sample();
    s.v0 = env != nullptr ? env->Now() : 0;
    s.wall0 = WallSeconds();
    s.cpu0 = CpuSeconds();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id, SimEnv* env) {
    if (id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.cpu1 = CpuSeconds();
    s.wall1 = WallSeconds();
    s.v1 = env != nullptr ? env->Now() : 0;
    if (s.probe != nullptr) s.stats1 = s.probe->Sample();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; stats as nonzero deltas over the span.
  bool Write(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      fprintf(f,
              "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
              "\"wall_s\": [%.9f, %.9f], \"cpu_s\": [%.9f, %.9f], "
              "\"virtual_us\": [%llu, %llu], \"stats\": {",
              i, s.name.c_str(), s.parent, s.wall0, s.wall1, s.cpu0, s.cpu1,
              static_cast<unsigned long long>(s.v0),
              static_cast<unsigned long long>(s.v1));
      bool first = true;
      if (s.probe != nullptr && s.stats1.size() == s.stats0.size()) {
        for (size_t k = 0; k < s.stats0.size(); k++) {
          double d = s.stats1[k] - s.stats0[k];
          if (d == 0) continue;
          fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ",
                  s.probe->names()[k].c_str(), d);
          first = false;
        }
      }
      fprintf(f, "}}\n");
    }
    return fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, SimEnv* env,
             const StatsProbe* probe = nullptr)
      : rec_(rec), env_(env), id_(rec->Begin(name, env, probe)) {}
  ~ScopedSpan() { rec_->End(id_, env_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  SimEnv* env_;
  int id_;
};

}  // namespace perfbench
}  // namespace lfstx

#endif  // LFSTX_PERFBENCH_SPANS_H_
