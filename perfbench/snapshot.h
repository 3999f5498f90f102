// One windowed snapshot for every per-layer count the benchmark reports.
//
// A Snapshot is a flat name -> value map over two sources:
//   * MetricsRegistry::SampleNumeric() (counters, gauges, histogram
//     count/sum), under the registry's own names;
//   * the public Stats structs of each layer a rig runs (SimDisk,
//     BufferCache, LfsStats, CleanerStats, BufferPool, LogManager,
//     LockManager, GroupCommit, the profiler's span and per-cause disk
//     aggregates), under "stats.<layer>.<field>".
// Diff(after, before) is the window between two snapshots, so a per-layer
// count never includes the bulk load or the warm-up.
//
// StatsProbe reads only the Stats structs; it is cheap enough to sample at
// every span boundary of the traced run.
#ifndef LFSTX_PERFBENCH_SNAPSHOT_H_
#define LFSTX_PERFBENCH_SNAPSHOT_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/rig.h"
#include "sim/profiler.h"

namespace lfstx {
namespace perfbench {

using Snapshot = std::map<std::string, double>;

/// Field-by-field difference; names absent from `before` count from zero.
inline Snapshot Diff(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it != before.end() ? it->second : 0.0);
  }
  return d;
}

/// Value of `name` in a snapshot, 0 when absent.
inline double At(const Snapshot& s, const std::string& name) {
  auto it = s.find(name);
  return it != s.end() ? it->second : 0.0;
}

/// \brief The Stats structs of one rig, as named probes.
class StatsProbe {
 public:
  explicit StatsProbe(ArchRig* rig) {
    Machine* m = rig->machine.get();
    SimEnv* env = rig->env();
    Add("stats.sim.context_switches",
        [env] { return env->stats().context_switches; });
    Add("stats.sim.cpu_busy_us", [env] { return env->stats().cpu_busy_us; });
    SimDisk* disk = m->disk.get();
    Add("stats.disk.reads", [disk] { return disk->stats().reads; });
    Add("stats.disk.writes", [disk] { return disk->stats().writes; });
    Add("stats.disk.blocks_read", [disk] { return disk->stats().blocks_read; });
    Add("stats.disk.blocks_written",
        [disk] { return disk->stats().blocks_written; });
    BufferCache* cache = m->cache.get();
    Add("stats.cache.hits", [cache] { return cache->stats().hits; });
    Add("stats.cache.misses", [cache] { return cache->stats().misses; });
    Add("stats.cache.readahead_blocks",
        [cache] { return cache->stats().readahead_blocks; });
    Add("stats.cache.readahead_hits",
        [cache] { return cache->stats().readahead_hits; });
    Profiler* prof = env->profiler();
    for (int c = 0; c < kNumIoCauses; c++) {
      IoCause cause = static_cast<IoCause>(c);
      std::string base = std::string("stats.diskcause.") + IoCauseName(cause);
      Add(base + ".requests",
          [prof, cause] { return prof->DiskCauseAgg(cause).requests; });
      Add(base + ".wait_us",
          [prof, cause] { return prof->DiskCauseAgg(cause).wait_us; });
      Add(base + ".service_us",
          [prof, cause] { return prof->DiskCauseAgg(cause).service_us; });
    }
    // Transaction spans carry the manager's tag: "embedded" for the kernel
    // manager, "libtp" for both user-level architectures.
    std::string mgr = rig->arch == Arch::kEmbedded ? "embedded" : "libtp";
    Add("stats.span.spans", [prof, mgr] { return prof->AggFor(mgr).spans; });
    Add("stats.span.elapsed_us",
        [prof, mgr] { return prof->AggFor(mgr).elapsed_us; });
    for (int p = 0; p < kNumPhases; p++) {
      Add(std::string("stats.span.") + PhaseName(static_cast<Phase>(p)) +
              "_us",
          [prof, mgr, p] { return prof->AggFor(mgr).phase_us[p]; });
    }
    if (Lfs* lfs = m->lfs()) {
      Add("stats.lfs.blocks_written",
          [lfs] { return lfs->lfs_stats().blocks_written; });
      Add("stats.lfs.flushes", [lfs] { return lfs->lfs_stats().flushes; });
      Add("stats.lfs.writer_stalls",
          [lfs] { return lfs->lfs_stats().writer_stalls; });
    }
    if (Cleaner* cl = m->cleaner.get()) {
      Add("stats.cleaner.segments_cleaned",
          [cl] { return cl->stats().segments_cleaned; });
      Add("stats.cleaner.live_blocks_copied",
          [cl] { return cl->stats().live_blocks_copied; });
      Add("stats.cleaner.blocks_read", [cl] { return cl->stats().blocks_read; });
      Add("stats.cleaner.busy_us", [cl] { return cl->stats().busy_us; });
    }
    if (LibTp* tp = rig->libtp.get()) {
      Add("stats.pool.hits", [tp] { return tp->pool()->stats().hits; });
      Add("stats.pool.misses", [tp] { return tp->pool()->stats().misses; });
      Add("stats.log.records", [tp] { return tp->log()->stats().records; });
      Add("stats.log.flushes", [tp] { return tp->log()->stats().flushes; });
      Add("stats.log.bytes_appended",
          [tp] { return tp->log()->stats().bytes_appended; });
      Add("stats.lock.waits", [tp] { return tp->locks()->stats().waits; });
      Add("stats.lock.deadlocks",
          [tp] { return tp->locks()->stats().deadlocks; });
    }
    if (EmbeddedTxnManager* etm = rig->etm.get()) {
      Add("stats.gc.flushes",
          [etm] { return etm->group_commit()->stats().flushes; });
      Add("stats.gc.txns_flushed",
          [etm] { return etm->group_commit()->stats().txns_flushed; });
      Add("stats.lock.waits",
          [etm] { return etm->lock_table()->stats().waits; });
      Add("stats.lock.deadlocks",
          [etm] { return etm->lock_table()->stats().deadlocks; });
    }
  }

  const std::vector<std::string>& names() const { return names_; }

  /// Current value of every probe, in names() order.
  std::vector<double> Sample() const {
    std::vector<double> out;
    out.reserve(fns_.size());
    for (const auto& fn : fns_) out.push_back(fn());
    return out;
  }

  /// Registry plus Stats structs, as one snapshot.
  Snapshot Take(MetricsRegistry* metrics) const {
    Snapshot s;
    for (const auto& [name, v] : metrics->SampleNumeric()) s[name] = v;
    std::vector<double> v = Sample();
    for (size_t i = 0; i < names_.size(); i++) s[names_[i]] = v[i];
    return s;
  }

 private:
  template <typename Fn>
  void Add(std::string name, Fn fn) {
    names_.push_back(std::move(name));
    fns_.push_back([fn] { return static_cast<double>(fn()); });
  }

  std::vector<std::string> names_;
  std::vector<std::function<double()>> fns_;
};

}  // namespace perfbench
}  // namespace lfstx

#endif  // LFSTX_PERFBENCH_SNAPSHOT_H_
