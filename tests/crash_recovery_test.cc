// Crash-injection fuzzing: random file operations on LFS with power cuts
// at random points. Invariant: after remount (roll-forward + torn-write
// discard), every file state that was covered by a completed SyncAll is
// intact, and the file system is internally consistent (all reads succeed,
// usage table rebuilds, a fresh workload runs). Directed tests pin the
// checkpoint-at-a-segment-end case, where the chain continues in a
// successor segment that is not the next one in address order, and daemon
// ticks that land while roll-forward is still replaying the log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/registry.h"
#include "common/random.h"
#include "ffs/syncer.h"
#include "lfs/cleaner.h"
#include "lfs/lfs.h"

namespace lfstx {
namespace {

// Full invariant sweep over a freshly recovered file system. The cache may
// legitimately hold dirty buffers right after roll-forward, so only the
// structural expectations apply.
void ExpectChecksClean(SimEnv* env, BufferCache* cache, Lfs* fs,
                       int epoch) {
  CheckContext ctx;
  ctx.env = env;
  ctx.cache = cache;
  ctx.lfs = fs;
  CheckSummary summary = RunAllChecks(ctx);
  EXPECT_TRUE(summary.clean())
      << "invariant sweep after recovery epoch " << epoch << ":\n"
      << summary.ToString();
}

class LfsCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LfsCrashFuzz, SyncedStateSurvivesRandomPowerCuts) {
  const uint64_t seed = GetParam();
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  Random rng(seed);

  // `stable` mirrors file contents as of the last completed SyncAll — the
  // contract is that recovery reproduces at least this. `at_crash` mirrors
  // contents at the moment of the power cut: when the crash budget covers
  // the whole in-flight flush, roll-forward legitimately recovers these
  // newer contents instead (chunks are CRC-guarded and applied whole, so
  // each file lands on exactly one of the two states, never a mix).
  std::map<std::string, std::string> stable;
  std::map<std::string, std::string> pending;
  std::map<std::string, std::string> at_crash;

  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs::Options lo;
      lo.checkpoint_every_segments = 4;
      Lfs fs(&env, &disk, &cache, lo);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
    }

    const int kCrashes = 6;
    for (int epoch = 0; epoch < kCrashes; epoch++) {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok()) << "epoch " << epoch;
      ExpectChecksClean(&env, &cache, &fs, epoch);

      // 1. Everything synced before the last crash must be present, with
      // either its last-synced contents or the newer contents of the
      // crash-time flush (if that flush fit inside the crash budget).
      pending = stable;  // recovery may or may not have kept unsynced data;
                         // synced data is the contract
      for (const auto& [path, contents] : stable) {
        auto it = at_crash.find(path);
        const std::string& newer =
            it != at_crash.end() ? it->second : contents;
        auto r = fs.Open(path);
        ASSERT_TRUE(r.ok()) << path << " lost after crash " << epoch;
        std::vector<char> buf(std::max(contents.size(), newer.size()) + 16);
        auto n = fs.Read(r.value(), 0, buf.size(), buf.data());
        ASSERT_TRUE(n.ok());
        auto matches = [&](const std::string& want) {
          return n.value() == want.size() &&
                 memcmp(buf.data(), want.data(), want.size()) == 0;
        };
        ASSERT_TRUE(matches(contents) || matches(newer))
            << path << " corrupted after crash " << epoch << ": recovered "
            << n.value() << " bytes, synced state has " << contents.size()
            << ", crash-time state has " << newer.size();
        // Adopt whichever state recovery actually kept: it is on disk and
        // durable (replayed into the post-recovery checkpoint), so it is
        // what the next crash must preserve if this file isn't rewritten.
        pending[path] = std::string(buf.data(), n.value());
        ASSERT_TRUE(fs.Close(r.value()).ok());
      }
      stable = pending;

      // 2. Random mutations, with a SyncAll at a random point that
      // promotes `pending` to `stable`.
      int ops = 10 + static_cast<int>(rng.Uniform(20));
      int sync_at = static_cast<int>(rng.Uniform(static_cast<uint64_t>(ops)));
      for (int op = 0; op < ops; op++) {
        std::string path = "/f" + std::to_string(rng.Uniform(6));
        std::string contents =
            rng.Bytes(64 + rng.Uniform(3 * kBlockSize));
        InodeNum ino;
        if (pending.count(path)) {
          auto r = fs.Open(path);
          ASSERT_TRUE(r.ok());
          ino = r.value();
          ASSERT_TRUE(fs.Truncate(ino, 0).ok());
        } else {
          auto r = fs.Create(path);
          if (!r.ok()) {
            // Created after the last sync, then persisted by the
            // crash-time flush: the file already exists on disk.
            r = fs.Open(path);
            ASSERT_TRUE(r.ok()) << path;
            ASSERT_TRUE(fs.Truncate(r.value(), 0).ok());
          }
          ino = r.value();
        }
        ASSERT_TRUE(fs.Write(ino, 0, contents).ok());
        ASSERT_TRUE(fs.Close(ino).ok());
        pending[path] = contents;
        if (op == sync_at) {
          ASSERT_TRUE(fs.SyncAll().ok());
          stable = pending;
        }
      }

      // 3. Cut the power partway through the next flush.
      at_crash = pending;
      disk.CrashAfterBlocks(rng.Uniform(40));
      Status s = fs.SyncAll();
      (void)s;  // the writes silently vanish past the budget
      disk.ClearCrash();
      // The Lfs object goes out of scope without Unmount: that IS the crash.
    }

    // Final epoch: recover once more and run a sanity workload.
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    ExpectChecksClean(&env, &cache, &fs, kCrashes);
    auto r = fs.Create("/post-recovery");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(fs.Write(r.value(), 0, Slice("alive")).ok());
    ASSERT_TRUE(fs.Close(r.value()).ok());
    ASSERT_TRUE(fs.Unmount().ok());
  });
  env.Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LfsCrashFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Seeded torn-write fuzz loop. The parametrized test above can, by luck of
// the budget draw, cut power cleanly between blocks; this loop keeps
// crashing mid-flush across fresh disks until the torn-final-write counter
// proves the hazard actually fired, then checks each recovery was clean.
// LFSTX_FUZZ_SEEDS overrides the number of rounds.
TEST(LfsCrashFuzzLoop, TornFinalWritesHappenAndRecoverClean) {
  int rounds = 6;
  if (const char* e = getenv("LFSTX_FUZZ_SEEDS")) {
    rounds = std::max(1, atoi(e));
  }
  uint64_t torn_total = 0;
  for (int round = 0; round < rounds; round++) {
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    Random rng(1000 + static_cast<uint64_t>(round));
    env.Spawn("main", [&] {
      {
        BufferCache cache(&env, 1024);
        Lfs fs(&env, &disk, &cache);
        cache.set_writeback(&fs);
        ASSERT_TRUE(fs.Format().ok());
        for (int i = 0; i < 12; i++) {
          auto r = fs.Create("/t" + std::to_string(i));
          ASSERT_TRUE(r.ok());
          ASSERT_TRUE(
              fs.Write(r.value(), 0, rng.Bytes(kBlockSize + rng.Uniform(4 * kBlockSize)))
                  .ok());
          ASSERT_TRUE(fs.Close(r.value()).ok());
        }
        ASSERT_TRUE(fs.SyncAll().ok());
        // Dirty everything again and cut the power a few blocks into the
        // flush: the in-flight multi-block chunk is guaranteed to tear.
        for (int i = 0; i < 12; i++) {
          auto r = fs.Open("/t" + std::to_string(i));
          ASSERT_TRUE(r.ok());
          ASSERT_TRUE(fs.Write(r.value(), 0, rng.Bytes(2 * kBlockSize)).ok());
          ASSERT_TRUE(fs.Close(r.value()).ok());
        }
        disk.CrashAfterBlocks(1 + rng.Uniform(6));
        Status s = fs.SyncAll();
        (void)s;
        disk.ClearCrash();
      }
      torn_total += disk.stats().crash_torn_blocks;
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok()) << "round " << round;
      ExpectChecksClean(&env, &cache, &fs, round);
      // Synced generation 1 must be fully readable.
      for (int i = 0; i < 12; i++) {
        auto r = fs.Open("/t" + std::to_string(i));
        ASSERT_TRUE(r.ok()) << "round " << round << ": /t" << i;
        ASSERT_TRUE(fs.Close(r.value()).ok());
      }
    });
    env.Run();
  }
  EXPECT_GT(torn_total, 0u)
      << "no crash in " << rounds
      << " rounds tore a write — the fuzz loop is not exercising the hazard";
}

// Mounts `platter` (running roll-forward), sweeps the checkers, requires
// every file in `synced` with its synced contents, then hands the mounted
// file system to `then`.
void MountAndExpectSynced(SimEnv* env, SimDisk* platter,
                          const std::map<std::string, std::string>& synced,
                          const std::function<void(Lfs*)>& then) {
  BufferCache cache(env, 1024);
  Lfs fs(env, platter, &cache);
  cache.set_writeback(&fs);
  ASSERT_TRUE(fs.Mount().ok());
  ExpectChecksClean(env, &cache, &fs, 0);
  for (const auto& [path, contents] : synced) {
    auto r = fs.Open(path);
    ASSERT_TRUE(r.ok()) << path << " lost: synced after the checkpoint";
    std::vector<char> buf(contents.size() + 16);
    auto n = fs.Read(r.value(), 0, buf.size(), buf.data());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf.data(), n.value()), contents) << path;
    ASSERT_TRUE(fs.Close(r.value()).ok());
  }
  then(&fs);
}

// A checkpoint captured while the log head sits at a segment end (the last
// chunk filled the segment and named its successor) must still let
// roll-forward reach the commits synced after it, whether the pre-crash
// writer synced them or a writer restarted from that very checkpoint did.
// The head is driven to the end of the *last* segment, so the named
// successor (found by wrapping around) is never the next segment in
// address order. Parameters: the execution backend, and the room left in
// the segment (1 or 0 blocks). Copying a platter is the power cut.
class SegmentEndCheckpoint
    : public ::testing::TestWithParam<std::tuple<SimBackend, uint32_t>> {};

TEST_P(SegmentEndCheckpoint, CommitsAfterCheckpointSurvive) {
  const auto [backend, gap] = GetParam();
  SimDisk::Options dopt;
  dopt.geometry.cylinders = 48;  // ~22 segments: the log wraps quickly
  SimEnv env(CostModel(), backend);
  SimDisk disk(&env, dopt);
  SimDisk cut_at_checkpoint(&env, dopt);
  SimDisk cut_after_commits(&env, dopt);
  Random rng(99);
  std::map<std::string, std::string> synced;

  // Four acknowledged commits: create a file, sync, repeat.
  auto commit = [&](Lfs* fs, const std::string& prefix) {
    for (int i = 0; i < 4; i++) {
      std::string path = prefix + std::to_string(i);
      std::string contents = rng.Bytes(64 + rng.Uniform(3 * kBlockSize));
      auto r = fs->Create(path);
      ASSERT_TRUE(r.ok()) << path;
      ASSERT_TRUE(fs->Write(r.value(), 0, contents).ok());
      ASSERT_TRUE(fs->Close(r.value()).ok());
      ASSERT_TRUE(fs->SyncAll().ok());
      synced[path] = contents;
    }
  };

  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs::Options lo;
      lo.checkpoint_every_segments = 1000000;  // only the checkpoint below
      Lfs fs(&env, &disk, &cache, lo);
      cache.set_writeback(&fs);
      Cleaner::Options copt;
      copt.poll_interval = 3600 * kSecond;  // cleaning is driven explicitly
      Cleaner cleaner(&env, &fs, copt);
      ASSERT_TRUE(fs.Format().ok());
      auto pad = fs.Create("/pad");
      ASSERT_TRUE(pad.ok());
      // A file filling the first segments, removed once the head reaches
      // the last one: those segments are then dead but not yet cleaned.
      // Recovery's usage rebuild frees them, so a restarted writer that
      // picked its own next segment would skip the named successor.
      auto doomed = fs.Create("/doomed");
      ASSERT_TRUE(doomed.ok());
      ASSERT_TRUE(
          fs.Write(doomed.value(), 0, rng.Bytes(200 * kBlockSize)).ok());
      ASSERT_TRUE(fs.Close(doomed.value()).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      bool doomed_removed = false;

      // Rewriting d blocks of one file and syncing appends one chunk of
      // d + 3 blocks (summary, data, inode, imap). Wrap the log around to
      // its last segment, then land the head exactly on the target.
      const uint32_t kMaxData = 8;
      const uint32_t last = fs.nsegments() - 1;
      const uint32_t target = fs.segment_blocks() - gap;
      for (int step = 0; step < 4000; step++) {
        if (fs.current_segment() == last && fs.current_offset() == target) {
          break;
        }
        if (fs.current_segment() == last && !doomed_removed) {
          ASSERT_TRUE(fs.Remove("/doomed").ok());
          ASSERT_TRUE(fs.SyncAll().ok());
          doomed_removed = true;
          continue;
        }
        uint32_t d = kMaxData;
        if (fs.current_segment() == last) {
          uint32_t room = target > fs.current_offset()
                              ? target - fs.current_offset()
                              : 0;
          if (room >= 4 && room <= kMaxData + 3) {
            d = room - 3;  // lands on the target
          } else if (room > kMaxData + 3) {
            d = std::min(kMaxData, room - 7);  // leaves room for a last chunk
          }
        } else {
          while (fs.clean_segments() < 8) {
            ASSERT_TRUE(cleaner.CleanOne().ok());
          }
        }
        ASSERT_TRUE(
            fs.Write(pad.value(), 0, rng.Bytes(d * kBlockSize)).ok());
        ASSERT_TRUE(fs.SyncAll().ok());
      }
      ASSERT_EQ(fs.current_segment(), last);
      ASSERT_EQ(fs.current_offset(), target);
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_EQ(fs.current_offset(), target);
      cut_at_checkpoint.CopyContentsFrom(disk);

      // The successor segment takes the next commits.
      commit(&fs, "/after");
      ASSERT_NE(fs.current_segment(), last);
      cut_after_commits.CopyContentsFrom(disk);
    }
    MountAndExpectSynced(&env, &cut_after_commits, synced, [](Lfs* fs) {
      EXPECT_GT(fs->recovery_stats().chunks, 0u);
    });

    // Restart from the bare segment-end checkpoint: recovery replays
    // nothing, and the restarted writer must continue the chain in the
    // successor the checkpoint names.
    synced.clear();
    MountAndExpectSynced(&env, &cut_at_checkpoint, synced, [&](Lfs* fs) {
      EXPECT_EQ(fs->recovery_stats().chunks, 0u);
      commit(fs, "/restarted");
      cut_after_commits.CopyContentsFrom(cut_at_checkpoint);
    });
    MountAndExpectSynced(&env, &cut_after_commits, synced, [](Lfs*) {});
  });
  env.Run();
  EXPECT_EQ(synced.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndGaps, SegmentEndCheckpoint,
    ::testing::Combine(::testing::Values(SimBackend::kThreads,
                                         SimBackend::kFibers),
                       ::testing::Values(1u, 0u)),
    [](const auto& info) {
      return std::string(SimBackendName(std::get<0>(info.param))) + "_gap" +
             std::to_string(std::get<1>(info.param));
    });

// A restarted machine spawns its daemons (Machine::Build) before Boot
// mounts the file system. Until roll-forward finishes, the log head is the
// checkpoint's, so a daemon that writes to the log then lands on chunks
// recovery has not replayed yet. Here the log since the checkpoint is long
// enough that roll-forward outlasts many polls, and the cleaner's
// watermark keeps it engaged whenever it looks; every synced file must
// survive and the sweep must be clean. Parameters: the execution backend
// and the daemon (cleaner or syncer).
class DaemonDuringRollForward
    : public ::testing::TestWithParam<std::tuple<SimBackend, bool>> {};

TEST_P(DaemonDuringRollForward, SyncedFilesSurvive) {
  const auto [backend, cleaner_daemon] = GetParam();
  constexpr SimTime kPoll = 5 * kMillisecond;
  SimEnv env(CostModel(), backend);
  SimDisk disk(&env, SimDisk::Options{});
  SimDisk platter(&env, SimDisk::Options{});
  Random rng(7);
  std::map<std::string, std::string> synced;

  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs::Options lo;
      lo.checkpoint_every_segments = 1000000;  // replay all from the format
      Lfs fs(&env, &disk, &cache, lo);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      // Overwrite churn: a long chain of chunks, and dead blocks in every
      // segment it fills, so the cleaner finds victims mid-replay.
      for (int i = 0; i < 64; i++) {
        std::string path = "/f" + std::to_string(i % 8);
        std::string contents = rng.Bytes((4 + rng.Uniform(12)) * kBlockSize);
        auto r = fs.Open(path);
        if (!r.ok()) r = fs.Create(path);
        ASSERT_TRUE(r.ok()) << path;
        ASSERT_TRUE(fs.Truncate(r.value(), 0).ok());
        ASSERT_TRUE(fs.Write(r.value(), 0, contents).ok());
        ASSERT_TRUE(fs.Close(r.value()).ok());
        ASSERT_TRUE(fs.SyncAll().ok());
        synced[path] = contents;
      }
      platter.CopyContentsFrom(disk);  // the power cut
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &platter, &cache);
    cache.set_writeback(&fs);
    std::unique_ptr<Cleaner> cleaner;
    std::unique_ptr<Syncer> syncer;
    if (cleaner_daemon) {
      Cleaner::Options copt;
      copt.low_water = copt.high_water = 1u << 20;  // always engaged
      copt.poll_interval = kPoll;
      cleaner = std::make_unique<Cleaner>(&env, &fs, copt);
    } else {
      syncer = std::make_unique<Syncer>(&env, &fs, kPoll);
    }
    ASSERT_TRUE(fs.Mount().ok());
    ASSERT_GT(fs.recovery_stats().total_us, 4 * kPoll)
        << "roll-forward must outlast several daemon polls";
    ExpectChecksClean(&env, &cache, &fs, 0);
    for (const auto& [path, contents] : synced) {
      auto r = fs.Open(path);
      ASSERT_TRUE(r.ok()) << path << " lost across the restart";
      std::vector<char> buf(contents.size() + 16);
      auto n = fs.Read(r.value(), 0, buf.size(), buf.data());
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(std::string(buf.data(), n.value()), contents) << path;
      ASSERT_TRUE(fs.Close(r.value()).ok());
    }
  });
  env.Run();
  EXPECT_EQ(synced.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndDaemons, DaemonDuringRollForward,
    ::testing::Combine(::testing::Values(SimBackend::kThreads,
                                         SimBackend::kFibers),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(SimBackendName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_cleaner" : "_syncer");
    });

}  // namespace
}  // namespace lfstx
