// LIBTP (user-level transaction system) tests: log format, buffer pool,
// WAL rule, commit/abort semantics, group commit, and restart recovery.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/table.h"
#include "libtp/log_record.h"
#include "machines.h"

namespace lfstx {
namespace {

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.type = LogRecType::kUpdate;
  rec.txn = 42;
  rec.prev_lsn = 1234;
  rec.file_ref = 2;
  rec.page = 77;
  rec.offset = 100;
  rec.before = "old-bytes";
  rec.after = "new-bytes!";
  std::string buf;
  rec.AppendTo(&buf);
  EXPECT_EQ(buf.size(), rec.EncodedSize());
  size_t consumed = 0;
  auto r = LogRecord::Decode(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(r.value().txn, 42u);
  EXPECT_EQ(r.value().prev_lsn, 1234u);
  EXPECT_EQ(r.value().before, "old-bytes");
  EXPECT_EQ(r.value().after, "new-bytes!");
}

TEST(LogRecordTest, TornRecordDetected) {
  LogRecord rec;
  rec.type = LogRecType::kUpdate;
  rec.txn = 1;
  rec.before = std::string(100, 'b');
  rec.after = std::string(100, 'a');
  std::string buf;
  rec.AppendTo(&buf);
  size_t consumed;
  // Truncated payload.
  EXPECT_TRUE(LogRecord::Decode(buf.data(), buf.size() - 10, &consumed)
                  .status()
                  .IsCorruption());
  // Flipped byte.
  buf[70] ^= 0x1;
  EXPECT_TRUE(LogRecord::Decode(buf.data(), buf.size(), &consumed)
                  .status()
                  .IsCorruption());
}

TEST(LibTpTest, CommitForcesTheLog) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    auto fref = tp->pool()->RegisterFile("/data", true);
    ASSERT_TRUE(fref.ok());
    TxnId txn = tp->Begin().value();
    auto page = tp->GetPage(txn, fref.value(), 0, LockMode::kExclusive);
    ASSERT_TRUE(page.ok());
    memcpy(page.value()->data + 100, "hello", 5);
    ASSERT_TRUE(tp->PutPageDirty(txn, page.value()).ok());
    Lsn before_commit = tp->log()->durable_lsn();
    ASSERT_TRUE(tp->Commit(txn).ok());
    EXPECT_GT(tp->log()->durable_lsn(), before_commit);
    EXPECT_GE(tp->log()->stats().records, 2u);  // update + commit
  });
}

TEST(LibTpTest, AbortRestoresBeforeImages) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Commit a base value.
    TxnId t1 = tp->Begin().value();
    auto p = tp->GetPage(t1, fref, 3, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 64, "BASE", 4);
    ASSERT_TRUE(tp->PutPageDirty(t1, p.value()).ok());
    ASSERT_TRUE(tp->Commit(t1).ok());
    // Update then abort.
    TxnId t2 = tp->Begin().value();
    p = tp->GetPage(t2, fref, 3, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 64, "EVIL", 4);
    ASSERT_TRUE(tp->PutPageDirty(t2, p.value()).ok());
    ASSERT_TRUE(tp->Abort(t2).ok());
    // Verify.
    TxnId t3 = tp->Begin().value();
    p = tp->GetPage(t3, fref, 3, LockMode::kShared);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(std::string(p.value()->data + 64, 4), "BASE");
    tp->PutPage(p.value());
    ASSERT_TRUE(tp->Commit(t3).ok());
  });
}

TEST(LibTpTest, OnlyChangedBytesAreLogged) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    TxnId txn = tp->Begin().value();
    auto p = tp->GetPage(txn, fref, 0, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 2000, "xy", 2);  // touch 2 bytes
    uint64_t bytes_before = tp->log()->stats().bytes_appended;
    ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    uint64_t logged = tp->log()->stats().bytes_appended - bytes_before;
    // Record header + 2 bytes before + 2 bytes after, nowhere near 4 KiB.
    EXPECT_LT(logged, 128u);
    ASSERT_TRUE(tp->Commit(txn).ok());
  });
}

TEST(LibTpTest, WalRuleOnEviction) {
  // A tiny pool forces dirty evictions; the page write must flush the log
  // first, so durable_lsn always covers evicted pages.
  Machine::Options mo;
  auto rig = TestRig::Create(Arch::kUserLfs, mo);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    TxnId txn = tp->Begin().value();
    for (uint64_t pg = 0; pg < 40; pg++) {
      auto p = tp->GetPage(txn, fref, pg, LockMode::kExclusive);
      ASSERT_TRUE(p.ok());
      memcpy(p.value()->data + 500, "dirty", 5);
      ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    }
    ASSERT_TRUE(tp->Commit(txn).ok());
    ASSERT_TRUE(tp->pool()->FlushAll().ok());
    EXPECT_GE(tp->log()->durable_lsn(), tp->log()->next_lsn());
  });
}

TEST(LibTpTest, RecoveryRedoesCommittedWork) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    TxnId txn = tp->Begin().value();
    auto p = tp->GetPage(txn, fref, 1, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 256, "DURABLE", 7);
    ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    ASSERT_TRUE(tp->Commit(txn).ok());
    // "Crash": throw away the user process (pool contents lost) without
    // flushing pages; only the log survives. Then restart LIBTP.
    LibTp fresh(rig->machine->kernel.get());
    ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    TxnId t2 = fresh.Begin().value();
    auto p2 = fresh.GetPage(t2, 0, 1, LockMode::kShared);
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(std::string(p2.value()->data + 256, 7), "DURABLE");
    fresh.PutPage(p2.value());
    ASSERT_TRUE(fresh.Commit(t2).ok());
  });
}

TEST(LibTpTest, RecoveryUndoesLosers) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Commit "GOOD" at page 2.
    TxnId t1 = tp->Begin().value();
    auto p = tp->GetPage(t1, fref, 2, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 128, "GOOD", 4);
    ASSERT_TRUE(tp->PutPageDirty(t1, p.value()).ok());
    ASSERT_TRUE(tp->Commit(t1).ok());
    // A loser overwrites it, and its dirty page even reaches the disk
    // (steal), but it never commits.
    TxnId t2 = tp->Begin().value();
    p = tp->GetPage(t2, fref, 2, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 128, "LOSE", 4);
    ASSERT_TRUE(tp->PutPageDirty(t2, p.value()).ok());
    ASSERT_TRUE(tp->pool()->FlushAll().ok());  // steal: loser hits disk
    // Crash + restart.
    LibTp fresh(rig->machine->kernel.get());
    ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    TxnId t3 = fresh.Begin().value();
    auto p3 = fresh.GetPage(t3, 0, 2, LockMode::kShared);
    ASSERT_TRUE(p3.ok());
    EXPECT_EQ(std::string(p3.value()->data + 128, 4), "GOOD");
    fresh.PutPage(p3.value());
    ASSERT_TRUE(fresh.Commit(t3).ok());
  });
}

TEST(LibTpTest, GroupCommitBatchesFsyncs) {
  Machine::Options mo;
  auto rig = TestRig::Create(Arch::kUserLfs, mo);
  // Reconfigure LIBTP with group commit before boot.
  LibTp::Options lo;
  lo.log.group_commit_wait = 5 * kMillisecond;
  lo.log.group_commit_batch = 4;
  rig->libtp = std::make_unique<LibTp>(rig->machine->kernel.get(), lo);
  rig->backend = std::make_unique<LibTpBackend>(rig->libtp.get());
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Four concurrent committers should share one fsync.
    uint64_t flushes_before = tp->log()->stats().flushes;
    int done = 0;
    for (int i = 0; i < 4; i++) {
      rig->env()->Spawn("c" + std::to_string(i), [&, i] {
        TxnId txn = tp->Begin().value();
        auto p = tp->GetPage(txn, fref, static_cast<uint64_t>(i) + 10,
                             LockMode::kExclusive);
        ASSERT_TRUE(p.ok());
        p.value()->data[900] = static_cast<char>('A' + i);
        ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
        ASSERT_TRUE(tp->Commit(txn).ok());
        done++;
      });
    }
    while (done < 4) rig->env()->SleepFor(kMillisecond);
    uint64_t flushes = tp->log()->stats().flushes - flushes_before;
    EXPECT_LE(flushes, 2u);  // 4 commits, at most 2 fsync batches
  });
}

// Processes that miss pool pages while a read is in flight: A and B miss
// the same page, C a different one, all in a full pool. The read yields,
// so B must find A's in-transit page and wait for it rather than read and
// insert a second copy (which freed A's pinned page), and C must count
// A's page against the capacity before A's read completes.
void ConcurrentMissesShareOneRead(SimBackend backend) {
  SCOPED_TRACE(SimBackendName(backend));
  Machine::Options mo;
  mo.sim_backend = backend;
  LibTp::Options lo;
  lo.pool_pages = 8;
  auto rig = ArchRig::Create(Arch::kUserLfs, mo, lo);
  Status run = rig->Run([&] {
    Kernel* k = rig->machine->kernel.get();
    BufferPool* pool = rig->libtp->pool();
    auto ino = k->Create("/pages");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(
        k->Write(ino.value(), 0, std::string(16 * kBlockSize, 'p')).ok());
    // Nothing of the file stays in the kernel cache: every pool miss
    // reads through to the disk, and yields there.
    ASSERT_TRUE(rig->machine->fs->SyncAll().ok());
    rig->machine->cache->DropFile(ino.value());
    uint32_t fref = pool->RegisterFile("/pages", false).value();
    for (uint64_t pg = 8; pg < 16; pg++) {  // fill the pool, all clean
      auto p = pool->Get(fref, pg, false);
      ASSERT_TRUE(p.ok());
      pool->Release(p.value());
    }
    const BufferPool::Stats before = pool->stats();
    auto resident = [&] {
      return rig->env()->metrics()->SampleNumeric().at("pool.resident");
    };
    DbPage* got[3] = {nullptr, nullptr, nullptr};
    double max_resident = 0;
    int done = 0;
    for (int i = 0; i < 3; i++) {
      rig->env()->Spawn(std::string(1, static_cast<char>('A' + i)), [&, i] {
        auto p = pool->Get(fref, i < 2 ? 0 : 1, false);
        max_resident = std::max(max_resident, resident());
        done++;
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        got[i] = p.value();
      });
    }
    while (done < 3) rig->env()->SleepFor(kMillisecond);
    EXPECT_EQ(got[0], got[1]);
    EXPECT_NE(got[0], got[2]);
    EXPECT_EQ(pool->stats().misses - before.misses, 2u);  // one read each
    EXPECT_EQ(pool->stats().hits - before.hits, 1u);
    EXPECT_LE(max_resident, 8.0);
    EXPECT_LE(resident(), 8.0);
    if (got[0] == got[1]) {
      EXPECT_EQ(got[0]->data[100], 'p');
      pool->Release(got[0]);
      pool->Release(got[1]);
      pool->Release(got[2]);
    }
  });
  EXPECT_TRUE(run.ok()) << run.ToString();
}

TEST(LibTpTest, ConcurrentMissesShareOneReadThreads) {
  ConcurrentMissesShareOneRead(SimBackend::kThreads);
}

TEST(LibTpTest, ConcurrentMissesShareOneReadFibers) {
  ConcurrentMissesShareOneRead(SimBackend::kFibers);
}

}  // namespace
}  // namespace lfstx
