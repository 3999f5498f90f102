#include <gtest/gtest.h>

#include <cstring>

#include "cache/buffer_cache.h"
#include "disk/sim_disk.h"

namespace lfstx {
namespace {

// Writeback handler that records flushes into the sim disk.
class TestWriteback : public WritebackHandler {
 public:
  TestWriteback(SimDisk* disk, BufferCache* cache)
      : disk_(disk), cache_(cache) {}
  Status WriteBack(Buffer* buf) override {
    flushed++;
    if (buf->disk_addr != kInvalidBlock) {
      LFSTX_RETURN_IF_ERROR(disk_->Write(buf->disk_addr, 1, buf->data));
    }
    cache_->MarkClean(buf);
    return Status::OK();
  }
  int flushed = 0;

 private:
  SimDisk* disk_;
  BufferCache* cache_;
};

struct CacheFixture {
  CacheFixture(size_t capacity = 8)
      : disk(&env, SimDisk::Options{}),
        cache(&env, capacity),
        wb(&disk, &cache) {
    cache.set_writeback(&wb);
  }
  SimEnv env;
  SimDisk disk;
  BufferCache cache;
  TestWriteback wb;
};

TEST(BufferCacheTest, MissLoadsThenHits) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    int loads = 0;
    auto loader = [&](char* dst) {
      loads++;
      memset(dst, 0x5a, kBlockSize);
      return Status::OK();
    };
    auto r1 = f.cache.Get(BufferKey{1, 0}, loader);
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(static_cast<unsigned char>(r1.value()->data[100]), 0x5a);
    f.cache.Release(r1.value());
    auto r2 = f.cache.Get(BufferKey{1, 0}, loader);
    ASSERT_TRUE(r2.ok());
    f.cache.Release(r2.value());
    EXPECT_EQ(loads, 1);
  });
  f.env.Run();
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.cache.stats().misses, 1u);
}

TEST(BufferCacheTest, LruEvictsColdest) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    for (uint64_t i = 0; i < 8; i++) {
      auto r = f.cache.Get(BufferKey{1, i}, load);
      ASSERT_TRUE(r.ok());
      f.cache.Release(r.value());
    }
    // Touch block 0 so block 1 is the coldest.
    f.cache.Release(f.cache.Get(BufferKey{1, 0}, load).value());
    // Insert one more; block 1 should be evicted.
    f.cache.Release(f.cache.Get(BufferKey{1, 100}, load).value());
    EXPECT_NE(f.cache.Peek(BufferKey{1, 0}), nullptr);
    f.cache.Release(f.cache.Peek(BufferKey{1, 0}));
    EXPECT_EQ(f.cache.Peek(BufferKey{1, 1}), nullptr);
  });
  f.env.Run();
  EXPECT_EQ(f.cache.stats().evictions, 1u);
}

TEST(BufferCacheTest, DirtyEvictionWritesBack) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    auto r = f.cache.Get(BufferKey{1, 0}, load);
    ASSERT_TRUE(r.ok());
    r.value()->disk_addr = 500;
    memset(r.value()->data, 0x77, kBlockSize);
    f.cache.MarkDirty(r.value());
    f.cache.Release(r.value());
    // Fill the cache with more *dirty* buffers (eviction prefers clean
    // victims, so only an all-dirty cache forces a write-back).
    for (uint64_t i = 1; i <= 8; i++) {
      auto r2 = f.cache.Get(BufferKey{2, i}, load);
      ASSERT_TRUE(r2.ok());
      r2.value()->disk_addr = 600 + i;
      f.cache.MarkDirty(r2.value());
      f.cache.Release(r2.value());
    }
    EXPECT_GE(f.wb.flushed, 1);
    char out[kBlockSize];
    f.disk.RawRead(500, 1, out);
    EXPECT_EQ(static_cast<unsigned char>(out[0]), 0x77);
  });
  f.env.Run();
}

TEST(BufferCacheTest, PinnedBuffersAreNotEvicted) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    auto pinned = f.cache.Get(BufferKey{9, 9}, load);
    ASSERT_TRUE(pinned.ok());
    for (uint64_t i = 0; i < 20; i++) {
      auto r = f.cache.Get(BufferKey{1, i}, load);
      ASSERT_TRUE(r.ok());
      f.cache.Release(r.value());
    }
    Buffer* still = f.cache.Peek(BufferKey{9, 9});
    EXPECT_NE(still, nullptr);
    f.cache.Release(still);
    f.cache.Release(pinned.value());
  });
  f.env.Run();
}

TEST(BufferCacheTest, TxnBuffersAreUnevictableAndInvisible) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto r = f.cache.GetNoLoad(BufferKey{3, 7});
    ASSERT_TRUE(r.ok());
    f.cache.MarkTxnDirty(r.value(), /*txn=*/42);
    f.cache.Release(r.value());
    // Not visible to the syncer's dirty scan.
    EXPECT_TRUE(f.cache.CollectDirty().empty());
    // Survives cache pressure.
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    for (uint64_t i = 0; i < 20; i++) {
      auto r2 = f.cache.Get(BufferKey{1, i}, load);
      ASSERT_TRUE(r2.ok());
      f.cache.Release(r2.value());
    }
    Buffer* still = f.cache.Peek(BufferKey{3, 7});
    ASSERT_NE(still, nullptr);
    EXPECT_TRUE(still->txn_dirty);
    f.cache.Release(still);
  });
  f.env.Run();
}

TEST(BufferCacheTest, CommitPathTakesTxnBuffers) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    for (uint64_t i = 0; i < 3; i++) {
      auto r = f.cache.GetNoLoad(BufferKey{5, i});
      ASSERT_TRUE(r.ok());
      f.cache.MarkTxnDirty(r.value(), 7);
      f.cache.Release(r.value());
    }
    auto r = f.cache.GetNoLoad(BufferKey{5, 50});
    ASSERT_TRUE(r.ok());
    f.cache.MarkTxnDirty(r.value(), 8);  // different transaction
    f.cache.Release(r.value());

    auto taken = f.cache.TakeTxnBuffers(7);
    EXPECT_EQ(taken.size(), 3u);
    for (Buffer* b : taken) {
      f.cache.MarkDirty(b);
      f.cache.Release(b);
    }
    auto dirty = f.cache.CollectDirty();
    EXPECT_EQ(dirty.size(), 3u);
    for (Buffer* b : dirty) f.cache.Release(b);
  });
  f.env.Run();
}

TEST(BufferCacheTest, AbortPathInvalidatesTxnBuffers) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    auto r = f.cache.GetNoLoad(BufferKey{6, 1});
    ASSERT_TRUE(r.ok());
    memset(r.value()->data, 0xee, kBlockSize);
    f.cache.MarkTxnDirty(r.value(), 9);
    f.cache.Release(r.value());
    f.cache.InvalidateTxnBuffers(9);
    EXPECT_EQ(f.cache.Peek(BufferKey{6, 1}), nullptr);
  });
  f.env.Run();
}

TEST(BufferCacheTest, CollectDirtyFileIsScoped) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    for (FileId file : {10, 11}) {
      for (uint64_t i = 0; i < 2; i++) {
        auto r = f.cache.GetNoLoad(BufferKey{file, i});
        ASSERT_TRUE(r.ok());
        f.cache.MarkDirty(r.value());
        f.cache.Release(r.value());
      }
    }
    auto dirty10 = f.cache.CollectDirtyFile(10);
    EXPECT_EQ(dirty10.size(), 2u);
    for (Buffer* b : dirty10) {
      EXPECT_EQ(b->key.file, 10u);
      f.cache.Release(b);
    }
  });
  f.env.Run();
}

TEST(BufferCacheTest, DropFileRemovesBuffers) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    for (uint64_t i = 0; i < 4; i++) {
      auto r = f.cache.Get(BufferKey{20, i}, load);
      ASSERT_TRUE(r.ok());
      f.cache.Release(r.value());
    }
    f.cache.DropFile(20, 2);
    EXPECT_NE(f.cache.Peek(BufferKey{20, 1}), nullptr);
    f.cache.Release(f.cache.Peek(BufferKey{20, 1}));
    EXPECT_EQ(f.cache.Peek(BufferKey{20, 2}), nullptr);
    EXPECT_EQ(f.cache.Peek(BufferKey{20, 3}), nullptr);
  });
  f.env.Run();
}

TEST(BufferCacheTest, ExhaustionReportsNoSpace) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    // Fill the cache with transaction-dirty (unevictable) buffers.
    for (uint64_t i = 0; i < 8; i++) {
      auto r = f.cache.GetNoLoad(BufferKey{30, i});
      ASSERT_TRUE(r.ok());
      f.cache.MarkTxnDirty(r.value(), 1);
      f.cache.Release(r.value());
    }
    auto r = f.cache.GetNoLoad(BufferKey{31, 0});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Code::kNoSpace);
  });
  f.env.Run();
}

// Two processes miss the same block while the cache is full of dirty
// frames: each eviction yields in its write-back, so the second process
// misses too before the first has inserted the block. The key must be
// looked up again after every eviction, or the second insert replaces
// (and frees) the first process's frame while it stays on the LRU list.
TEST(BufferCacheTest, ConcurrentMissesOfOneBlockShareAFrame) {
  CacheFixture f(8);
  Buffer* got[2] = {nullptr, nullptr};
  f.env.Spawn("fill", [&] {
    for (uint64_t i = 0; i < 8; i++) {
      auto r = f.cache.GetNoLoad(BufferKey{40, i});
      ASSERT_TRUE(r.ok());
      r.value()->disk_addr = 700 + i;
      f.cache.MarkDirty(r.value());
      f.cache.Release(r.value());
    }
    for (int p = 0; p < 2; p++) {
      f.env.Spawn(p == 0 ? "p0" : "p1", [&f, &got, p] {
        auto r = f.cache.GetNoLoad(BufferKey{41, 0});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        got[p] = r.value();
      });
    }
  });
  f.env.Run();
  EXPECT_GE(f.wb.flushed, 2);  // both evictions really yielded
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(got[0], got[1]);
  EXPECT_TRUE(f.cache.CheckInvariants().empty())
      << f.cache.CheckInvariants().front();
  EXPECT_EQ(f.cache.size(), 7u);
}

}  // namespace
}  // namespace lfstx
