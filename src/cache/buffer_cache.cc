#include "cache/buffer_cache.h"

#include <cassert>
#include <cstring>

#include "common/check_macros.h"

namespace lfstx {

BufferCache::BufferCache(SimEnv* env, size_t capacity_blocks,
                         std::string instance)
    : env_(env), capacity_(capacity_blocks), instance_(std::move(instance)) {
  assert(capacity_ >= 8);
  MetricsRegistry* m = env_->metrics();
  auto g = [&](const char* leaf, const char* unit, const char* help,
               std::function<double()> fn) {
    m->AddGauge(this, MetricName(leaf), unit, help, std::move(fn));
  };
  g("hits", "count", "buffer cache hits",
    [this] { return static_cast<double>(stats_.hits); });
  g("misses", "count", "buffer cache misses",
    [this] { return static_cast<double>(stats_.misses); });
  g("evictions", "count", "frames evicted",
    [this] { return static_cast<double>(stats_.evictions); });
  g("dirty_evictions", "count", "evictions that forced a write-back",
    [this] { return static_cast<double>(stats_.dirty_evictions); });
  g("resident", "blocks", "frames currently cached",
    [this] { return static_cast<double>(buffers_.size()); });
  g("dirty", "blocks", "dirty frames right now",
    [this] { return static_cast<double>(dirty_count_); });
  g("capacity", "blocks", "configured frame count",
    [this] { return static_cast<double>(capacity_); });
  g("readahead.issued", "count", "clustered readahead requests",
    [this] { return static_cast<double>(stats_.readahead_issued); });
  g("readahead.blocks", "blocks", "blocks prefetched beyond demand blocks",
    [this] { return static_cast<double>(stats_.readahead_blocks); });
  g("readahead.hits", "count", "first references to prefetched frames",
    [this] { return static_cast<double>(stats_.readahead_hits); });
  g("readahead.wasted", "count", "prefetched frames dropped unreferenced",
    [this] { return static_cast<double>(stats_.readahead_wasted); });
}

std::string BufferCache::MetricName(const char* leaf) const {
  return instance_.empty() ? std::string("cache.") + leaf
                           : "cache." + instance_ + "." + leaf;
}

BufferCache::~BufferCache() { env_->metrics()->DropOwner(this); }

void BufferCache::TouchLru(Buffer* buf) {
  if (buf->in_lru) lru_.erase(buf->lru_pos);
  lru_.push_back(buf);
  buf->lru_pos = std::prev(lru_.end());
  buf->in_lru = true;
}

Result<Buffer*> BufferCache::Frame(BufferKey key, bool* fresh) {
  env_->Consume(env_->costs().buffer_lookup_us);
  for (;;) {
    auto it = buffers_.find(key);
    if (it != buffers_.end()) {
      Buffer* buf = it->second.get();
      if (buf->io_in_progress) {
        // Another process is loading or writing back this very block; wait
        // for it to settle, then retry the lookup (it may have been evicted).
        buf->pin_count++;
        if (buf->io_wait == nullptr) {
          buf->io_wait = std::make_unique<WaitQueue>(env_);
        }
        WaitQueue* wq = buf->io_wait.get();
        WakeReason r = wq->Sleep();
        buf->pin_count--;
        if (r == WakeReason::kStopped) {
          return Status::Busy("simulation stopped during buffer wait");
        }
        continue;
      }
      buf->pin_count++;
      TouchLru(buf);
      *fresh = false;
      stats_.hits++;
      NoteReferenced(buf);
      return buf;
    }
    if (buffers_.size() < capacity_) break;
    // A dirty eviction yields in its write-back, and another process may
    // insert this very key meanwhile: look it up again afterwards.
    LFSTX_RETURN_IF_ERROR(EvictOne());
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* buf = owned.get();
  buf->key = key;
  memset(buf->data, 0, sizeof(buf->data));
  buf->pin_count = 1;
  // LFSTX_YIELD_OK(reached only from a miss with no yield since the lookup)
  buffers_.emplace(key, std::move(owned));
  TouchLru(buf);
  *fresh = true;
  stats_.misses++;
  return buf;
}

bool BufferCache::EvictCleanOne() {
  // Coldest eligible frame wins, except that a never-referenced prefetch in
  // the colder half of the LRU goes first — stale readahead must die before
  // demand-loaded data. The preference deliberately excludes the hot half:
  // a just-installed prefetch run sits there, and preferring it would make
  // each InstallPrefetched of a full cache evict the run's previous frame.
  Buffer* victim = nullptr;
  const size_t cold_limit = lru_.size() / 2;
  size_t pos = 0;
  for (Buffer* b : lru_) {
    const bool cold = pos++ < cold_limit;
    if (!cold && victim != nullptr) break;
    if (b->pin_count > 0 || b->txn_dirty || b->io_in_progress || b->dirty) {
      continue;
    }
    if (b->prefetched && cold) {
      victim = b;
      break;
    }
    if (victim == nullptr) victim = b;
  }
  if (victim == nullptr) return false;
  if (victim->prefetched) stats_.readahead_wasted++;
  stats_.evictions++;
  lru_.erase(victim->lru_pos);
  victim->in_lru = false;
  buffers_.erase(victim->key);
  return true;
}

Status BufferCache::EvictOne() {
  // Pass 1: prefer a clean victim — cheap, and safe even when the eviction
  // happens re-entrantly inside a file system flush.
  if (EvictCleanOne()) return Status::OK();
  if (no_dirty_eviction_ > 0) {
    return Status::NoSpace(
        "buffer cache exhausted during flush: no clean frame available");
  }
  // Pass 2: write back the coldest dirty victim.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Buffer* victim = *it;
    if (victim->pin_count > 0 || victim->txn_dirty || victim->io_in_progress) {
      continue;
    }
    if (victim->dirty) {
      LFSTX_CHECK(writeback_ != nullptr,
                  "dirty eviction with no writeback handler attached");
      LFSTX_TRACE(env_->tracer(), TraceCat::kCache, "dirty_eviction",
                  {"file", victim->key.file}, {"lblock", victim->key.lblock},
                  {"resident", static_cast<uint64_t>(buffers_.size())});
      victim->io_in_progress = true;
      victim->pin_count++;
      Status s = writeback_->WriteBack(victim);
      victim->pin_count--;
      victim->io_in_progress = false;
      if (victim->io_wait != nullptr) victim->io_wait->WakeAll();
      LFSTX_RETURN_IF_ERROR(s);
      stats_.dirty_evictions++;
      // The world may have changed while we were writing; restart the scan.
      if (victim->pin_count > 0 || victim->dirty || victim->txn_dirty) {
        return Status::OK();  // someone re-dirtied or pinned it; try again
      }
    }
    stats_.evictions++;
    lru_.erase(victim->lru_pos);
    victim->in_lru = false;
    buffers_.erase(victim->key);
    return Status::OK();
  }
  return Status::NoSpace(
      "buffer cache exhausted: all frames pinned or transaction-dirty");
}

Result<Buffer*> BufferCache::Get(BufferKey key,
                                 std::function<Status(char*)> load) {
  bool fresh = false;
  LFSTX_ASSIGN_OR_RETURN(Buffer * buf, Frame(key, &fresh));
  if (fresh) {
    buf->io_in_progress = true;
    Status s = load(buf->data);
    buf->io_in_progress = false;
    if (buf->io_wait != nullptr) buf->io_wait->WakeAll();
    if (!s.ok()) {
      buf->pin_count--;
      if (buf->pin_count == 0 && !buf->dirty) {
        lru_.erase(buf->lru_pos);
        buffers_.erase(key);
      }
      return s;
    }
  }
  return buf;
}

Result<Buffer*> BufferCache::GetNoLoad(BufferKey key) {
  bool fresh = false;
  return Frame(key, &fresh);
}

Buffer* BufferCache::Peek(BufferKey key) {
  auto it = buffers_.find(key);
  if (it == buffers_.end() || it->second->io_in_progress) return nullptr;
  it->second->pin_count++;
  NoteReferenced(it->second.get());
  return it->second.get();
}

bool BufferCache::InstallPrefetched(BufferKey key, const char* data,
                                    BlockAddr disk_addr) {
  if (buffers_.count(key) != 0) return false;
  while (buffers_.size() >= capacity_) {
    if (!EvictCleanOne()) return false;
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* buf = owned.get();
  buf->key = key;
  memcpy(buf->data, data, kBlockSize);
  buf->disk_addr = disk_addr;
  buf->prefetched = true;
  buffers_.emplace(key, std::move(owned));
  TouchLru(buf);
  return true;
}

void BufferCache::Release(Buffer* buf) {
  LFSTX_CHECK(buf->pin_count > 0,
              "Release without a matching Get/Peek (pin underflow)");
  buf->pin_count--;
}

void BufferCache::MarkDirty(Buffer* buf) {
  if (!buf->dirty) {
    buf->dirtied_at = env_->Now();
    dirty_count_++;
  }
  buf->dirty = true;
  buf->txn_dirty = false;
  buf->txn_owner = kNoTxn;
  mutation_gen_++;
}

void BufferCache::MarkTxnDirty(Buffer* buf, TxnId txn) {
  LFSTX_CHECK(txn != kNoTxn,
              "transaction list needs a real owner (buffers marked with "
              "kNoTxn would never commit or abort)");
  if (buf->dirty) dirty_count_--;
  buf->txn_dirty = true;
  buf->txn_owner = txn;
  buf->dirty = false;  // invisible to the syncer until commit
  buf->dirtied_at = env_->Now();
  mutation_gen_++;
}

void BufferCache::MarkClean(Buffer* buf) {
  if (buf->dirty) dirty_count_--;
  buf->dirty = false;
  buf->txn_dirty = false;
  buf->txn_owner = kNoTxn;
  mutation_gen_++;
}

std::vector<Buffer*> BufferCache::TakeTxnBuffers(TxnId txn) {
  std::vector<Buffer*> out;
  for (auto& [key, buf] : buffers_) {
    if (buf->txn_dirty && buf->txn_owner == txn) {
      buf->pin_count++;
      out.push_back(buf.get());
    }
  }
  return out;
}

void BufferCache::InvalidateTxnBuffers(TxnId txn) {
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    Buffer* buf = it->second.get();
    if (buf->txn_dirty && buf->txn_owner == txn) {
      LFSTX_CHECK(buf->pin_count == 0,
                  "aborting transaction's buffer is still pinned — a live "
                  "reference would survive the invalidation");
      if (buf->dirty) dirty_count_--;
      if (buf->in_lru) lru_.erase(buf->lru_pos);
      it = buffers_.erase(it);
      mutation_gen_++;
    } else {
      ++it;
    }
  }
}

std::vector<Buffer*> BufferCache::CollectDirty(SimTime before) {
  std::vector<Buffer*> out;
  for (auto& [key, buf] : buffers_) {
    if (buf->dirty && !buf->io_in_progress && buf->dirtied_at <= before) {
      buf->pin_count++;
      out.push_back(buf.get());
    }
  }
  return out;
}

std::vector<Buffer*> BufferCache::CollectDirtyFile(FileId file) {
  std::vector<Buffer*> out;
  auto it = buffers_.lower_bound(BufferKey{file, 0});
  for (; it != buffers_.end() && it->first.file == file; ++it) {
    Buffer* buf = it->second.get();
    if (buf->dirty && !buf->io_in_progress) {
      buf->pin_count++;
      out.push_back(buf);
    }
  }
  return out;
}

void BufferCache::DropFile(FileId file, uint64_t from_lblock) {
  auto it = buffers_.lower_bound(BufferKey{file, from_lblock});
  while (it != buffers_.end() && it->first.file == file) {
    Buffer* buf = it->second.get();
    LFSTX_CHECK(
        buf->pin_count == 0 && !buf->txn_dirty && !buf->io_in_progress,
        "DropFile hit a pinned, transaction, or in-flight buffer — the "
        "caller must quiesce the file first");
    if (buf->dirty) dirty_count_--;
    if (buf->prefetched) stats_.readahead_wasted++;
    if (buf->in_lru) lru_.erase(buf->lru_pos);
    it = buffers_.erase(it);
    mutation_gen_++;
  }
}

size_t BufferCache::pinned_count() const {
  size_t n = 0;
  for (const auto& [key, buf] : buffers_) {
    if (buf->pin_count > 0) n++;
  }
  return n;
}

size_t BufferCache::txn_dirty_count() const {
  size_t n = 0;
  for (const auto& [key, buf] : buffers_) {
    if (buf->txn_dirty) n++;
  }
  return n;
}

size_t BufferCache::io_in_progress_count() const {
  size_t n = 0;
  for (const auto& [key, buf] : buffers_) {
    if (buf->io_in_progress) n++;
  }
  return n;
}

std::vector<std::string> BufferCache::CheckInvariants() const {
  std::vector<std::string> problems;
  auto problem = [&](std::string p) { problems.push_back(std::move(p)); };

  if (buffers_.size() > capacity_) {
    problem("resident " + std::to_string(buffers_.size()) +
            " buffers exceed capacity " + std::to_string(capacity_));
  }
  // Every frame the map owns must be on the LRU list exactly once, with a
  // self-consistent back-pointer, and the accounting counters must match a
  // full recount.
  size_t in_lru = 0;
  size_t dirty = 0;
  for (const auto& [key, buf] : buffers_) {
    std::string who = "buffer (file " + std::to_string(key.file) +
                      ", lblock " + std::to_string(key.lblock) + ")";
    if (!(buf->key == key)) {
      problem(who + " is keyed under a different map slot");
    }
    if (buf->pin_count < 0) {
      problem(who + " has negative pin count " +
              std::to_string(buf->pin_count));
    }
    if (buf->in_lru) {
      in_lru++;
      if (*buf->lru_pos != buf.get()) {
        problem(who + " LRU back-pointer does not point at itself");
      }
    } else {
      problem(who + " is resident but not on the LRU list");
    }
    if (buf->dirty) dirty++;
    if (buf->dirty && buf->txn_dirty) {
      problem(who + " is on both the dirty and the transaction list");
    }
    if (buf->txn_dirty && buf->txn_owner == kNoTxn) {
      problem(who + " is transaction-dirty but owned by no transaction");
    }
    if (buf->prefetched && (buf->dirty || buf->txn_dirty)) {
      problem(who + " is prefetched yet dirty — every dirtying path must "
                    "reference (and unflag) the frame first");
    }
    if (!buf->txn_dirty && buf->txn_owner != kNoTxn) {
      problem(who + " carries stale transaction owner " +
              std::to_string(buf->txn_owner));
    }
  }
  if (lru_.size() != in_lru || lru_.size() != buffers_.size()) {
    problem("LRU list has " + std::to_string(lru_.size()) +
            " entries, map has " + std::to_string(buffers_.size()));
  }
  for (Buffer* buf : lru_) {
    auto it = buffers_.find(buf->key);
    if (it == buffers_.end() || it->second.get() != buf) {
      problem("LRU entry (file " + std::to_string(buf->key.file) +
              ", lblock " + std::to_string(buf->key.lblock) +
              ") is not resident in the map");
    }
  }
  if (dirty != dirty_count_) {
    problem("dirty_count says " + std::to_string(dirty_count_) +
            ", recount says " + std::to_string(dirty));
  }
  return problems;
}

void BufferCache::Clear() {
  for (auto& [key, buf] : buffers_) {
    LFSTX_CHECK(buf->pin_count == 0 && !buf->dirty && !buf->txn_dirty,
                "Clear would discard a pinned or unwritten buffer — the "
                "caller must SyncAll first");
    if (buf->prefetched) stats_.readahead_wasted++;
  }
  buffers_.clear();
  lru_.clear();
  dirty_count_ = 0;
  mutation_gen_++;
}



}  // namespace lfstx
