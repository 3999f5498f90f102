#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/stats.h"
#include "common/status.h"
#include "libtp/txn_manager.h"

namespace lfstx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(Code::kInternal); c++) {
    EXPECT_STRNE(CodeName(static_cast<Code>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk on fire"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kIOError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto p = r.take();
  EXPECT_EQ(*p, 7);
}

Status Helper(bool fail) {
  if (fail) return Status::Busy("nope");
  return Status::OK();
}
Status Caller(bool fail) {
  LFSTX_RETURN_IF_ERROR(Helper(fail));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Caller(false).ok());
  EXPECT_EQ(Caller(true).code(), Code::kBusy);
}

TEST(SliceTest, CompareAndEquality) {
  Slice a("abc"), b("abd"), c("abc"), d("ab");
  EXPECT_LT(a.compare(b), 0);
  EXPECT_GT(b.compare(a), 0);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_GT(a.compare(d), 0);
  EXPECT_TRUE(a.starts_with(d));
  EXPECT_FALSE(d.starts_with(a));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  // Empty input.
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const char* msg = "log structured file system";
  size_t n = strlen(msg);
  uint32_t whole = crc32c::Value(msg, n);
  uint32_t part = crc32c::Extend(crc32c::Value(msg, 10), msg + 10, n - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

// The table loop and the SSE4.2 kernel must give the same bits at every
// length across a summary-plus-block chunk, at every start alignment, and
// when one CRC is extended by the other.
TEST(Crc32cTest, KernelsAgreeAtEveryLengthAndAlignment) {
  const bool hw = crc32c::HasSse42();
  constexpr size_t kMaxLen = 4160;
  Random rng(31);
  std::string buf = rng.Bytes(kMaxLen + 8);
  for (size_t align = 0; align < 8; align++) {
    std::string kat = std::string(align, 'x') + "123456789";
    EXPECT_EQ(crc32c::ExtendPortable(0, kat.data() + align, 9), 0xe3069283u);
    if (hw) {
      EXPECT_EQ(crc32c::ExtendSse42(0, kat.data() + align, 9), 0xe3069283u);
    }
    const char* p = buf.data() + align;
    for (size_t n = 0; n <= kMaxLen; n++) {
      uint32_t want = crc32c::ExtendPortable(0, p, n);
      ASSERT_EQ(crc32c::Value(p, n), want) << "align " << align << " len " << n;
      if (hw) {
        ASSERT_EQ(crc32c::ExtendSse42(0, p, n), want)
            << "align " << align << " len " << n;
      }
    }
  }
  for (size_t split = 0; split <= kMaxLen; split += 13) {
    const char* p = buf.data();
    uint32_t whole = crc32c::ExtendPortable(0, p, kMaxLen);
    uint32_t head = crc32c::ExtendPortable(0, p, split);
    EXPECT_EQ(crc32c::Extend(head, p + split, kMaxLen - split), whole);
    if (hw) {
      uint32_t hw_head = crc32c::ExtendSse42(0, p, split);
      EXPECT_EQ(hw_head, head);
      EXPECT_EQ(crc32c::ExtendPortable(hw_head, p + split, kMaxLen - split),
                whole);
      EXPECT_EQ(crc32c::ExtendSse42(head, p + split, kMaxLen - split), whole);
    }
  }
}

// ------------------------------------------------------------- page diff --

// Byte-at-a-time statement of LIBTP's diff rule: [first change, last
// change) past the LSN, split at the first largest unchanged run when that
// run is at least 128 bytes.
int ReferenceDiff(const char* before, const char* after, PageRange out[2]) {
  uint32_t lo = 8, hi = kBlockSize;
  while (lo < kBlockSize && before[lo] == after[lo]) lo++;
  while (hi > lo && before[hi - 1] == after[hi - 1]) hi--;
  if (lo >= hi) return 0;
  uint32_t best_start = hi, best_len = 0, run_start = 0, run_len = 0;
  for (uint32_t i = lo; i < hi; i++) {
    if (before[i] == after[i]) {
      if (run_len == 0) run_start = i;
      if (++run_len > best_len) {
        best_len = run_len;
        best_start = run_start;
      }
    } else {
      run_len = 0;
    }
  }
  if (best_len < 128) {
    out[0] = {lo, hi};
    return 1;
  }
  out[0] = {lo, best_start};
  out[1] = {best_start + best_len, hi};
  return 2;
}

using Ranges = std::vector<std::pair<uint32_t, uint32_t>>;

// Runs both diffs on copies placed at byte offset `shift`, so the word
// loads are exercised on unaligned pages too, and returns the ranges.
Ranges ExpectDiffsAgree(
    const std::string& before, const std::string& after, size_t shift = 0) {
  std::string b(shift, '\0'), a(shift, '\0');
  b += before;
  a += after;
  PageRange got[2] = {}, want[2] = {};
  int n = DiffPage(b.data() + shift, a.data() + shift, got);
  int m = ReferenceDiff(b.data() + shift, a.data() + shift, want);
  Ranges ranges;
  EXPECT_EQ(n, m);
  for (int i = 0; i < std::min(n, m); i++) {
    EXPECT_EQ(got[i].lo, want[i].lo) << "range " << i;
    EXPECT_EQ(got[i].hi, want[i].hi) << "range " << i;
    ranges.emplace_back(got[i].lo, got[i].hi);
  }
  return ranges;
}

TEST(PageDiffTest, MatchesByteWiseReferenceOnRandomPages) {
  Random rng(17);
  for (int iter = 0; iter < 3000; iter++) {
    std::string before = rng.Bytes(kBlockSize);
    std::string after = before;
    // A few edited spans of random length: slot-directory and cell edits.
    uint64_t spans = rng.Uniform(6);
    for (uint64_t s = 0; s < spans; s++) {
      size_t at = rng.Uniform(kBlockSize);
      size_t len = std::min<size_t>(1 + rng.Uniform(40), kBlockSize - at);
      for (size_t i = at; i < at + len; i++) {
        after[i] = static_cast<char>(after[i] ^ (1 + rng.Uniform(255)));
      }
    }
    SCOPED_TRACE(iter);
    ExpectDiffsAgree(before, after, iter % 8);
  }
}

TEST(PageDiffTest, EdgeCases) {
  Random rng(5);
  const std::string page = rng.Bytes(kBlockSize);
  auto flip = [](std::string* p, size_t i) { (*p)[i] = ~(*p)[i]; };

  EXPECT_EQ(ExpectDiffsAgree(page, page), Ranges{});
  std::string lsn_only = page;
  for (size_t i = 0; i < 8; i++) flip(&lsn_only, i);
  EXPECT_EQ(ExpectDiffsAgree(page, lsn_only), Ranges{});

  std::string all = page;
  for (size_t i = 0; i < kBlockSize; i++) flip(&all, i);
  EXPECT_EQ(ExpectDiffsAgree(page, all), (Ranges{{8, kBlockSize}}));

  std::string first = page, last = page;
  flip(&first, 8);
  flip(&last, kBlockSize - 1);
  EXPECT_EQ(ExpectDiffsAgree(page, first), (Ranges{{8, 9}}));
  EXPECT_EQ(ExpectDiffsAgree(page, last),
            (Ranges{{kBlockSize - 1, kBlockSize}}));
  flip(&first, kBlockSize - 1);
  EXPECT_EQ(ExpectDiffsAgree(page, first),
            (Ranges{{8, 9}, {kBlockSize - 1, kBlockSize}}));

  // One unchanged gap of 127, 128 or 129 bytes between two changes, at
  // every alignment of the gap's start: 128 is the first that splits.
  for (uint32_t gap : {127u, 128u, 129u}) {
    for (uint32_t at = 100; at < 108; at++) {
      std::string p = page;
      flip(&p, at);
      flip(&p, at + gap + 1);
      Ranges want = gap < 128 ? Ranges{{at, at + gap + 2}}
                              : Ranges{{at, at + 1},
                                       {at + gap + 1, at + gap + 2}};
      EXPECT_EQ(ExpectDiffsAgree(page, p, at % 8), want) << gap << " " << at;
    }
  }

  // Two equal largest gaps: the first one splits.
  std::string tied = page;
  flip(&tied, 200);
  flip(&tied, 400);
  flip(&tied, 600);
  EXPECT_EQ(ExpectDiffsAgree(page, tied), (Ranges{{200, 201}, {400, 601}}));
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(10), 10u);
    uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random r(42);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; i++) seen.insert(r.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(1);
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RandomTest, SkewedIsHot) {
  Random r(99);
  const uint64_t n = 10000;
  int hot = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; i++) {
    if (r.Skewed(n) < n / 5) hot++;
  }
  // 80% should land in the first 20%.
  EXPECT_GT(hot, trials * 7 / 10);
}

TEST(RandomTest, ExponentialMean) {
  Random r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) sum += r.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(StatsTest, RunningStatMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StatsTest, HistogramPercentiles) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; i++) h.Add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 0.1);
  // Bucketed percentile is coarse; check it is in the right ballpark.
  EXPECT_GT(h.Percentile(99), 500.0);
  EXPECT_LT(h.Percentile(10), 300.0);
}

}  // namespace
}  // namespace lfstx
