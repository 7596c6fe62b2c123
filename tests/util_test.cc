#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>

#include "util/logging.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace metablink::util {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("missing entity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing entity");
  EXPECT_EQ(s.ToString(), "NotFound: missing entity");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::IoError("x"), Status::IoError("x"));
  EXPECT_FALSE(Status::IoError("x") == Status::IoError("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Status FailingHelper() { return Status::Internal("boom"); }
Status PropagatingHelper() {
  METABLINK_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kInternal);
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextUint64InBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[rng.NextZipf(10, 1.2)]++;
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(17);
  auto s = rng.SampleIndices(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleIndicesMoreThanNReturnsAll) {
  Rng rng(17);
  auto s = rng.SampleIndices(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, WeightedSamplingRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextWeighted(w), 1u);
}

TEST(RngTest, WeightedSamplingAllZeroFallsBackUniform) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextWeighted(w));
  EXPECT_GT(seen.size(), 1u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// ---- string_util -----------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitSkipEmpty) {
  auto parts = Split("a,,b,", ',', /*skip_empty=*/true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "b");
}

TEST(StringUtilTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  hello \t world\n");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ToLowerAndTrim) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, ContainsAndReplaceFirst) {
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_FALSE(Contains("abc", "x"));
  std::string s = "one two one";
  EXPECT_TRUE(ReplaceFirst(&s, "one", "1"));
  EXPECT_EQ(s, "1 two one");
  EXPECT_FALSE(ReplaceFirst(&s, "zzz", "x"));
}

// ---- serialize -------------------------------------------------------------

TEST(SerializeTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteU64(1ull << 40);
  w.WriteI64(-5);
  w.WriteF32(1.5f);
  w.WriteF64(2.25);
  w.WriteString("hello");
  w.WriteFloatVector({1.0f, 2.0f, 3.0f});
  w.WriteU32Vector({9, 8});

  BinaryReader r(w.buffer());
  std::uint32_t u32;
  std::uint64_t u64;
  std::int64_t i64;
  float f32;
  double f64;
  std::string s;
  std::vector<float> fv;
  std::vector<std::uint32_t> uv;
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadFloatVector(&fv).ok());
  ASSERT_TRUE(r.ReadU32Vector(&uv).ok());
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i64, -5);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, 2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(fv, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(uv, (std::vector<std::uint32_t>{9, 8}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedInputFailsGracefully) {
  BinaryWriter w;
  w.WriteString("hello world");
  auto buf = w.buffer();
  buf.resize(buf.size() - 4);  // chop the tail
  BinaryReader r(std::move(buf));
  std::string s;
  Status st = r.ReadString(&s);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, ReadPastEndFails) {
  BinaryReader r({});
  std::uint32_t v;
  EXPECT_FALSE(r.ReadU32(&v).ok());
}

TEST(SerializeTest, FileRoundTrip) {
  BinaryWriter w;
  w.WriteString("persisted");
  const std::string path = "/tmp/metablink_serialize_test.bin";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  std::string s;
  ASSERT_TRUE(r->ReadString(&s).ok());
  EXPECT_EQ(s, "persisted");
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIoError) {
  auto r = BinaryReader::FromFile("/nonexistent/dir/file.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, ReadFloatsIntoRequiresTheExactCount) {
  BinaryWriter w;
  w.WriteFloatVector({1.0f, 2.0f, 3.0f});
  float out[4] = {9.0f, 9.0f, 9.0f, 9.0f};
  BinaryReader exact(w.buffer());
  ASSERT_TRUE(exact.ReadFloatsInto(out, 3).ok());
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[2], 3.0f);
  EXPECT_EQ(out[3], 9.0f);  // nothing past the requested count is touched
  EXPECT_TRUE(exact.AtEnd());
  for (std::size_t n : {std::size_t{2}, std::size_t{4}}) {
    BinaryReader wrong(w.buffer());
    EXPECT_EQ(wrong.ReadFloatsInto(out, n).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(SerializeTest, ViewsShareTheBufferAndOutliveTheirSource) {
  BinaryWriter w;
  w.WriteU32(1);
  w.WriteString("inner");
  w.WriteU32(2);
  std::vector<BinaryReader> views;
  {
    BinaryReader outer(w.buffer());
    std::uint32_t v = 0;
    ASSERT_TRUE(outer.ReadU32(&v).ok());
    auto view = outer.ReadView(8 + 5);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->Remaining(), 13u);
    ASSERT_TRUE(outer.ReadU32(&v).ok());
    EXPECT_EQ(v, 2u);
    EXPECT_TRUE(outer.AtEnd());
    EXPECT_EQ(outer.ReadView(1).status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(outer.Skip(1).code(), StatusCode::kOutOfRange);
    views.push_back(std::move(*view));
  }
  // `outer` is gone; the view still owns the bytes and reads only its
  // own window.
  std::string s;
  ASSERT_TRUE(views[0].ReadString(&s).ok());
  EXPECT_EQ(s, "inner");
  EXPECT_TRUE(views[0].AtEnd());
  std::uint32_t past = 0;
  EXPECT_FALSE(views[0].ReadU32(&past).ok());
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // A running checksum over split buffers equals the one-shot checksum.
  EXPECT_EQ(Crc32("6789", 4, Crc32("12345", 5)), 0xCBF43926u);
}

// Bit-at-a-time CRC-32, independent of any lookup table.
std::uint32_t BitwiseCrc32(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return ~c;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..4200 at every start offset 0..15 covers the folding
  // kernel's 64-byte steps, its single 16-byte folds and every length of
  // the slice-by-8 tail, at every alignment of its loads; each case is
  // seeded with the previous result, so chained checksums are covered too.
  RecordProperty("simd", Crc32UsesClmul() ? "pclmul" : "scalar");
  constexpr std::size_t kMaxLen = 4200;
  constexpr std::size_t kOffsets = 16;
  Rng rng(20);
  std::vector<std::uint8_t> bytes(kMaxLen + kOffsets);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.NextUint64(256));
  }
  std::uint32_t seed = 0;
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint32_t want = BitwiseCrc32(bytes.data() + offset, len, seed);
      const std::uint32_t got = Crc32(bytes.data() + offset, len, seed);
      ASSERT_EQ(got, want) << "offset " << offset << " length " << len
                           << " seed " << seed;
      seed = got;
    }
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceOnAMebibyteBuffer) {
  // One long run of 64-byte folds, with a ragged tail, split at a point
  // that is not a multiple of 16.
  RecordProperty("simd", Crc32UsesClmul() ? "pclmul" : "scalar");
  constexpr std::size_t kLen = (std::size_t{1} << 20) + 77;
  Rng rng(21);
  std::vector<std::uint8_t> bytes(kLen);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.NextUint64(256));
  }
  const std::uint32_t want = BitwiseCrc32(bytes.data(), kLen, 0);
  EXPECT_EQ(Crc32(bytes.data(), kLen), want);
  constexpr std::size_t kSplit = 600'001;
  EXPECT_EQ(Crc32(bytes.data() + kSplit, kLen - kSplit,
                  Crc32(bytes.data(), kSplit)),
            want);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

// ---- ParallelForChunks edge cases ------------------------------------------
//
// Each test asserts the partition property directly: every index in [0, n)
// visited exactly once, chunk ids dense in [0, used).

TEST(ThreadPoolTest, ParallelForChunksEmptyRangeRunsNothing) {
  ThreadPool pool(3);
  const std::size_t used = pool.ParallelForChunks(
      0, 4, [](std::size_t, std::size_t, std::size_t) { FAIL(); });
  EXPECT_EQ(used, 0u);
}

TEST(ThreadPoolTest, ParallelForChunksFewerItemsThanWorkers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(2);
  const std::size_t used = pool.ParallelForChunks(
      2, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, 2u);  // never more chunks than items
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksIndivisibleSplitCoversExactlyOnce) {
  ThreadPool pool(3);
  // 257 items into 7 requested chunks: 257 = 7*36 + 5, so the final chunk
  // is short — the classic off-by-one breeding ground.
  std::vector<std::atomic<int>> hits(257);
  std::set<std::size_t> chunk_ids;
  std::mutex mu;
  const std::size_t used = pool.ParallelForChunks(
      257, 7, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        {
          std::lock_guard<std::mutex> lock(mu);
          chunk_ids.insert(chunk);
        }
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(chunk_ids.size(), used);
  for (std::size_t c = 0; c < used; ++c) EXPECT_TRUE(chunk_ids.count(c));
}

TEST(ThreadPoolTest, ParallelForChunksNestedCallDegradesSerially) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<std::size_t> inner_used{99};
  std::atomic<bool> was_on_worker{false};
  pool.Submit([&] {
    was_on_worker = pool.OnWorkerThread();
    // Nested call from a worker must not deadlock; it degrades to one
    // serial chunk covering the whole range.
    inner_used = pool.ParallelForChunks(
        64, 8, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          EXPECT_EQ(chunk, 0u);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
  });
  pool.Wait();
  EXPECT_TRUE(was_on_worker.load());
  EXPECT_EQ(inner_used.load(), 1u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- logging ---------------------------------------------------------------

TEST(LoggingTest, LevelFiltering) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  METABLINK_LOG(kInfo) << "suppressed (not visible in test output)";
  SetLogLevel(old);
}

TEST(LoggingDeathTest, CheckPrintsConditionAndStreamedDetail) {
  EXPECT_DEATH(METABLINK_CHECK(2 + 2 == 5) << "arithmetic drifted",
               "Check failed: 2 \\+ 2 == 5.*arithmetic drifted");
}

TEST(LoggingDeathTest, CheckPrintsFailingFileAndLine) {
  // The [FATAL file:line] prefix must point at the METABLINK_CHECK use
  // site (this file), not at logging.h — that is what makes a release-mode
  // abort report actionable.
  EXPECT_DEATH(METABLINK_CHECK(false), "util_test\\.cc:[0-9]+");
}

TEST(LoggingTest, CheckPairsCorrectlyUnderDanglingElse) {
  // Regression guard: METABLINK_CHECK expands to an if/else, so an
  // unbraced `if (...) METABLINK_CHECK(...); else ...` must keep the outer
  // else paired with the outer if.
  if (true)
    METABLINK_CHECK(true) << "passing check inside unbraced if";
  else
    FAIL() << "outer else got captured by the macro's expansion";
  SUCCEED();
}

}  // namespace
}  // namespace metablink::util
