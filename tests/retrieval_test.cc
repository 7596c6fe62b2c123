#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <tuple>

#include "retrieval/dense_index.h"
#include "retrieval/score_kernel.h"
#include "store/checkpoint.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace metablink::retrieval {
namespace {

tensor::Tensor RandomEmbeddings(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t(n, d);
  for (float& v : t.data()) v = rng.NextFloat(-1, 1);
  return t;
}

std::vector<kb::EntityId> Iota(std::size_t n) {
  std::vector<kb::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<kb::EntityId>(i);
  return ids;
}

/// Independent top-k oracle: tensor::Dot over every row, then a full sort
/// by (score desc, id asc). Shares no selection code with DenseIndex.
std::vector<ScoredEntity> BruteForceTopK(const tensor::Tensor& emb,
                                         const std::vector<kb::EntityId>& ids,
                                         const float* query, std::size_t k) {
  std::vector<ScoredEntity> all(ids.size());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    all[r] = {ids[r], tensor::Dot(query, emb.row_data(r), emb.cols())};
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredEntity& a, const ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

/// A random permutation of [0, n): ids whose order has nothing to do with
/// row position.
std::vector<kb::EntityId> ShuffledIds(std::size_t n, std::uint64_t seed) {
  std::vector<kb::EntityId> ids = Iota(n);
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextUint64(i)]);
  }
  return ids;
}

/// Asserts TopKInto, serial BatchTopKInto and pooled BatchTopKInto all
/// return exactly the oracle's hits (ids, bitwise scores, order) for every
/// row of `queries`. The batch holds enough queries for several blocks.
void ExpectMatchesOracle(const tensor::Tensor& emb,
                         const std::vector<kb::EntityId>& ids,
                         const tensor::Tensor& queries, std::size_t k) {
  DenseIndex index;
  ASSERT_TRUE(index.Build(emb, ids).ok());
  util::ThreadPool pool(3);
  BatchTopKScratch batch_scratch;
  std::vector<std::vector<ScoredEntity>> serial, pooled;
  index.BatchTopKInto(queries, k, nullptr, &batch_scratch, &serial);
  index.BatchTopKInto(queries, k, &pool, &batch_scratch, &pooled);
  TopKScratch scratch;
  std::vector<ScoredEntity> single;
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    const std::vector<ScoredEntity> want =
        BruteForceTopK(emb, ids, queries.row_data(i), k);
    index.TopKInto(queries.row_data(i), k, &scratch, &single);
    for (const auto* got : {&single, &serial[i], &pooled[i]}) {
      ASSERT_EQ(got->size(), want.size()) << "query " << i;
      for (std::size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ((*got)[r].id, want[r].id) << "query " << i << " rank " << r;
        EXPECT_EQ((*got)[r].score, want[r].score)
            << "query " << i << " rank " << r;
      }
    }
  }
}

TEST(DenseIndexTest, BuildValidatesInput) {
  DenseIndex index;
  EXPECT_FALSE(index.Build(tensor::Tensor(2, 3), Iota(5)).ok());
  EXPECT_FALSE(index.Build(tensor::Tensor(0, 0), {}).ok());
  EXPECT_TRUE(index.Build(RandomEmbeddings(5, 3, 1), Iota(5)).ok());
  EXPECT_TRUE(index.built());
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.dim(), 3u);
}

TEST(DenseIndexTest, TopKMatchesBruteForce) {
  const std::size_t n = 200, d = 8;
  tensor::Tensor emb = RandomEmbeddings(n, d, 2);
  DenseIndex index;
  ASSERT_TRUE(index.Build(emb, Iota(n)).ok());

  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    auto top = index.TopK(q.data(), 7);
    ASSERT_EQ(top.size(), 7u);
    // Scores descending.
    for (std::size_t i = 1; i < top.size(); ++i) {
      EXPECT_GE(top[i - 1].score, top[i].score);
    }
    // Best equals brute-force argmax.
    float best = -1e30f;
    kb::EntityId best_id = 0;
    for (std::size_t i = 0; i < n; ++i) {
      float s = tensor::Dot(q.data(), emb.row_data(i), d);
      if (s > best) {
        best = s;
        best_id = static_cast<kb::EntityId>(i);
      }
    }
    EXPECT_EQ(top[0].id, best_id);
    EXPECT_NEAR(top[0].score, best, 1e-5);
  }
}

TEST(DenseIndexTest, OracleRandomQueries) {
  // More rows than one 512-entity block and a k that leaves most rows
  // outside the pool, so every query exercises the certified pool.
  const std::size_t n = 1500, d = 24;
  const tensor::Tensor queries = RandomEmbeddings(37, d, 52);
  ExpectMatchesOracle(RandomEmbeddings(n, d, 51), ShuffledIds(n, 53),
                      queries, 64);
  ExpectMatchesOracle(RandomEmbeddings(n, d, 51), ShuffledIds(n, 53),
                      queries, 1);
}

TEST(DenseIndexTest, OracleDuplicateRowsStraddlingRankK) {
  // 40 identical rows whose shared score sits at rank k - 10: the tie runs
  // past the k + 16 pool boundary, and their ids are shuffled relative to
  // their row positions, so the position-keyed pool keeps the wrong
  // duplicates. Only the exact rescan (the certificate cannot hold at an
  // exact tie across the boundary) returns the smallest ids.
  const std::size_t n = 900, d = 16, k = 32, dups = 40;
  tensor::Tensor emb = RandomEmbeddings(n, d, 61);
  const tensor::Tensor queries = RandomEmbeddings(20, d, 62);
  const float* q = queries.row_data(0);
  std::vector<float> scores(n);
  for (std::size_t r = 0; r < n; ++r) {
    scores[r] = tensor::Dot(q, emb.row_data(r), d);
  }
  std::sort(scores.begin(), scores.end(), std::greater<float>());
  const float target = scores[k - 10];
  const double qq = tensor::Dot(q, q, d);
  std::vector<float> dup(d);
  for (std::size_t j = 0; j < d; ++j) {
    dup[j] = static_cast<float>(q[j] * (target / qq));
  }
  for (std::size_t c = 0; c < dups; ++c) {
    // Distinct rows spread over both entity blocks (37 is coprime to n).
    std::copy(dup.begin(), dup.end(), emb.row_data((5 + 37 * c) % n));
  }
  ExpectMatchesOracle(emb, ShuffledIds(n, 64), queries, k);
}

TEST(DenseIndexTest, OracleNearTiesWithinOneUlp) {
  // Query e0 scores row r exactly r[0], so rows whose first component
  // steps by one fp32 ulp have exact scores one ulp apart — well inside the
  // kernel's error bound. 60 such rows around rank k, with shuffled ids,
  // decide the boundary; a second query in a general direction sees the
  // same rows as ulp-scale near-ties of a non-trivial dot product.
  const std::size_t n = 700, d = 8, k = 20;
  tensor::Tensor emb = RandomEmbeddings(n, d, 71);
  for (std::size_t r = 0; r < n; ++r) emb.at(r, 0) *= 0.5f;
  float v = 0.75f;
  for (std::size_t r = 100; r < 160; ++r) {
    emb.at(r, 0) = v;
    v = std::nextafter(v, 1.0f);
  }
  tensor::Tensor queries = RandomEmbeddings(3, d, 72);
  for (std::size_t j = 0; j < d; ++j) queries.at(0, j) = j == 0 ? 1.0f : 0.0f;
  for (std::size_t j = 1; j < d; ++j) queries.at(1, j) *= 1e-3f;
  ExpectMatchesOracle(emb, ShuffledIds(n, 73), queries, k);
  ExpectMatchesOracle(emb, ShuffledIds(n, 73), queries, 60);
}

TEST(DenseIndexTest, OracleKAtOrBeyondSizeAndKZero) {
  const std::size_t n = 45, d = 6;
  const tensor::Tensor emb = RandomEmbeddings(n, d, 81);
  const std::vector<kb::EntityId> ids = ShuffledIds(n, 82);
  const tensor::Tensor queries = RandomEmbeddings(18, d, 83);
  ExpectMatchesOracle(emb, ids, queries, n);
  ExpectMatchesOracle(emb, ids, queries, n + 7);
  ExpectMatchesOracle(emb, ids, queries, n - 1);
  ExpectMatchesOracle(emb, ids, queries, 0);
}

TEST(DenseIndexTest, OneQueryTileScoreIgnoresPanelPosition) {
  // A one-query strip interleaves entities four at a time; every score must
  // still be bit-identical to scoring that entity alone, whatever d's
  // remainders against the 16-, 8- and 1-wide steps.
  for (const std::size_t d : {1u, 3u, 8u, 13u, 16u, 24u, 37u, 64u}) {
    const std::size_t n = 23;
    const tensor::Tensor rows = RandomEmbeddings(n, d, 90 + d);
    const tensor::Tensor query = RandomEmbeddings(1, d, 91 + d);
    std::vector<float> strip(n);
    internal::ScoreTileF32(query.row_data(0), rows.row_data(0), strip.data(),
                           1, d, n);
    for (std::size_t j = 0; j < n; ++j) {
      float alone = 0.0f;
      internal::ScoreTileF32(query.row_data(0), rows.row_data(j), &alone, 1,
                             d, 1);
      EXPECT_EQ(strip[j], alone) << "d " << d << " entity " << j;
    }
  }
}

TEST(DenseIndexTest, KLargerThanIndexClamps) {
  DenseIndex index;
  ASSERT_TRUE(index.Build(RandomEmbeddings(4, 3, 4), Iota(4)).ok());
  float q[3] = {1, 0, 0};
  EXPECT_EQ(index.TopK(q, 100).size(), 4u);
}

TEST(DenseIndexTest, EdgeCaseKZeroAndKOversizedAllPaths) {
  // k == 0 returns no hits without touching the data; k > size() clamps to
  // a full ranking. Pinned across every retrieval entry point.
  const std::size_t n = 15, d = 4;
  DenseIndex index;
  ASSERT_TRUE(index.Build(RandomEmbeddings(n, d, 41), Iota(n)).ok());
  float q[4] = {1, 0, -1, 0};

  EXPECT_TRUE(index.TopK(q, 0).empty());
  TopKScratch scratch;
  std::vector<ScoredEntity> out{{3, 1.0f}};  // stale contents must be cleared
  index.TopKInto(q, 0, &scratch, &out);
  EXPECT_TRUE(out.empty());
  index.TopKInto(q, n + 50, &scratch, &out);
  EXPECT_EQ(out.size(), n);

  tensor::Tensor queries = RandomEmbeddings(5, d, 42);
  auto batched = index.BatchTopK(queries, 0);
  ASSERT_EQ(batched.size(), 5u);
  for (const auto& hits : batched) EXPECT_TRUE(hits.empty());
  batched = index.BatchTopK(queries, n + 50);
  for (const auto& hits : batched) EXPECT_EQ(hits.size(), n);
}

TEST(DenseIndexTest, BatchTopKScratchSizedOncePerTileShape) {
  // The per-chunk tile and per-query buffers depend only on the tile-shape
  // constants, so a reused scratch must not regrow between calls — the
  // second batch reuses the first batch's allocations verbatim.
  const std::size_t n = 1500, d = 24;
  DenseIndex index;
  ASSERT_TRUE(index.Build(RandomEmbeddings(n, d, 43), Iota(n)).ok());
  tensor::Tensor queries = RandomEmbeddings(40, d, 44);

  BatchTopKScratch scratch;
  std::vector<std::vector<ScoredEntity>> out;
  index.BatchTopKInto(queries, 8, nullptr, &scratch, &out);
  ASSERT_FALSE(scratch.chunks.empty());
  const float* tile_data = scratch.chunks[0].tile.data();
  const std::size_t tile_cap = scratch.chunks[0].tile.capacity();
  const std::size_t per_query = scratch.chunks[0].per_query.size();

  index.BatchTopKInto(queries, 8, nullptr, &scratch, &out);
  EXPECT_EQ(scratch.chunks[0].tile.data(), tile_data);
  EXPECT_EQ(scratch.chunks[0].tile.capacity(), tile_cap);
  EXPECT_EQ(scratch.chunks[0].per_query.size(), per_query);

  // Results through the reused scratch still match the single-query path.
  TopKScratch single;
  std::vector<ScoredEntity> expected;
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    index.TopKInto(queries.row_data(i), 8, &single, &expected);
    ASSERT_EQ(out[i].size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(out[i][r].id, expected[r].id);
      EXPECT_EQ(out[i][r].score, expected[r].score);
    }
  }
}

TEST(DenseIndexTest, DeterministicTieBreakById) {
  // Two identical rows: the smaller id must always come first.
  tensor::Tensor emb(3, 2);
  emb.at(0, 0) = 1.0f;
  emb.at(1, 0) = 1.0f;  // duplicate of row 0
  emb.at(2, 1) = 1.0f;
  DenseIndex index;
  ASSERT_TRUE(index.Build(emb, {10, 5, 7}).ok());
  float q[2] = {1, 0};
  auto top = index.TopK(q, 2);
  EXPECT_EQ(top[0].id, 5u);
  EXPECT_EQ(top[1].id, 10u);
}

TEST(DenseIndexTest, BatchTopKMatchesSingle) {
  const std::size_t n = 100, d = 6;
  tensor::Tensor emb = RandomEmbeddings(n, d, 5);
  DenseIndex index;
  ASSERT_TRUE(index.Build(emb, Iota(n)).ok());
  tensor::Tensor queries = RandomEmbeddings(9, d, 6);

  util::ThreadPool pool(3);
  auto batched = index.BatchTopK(queries, 5, &pool);
  auto serial = index.BatchTopK(queries, 5, nullptr);
  ASSERT_EQ(batched.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_EQ(batched[i].size(), serial[i].size());
    for (std::size_t k = 0; k < batched[i].size(); ++k) {
      EXPECT_EQ(batched[i][k].id, serial[i][k].id);
    }
    auto single = index.TopK(queries.row_data(i), 5);
    EXPECT_EQ(batched[i][0].id, single[0].id);
  }
}

TEST(DenseIndexTest, SaveLoadRoundTrip) {
  const std::size_t n = 64, d = 8;
  DenseIndex index;
  ASSERT_TRUE(index.Build(RandomEmbeddings(n, d, 21), Iota(n)).ok());
  store::CheckpointWriter ckpt;
  index.Save(ckpt.AddSection("index"));
  auto parsed = store::CheckpointReader::Parse(ckpt.Serialize());
  ASSERT_TRUE(parsed.ok());
  auto section = parsed->Section("index");
  ASSERT_TRUE(section.ok());

  DenseIndex restored;
  ASSERT_TRUE(restored.Load(&*section).ok());
  EXPECT_EQ(restored.size(), n);
  EXPECT_EQ(restored.dim(), d);

  util::Rng rng(22);
  TopKScratch scratch;
  std::vector<ScoredEntity> a, b;
  std::vector<float> q(d);
  for (float& v : q) v = rng.NextFloat(-1, 1);
  index.TopKInto(q.data(), 9, &scratch, &a);
  restored.TopKInto(q.data(), 9, &scratch, &b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].score, b[i].score);
  }
  // Re-saving the restored index reproduces the snapshot byte for byte.
  util::BinaryWriter first, second;
  index.Save(&first);
  restored.Save(&second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(DenseIndexTest, SaveLoadWithoutQuantizedForm) {
  DenseIndex index;
  ASSERT_TRUE(index.Build(RandomEmbeddings(10, 4, 23), Iota(10)).ok());
  util::BinaryWriter writer;
  index.Save(&writer);
  // The payload ends with flag 0: no int8 row form follows the fp32 rows.
  const std::vector<std::uint8_t>& bytes = writer.buffer();
  ASSERT_GE(bytes.size(), sizeof(std::uint32_t));
  std::uint32_t flag = 1;
  std::memcpy(&flag, bytes.data() + bytes.size() - sizeof(flag), sizeof(flag));
  EXPECT_EQ(flag, 0u);

  util::BinaryReader reader(writer.TakeBuffer());
  DenseIndex restored;
  ASSERT_TRUE(restored.Load(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.size(), 10u);
  EXPECT_EQ(restored.dim(), 4u);
  const std::vector<float> q = {0.5f, -0.25f, 1.0f, 0.125f};
  const auto want = index.TopK(q.data(), 10);
  const auto got = restored.TopK(q.data(), 10);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].score, want[i].score);
  }
}

// The snapshot layout older builds wrote for a quantized index: the fp32
// snapshot with flag 1, then an int8 row form of `int8_bytes` bytes and
// `scales` per-row floats.
void WriteLegacySnapshot(const tensor::Tensor& emb,
                         const std::vector<kb::EntityId>& ids,
                         std::uint32_t flag, std::size_t int8_bytes,
                         std::size_t scales, util::BinaryWriter* writer) {
  writer->WriteU32(0x44584e49u);  // "INXD"
  writer->WriteU64(ids.size());
  writer->WriteU64(emb.cols());
  writer->WriteU32Vector(ids);
  writer->WriteFloatVector(emb.data());
  writer->WriteU32(flag);
  writer->WriteByteVector(std::vector<std::int8_t>(int8_bytes, 7));
  writer->WriteFloatVector(std::vector<float>(scales, 0.25f));
}

TEST(DenseIndexTest, LegacyInt8SnapshotLoadsAsFp32) {
  const std::size_t n = 6, d = 4;
  const tensor::Tensor emb = RandomEmbeddings(n, d, 25);
  DenseIndex fp32;
  ASSERT_TRUE(fp32.Build(emb, Iota(n)).ok());
  const auto load = [&](std::uint32_t flag, std::size_t int8_bytes,
                        std::size_t scales, DenseIndex* out) {
    util::BinaryWriter writer;
    WriteLegacySnapshot(emb, Iota(n), flag, int8_bytes, scales, &writer);
    util::BinaryReader reader(writer.TakeBuffer());
    return out->Load(&reader);
  };

  // The int8 payload is checked and dropped: the index answers and
  // re-saves exactly as the fp32 one.
  DenseIndex legacy;
  ASSERT_TRUE(load(1, n * d, n, &legacy).ok());
  util::Rng rng(26);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<float> q(d);
    for (float& v : q) v = rng.NextFloat(-1, 1);
    const auto want = fp32.TopK(q.data(), 4);
    const auto got = legacy.TopK(q.data(), 4);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].score, want[i].score);
    }
  }
  util::BinaryWriter want_bytes, got_bytes;
  fp32.Save(&want_bytes);
  legacy.Save(&got_bytes);
  EXPECT_EQ(got_bytes.buffer(), want_bytes.buffer());

  // A payload of the wrong shape, or an unknown flag, is rejected.
  for (const auto& [flag, int8_bytes, scales] :
       {std::tuple<std::uint32_t, std::size_t, std::size_t>{1, n * d - 1, n},
        {1, n * d, n - 1},
        {2, n * d, n}}) {
    DenseIndex victim;
    EXPECT_EQ(load(flag, int8_bytes, scales, &victim).code(),
              util::StatusCode::kInvalidArgument)
        << "flag " << flag << " bytes " << int8_bytes << " scales " << scales;
  }

  // Framed as a bundle's "index" artifact, every single bit flip fails
  // with a clean Status.
  store::CheckpointWriter ckpt;
  WriteLegacySnapshot(emb, Iota(n), 1, n * d, n, ckpt.AddSection("index"));
  const std::vector<std::uint8_t> bytes = ckpt.Serialize();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[byte] ^= bit;
      auto parsed = store::CheckpointReader::Parse(std::move(flipped));
      util::Status status = parsed.status();
      if (parsed.ok()) {
        auto section = parsed->Section("index");
        DenseIndex victim;
        status = section.ok() ? victim.Load(&*section) : section.status();
      }
      EXPECT_FALSE(status.ok())
          << "bit flip at byte " << byte << " went undetected";
    }
  }
}

TEST(DenseIndexTest, LoadRejectsGarbage) {
  util::BinaryReader reader(std::vector<std::uint8_t>{1, 2, 3, 4});
  DenseIndex index;
  EXPECT_FALSE(index.Load(&reader).ok());
}

}  // namespace
}  // namespace metablink::retrieval
