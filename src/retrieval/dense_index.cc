#include "retrieval/dense_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "retrieval/score_kernel.h"
#include "util/serialize.h"
#include "util/string_util.h"

namespace metablink::retrieval {

namespace {

// Strict total order on hits: higher score first, ascending id on ties.
// With distinct ids this is a total order, so heap selection and the old
// full partial_sort pick exactly the same k hits in the same order. A
// function object, not a function, so the std heap algorithms inline each
// comparison instead of calling through a function pointer.
struct BetterHit {
  bool operator()(const ScoredEntity& a, const ScoredEntity& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};
constexpr BetterHit Better;

// Entities scored per tile; 512 rows of a 128-dim float matrix is 256 KiB,
// sized to stay L2-resident while a query block streams over it.
constexpr std::size_t kEntityBlock = 512;
// Queries per tile in BatchTopK. 16 query rows of d=128 floats are 8 KiB —
// small enough to stay L1-resident while the entity panel streams past,
// and twice the panel reuse of the previous 8-query tile.
constexpr std::size_t kQueryBlock = 16;

// Candidates beyond k kept per query by the approximate fp32 tile scan
// before exact re-scoring. The margin only buys headroom: the certificate
// in BatchBlock, not its depth, is what makes the pool exact. Wider pools
// fail the certificate less often but re-score more rows.
constexpr std::size_t kRescoreMargin = 16;

constexpr std::uint32_t kIndexTag = 0x44584e49u;  // "INXD"

// Replaces the root of a std heap under Better — its worst member — with
// `cand`, which beats it, and restores the heap with one sift-down. A new
// member usually ranks near the worst, so the sift stops within a level or
// two, where pop_heap + push_heap always walks the full depth.
void ReplaceWorst(const ScoredEntity& cand, std::vector<ScoredEntity>* heap) {
  ScoredEntity* h = heap->data();
  const std::size_t n = heap->size();
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    // The worse child is the one the other child beats.
    if (child + 1 < n && Better(h[child], h[child + 1])) ++child;
    if (!Better(cand, h[child])) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = cand;
}

// Bounded-heap selection keyed by row POSITION (ascending position breaks
// exact ties), so the pool is insertion-order independent: under a strict
// total order the surviving pool is the global top-`cap` regardless of
// visit order. `*outside` is raised to every score the pool rejects or
// evicts, so after a full scan it holds the best score of any row left out
// of the pool.
void OfferPositions(const float* scores, std::size_t e_begin,
                    std::size_t count, std::size_t cap,
                    std::vector<ScoredEntity>* pool, float* outside) {
  std::size_t i = 0;
  for (; i < count && pool->size() < cap; ++i) {
    pool->push_back({static_cast<kb::EntityId>(e_begin + i), scores[i]});
    std::push_heap(pool->begin(), pool->end(), Better);
  }
  // Full pool: a score below the root's cannot displace it, so most rows
  // cost one compare. A local, not *outside, in the loop: the heap writes
  // below may alias it.
  float threshold = pool->empty() ? 0.0f : pool->front().score;
  float best_out = *outside;
  for (; i < count; ++i) {
    const ScoredEntity cand{static_cast<kb::EntityId>(e_begin + i),
                            scores[i]};
    if (cand.score < threshold || !Better(cand, pool->front())) {
      best_out = std::max(best_out, cand.score);
      continue;
    }
    best_out = std::max(best_out, pool->front().score);
    ReplaceWorst(cand, pool);
    threshold = pool->front().score;
  }
  *outside = best_out;
}

// L2 norm accumulated in double (four chains, like tensor::Dot).
double Norm(const float* v, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += static_cast<double>(v[i]) * v[i];
    a1 += static_cast<double>(v[i + 1]) * v[i + 1];
    a2 += static_cast<double>(v[i + 2]) * v[i + 2];
    a3 += static_cast<double>(v[i + 3]) * v[i + 3];
  }
  for (; i < n; ++i) a0 += static_cast<double>(v[i]) * v[i];
  return std::sqrt((a0 + a1) + (a2 + a3));
}

}  // namespace

util::Status DenseIndex::Build(tensor::Tensor embeddings,
                               std::vector<kb::EntityId> ids) {
  if (embeddings.rows() != ids.size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "embedding rows (%zu) != id count (%zu)", embeddings.rows(),
        ids.size()));
  }
  if (ids.empty()) {
    return util::Status::InvalidArgument("cannot build an empty index");
  }
  embeddings_ = std::move(embeddings);
  ids_ = std::move(ids);
  UpdateMaxRowNorm();
  return util::Status::OK();
}

void DenseIndex::UpdateMaxRowNorm() {
  max_row_norm_ = 0.0;
  for (std::size_t r = 0; r < embeddings_.rows(); ++r) {
    const double norm = Norm(embeddings_.row_data(r), embeddings_.cols());
    if (!std::isfinite(norm)) {
      max_row_norm_ = std::numeric_limits<double>::infinity();
      return;
    }
    max_row_norm_ = std::max(max_row_norm_, norm);
  }
}

double DenseIndex::ScanErrorBound(const float* query) const {
  // Let S = sum_p |q_p r_p| <= |q| |r| <= |q| * max_row_norm_ (Cauchy-
  // Schwarz). ScoreTileF32 sums the d products in fp32 along some fixed
  // tree in which no product passes through more than n = d + 3 roundings
  // (lane FMA chains, the lane fold, the horizontal sum and a scalar
  // tail), so it is within gamma_n * S of the real dot product, where
  // gamma_n = n u / (1 - n u) and u = 2^-24 (Higham, "Accuracy and
  // Stability of Numerical Algorithms", §3.1). tensor::Dot is within
  // gamma_{d+1} * S in double, and its final rounding to float adds at
  // most u * (1 + tiny) * S; 2u covers both. Every rounding that lands in
  // the subnormal range may add up to half a denormal, for which the
  // absolute term allows. The 1.001 factor absorbs the rounding of the
  // norms and of this arithmetic.
  constexpr double kU = 0x1p-24;
  const std::size_t d = embeddings_.cols();
  const double n = static_cast<double>(d) + 3.0;
  if (n * kU >= 0.5) return std::numeric_limits<double>::infinity();
  const double gamma = n * kU / (1.0 - n * kU);
  const double s_bound = Norm(query, d) * max_row_norm_ * 1.001;
  // Every fp32 partial sum is bounded by (1 + gamma) * S: below FLT_MAX
  // the kernel cannot overflow to inf or NaN. NaN inputs fail here too.
  if (!(s_bound * (1.0 + gamma) <
        static_cast<double>(std::numeric_limits<float>::max()))) {
    return std::numeric_limits<double>::infinity();
  }
  return (gamma + 2.0 * kU) * s_bound +
         (2.0 * static_cast<double>(d) + 8.0) *
             static_cast<double>(std::numeric_limits<float>::denorm_min());
}

void DenseIndex::OfferBlock(const float* scores, std::size_t e_begin,
                            std::size_t count, std::size_t k,
                            TopKScratch* scratch) const {
  // Bounded min-heap under Better: the root is the worst retained hit, so
  // a candidate only costs O(log k) when it actually displaces something.
  std::vector<ScoredEntity>& heap = scratch->heap;
  for (std::size_t i = 0; i < count; ++i) {
    const ScoredEntity cand{ids_[e_begin + i], scores[i]};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), Better);
    } else if (Better(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }
}

void DenseIndex::DrainHeap(TopKScratch* scratch,
                           std::vector<ScoredEntity>* out) {
  std::sort_heap(scratch->heap.begin(), scratch->heap.end(), Better);
  out->assign(scratch->heap.begin(), scratch->heap.end());
  scratch->heap.clear();
}

void DenseIndex::ExactScan(const float* query, std::size_t k,
                           TopKScratch* scratch) const {
  scratch->heap.clear();
  const std::size_t d = embeddings_.cols();
  for (std::size_t r = 0; r < ids_.size(); ++r) {
    const float score = tensor::Dot(query, embeddings_.row_data(r), d);
    OfferBlock(&score, r, 1, k, scratch);
  }
}

void DenseIndex::TopKInto(const float* query, std::size_t k,
                          TopKScratch* scratch,
                          std::vector<ScoredEntity>* out) const {
  out->clear();
  // Pinned edge cases: k > size() clamps to a full ranking; k == 0 (after
  // clamping an empty request) returns no hits without touching the data.
  k = std::min(k, ids_.size());
  if (k == 0) return;
  // A one-query block: the score strip doubles as its 1 × 512 tile.
  scratch->scores.resize(std::min(kEntityBlock, ids_.size()));
  BatchBlock(query, 1, k, scratch->scores.data(), scratch, out);
}

std::vector<ScoredEntity> DenseIndex::TopK(const float* query,
                                           std::size_t k) const {
  TopKScratch scratch;
  std::vector<ScoredEntity> out;
  TopKInto(query, k, &scratch, &out);
  return out;
}

void DenseIndex::BatchBlock(const float* queries, std::size_t qn,
                            std::size_t k, float* tile,
                            TopKScratch* per_query,
                            std::vector<ScoredEntity>* out) const {
  const std::size_t d = embeddings_.cols();
  const std::size_t total = ids_.size();
  const std::size_t pool_cap = std::min(total, k + kRescoreMargin);
  double bound[kQueryBlock];
  float outside[kQueryBlock];
  bool any_certifiable = false;
  for (std::size_t qi = 0; qi < qn; ++qi) {
    bound[qi] = ScanErrorBound(queries + qi * d);
    any_certifiable = any_certifiable || std::isfinite(bound[qi]);
    per_query[qi].pool.clear();
    outside[qi] = -std::numeric_limits<float>::infinity();
  }
  // Phase 1: approximate fp32 tile scan. Each entity panel is read once
  // per query block instead of once per query, the tile is written by
  // assignment (never zero-filled), and selection keeps the best
  // (k + margin) row positions per query along with the best score it
  // left out. A query without a finite error bound skips the pool and
  // goes straight to the exact scan below.
  for (std::size_t e0 = 0; any_certifiable && e0 < total;
       e0 += kEntityBlock) {
    const std::size_t en = std::min(kEntityBlock, total - e0);
    internal::ScoreTileF32(queries, embeddings_.row_data(e0), tile, qn, d,
                           en);
    for (std::size_t qi = 0; qi < qn; ++qi) {
      if (!std::isfinite(bound[qi])) continue;
      OfferPositions(tile + qi * en, e0, en, pool_cap, &per_query[qi].pool,
                     &outside[qi]);
    }
  }
  // Phase 2: exact re-score of each query's surviving positions with the
  // double-chain Dot, then top-k selection under (score desc, id asc).
  // Phase 3, the certificate: every row outside the pool scored at most
  // `outside` in the tile, so its exact score is at most outside + bound.
  // If that is strictly below the k-th exact score, no outside row can
  // enter the top-k and the pool's top-k is the exact top-k, tie order
  // included. Otherwise (ties or near-ties straddling the pool boundary)
  // the query is rescanned exactly. A pool holding every row needs no
  // certificate.
  for (std::size_t qi = 0; qi < qn; ++qi) {
    const float* query = queries + qi * d;
    TopKScratch& scr = per_query[qi];
    scr.heap.clear();
    for (const ScoredEntity& cand : scr.pool) {
      const std::size_t position = cand.id;
      const float score =
          tensor::Dot(query, embeddings_.row_data(position), d);
      OfferBlock(&score, position, 1, k, &scr);
    }
    const bool certified =
        std::isfinite(bound[qi]) &&
        (pool_cap == total ||
         static_cast<double>(outside[qi]) + bound[qi] <
             static_cast<double>(scr.heap.front().score));
    if (!certified) ExactScan(query, k, &scr);
    DrainHeap(&scr, &out[qi]);
  }
}

void DenseIndex::BatchTopKInto(
    const tensor::Tensor& queries, std::size_t k, util::ThreadPool* pool,
    BatchTopKScratch* scratch,
    std::vector<std::vector<ScoredEntity>>* out) const {
  const std::size_t nq = queries.rows();
  out->resize(nq);
  if (nq == 0) return;
  const std::size_t kk = std::min(k, ids_.size());
  if (kk == 0) {
    // Pinned edge case: k == 0 asks for nothing — skip the scan entirely.
    for (auto& hits : *out) hits.clear();
    return;
  }
  const std::size_t nblocks = (nq + kQueryBlock - 1) / kQueryBlock;
  const auto run_block = [&](std::size_t b, BatchTopKScratch::Chunk* chunk) {
    // Sized once per tile shape: both buffers depend only on the block
    // constants, so a reused scratch never grows again after its first
    // block.
    if (chunk->per_query.size() < kQueryBlock) {
      chunk->per_query.resize(kQueryBlock);
    }
    if (chunk->tile.size() < kQueryBlock * kEntityBlock) {
      chunk->tile.resize(kQueryBlock * kEntityBlock);
    }
    const std::size_t q0 = b * kQueryBlock;
    BatchBlock(queries.row_data(q0), std::min(kQueryBlock, nq - q0), kk,
               chunk->tile.data(), chunk->per_query.data(), &(*out)[q0]);
  };

  if (pool != nullptr && nblocks >= 2) {
    // Work-stealing over query blocks: workers pull the next unclaimed
    // block from an atomic cursor, so a straggler block cannot idle the
    // other workers the way a static partition can. Each worker owns one
    // scratch chunk; block results land in disjoint `out` rows, and the
    // per-block computation is identical to the serial path, so stealing
    // order never changes the output.
    const std::size_t workers = std::min(pool->num_threads(), nblocks);
    if (scratch->chunks.size() < workers) scratch->chunks.resize(workers);
    std::atomic<std::size_t> next_block{0};
    pool->ParallelForChunks(
        workers, workers,
        [&](std::size_t chunk_id, std::size_t, std::size_t) {
          BatchTopKScratch::Chunk& chunk = scratch->chunks[chunk_id];
          for (;;) {
            const std::size_t b =
                next_block.fetch_add(1, std::memory_order_relaxed);
            if (b >= nblocks) break;
            run_block(b, &chunk);
          }
        });
  } else {
    if (scratch->chunks.empty()) scratch->chunks.resize(1);
    for (std::size_t b = 0; b < nblocks; ++b) {
      run_block(b, &scratch->chunks[0]);
    }
  }
}

std::vector<std::vector<ScoredEntity>> DenseIndex::BatchTopK(
    const tensor::Tensor& queries, std::size_t k,
    util::ThreadPool* pool) const {
  BatchTopKScratch scratch;
  std::vector<std::vector<ScoredEntity>> out;
  BatchTopKInto(queries, k, pool, &scratch, &out);
  return out;
}

void DenseIndex::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(kIndexTag);
  writer->WriteU64(ids_.size());
  writer->WriteU64(embeddings_.cols());
  writer->WriteU32Vector(ids_);
  writer->WriteFloatVector(embeddings_.data());
  writer->WriteU32(0u);
}

util::Status DenseIndex::Load(util::BinaryReader* reader) {
  std::uint32_t tag = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&tag));
  if (tag != kIndexTag) {
    return util::Status::InvalidArgument("not a DenseIndex snapshot");
  }
  std::uint64_t n = 0, d = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&d));
  std::vector<kb::EntityId> ids;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32Vector(&ids));
  std::vector<float> flat;
  METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&flat));
  if (ids.size() != n || flat.size() != n * d || n == 0) {
    return util::Status::InvalidArgument("corrupt DenseIndex snapshot");
  }
  // Flag 1 marks a legacy int8 row form: bounds-check it, then drop it.
  std::uint32_t legacy_int8 = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&legacy_int8));
  if (legacy_int8 > 1) {
    return util::Status::InvalidArgument("unknown DenseIndex payload flag");
  }
  if (legacy_int8 == 1) {
    std::vector<std::int8_t> q_rows;
    std::vector<float> q_scales;
    METABLINK_RETURN_IF_ERROR(reader->ReadByteVector(&q_rows));
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&q_scales));
    if (q_rows.size() != n * d || q_scales.size() != n) {
      return util::Status::InvalidArgument(
          "corrupt DenseIndex quantized payload");
    }
  }
  embeddings_ = tensor::Tensor(static_cast<std::size_t>(n),
                               static_cast<std::size_t>(d), std::move(flat));
  ids_ = std::move(ids);
  UpdateMaxRowNorm();
  return util::Status::OK();
}

}  // namespace metablink::retrieval
