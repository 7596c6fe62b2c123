#ifndef METABLINK_RETRIEVAL_DENSE_INDEX_H_
#define METABLINK_RETRIEVAL_DENSE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kb/entity.h"
#include "tensor/tensor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::util {
class BinaryWriter;
class BinaryReader;
}  // namespace metablink::util

namespace metablink::retrieval {

/// One retrieval hit.
struct ScoredEntity {
  kb::EntityId id = kb::kInvalidEntityId;
  float score = 0.0f;
};

/// Caller-reusable buffers for TopKInto. Reusing one scratch across calls
/// makes the hot selection path allocation-free after the first query.
struct TopKScratch {
  /// Bounded selection heap (at most k+1 live entries).
  std::vector<ScoredEntity> heap;
  /// Per-block score strip used by the single-query scans.
  std::vector<float> scores;
  /// Candidate pool surviving the approximate scan, before exact re-scoring.
  std::vector<ScoredEntity> pool;
};

/// Caller-reusable buffers for BatchTopKInto. Each chunk owns one score
/// tile and one selection scratch per query slot; both are sized once for
/// the (query block, entity block) tile shape and then reused for every
/// block of every call, so the hot loop never reallocates.
struct BatchTopKScratch {
  struct Chunk {
    std::vector<TopKScratch> per_query;
    std::vector<float> tile;
  };
  std::vector<Chunk> chunks;
};

/// Exact top-k dense retrieval over an entity embedding matrix (stage 1 of
/// the two-stage protocol). Inner-product scores; embeddings are typically
/// L2-normalized so this is cosine ranking. Brute force — exact, which
/// keeps R@64 measurements free of ANN artifacts — but engineered for
/// throughput: every scan scores blocked query×entity tiles with a SIMD
/// fp32 kernel, keeps a bounded candidate pool per query, and re-scores
/// the pool with tensor::Dot. A certificate proves that pool holds the
/// exact top-k (else the query is rescanned exactly), so the hits are
/// those of a tensor::Dot scan over every row, bit for bit. Queries
/// parallelize over an optional thread pool.
///
/// The fp32 rows are the only stored form: ClusteredIndex's list scans and
/// its exact re-score read them from here.
class DenseIndex {
 public:
  DenseIndex() = default;

  /// Builds the index. `embeddings` row i is the vector of `ids[i]`.
  /// Pre: embeddings.rows() == ids.size().
  util::Status Build(tensor::Tensor embeddings, std::vector<kb::EntityId> ids);

  std::size_t size() const { return ids_.size(); }
  std::size_t dim() const { return embeddings_.cols(); }
  bool built() const { return !ids_.empty(); }
  /// Entity id of each stored row, in row order.
  const std::vector<kb::EntityId>& ids() const { return ids_; }

  /// Top-k by inner product for one query of length dim(), appending the
  /// hits (best first; ties broken by ascending id) to `*out` after
  /// clearing it. The hits and their scores are exactly those of ranking
  /// every row by tensor::Dot(query, row): a one-query BatchTopKInto block
  /// (fp32 tile scan, candidate pool, exact re-score) whose pool is
  /// accepted only under the exactness certificate, with a full exact scan
  /// when the certificate fails. k >= size() ranks every row; k == 0
  /// returns no hits without scanning. Allocation-free when `scratch` and
  /// `out` are reused.
  void TopKInto(const float* query, std::size_t k, TopKScratch* scratch,
                std::vector<ScoredEntity>* out) const;

  /// Convenience wrapper around TopKInto with one-shot buffers.
  std::vector<ScoredEntity> TopK(const float* query, std::size_t k) const;

  /// Top-k for every row of `queries` ([n, dim]); parallelized over `pool`
  /// when provided. Scores are computed in blocked query×entity tiles by a
  /// SIMD fp32 kernel, and the best (k + margin) row positions per query
  /// are exactly re-scored with tensor::Dot. Each query's pool is then
  /// certified: the best approximate score left outside it, plus the
  /// kernel's worst-case fp32 error for this query (from dim() and the
  /// query and max row norms), must lie strictly below the k-th exact
  /// score, which proves no outside row can enter the top-k. A query that
  /// fails (exact ties straddling the pool boundary, say) is rescanned
  /// exactly over every row. Either way the hits equal TopKInto's, ids,
  /// scores and tie order. Query blocks are distributed to workers via an
  /// atomic work-stealing cursor, and per-worker tiles/heaps come from
  /// `scratch` (sized once per tile shape, reused across calls).
  /// k == 0 returns n empty hit lists without scanning.
  void BatchTopKInto(const tensor::Tensor& queries, std::size_t k,
                     util::ThreadPool* pool, BatchTopKScratch* scratch,
                     std::vector<std::vector<ScoredEntity>>* out) const;

  /// Convenience wrapper around BatchTopKInto with one-shot scratch.
  std::vector<std::vector<ScoredEntity>> BatchTopK(
      const tensor::Tensor& queries, std::size_t k,
      util::ThreadPool* pool = nullptr) const;

  // ---- Persistence --------------------------------------------------------

  /// Serializes the index (fp32 rows and ids), so a served KB reloads
  /// without re-encoding entities. The trailing u32 flag word is always 0.
  void Save(util::BinaryWriter* writer) const;
  /// Loads a Save payload. Older snapshots set the flag to 1 and append an
  /// int8 row form (n·d bytes, then n float scales); that payload is
  /// bounds-checked and dropped. Any other flag is InvalidArgument.
  util::Status Load(util::BinaryReader* reader);

  /// The raw stored embedding row for position `i` (ClusteredIndex's list
  /// scans and re-score, tests).
  const float* EmbeddingAt(std::size_t i) const {
    return embeddings_.row_data(i);
  }

 private:
  /// Offers entities [e_begin, e_begin + count) with the given scores to
  /// the bounded selection heap in `scratch`.
  void OfferBlock(const float* scores, std::size_t e_begin,
                  std::size_t count, std::size_t k,
                  TopKScratch* scratch) const;

  /// Selects the exact top-k (1 <= k <= size()) of each of the `qn` <=
  /// kQueryBlock row-major queries at `queries` into out[0, qn): fp32 tile
  /// scan through `tile` (qn × entity-block floats), bounded position pool
  /// in per_query[qi], exact re-score, certificate, exact rescan on
  /// failure. The one scan protocol behind TopKInto and BatchTopKInto.
  void BatchBlock(const float* queries, std::size_t qn, std::size_t k,
                  float* tile, TopKScratch* per_query,
                  std::vector<ScoredEntity>* out) const;

  /// Fills the selection heap in `scratch` with the exact top-k of
  /// `query` over every row (tensor::Dot per row): the certificate's
  /// fallback.
  void ExactScan(const float* query, std::size_t k,
                 TopKScratch* scratch) const;

  /// Upper bound on |ScoreTileF32 score - tensor::Dot score| over every
  /// row for `query`; +inf when the query or a row is non-finite or the
  /// fp32 kernel could overflow, which fails every certificate.
  double ScanErrorBound(const float* query) const;

  /// Recomputes max_row_norm_ from embeddings_ (Build and Load).
  void UpdateMaxRowNorm();

  /// Sorts the heap contents into `*out` (best first).
  static void DrainHeap(TopKScratch* scratch, std::vector<ScoredEntity>* out);

  tensor::Tensor embeddings_;
  std::vector<kb::EntityId> ids_;
  /// Largest L2 norm of any stored row (+inf if a row is non-finite);
  /// derived from embeddings_, never serialized.
  double max_row_norm_ = 0.0;
};

}  // namespace metablink::retrieval

#endif  // METABLINK_RETRIEVAL_DENSE_INDEX_H_
