#ifndef METABLINK_RETRIEVAL_CLUSTERED_INDEX_H_
#define METABLINK_RETRIEVAL_CLUSTERED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "retrieval/dense_index.h"
#include "tensor/tensor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::util {
class BinaryWriter;
class BinaryReader;
}  // namespace metablink::util

namespace metablink::retrieval {

/// Build- and probe-time knobs for ClusteredIndex.
struct ClusteredIndexOptions {
  /// Coarse centroids. 0 → round(sqrt(N)) clamped to [1, N] — the classic
  /// IVF balance point where centroid scoring and list scanning cost the
  /// same per query.
  std::size_t num_clusters = 0;
  /// Lloyd iterations over the training sample.
  std::size_t train_iterations = 8;
  /// K-means trains on at most this many rows (seeded, deterministic
  /// subsample); the final assignment pass always covers every row.
  std::size_t max_train_points = 65536;
  /// Seed for subsampling and centroid init. Same seed + same rows →
  /// byte-identical centroids and inverted lists.
  std::uint64_t seed = 0x1337u;
  /// Clusters probed per query when the caller passes nprobe == 0.
  /// 0 → ceil(sqrt(num_clusters)).
  std::size_t default_nprobe = 0;
  /// Candidate-pool width for the PQ list scan before exact fp32
  /// re-scoring. 0 → max(4k, k + 192) at query time (PQ distortion is
  /// coarse, so the pool carries a wide safety margin). The fp32 list scan
  /// scores exactly and pools nothing, so it ignores this.
  std::size_t rescore_pool = 0;
  /// Train a product-quantized residual form during Build: per-subspace
  /// codebooks over (row − assigned centroid), one 8-bit code per subspace
  /// per entry. Probes then scan M-byte codes via per-query ADC tables
  /// instead of 4d-byte fp32 rows — the FAISS-style IVF-PQ memory layout.
  bool use_pq = false;
  /// PQ subspaces (codes per entry), each one 8-bit code (256 centroids).
  /// Clamped to [1, dim] at Build; dim need not divide evenly (subspace m
  /// covers columns [m*d/M, (m+1)*d/M)).
  std::size_t pq_m = 8;
};

/// Reusable per-caller buffers for ClusteredIndex::TopKInto.
struct ClusteredScratch {
  /// Adjusted query·centroid scores, one per centroid.
  std::vector<float> cluster_scores;
  /// Probed cluster ids, best centroid first.
  std::vector<std::uint32_t> probe;
  /// Heap / pool / score-strip buffers for the list scans.
  TopKScratch topk;
  /// Per-query ADC lookup tables ([pq_m × 256] partial inner products),
  /// filled once per query when the index carries a PQ form.
  std::vector<float> lut;
};

/// Clustered (IVF-style) approximate index layered over a DenseIndex: a
/// seeded k-means partitions the entity rows into ~sqrt(N) cells, an
/// inverted list maps each cell to its row positions, and a query probes
/// only the `nprobe` cells whose centroids score highest instead of
/// scanning every row — the BLINK-style coarse-probe → exact-re-score
/// recipe that keeps million-entity retrieval off the exhaustive path.
///
/// Probe protocol: score the query against every centroid (adjusted inner
/// product, x·c − ½‖c‖², equivalent to nearest-centroid in Euclidean
/// distance), visit the top-`nprobe` inverted lists and scan their rows.
/// With a PQ form the scan is an ADC table scan over M-byte codes whose
/// bounded candidate pool is exactly re-scored with tensor::Dot, so the
/// returned scores are true fp32; without one it scores the fp32 rows
/// with tensor::Dot directly and selects the exact top-k of the probed
/// lists.
///
/// PQ form (options.use_pq): Build additionally trains per-subspace
/// codebooks on the row residuals (row − assigned centroid) and stores one
/// 8-bit code per subspace per inverted-list entry. A query then estimates
/// q·row ≈ q·c + Σ_m lut[m][code_m] with lut[m][j] = q_sub(m)·codebook[m][j]
/// — M table lookups per entry instead of a d-wide dot — and the exact
/// re-score of the pool removes the quantization error from everything it
/// returns. The codes replace the fp32 rows in the scan's working set:
/// M bytes of scan payload per entry instead of 4d.
///
/// Exactness invariant: with nprobe == num_clusters() every row is visited
/// and the result is identical (ids, scores, tie order) to the base
/// index's exhaustive TopKInto, because both select under the same strict
/// total order (score desc, id asc). Smaller nprobe trades recall for
/// latency; the R@64 overlap gate lives in bench_retrieval.
///
/// The index borrows its base: Build/Load/Attach bind it to a DenseIndex
/// that must stay alive and unmodified (Build() on the base invalidates
/// the attachment). Serialization stores only the clustering
/// (centroids + lists), never the rows — reload the base first, then
/// Attach.
///
/// Thread safety: all probe methods are const and share no mutable state;
/// any number of threads may query concurrently with caller-owned scratch.
class ClusteredIndex {
 public:
  ClusteredIndex() = default;

  /// Trains k-means over `base`'s rows (deterministic given options.seed)
  /// and builds the inverted lists. Lloyd assignment parallelizes over
  /// `pool` when provided; the result is identical serial or pooled.
  /// Pre: base.built(). Keeps a pointer to `base`.
  util::Status Build(const DenseIndex& base,
                     const ClusteredIndexOptions& options,
                     util::ThreadPool* pool = nullptr);

  bool built() const { return !list_offsets_.empty(); }
  std::size_t size() const { return list_entries_.size(); }
  std::size_t dim() const { return centroids_.cols(); }
  std::size_t num_clusters() const { return centroids_.rows(); }
  std::size_t default_nprobe() const { return default_nprobe_; }
  const DenseIndex* base() const { return base_; }
  const ClusteredIndexOptions& options() const { return options_; }

  /// Top-k by true fp32 inner product among the rows of the top-`nprobe`
  /// probed cells (nprobe == 0 → default_nprobe()), best first, ties by
  /// ascending id. Appends to `*out` after clearing it; allocation-free
  /// when `scratch` and `out` are reused.
  void TopKInto(const float* query, std::size_t k, std::size_t nprobe,
                ClusteredScratch* scratch,
                std::vector<ScoredEntity>* out) const;

  /// Convenience wrapper around TopKInto with one-shot buffers.
  std::vector<ScoredEntity> TopK(const float* query, std::size_t k,
                                 std::size_t nprobe = 0) const;

  // ---- Persistence --------------------------------------------------------

  /// Serializes the clustering (centroids, norms, inverted lists, resolved
  /// probe defaults). The base rows are NOT written; pair the payload with
  /// the base index artifact. A PQ form appends a version-2 "PQIV" block
  /// (codebooks + codes); without one, the bytes are identical to the
  /// version-1 format, so PQ-free artifacts round-trip with older readers.
  void Save(util::BinaryWriter* writer) const;

  /// Loads and integrity-checks a clustering payload (shape consistency,
  /// monotonic offsets, entries form a permutation of [0, N); for version-2
  /// payloads also PQ tag/shape/finiteness/code-range checks). The index
  /// is detached afterwards; call Attach before querying.
  util::Status Load(util::BinaryReader* reader);

  /// Binds (or re-binds, e.g. after the base was moved) the clustering to
  /// its base index, validating row count and dimension.
  util::Status Attach(const DenseIndex* base);

  // ---- Product-quantized residual form ------------------------------------

  /// True when the index carries trained PQ codebooks + codes (probes then
  /// use the ADC scan).
  bool pq_built() const { return !pq_codebooks_.empty(); }
  /// Subspaces per entry (codes per row). 0 when !pq_built().
  std::size_t pq_m() const { return pq_m_; }
  /// Trained centroids per subspace (≤ 256; smaller only when the training
  /// sample had fewer rows).
  std::size_t pq_kc() const { return pq_kc_; }
  /// Heap bytes of the PQ structures: codes + codebooks + subspace bounds.
  /// The scan-resident marginal cost per entry is pq_m() bytes; the
  /// codebooks are an O(256·d) constant amortized over the whole KB.
  std::size_t PqMemoryBytes() const;

  // ---- Introspection (tests, benches) ------------------------------------

  const tensor::Tensor& centroids() const { return centroids_; }
  /// CSR offsets into list_entries(), one per cluster plus a final bound.
  const std::vector<std::uint32_t>& list_offsets() const {
    return list_offsets_;
  }
  /// Row positions grouped by cluster, ascending within each list.
  const std::vector<std::uint32_t>& list_entries() const {
    return list_entries_;
  }
  /// PQ codes in list-entry order ([size × pq_m], entry i of list_entries()
  /// owns bytes [i*pq_m, (i+1)*pq_m)). Empty when !pq_built().
  const std::vector<std::int8_t>& pq_codes() const { return pq_codes_; }
  /// Flat subspace codebooks: entry (m, j) starts at
  /// 256 * pq_sub_offsets()[m] + j * dsub_m, dsub_m columns.
  const std::vector<float>& pq_codebooks() const { return pq_codebooks_; }
  /// Column bounds of each subspace ([pq_m + 1], 0 … dim).
  const std::vector<std::uint32_t>& pq_sub_offsets() const {
    return pq_sub_offsets_;
  }

 private:
  /// Adjusted centroid scores (x·c − ½‖c‖²) for one query.
  void ScoreClusters(const float* query, std::vector<float>* scores) const;
  /// Top-`nprobe` cluster ids by adjusted score (desc, ties by id asc).
  void SelectProbe(const std::vector<float>& scores, std::size_t nprobe,
                   std::vector<std::uint32_t>* probe) const;
  /// Fills the per-query ADC tables: lut[m * 256 + j] = q_sub(m)·cb[m][j].
  /// Pre: pq_built().
  void PreparePqLut(const float* query, std::vector<float>* lut) const;
  /// Scans the lists of `scratch->probe` into `scratch->topk`: PQ ADC
  /// candidates keyed by position, bounded by the rescore pool, when the
  /// index carries a PQ form; exact fp32 hits keyed by id, bounded by k,
  /// otherwise. Pre: `scratch->cluster_scores` holds this query's scores.
  void ScanLists(const float* query, std::size_t k,
                 ClusteredScratch* scratch) const;
  /// Exact fp32 re-score of pooled positions + final top-k selection.
  void RescoreAndSelect(const float* query, std::size_t k,
                        TopKScratch* scratch,
                        std::vector<ScoredEntity>* out) const;
  std::size_t ResolveNprobe(std::size_t nprobe) const;
  /// Trains the residual codebooks and encodes every inverted-list entry.
  /// `assign` is the final per-row cluster assignment from Build.
  util::Status BuildPq(const DenseIndex& base,
                       const ClusteredIndexOptions& options,
                       util::ThreadPool* pool,
                       const std::vector<std::uint32_t>& assign);

  const DenseIndex* base_ = nullptr;
  ClusteredIndexOptions options_;
  tensor::Tensor centroids_;             // [num_clusters, dim]
  std::vector<float> half_cnorm_;        // ½‖c‖² per centroid
  std::vector<std::uint32_t> list_offsets_;  // [num_clusters + 1]
  std::vector<std::uint32_t> list_entries_;  // [N] row positions
  std::size_t default_nprobe_ = 1;
  // PQ form (empty/zero when not built): see the accessor docs for layout.
  std::size_t pq_m_ = 0;
  std::size_t pq_kc_ = 0;
  std::vector<std::uint32_t> pq_sub_offsets_;  // [pq_m + 1]
  std::vector<float> pq_codebooks_;            // [256 × dim], subspace-major
  std::vector<std::int8_t> pq_codes_;          // [N × pq_m], list order
};

}  // namespace metablink::retrieval

#endif  // METABLINK_RETRIEVAL_CLUSTERED_INDEX_H_
