#include "retrieval/sharded_index.h"

#include <algorithm>

#include "util/logging.h"

namespace metablink::retrieval {

util::Status ShardedIndex::Build(const ClusteredIndex* full,
                                 std::size_t num_shards) {
  if (full == nullptr || !full->built()) {
    return util::Status::InvalidArgument(
        "ShardedIndex requires a built ClusteredIndex");
  }
  const std::size_t n = full->size();
  const std::size_t kc = full->num_clusters();
  num_shards = std::clamp<std::size_t>(num_shards, 1, n);

  row_bounds_.resize(num_shards + 1);
  for (std::size_t s = 0; s <= num_shards; ++s) {
    row_bounds_[s] = static_cast<std::uint32_t>(s * n / num_shards);
  }

  const std::size_t pq_m = full->pq_m();
  const std::vector<std::uint32_t>& offsets = full->list_offsets();
  const std::vector<std::uint32_t>& entries = full->list_entries();
  const std::vector<std::int8_t>& codes = full->pq_codes();

  // Restrict every inverted list to each shard's row-position slice. The
  // pass is a stable filter, so entries keep the full index's ascending-
  // position order within each restricted list, and codes travel with
  // their entries.
  shards_.assign(num_shards, Shard{});
  for (std::size_t s = 0; s < num_shards; ++s) {
    Shard& shard = shards_[s];
    const std::uint32_t lo_row = row_bounds_[s];
    const std::uint32_t hi_row = row_bounds_[s + 1];
    shard.offsets.resize(kc + 1);
    shard.offsets[0] = 0;
    for (std::size_t c = 0; c < kc; ++c) {
      for (std::uint32_t idx = offsets[c]; idx < offsets[c + 1]; ++idx) {
        const std::uint32_t pos = entries[idx];
        if (pos < lo_row || pos >= hi_row) continue;
        shard.entries.push_back(pos);
        if (pq_m != 0) {
          const std::int8_t* code = codes.data() + std::size_t{idx} * pq_m;
          shard.codes.insert(shard.codes.end(), code, code + pq_m);
        }
      }
      shard.offsets[c + 1] = static_cast<std::uint32_t>(shard.entries.size());
    }
  }
  full_ = full;
  return util::Status::OK();
}

void ShardedIndex::TopKImpl(const float* query, std::size_t k,
                            std::size_t nprobe, util::ThreadPool* pool,
                            ShardedIndexScratch* scratch,
                            std::vector<ScoredEntity>* out) const {
  METABLINK_CHECK(built() && full_->base() != nullptr)
      << "ShardedIndex must be built over an attached ClusteredIndex";
  out->clear();
  k = std::min(k, full_->size());
  if (k == 0) return;
  nprobe = full_->ResolveNprobe(nprobe);

  ClusteredScratch& main = scratch->main;
  full_->ScoreClusters(query, &main.cluster_scores);
  full_->SelectProbe(main.cluster_scores, nprobe, &main.probe);
  ClusteredIndex::ScanContext ctx;
  full_->PrepareScan(query, k, &main, &ctx);

  const std::size_t ns = shards_.size();
  if (scratch->shards.size() < ns) scratch->shards.resize(ns);
  auto scan_shard = [&](std::size_t s) {
    TopKScratch& sc = scratch->shards[s];
    sc.heap.clear();
    sc.pool.clear();
    const Shard& shard = shards_[s];
    const ClusteredIndex::ListView view{
        shard.offsets.data(), shard.entries.data(),
        shard.codes.empty() ? nullptr : shard.codes.data()};
    full_->ScanLists(ctx, main.probe, view, &sc);
  };
  if (pool != nullptr && pool->num_threads() >= 2 && ns >= 2) {
    pool->ParallelForChunks(ns, ns,
                            [&](std::size_t s, std::size_t, std::size_t) {
                              scan_shard(s);
                            });
  } else {
    for (std::size_t s = 0; s < ns; ++s) scan_shard(s);
  }

  // Re-offer merge under the same strict total order: every full-list
  // entry was offered by exactly one shard with the same score the serial
  // scan would compute, and bounded selection is offer-order independent,
  // so the merged heap/pool equal the single-index probe's bit for bit.
  main.topk.heap.clear();
  main.topk.pool.clear();
  for (std::size_t s = 0; s < ns; ++s) {
    TopKScratch& sc = scratch->shards[s];
    for (const ScoredEntity& cand : sc.heap) {
      ClusteredIndex::Offer(cand, k, &main.topk.heap);
    }
    for (const ScoredEntity& cand : sc.pool) {
      ClusteredIndex::Offer(cand, ctx.pool_cap, &main.topk.pool);
    }
    sc.heap.clear();
    sc.pool.clear();
  }
  full_->RescoreAndSelect(query, k, &main.topk, out);
}

void ShardedIndex::TopKInto(const float* query, std::size_t k,
                            std::size_t nprobe, ShardedIndexScratch* scratch,
                            std::vector<ScoredEntity>* out) const {
  TopKImpl(query, k, nprobe, nullptr, scratch, out);
}

void ShardedIndex::TopKParallel(const float* query, std::size_t k,
                                std::size_t nprobe, util::ThreadPool* pool,
                                ShardedIndexScratch* scratch,
                                std::vector<ScoredEntity>* out) const {
  TopKImpl(query, k, nprobe, pool, scratch, out);
}

}  // namespace metablink::retrieval
