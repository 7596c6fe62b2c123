#include "model/entity_side.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "util/thread_pool.h"

namespace metablink::model {

namespace {

using Clock = std::chrono::steady_clock;

// Fewest entities a chunk gets: smaller sets are not worth a task.
constexpr std::size_t kMinChunk = 256;

double Ms(Clock::time_point from, Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// What one chunk, entities [begin, end), leaves for the merge: its own
/// vocabulary, in which the chunk's CachedEntityTokens ids are local.
struct ChunkState {
  std::size_t begin = 0;
  std::size_t end = 0;
  TokenVocabulary vocab;
  double bi_ms = 0.0;
  double cross_ms = 0.0;
};

/// Folds the chunk vocabularies into `cache->vocab` in chunk order and
/// rewrites every entity's token ids into it. A chunk's local ids follow
/// its own first-seen order, so walking them ascending and giving each
/// token not seen in an earlier chunk the next free id replays the first-
/// seen order of one serial pass over all entities: every id comes out as
/// that pass assigns it. Re-mapping can reorder a set, so each is re-sorted
/// (it stays duplicate-free: the map is injective).
void MergeVocabularies(std::vector<ChunkState>* chunks,
                       CrossEntityCache* cache) {
  TokenVocabulary& vocab = cache->vocab;
  std::vector<TokenVocabulary::iterator> by_local;
  std::vector<std::uint32_t> remap;
  auto rewrite = [&remap](std::vector<std::uint32_t>* ids) {
    for (std::uint32_t& id : *ids) id = remap[id];
    std::sort(ids->begin(), ids->end());
  };
  for (std::size_t c = 0; c < chunks->size(); ++c) {
    TokenVocabulary& local = (*chunks)[c].vocab;
    by_local.assign(local.size(), local.end());
    for (auto it = local.begin(); it != local.end(); ++it) {
      by_local[it->second] = it;
    }
    remap.resize(local.size());
    for (std::size_t id = 0; id < by_local.size(); ++id) {
      // Moving the node hands its string over without a copy.
      auto node = local.extract(by_local[id]);
      node.mapped() = static_cast<std::uint32_t>(vocab.size());
      remap[id] = vocab.insert(std::move(node)).position->second;
    }
    for (std::size_t i = (*chunks)[c].begin; i < (*chunks)[c].end; ++i) {
      rewrite(&cache->tokens[i].title_ids);
      rewrite(&cache->tokens[i].desc_ids);
    }
  }
}

}  // namespace

void BuildEntitySide(const BiEncoder* bi, const CrossEncoder* cross,
                     const std::vector<const kb::Entity*>& entities,
                     util::ThreadPool* pool, tensor::Tensor* embeddings,
                     CrossEntityCache* cache, EntitySideTimings* timings) {
  const auto t_start = Clock::now();
  const std::size_t n = entities.size();
  if (cross != nullptr) {
    cache->entity_vec.Resize(n, cross->config().dim);
    cache->tokens.assign(n, CachedEntityTokens{});
    cache->vocab.clear();
  }
  if (bi != nullptr) embeddings->Resize(n, bi->dim());
  const bool share_bags =
      bi != nullptr && cross != nullptr &&
      FeatureConfigsMatch(bi->config().features, cross->config().features);

  // Pooled bi rows for the whole set, allocated here so that the chunk
  // tasks allocate little: what a worker frees stays cached in its own
  // malloc arena, and every pool thread holds one.
  tensor::Tensor hidden(bi != nullptr ? n : 0, bi != nullptr ? bi->dim() : 0);

  // One contiguous chunk per task, not many small ones: each chunk interns
  // its distinct tokens once, so fewer chunks mean fewer vocabulary nodes
  // built in the workers only to be dropped by the merge.
  const std::size_t max_chunks =
      pool == nullptr
          ? 1
          : std::min(pool->num_threads(), (n + kMinChunk - 1) / kMinChunk);
  std::vector<ChunkState> chunks(std::max<std::size_t>(1, max_chunks));
  auto run_chunk = [&](std::size_t c, std::size_t begin, std::size_t end) {
    ChunkState& state = chunks[c];
    state.begin = begin;
    state.end = end;
    std::vector<std::uint32_t> bi_bag, cross_bag;
    for (std::size_t i = begin; i < end; ++i) {
      const kb::Entity& entity = *entities[i];
      const auto t0 = Clock::now();
      if (bi != nullptr) {
        bi->featurizer().EntityBagInto(entity, &bi_bag);
        bi->EntityHiddenRowInto(bi_bag, hidden.row_data(i));
      }
      const auto t1 = Clock::now();
      if (cross != nullptr) {
        const Featurizer& cross_features = cross->featurizer();
        if (!share_bags) cross_features.EntityBagInto(entity, &cross_bag);
        cross->TowerRowInto(share_bags ? bi_bag : cross_bag,
                            cache->entity_vec.row_data(i));
        cross_features.PrecomputeEntityTokens(entity, &state.vocab,
                                              &cache->tokens[i]);
      }
      state.bi_ms += Ms(t0, t1);
      state.cross_ms += Ms(t1);
    }
    if (bi != nullptr) {
      const auto t0 = Clock::now();
      bi->ProjectEntityRowsInference(hidden.row_data(begin), end - begin,
                                     embeddings->row_data(begin));
      state.bi_ms += Ms(t0);
    }
  };
  std::size_t used = 0;
  if (pool != nullptr) {
    used = pool->ParallelForChunks(n, max_chunks, run_chunk);
  } else if (n > 0) {
    run_chunk(0, 0, n);
    used = 1;
  }
  chunks.resize(used);
  const double chunks_ms = Ms(t_start);

  const auto t_merge = Clock::now();
  if (cross != nullptr) MergeVocabularies(&chunks, cache);
  if (timings != nullptr) {
    *timings = EntitySideTimings{};
    timings->chunks_ms = chunks_ms;
    for (const ChunkState& state : chunks) {
      timings->bi_ms += state.bi_ms;
      timings->cross_ms += state.cross_ms;
    }
    timings->merge_ms = Ms(t_merge);
  }
}

void BuildEntitySide(const BiEncoder* bi, const CrossEncoder* cross,
                     const kb::KnowledgeBase& kb,
                     const std::vector<kb::EntityId>& ids,
                     util::ThreadPool* pool, tensor::Tensor* embeddings,
                     CrossEntityCache* cache, EntitySideTimings* timings) {
  std::vector<const kb::Entity*> entities;
  entities.reserve(ids.size());
  for (kb::EntityId id : ids) entities.push_back(&kb.entity(id));
  BuildEntitySide(bi, cross, entities, pool, embeddings, cache, timings);
}

}  // namespace metablink::model
