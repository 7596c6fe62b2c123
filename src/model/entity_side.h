#ifndef METABLINK_MODEL_ENTITY_SIDE_H_
#define METABLINK_MODEL_ENTITY_SIDE_H_

#include <cstddef>
#include <vector>

#include "kb/entity.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "tensor/tensor.h"

namespace metablink::util {
class ThreadPool;
}  // namespace metablink::util

namespace metablink::model {

/// Where one BuildEntitySide call spent its time. The per-stage times are
/// summed over chunks (thread time, so with a pool they can exceed the
/// wall time of the chunk pass); `merge_ms` is the serial vocabulary merge.
struct EntitySideTimings {
  double chunks_ms = 0.0;    // wall time of the chunked pass
  double bi_ms = 0.0;        // featurize + bi entity tower
  double cross_ms = 0.0;     // cross featurize (when needed), rows, tokens
  double merge_ms = 0.0;     // chunk vocabularies -> one, ids re-mapped
};

/// The entity side of one served entity set, built in one pass: the bi
/// encoder's entity embeddings (the retrieval index rows) and the cross
/// encoder's rerank cache. Row i of both belongs to `entities[i]`.
///
/// The entities are split into contiguous chunks, one per pool thread and
/// at least 256 entities each. A chunk featurizes every entity once, runs
/// the bi tower over the chunk, and fills the chunk's cross rows and
/// overlap tokens. The cross side reuses the bi bag when the two feature
/// configs match (FeatureConfigsMatch), and featurizes separately when
/// they do not. Tokens are interned into a vocabulary per chunk; merging
/// those in chunk order, each in its own first-seen order, gives every
/// token the id a single serial pass assigns, so the output is identical
/// to BiEncoder::EncodeEntitiesInference plus a serial token interning at
/// any pool size.
///
/// Chunks run on `pool` (nullptr runs the same loop serially). Either
/// encoder may be null to build only the other's side: a null `bi` leaves
/// `embeddings` untouched, a null `cross` leaves `cache` untouched.
/// `timings` (optional) receives the stage split.
void BuildEntitySide(const BiEncoder* bi, const CrossEncoder* cross,
                     const std::vector<const kb::Entity*>& entities,
                     util::ThreadPool* pool, tensor::Tensor* embeddings,
                     CrossEntityCache* cache,
                     EntitySideTimings* timings = nullptr);

/// BuildEntitySide over the entities `ids` name in `kb`, in that order.
void BuildEntitySide(const BiEncoder* bi, const CrossEncoder* cross,
                     const kb::KnowledgeBase& kb,
                     const std::vector<kb::EntityId>& ids,
                     util::ThreadPool* pool, tensor::Tensor* embeddings,
                     CrossEntityCache* cache,
                     EntitySideTimings* timings = nullptr);

}  // namespace metablink::model

#endif  // METABLINK_MODEL_ENTITY_SIDE_H_
