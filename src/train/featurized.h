#ifndef METABLINK_TRAIN_FEATURIZED_H_
#define METABLINK_TRAIN_FEATURIZED_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "model/features.h"
#include "tensor/graph.h"
#include "tensor/tensor.h"
#include "train/cross_trainer.h"
#include "train/meta_trainer.h"

namespace metablink::train {

/// One hashed bag: the feature ids a single EmbeddingBagMean row gathers.
using Bag = std::vector<std::uint32_t>;

/// A bi-encoder training example featurized once per fit. The bags belong
/// to the TrainingFeatures that made the record.
struct FeaturizedExample {
  const Bag* mention = nullptr;
  const Bag* entity = nullptr;  // the gold entity's EntityBag
  data::ExampleSource source = data::ExampleSource::kGold;
};

/// A cross-encoder instance featurized once per fit: the mention bag, one
/// EntityBag per candidate and one OverlapFeatures row per candidate.
struct FeaturizedInstance {
  const Bag* mention = nullptr;
  std::vector<const Bag*> candidates;
  tensor::Tensor overlaps;  // [candidates, kNumOverlapFeatures]
  std::size_t gold_index = 0;
  data::ExampleSource source = data::ExampleSource::kGold;
};

inline data::ExampleSource SourceOf(const FeaturizedExample& ex) {
  return ex.source;
}
inline data::ExampleSource SourceOf(const FeaturizedInstance& inst) {
  return inst.source;
}

/// The featurization of one meta-training run, done once: a mention bag per
/// example, an EntityBag per distinct EntityId, and an overlap row per
/// (instance, candidate). It is the entity-side precomputation of Wu et
/// al.'s dense retrieval applied to training; model::BuildEntitySide is
/// the serving counterpart. Every record holds exactly the ids and floats
/// the string-taking losses would compute, so training on records is
/// bit-identical to training on the raw examples.
class TrainingFeatures {
 public:
  /// `featurizer` (the trained model's) and `kb` must outlive this object;
  /// the records it returns point into it.
  TrainingFeatures(const model::Featurizer& featurizer,
                   const kb::KnowledgeBase& kb)
      : featurizer_(featurizer), kb_(kb) {}
  TrainingFeatures(const TrainingFeatures&) = delete;
  TrainingFeatures& operator=(const TrainingFeatures&) = delete;

  std::vector<FeaturizedExample> Examples(
      const std::vector<data::LinkingExample>& examples);

  /// Overlaps come from interned tokens (model::OverlapFeaturesCached), the
  /// same values Featurizer::OverlapFeatures gives without re-tokenizing an
  /// entity per pair.
  std::vector<FeaturizedInstance> Instances(
      const std::vector<CrossInstance>& instances);

 private:
  const Bag* EntityBag(kb::EntityId id);

  const model::Featurizer& featurizer_;
  const kb::KnowledgeBase& kb_;
  std::deque<Bag> mention_bags_;  // deque: records keep stable pointers
  std::unordered_map<kb::EntityId, Bag> entity_bags_;
  std::unordered_map<kb::EntityId, model::CachedEntityTokens> entity_tokens_;
  model::TokenVocabulary vocab_;
};

/// BiEncoder::InBatchLoss over featurized examples.
tensor::Var InBatchLoss(const model::BiEncoder& bi, tensor::Graph* graph,
                        const std::vector<FeaturizedExample>& batch);

/// CrossEncoder::RankingLoss over a featurized instance: a [1,1] Var.
tensor::Var RankingLoss(const model::CrossEncoder& cross,
                        tensor::Graph* graph, const FeaturizedInstance& inst);

/// The cross-encoder meta loss: each instance's RankingLoss stacked into
/// the [n,1] column the meta trainer reweights.
tensor::Var RankingLossColumn(const model::CrossEncoder& cross,
                              tensor::Graph* graph,
                              const std::vector<FeaturizedInstance>& batch);

/// Meta trainers over featurized records.
using FeaturizedMetaTrainer = MetaReweightTrainerT<FeaturizedExample>;
using FeaturizedCrossMetaTrainer = MetaReweightTrainerT<FeaturizedInstance>;

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_FEATURIZED_H_
