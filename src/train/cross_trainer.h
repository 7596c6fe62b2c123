#ifndef METABLINK_TRAIN_CROSS_TRAINER_H_
#define METABLINK_TRAIN_CROSS_TRAINER_H_

#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "train/epoch_loop.h"
#include "util/status.h"

namespace metablink::train {

/// One cross-encoder training instance: an example plus its mined candidate
/// list with the gold entity's position. Instances are typically produced
/// by MineCrossTrainingSet from stage-1 retrieval output.
struct CrossInstance {
  data::LinkingExample example;
  std::vector<kb::EntityId> candidates;
  std::size_t gold_index = 0;
};

/// Builds cross-encoder training instances: for each example whose gold
/// entity appears in its retrieved candidate list, keep up to
/// `max_candidates` candidates (gold always kept). Examples whose gold was
/// not retrieved are dropped, as in BLINK. `max_candidates == 0` keeps
/// nothing and returns no instances.
std::vector<CrossInstance> MineCrossTrainingSet(
    const std::vector<data::LinkingExample>& examples,
    const std::vector<std::vector<retrieval::ScoredEntity>>& candidate_lists,
    std::size_t max_candidates);

/// Supervised trainer for the cross-encoder: Adam on the softmax ranking
/// loss over each instance's candidate list. The paper's cross-encoder
/// batch size is 1 (meta-learning doubles memory), which this follows:
/// every step trains one instance, whatever `TrainOptions::batch_size`
/// says.
class CrossEncoderTrainer {
 public:
  explicit CrossEncoderTrainer(TrainOptions options = {});

  /// Trains in place on instances featurized once per call; an instance
  /// with fewer than 2 candidates is skipped.
  util::Result<TrainResult> Train(model::CrossEncoder* model,
                                  const kb::KnowledgeBase& kb,
                                  const std::vector<CrossInstance>& instances);

 private:
  TrainOptions options_;
};

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_CROSS_TRAINER_H_
