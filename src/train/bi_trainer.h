#ifndef METABLINK_TRAIN_BI_TRAINER_H_
#define METABLINK_TRAIN_BI_TRAINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "train/epoch_loop.h"
#include "util/status.h"

namespace metablink::train {

/// Standard supervised trainer for the bi-encoder: Adam on the in-batch
/// negatives loss (eq. 6), uniform example weights. This is the "BLINK"
/// configuration of the experiment tables (trained on Seed, Syn, or
/// Syn+Seed depending on the data passed in).
class BiEncoderTrainer {
 public:
  explicit BiEncoderTrainer(TrainOptions options = {});

  /// Trains in place on batches of `batch_size` examples, featurized once
  /// per call; a batch of fewer than 2 examples is skipped.
  util::Result<TrainResult> Train(model::BiEncoder* model,
                                  const kb::KnowledgeBase& kb,
                                  const std::vector<data::LinkingExample>&
                                      examples);

 private:
  TrainOptions options_;
};

/// The bi-encoder epoch loop both BiEncoderTrainer and Dl4elTrainer run:
/// `options.batch_size` examples a step through train::InBatchLoss,
/// weighted by `weights` (unset: uniform), checkpointed under `tag` and
/// shuffled by an Rng seeded with `seed`.
util::Result<TrainResult> TrainInBatch(
    model::BiEncoder* model, const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples,
    const TrainOptions& options, std::uint32_t tag, std::uint64_t seed,
    std::function<std::vector<float>(const std::vector<float>&)> weights);

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_BI_TRAINER_H_
