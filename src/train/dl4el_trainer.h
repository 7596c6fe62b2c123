#ifndef METABLINK_TRAIN_DL4EL_TRAINER_H_
#define METABLINK_TRAIN_DL4EL_TRAINER_H_

#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "train/bi_trainer.h"
#include "util/status.h"

namespace metablink::train {

/// Options for the DL4EL baseline (Le & Titov 2019).
struct Dl4elOptions {
  TrainOptions train;
  /// Assumed fraction of noisy training pairs ρ. DL4EL keeps (soft-selects)
  /// the lowest-loss (1-ρ) fraction of each batch.
  double noise_ratio = 0.25;
  /// Temperature of the per-batch soft selection distribution.
  float temperature = 1.0f;
  /// Strength of the KL pull toward the uniform prior (0 = hard top-(1-ρ)
  /// selection, 1 = uniform weights, i.e. plain training).
  float kl_mix = 0.3f;
};

/// The DL4EL denoising baseline: noise-aware training that assumes a fixed
/// noise ratio and, per batch, weights examples by a softmax over negative
/// losses, truncated at the assumed clean fraction and KL-regularized
/// toward the uniform prior. Unlike MetaBLINK it has no access to trusted
/// seed data, so its selection signal is only the model's own loss — the
/// reason it cannot find "bad data without simple data features" (paper
/// observation (3)). Applied to the bi-encoder only, as in the paper.
class Dl4elTrainer {
 public:
  explicit Dl4elTrainer(Dl4elOptions options = {});

  /// Trains in place like BiEncoderTrainer, but weighting each batch by
  /// SelectionWeights; `options.train.checkpoint_path` resumes under its
  /// own trainer tag.
  util::Result<TrainResult> Train(
      model::BiEncoder* model, const kb::KnowledgeBase& kb,
      const std::vector<data::LinkingExample>& examples);

  /// The per-batch selection weights for a batch of losses; exposed for
  /// unit tests. Returns normalized weights summing to 1.
  std::vector<float> SelectionWeights(const std::vector<float>& losses) const;

 private:
  Dl4elOptions options_;
};

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_DL4EL_TRAINER_H_
