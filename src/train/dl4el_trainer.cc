#include "train/dl4el_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace metablink::train {

namespace {
// Trainer-type tag ("DLTR") namespacing DL4EL checkpoints.
constexpr std::uint32_t kDl4elTrainerTag = 0x52544C44u;
}  // namespace

Dl4elTrainer::Dl4elTrainer(Dl4elOptions options) : options_(options) {}

std::vector<float> Dl4elTrainer::SelectionWeights(
    const std::vector<float>& losses) const {
  const std::size_t n = losses.size();
  std::vector<float> weights(n, 0.0f);
  if (n == 0) return weights;

  // Hard part: keep the lowest-loss (1-ρ) fraction.
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround((1.0 - options_.noise_ratio) *
                          static_cast<double>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return losses[a] < losses[b];
  });

  // Soft selection over the kept set: softmax(-loss / T).
  float mx = -losses[order[0]];
  std::vector<float> soft(n, 0.0f);
  float soft_total = 0.0f;
  for (std::size_t r = 0; r < keep; ++r) {
    const std::size_t j = order[r];
    soft[j] = std::exp(-losses[j] / options_.temperature - mx);
    soft_total += soft[j];
  }
  // KL regularization toward the uniform prior over the whole batch.
  const float uniform = 1.0f / static_cast<float>(n);
  for (std::size_t j = 0; j < n; ++j) {
    const float sel = soft_total > 0.0f ? soft[j] / soft_total : 0.0f;
    weights[j] = (1.0f - options_.kl_mix) * sel + options_.kl_mix * uniform;
  }
  // Normalize (the mix already sums to ~1; renormalize exactly).
  float total = std::accumulate(weights.begin(), weights.end(), 0.0f);
  if (total > 0.0f) {
    for (float& w : weights) w /= total;
  }
  return weights;
}

util::Result<TrainResult> Dl4elTrainer::Train(
    model::BiEncoder* model, const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples) {
  return TrainInBatch(
      model, kb, examples, options_.train, kDl4elTrainerTag,
      options_.train.seed ^ 0xD14ELu,
      [this](const std::vector<float>& losses) {
        return SelectionWeights(losses);
      });
}

}  // namespace metablink::train
