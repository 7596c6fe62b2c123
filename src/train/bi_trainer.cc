#include "train/bi_trainer.h"

#include <utility>

#include "train/featurized.h"

namespace metablink::train {

namespace {
// Trainer-type tag ("BITR") namespacing bi-encoder checkpoints.
constexpr std::uint32_t kBiTrainerTag = 0x52544942u;
}  // namespace

util::Result<TrainResult> TrainInBatch(
    model::BiEncoder* model, const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples,
    const TrainOptions& options, std::uint32_t tag, std::uint64_t seed,
    std::function<std::vector<float>(const std::vector<float>&)> weights) {
  if (examples.empty()) {
    return util::Status::InvalidArgument("no training examples");
  }
  TrainingFeatures features(model->featurizer(), kb);
  const std::vector<FeaturizedExample> records = features.Examples(examples);
  std::vector<FeaturizedExample> batch;
  EpochLoop loop;
  loop.tag = tag;
  loop.seed = seed;
  loop.num_records = records.size();
  loop.step_rows = options.batch_size;
  loop.losses = [&](tensor::Graph* graph,
                    const std::vector<std::size_t>& rows) {
    if (rows.size() < 2) return tensor::Var{};  // in-batch negatives
    batch.clear();
    for (std::size_t r : rows) batch.push_back(records[r]);
    return InBatchLoss(*model, graph, batch);
  };
  loop.weights = std::move(weights);
  return RunEpochLoop(loop, options, model->params());
}

BiEncoderTrainer::BiEncoderTrainer(TrainOptions options)
    : options_(std::move(options)) {}

util::Result<TrainResult> BiEncoderTrainer::Train(
    model::BiEncoder* model, const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples) {
  return TrainInBatch(model, kb, examples, options_, kBiTrainerTag,
                      options_.seed, nullptr);
}

}  // namespace metablink::train
