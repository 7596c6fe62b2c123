#include "train/cross_trainer.h"

#include "train/featurized.h"

namespace metablink::train {

namespace {
// Trainer-type tag ("CRTR") namespacing cross-encoder checkpoints.
constexpr std::uint32_t kCrossTrainerTag = 0x52545243u;
}  // namespace

std::vector<CrossInstance> MineCrossTrainingSet(
    const std::vector<data::LinkingExample>& examples,
    const std::vector<std::vector<retrieval::ScoredEntity>>& candidate_lists,
    std::size_t max_candidates) {
  std::vector<CrossInstance> out;
  if (max_candidates == 0) return out;
  for (std::size_t i = 0;
       i < examples.size() && i < candidate_lists.size(); ++i) {
    const auto& cands = candidate_lists[i];
    std::size_t gold_pos = cands.size();
    for (std::size_t c = 0; c < cands.size(); ++c) {
      if (cands[c].id == examples[i].entity_id) {
        gold_pos = c;
        break;
      }
    }
    if (gold_pos == cands.size()) continue;  // gold not retrieved: drop
    CrossInstance inst;
    inst.example = examples[i];
    inst.gold_index = static_cast<std::size_t>(-1);  // patched below if truncated
    for (std::size_t c = 0;
         c < cands.size() && inst.candidates.size() < max_candidates; ++c) {
      if (c == gold_pos) inst.gold_index = inst.candidates.size();
      inst.candidates.push_back(cands[c].id);
    }
    // Guarantee the gold survives truncation.
    if (inst.gold_index >= inst.candidates.size()) {
      inst.candidates.back() = examples[i].entity_id;
      inst.gold_index = inst.candidates.size() - 1;
    }
    out.push_back(std::move(inst));
  }
  return out;
}

CrossEncoderTrainer::CrossEncoderTrainer(TrainOptions options)
    : options_(options) {}

util::Result<TrainResult> CrossEncoderTrainer::Train(
    model::CrossEncoder* model, const kb::KnowledgeBase& kb,
    const std::vector<CrossInstance>& instances) {
  if (instances.empty()) {
    return util::Status::InvalidArgument("no cross-encoder instances");
  }
  TrainingFeatures features(model->featurizer(), kb);
  const std::vector<FeaturizedInstance> records =
      features.Instances(instances);
  EpochLoop loop;
  loop.tag = kCrossTrainerTag;
  loop.seed = options_.seed ^ 0xC105Eu;
  loop.num_records = records.size();
  loop.step_rows = 1;
  loop.losses = [&](tensor::Graph* graph,
                    const std::vector<std::size_t>& rows) {
    const FeaturizedInstance& inst = records[rows[0]];
    if (inst.candidates.size() < 2) return tensor::Var{};
    return RankingLoss(*model, graph, inst);
  };
  return RunEpochLoop(loop, options_, model->params());
}

}  // namespace metablink::train
