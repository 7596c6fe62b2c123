#include "train/featurized.h"

#include <utility>

namespace metablink::train {

const Bag* TrainingFeatures::EntityBag(kb::EntityId id) {
  auto [it, added] = entity_bags_.try_emplace(id);
  if (added) featurizer_.EntityBagInto(kb_.entity(id), &it->second);
  return &it->second;
}

std::vector<FeaturizedExample> TrainingFeatures::Examples(
    const std::vector<data::LinkingExample>& examples) {
  std::vector<FeaturizedExample> out;
  out.reserve(examples.size());
  for (const data::LinkingExample& ex : examples) {
    FeaturizedExample rec;
    rec.mention = &mention_bags_.emplace_back(featurizer_.MentionBag(ex));
    rec.entity = EntityBag(ex.entity_id);
    rec.source = ex.source;
    out.push_back(rec);
  }
  return out;
}

std::vector<FeaturizedInstance> TrainingFeatures::Instances(
    const std::vector<CrossInstance>& instances) {
  // Every candidate's tokens must be in the vocabulary before a mention is
  // resolved against it, so intern all entities first. Only this path reads
  // overlaps, so only it interns.
  for (const CrossInstance& inst : instances) {
    for (kb::EntityId id : inst.candidates) {
      auto [it, added] = entity_tokens_.try_emplace(id);
      if (added) {
        featurizer_.PrecomputeEntityTokens(kb_.entity(id), &vocab_,
                                           &it->second);
      }
    }
  }
  std::vector<FeaturizedInstance> out;
  out.reserve(instances.size());
  model::MentionText text;
  model::MentionTokens mention_tokens;
  for (const CrossInstance& inst : instances) {
    // One tokenization feeds both the bag and the overlap rows.
    model::TokenizeMention(inst.example, &text);
    FeaturizedInstance rec;
    Bag& bag = mention_bags_.emplace_back();
    featurizer_.MentionBagInto(text, &bag);
    rec.mention = &bag;
    featurizer_.PrecomputeMentionTokens(inst.example, text, vocab_,
                                        &mention_tokens);
    const std::size_t c = inst.candidates.size();
    rec.candidates.reserve(c);
    rec.overlaps.Resize(c, model::kNumOverlapFeatures);
    for (std::size_t i = 0; i < c; ++i) {
      const kb::EntityId id = inst.candidates[i];
      rec.candidates.push_back(EntityBag(id));
      model::OverlapFeaturesCached(mention_tokens, entity_tokens_.at(id),
                                   rec.overlaps.row_data(i));
    }
    rec.gold_index = inst.gold_index;
    rec.source = inst.example.source;
    out.push_back(std::move(rec));
  }
  return out;
}

tensor::Var InBatchLoss(const model::BiEncoder& bi, tensor::Graph* graph,
                        const std::vector<FeaturizedExample>& batch) {
  std::vector<Bag> mention_bags, entity_bags;
  mention_bags.reserve(batch.size());
  entity_bags.reserve(batch.size());
  for (const FeaturizedExample& ex : batch) {
    mention_bags.push_back(*ex.mention);
    entity_bags.push_back(*ex.entity);
  }
  return bi.InBatchLoss(graph, std::move(mention_bags),
                        std::move(entity_bags));
}

tensor::Var RankingLoss(const model::CrossEncoder& cross,
                        tensor::Graph* graph, const FeaturizedInstance& inst) {
  std::vector<Bag> entity_bags;
  entity_bags.reserve(inst.candidates.size());
  for (const Bag* bag : inst.candidates) entity_bags.push_back(*bag);
  return cross.RankingLoss(graph, *inst.mention, std::move(entity_bags),
                           inst.overlaps, inst.gold_index);
}

tensor::Var RankingLossColumn(const model::CrossEncoder& cross,
                              tensor::Graph* graph,
                              const std::vector<FeaturizedInstance>& batch) {
  std::vector<tensor::Var> losses;
  losses.reserve(batch.size());
  for (const FeaturizedInstance& inst : batch) {
    losses.push_back(RankingLoss(cross, graph, inst));
  }
  return graph->ConcatRows(losses);
}

}  // namespace metablink::train
