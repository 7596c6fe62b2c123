#include "model/cross_encoder.h"

#include <algorithm>
#include <cmath>

#include "model/entity_side.h"
#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace metablink::model {

std::vector<tensor::ParameterShape> CrossEncoder::ParameterShapes(
    const CrossEncoderConfig& config) {
  const std::size_t buckets = config.features.hasher.num_buckets;
  const std::size_t d = config.dim;
  const std::size_t h = config.hidden;
  // A stored dim too large for 3 * d to fit fails the check on the table
  // before the wrapped `in` matters: the table must fit in the section.
  const std::size_t in = 3 * d + kNumOverlapFeatures;
  return {{"cross_table", buckets, d},
          {"cross_w1", in, h},
          {"cross_b1", 1, h},
          {"cross_w2", h, 1},
          {"cross_b2", 1, 1}};
}

CrossEncoder::CrossEncoder(CrossEncoderConfig config, util::Rng* rng)
    : config_(config), featurizer_(config.features) {
  const std::size_t buckets = featurizer_.num_buckets();
  const std::size_t d = config_.dim;
  const std::size_t in = 3 * d + kNumOverlapFeatures;
  table_ = params_.CreateEmbedding("cross_table", buckets, d, 0.1f, rng);
  w1_ = params_.CreateXavier("cross_w1", in, config_.hidden, rng);
  b1_ = params_.Create("cross_b1", 1, config_.hidden);
  w2_ = params_.CreateXavier("cross_w2", config_.hidden, 1, rng);
  b2_ = params_.Create("cross_b2", 1, 1);
}

tensor::Var CrossEncoder::ScoreCandidates(
    tensor::Graph* graph, const data::LinkingExample& example,
    const std::vector<kb::Entity>& candidates) const {
  METABLINK_CHECK(!candidates.empty()) << "no candidates to score";
  const std::size_t c = candidates.size();
  std::vector<std::vector<std::uint32_t>> mention_bag(
      1, featurizer_.MentionBag(example));
  std::vector<std::vector<std::uint32_t>> entity_bags;
  entity_bags.reserve(c);
  tensor::Tensor overlaps(c, kNumOverlapFeatures);
  for (std::size_t i = 0; i < c; ++i) {
    entity_bags.push_back(featurizer_.EntityBag(candidates[i]));
    const auto feats = featurizer_.OverlapFeatures(example, candidates[i]);
    for (std::size_t f = 0; f < kNumOverlapFeatures; ++f) {
      overlaps.at(i, f) = feats[f];
    }
  }
  return ScoreBags(graph, std::move(mention_bag), std::move(entity_bags),
                   std::move(overlaps));
}

tensor::Var CrossEncoder::ScoreBags(
    tensor::Graph* graph, std::vector<std::vector<std::uint32_t>> mention_bag,
    std::vector<std::vector<std::uint32_t>> entity_bags,
    tensor::Tensor overlaps) const {
  const std::size_t c = entity_bags.size();
  METABLINK_CHECK(mention_bag.size() == 1) << "one mention bag";
  METABLINK_CHECK(c > 0) << "no candidates to score";
  METABLINK_CHECK(overlaps.rows() == c &&
                  overlaps.cols() == kNumOverlapFeatures)
      << "one overlap row per candidate";
  // The mention is identical for every candidate row: encode it once and
  // broadcast.
  tensor::Var m = graph->BroadcastRow(
      graph->Tanh(graph->EmbeddingBagMean(table_, std::move(mention_bag))),
      c);
  tensor::Var e =
      graph->Tanh(graph->EmbeddingBagMean(table_, std::move(entity_bags)));
  tensor::Var interaction = graph->Mul(m, e);
  tensor::Var joint = graph->ConcatCols(graph->ConcatCols(m, e), interaction);
  tensor::Var input =
      graph->ConcatCols(joint, graph->Input(std::move(overlaps)));
  tensor::Var hidden = graph->Tanh(graph->AddBiasRow(
      graph->MatMul(input, graph->Param(w1_)), graph->Param(b1_)));
  return graph->AddBiasRow(graph->MatMul(hidden, graph->Param(w2_)),
                           graph->Param(b2_));
}

tensor::Var CrossEncoder::RankingLoss(
    tensor::Graph* graph, const data::LinkingExample& example,
    const std::vector<kb::Entity>& candidates, std::size_t gold_index) const {
  METABLINK_CHECK(gold_index < candidates.size()) << "gold index out of range";
  tensor::Var scores = ScoreCandidates(graph, example, candidates);
  tensor::Var row = graph->Reshape(scores, 1, candidates.size());
  return graph->SoftmaxCrossEntropy(row, {gold_index});
}

tensor::Var CrossEncoder::RankingLoss(
    tensor::Graph* graph, std::vector<std::uint32_t> mention_bag,
    std::vector<std::vector<std::uint32_t>> entity_bags,
    tensor::Tensor overlaps, std::size_t gold_index) const {
  const std::size_t c = entity_bags.size();
  METABLINK_CHECK(gold_index < c) << "gold index out of range";
  std::vector<std::vector<std::uint32_t>> mention_bags;
  mention_bags.push_back(std::move(mention_bag));
  tensor::Var scores = ScoreBags(graph, std::move(mention_bags),
                                 std::move(entity_bags), std::move(overlaps));
  tensor::Var row = graph->Reshape(scores, 1, c);
  return graph->SoftmaxCrossEntropy(row, {gold_index});
}

std::vector<float> CrossEncoder::Score(
    const data::LinkingExample& example,
    const std::vector<kb::Entity>& candidates) const {
  tensor::Graph graph;
  tensor::Var scores = ScoreCandidates(&graph, example, candidates);
  std::vector<float> out(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    out[i] = graph.value(scores).at(i, 0);
  }
  return out;
}

void CrossEncoder::PrefixInto(CrossScoreScratch* scratch) const {
  scratch->prefix.assign(config_.hidden, 0.0f);
  tensor::GemmRowChain(scratch->mention_vec.data(),
                       w1_->value.data().data(), scratch->prefix.data(),
                       config_.dim, config_.hidden);
}

void CrossEncoder::ScoreBlock(CrossScoreScratch* scratch,
                              std::vector<float>* out) const {
  const std::size_t d = config_.dim;
  const std::size_t h = config_.hidden;
  const std::size_t c = scratch->entity_rows.size();
  const float* m = scratch->mention_vec.data();
  const float* b1 = b1_->value.data().data();
  scratch->pair.resize(2 * d + kNumOverlapFeatures);
  scratch->hidden.resize(c * h);
  float* pair = scratch->pair.data();
  float* hidden = scratch->hidden.data();
  for (std::size_t i = 0; i < c; ++i) {
    const float* e = scratch->entity_rows[i];
    std::copy(e, e + d, pair);
    for (std::size_t j = 0; j < d; ++j) pair[d + j] = m[j] * e[j];
    const float* ov = scratch->overlaps.data() + i * kNumOverlapFeatures;
    std::copy(ov, ov + kNumOverlapFeatures, pair + 2 * d);
    float* row = hidden + i * h;
    std::copy(scratch->prefix.begin(), scratch->prefix.end(), row);
    tensor::GemmRowChain(pair, w1_->value.row_data(d), row,
                         2 * d + kNumOverlapFeatures, h);
    for (std::size_t j = 0; j < h; ++j) row[j] += b1[j];
  }
  // tanh is elementwise, so one pass over the block gives every row's.
  tensor::Tanh(hidden, c * h);
  // Each row's [1, hidden] x [hidden, 1] GEMM of the tape, in its order:
  // ascending hidden unit from 0, zero activations skipped, then the bias.
  out->resize(c);
  tensor::RowDotsSkipZero(hidden, w2_->value.data().data(), c, h,
                          b2_->value.at(0, 0), out->data());
}

void CrossEncoder::ScoreInference(const data::LinkingExample& example,
                                  const std::vector<kb::Entity>& candidates,
                                  CrossScoreScratch* scratch,
                                  std::vector<float>* out) const {
  METABLINK_CHECK(!candidates.empty()) << "no candidates to score";
  const std::size_t c = candidates.size();
  const std::size_t d = config_.dim;

  // Mention tower once (the Graph path broadcasts the single encoded row).
  MentionVecInto(example, scratch);
  PrefixInto(scratch);

  // Entity tower (the same gather + tanh per candidate row) and the string
  // overlap features.
  if (scratch->entity_bags.size() < c) scratch->entity_bags.resize(c);
  scratch->entity_vec.Resize(c, d);
  scratch->entity_rows.clear();
  scratch->overlaps.resize(c * kNumOverlapFeatures);
  for (std::size_t i = 0; i < c; ++i) {
    featurizer_.EntityBagInto(candidates[i], &scratch->entity_bags[i]);
    TowerRowInto(scratch->entity_bags[i], scratch->entity_vec.row_data(i));
    scratch->entity_rows.push_back(scratch->entity_vec.row_data(i));
    featurizer_.OverlapFeaturesInto(
        example, candidates[i],
        scratch->overlaps.data() + i * kNumOverlapFeatures);
  }
  ScoreBlock(scratch, out);
}

void CrossEncoder::PrecomputeEntities(const std::vector<kb::Entity>& entities,
                                      CrossEntityCache* out) const {
  std::vector<const kb::Entity*> refs;
  refs.reserve(entities.size());
  for (const kb::Entity& e : entities) refs.push_back(&e);
  BuildEntitySide(/*bi=*/nullptr, this, refs, /*pool=*/nullptr,
                  /*embeddings=*/nullptr, out);
}

void CrossEncoder::TowerRowInto(const std::vector<std::uint32_t>& bag,
                                float* row) const {
  const std::size_t d = config_.dim;
  if (!bag.empty()) {
    for (std::uint32_t id : bag) {
      METABLINK_CHECK(id < table_->value.rows()) << "embedding id out of range";
    }
    tensor::BagRowChain(bag.data(), bag.size(),
                        1.0f / static_cast<float>(bag.size()),
                        table_->value.data().data(), row, d);
  }
  tensor::Tanh(row, d);
}

void CrossEncoder::MentionVecInto(const data::LinkingExample& example,
                                  CrossScoreScratch* scratch) const {
  TokenizeMention(example, &scratch->text);
  featurizer_.MentionBagInto(scratch->text, &scratch->mention_bag);
  scratch->mention_vec.assign(config_.dim, 0.0f);
  TowerRowInto(scratch->mention_bag, scratch->mention_vec.data());
}

void CrossEncoder::ScoreCachedInference(const data::LinkingExample& example,
                                        const std::vector<std::size_t>& rows,
                                        const CrossEntityCache& cache,
                                        CrossScoreScratch* scratch,
                                        std::vector<float>* out) const {
  TokenizeMention(example, &scratch->text);
  featurizer_.MentionBagInto(scratch->text, &scratch->mention_bag);
  ScoreCachedInference(example, scratch->text, scratch->mention_bag, rows,
                       cache, scratch, out);
}

void CrossEncoder::ScoreCachedInference(
    const data::LinkingExample& example, const MentionText& text,
    const std::vector<std::uint32_t>& mention_bag,
    const std::vector<std::size_t>& rows, const CrossEntityCache& cache,
    CrossScoreScratch* scratch, std::vector<float>* out) const {
  METABLINK_CHECK(!rows.empty()) << "no candidates to score";
  METABLINK_CHECK(cache.entity_vec.cols() == config_.dim)
      << "cache rows do not match the model dimension";
  const std::size_t d = config_.dim;

  // Everything mention-side once per request: tower, W1 prefix, tokens.
  scratch->mention_vec.assign(d, 0.0f);
  TowerRowInto(mention_bag, scratch->mention_vec.data());
  PrefixInto(scratch);
  featurizer_.PrecomputeMentionTokens(example, text, cache.vocab,
                                      &scratch->mention_tokens);

  scratch->entity_rows.clear();
  scratch->overlaps.resize(rows.size() * kNumOverlapFeatures);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    METABLINK_CHECK(r < cache.entity_vec.rows()) << "cache row out of range";
    scratch->entity_rows.push_back(cache.entity_vec.row_data(r));
    OverlapFeaturesCached(scratch->mention_tokens, cache.tokens[r],
                          scratch->overlaps.data() + i * kNumOverlapFeatures);
  }
  ScoreBlock(scratch, out);
}

void CrossEncoder::SaveCheckpoint(store::CheckpointWriter* ckpt) const {
  util::BinaryWriter* config = ckpt->AddSection("cross_config");
  config->WriteU64(config_.dim);
  config->WriteU64(config_.hidden);
  SaveFeatureConfig(config_.features, config);
  params_.Save(ckpt->AddSection("cross_params"));
}

util::Result<CrossEncoderConfig> CrossEncoder::ReadConfig(
    const store::CheckpointReader& ckpt) {
  auto section = ckpt.Section("cross_config");
  if (!section.ok()) return section.status();
  CrossEncoderConfig config;
  std::uint64_t dim = 0, hidden = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&dim));
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&hidden));
  config.dim = static_cast<std::size_t>(dim);
  config.hidden = static_cast<std::size_t>(hidden);
  METABLINK_RETURN_IF_ERROR(LoadFeatureConfig(&*section, &config.features));
  return config;
}

util::Status CrossEncoder::LoadCheckpoint(const store::CheckpointReader& ckpt) {
  auto stored = ReadConfig(ckpt);
  if (!stored.ok()) return stored.status();
  if (stored->dim != config_.dim || stored->hidden != config_.hidden ||
      !FeatureConfigsMatch(stored->features, config_.features)) {
    return util::Status::InvalidArgument(
        "cross-encoder checkpoint config does not match this model");
  }
  auto section = ckpt.Section("cross_params");
  if (!section.ok()) return section.status();
  return params_.Load(&*section);
}

util::Result<std::unique_ptr<CrossEncoder>> CrossEncoder::FromCheckpoint(
    const store::CheckpointReader& ckpt) {
  auto config = ReadConfig(ckpt);
  if (!config.ok()) return config.status();
  auto section = ckpt.Section("cross_params");
  if (!section.ok()) return section.status();
  METABLINK_RETURN_IF_ERROR(tensor::ParameterStore::CheckSaved(
      std::move(*section), ParameterShapes(*config)));
  auto model = std::make_unique<CrossEncoder>(*config, /*rng=*/nullptr);
  METABLINK_RETURN_IF_ERROR(model->LoadCheckpoint(ckpt));
  return model;
}

}  // namespace metablink::model
