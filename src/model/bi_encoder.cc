#include "model/bi_encoder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace metablink::model {

std::vector<tensor::ParameterShape> BiEncoder::ParameterShapes(
    const BiEncoderConfig& config) {
  const std::size_t buckets = config.features.hasher.num_buckets;
  const std::size_t d = config.dim;
  return {{"mention_table", buckets, d}, {"mention_proj", d, d},
          {"mention_bias", 1, d},        {"entity_table", buckets, d},
          {"entity_proj", d, d},         {"entity_bias", 1, d}};
}

BiEncoder::BiEncoder(BiEncoderConfig config, util::Rng* rng)
    : config_(config), featurizer_(config.features) {
  const std::size_t buckets = featurizer_.num_buckets();
  const std::size_t d = config_.dim;
  // Small-normal embedding init keeps initial bag norms well-scaled.
  mention_table_ = params_.CreateEmbedding("mention_table", buckets, d, 0.1f, rng);
  mention_proj_ = params_.CreateXavier("mention_proj", d, d, rng);
  mention_bias_ = params_.Create("mention_bias", 1, d);
  entity_table_ = params_.CreateEmbedding("entity_table", buckets, d, 0.1f, rng);
  entity_proj_ = params_.CreateXavier("entity_proj", d, d, rng);
  entity_bias_ = params_.Create("entity_bias", 1, d);
}

tensor::Var BiEncoder::EncodeBags(
    tensor::Graph* graph, std::vector<std::vector<std::uint32_t>> bags,
    tensor::Parameter* table, tensor::Parameter* proj,
    tensor::Parameter* bias) const {
  (void)bias;
  tensor::Var pooled = graph->EmbeddingBagMean(table, std::move(bags));
  tensor::Var hidden = graph->Tanh(pooled);
  // No bias before the L2 normalization: a shared offset direction adds a
  // large example-independent component to every per-example gradient,
  // which drowns the meta reweighting signal (gradient dot products).
  tensor::Var projected = graph->MatMul(hidden, graph->Param(proj));
  return graph->RowL2Normalize(projected);
}

tensor::Var BiEncoder::EncodeMentions(
    tensor::Graph* graph,
    const std::vector<data::LinkingExample>& examples) const {
  std::vector<std::vector<std::uint32_t>> bags;
  bags.reserve(examples.size());
  for (const auto& ex : examples) bags.push_back(featurizer_.MentionBag(ex));
  return EncodeBags(graph, std::move(bags), mention_table_, mention_proj_,
                    mention_bias_);
}

tensor::Var BiEncoder::EncodeEntities(
    tensor::Graph* graph, const std::vector<kb::Entity>& entities) const {
  std::vector<std::vector<std::uint32_t>> bags;
  bags.reserve(entities.size());
  for (const auto& e : entities) bags.push_back(featurizer_.EntityBag(e));
  return EncodeBags(graph, std::move(bags), entity_table_, entity_proj_,
                    entity_bias_);
}

tensor::Var BiEncoder::InBatchLoss(
    tensor::Graph* graph, const std::vector<data::LinkingExample>& examples,
    const kb::KnowledgeBase& kb) const {
  std::vector<kb::Entity> entities;
  entities.reserve(examples.size());
  for (const auto& ex : examples) entities.push_back(kb.entity(ex.entity_id));
  tensor::Var mentions = EncodeMentions(graph, examples);
  tensor::Var ents = EncodeEntities(graph, entities);
  return InBatchSoftmax(graph, mentions, ents, examples.size());
}

tensor::Var BiEncoder::InBatchLoss(
    tensor::Graph* graph, std::vector<std::vector<std::uint32_t>> mention_bags,
    std::vector<std::vector<std::uint32_t>> entity_bags) const {
  METABLINK_CHECK(mention_bags.size() == entity_bags.size())
      << "one gold entity bag per mention bag";
  const std::size_t n = mention_bags.size();
  tensor::Var mentions = EncodeBags(graph, std::move(mention_bags),
                                    mention_table_, mention_proj_,
                                    mention_bias_);
  tensor::Var ents = EncodeBags(graph, std::move(entity_bags), entity_table_,
                                entity_proj_, entity_bias_);
  return InBatchSoftmax(graph, mentions, ents, n);
}

tensor::Var BiEncoder::InBatchSoftmax(tensor::Graph* graph,
                                      tensor::Var mentions,
                                      tensor::Var ents,
                                      std::size_t n) const {
  // Scores scaled up so softmax over unit-vector dot products (range
  // [-1, 1]) has usable dynamic range — a fixed inverse temperature.
  tensor::Var scores = graph->Scale(graph->MatMulTransposeB(mentions, ents),
                                    10.0f);
  std::vector<std::size_t> targets(n);
  std::iota(targets.begin(), targets.end(), 0);
  return graph->SoftmaxCrossEntropy(scores, std::move(targets));
}

tensor::Tensor BiEncoder::EmbedEntityIds(const std::vector<kb::EntityId>& ids,
                                         const kb::KnowledgeBase& kb) const {
  std::vector<kb::Entity> entities;
  entities.reserve(ids.size());
  for (kb::EntityId id : ids) entities.push_back(kb.entity(id));
  tensor::Graph graph;
  tensor::Var v = EncodeEntities(&graph, entities);
  return graph.value(v);
}

tensor::Tensor BiEncoder::EmbedMentions(
    const std::vector<data::LinkingExample>& examples) const {
  tensor::Graph graph;
  tensor::Var v = EncodeMentions(&graph, examples);
  return graph.value(v);
}

namespace {

// The tower's first half for one bag: adds the mean of the bag's table rows
// to row[0, d) — the same BagRowChain gather as Graph::EmbeddingBagMean's
// forward — then applies tanh in place.
void PoolRowInto(const tensor::Parameter& table,
                 const std::vector<std::uint32_t>& bag, float* row,
                 std::size_t d) {
  if (!bag.empty()) {
    for (std::uint32_t id : bag) {
      METABLINK_CHECK(id < table.value.rows()) << "embedding id out of range";
    }
    tensor::BagRowChain(bag.data(), bag.size(),
                        1.0f / static_cast<float>(bag.size()),
                        table.value.data().data(), row, d);
  }
  tensor::Tanh(row, d);
}

// The second half over n pooled rows: projection through the same serial
// blocked kernel Graph::MatMul uses, into the zeroed `out`, then row L2
// normalization by Graph::RowL2Normalize's formula (norm floored at the
// same epsilon).
void ProjectRows(const tensor::Parameter& proj, const float* hidden,
                 std::size_t n, std::size_t d, float* out) {
  tensor::GemmRaw(hidden, proj.value.data().data(), out, n, d, d);
  constexpr float kEps = 1e-8f;
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out + i * d;
    const float n2 = tensor::Dot(row, row, d);
    const float inv = 1.0f / std::max(std::sqrt(n2), kEps);
    for (std::size_t c = 0; c < d; ++c) row[c] *= inv;
  }
}

}  // namespace

void BiEncoder::EncodeBagsInference(std::size_t n,
                                    const tensor::Parameter& table,
                                    const tensor::Parameter& proj,
                                    EncodeScratch* scratch,
                                    tensor::Tensor* out) const {
  const std::size_t d = config_.dim;
  METABLINK_CHECK(scratch->bags.size() >= n) << "not enough featurized bags";
  scratch->hidden.Resize(n, d);
  for (std::size_t b = 0; b < n; ++b) {
    PoolRowInto(table, scratch->bags[b], scratch->hidden.row_data(b), d);
  }
  out->Resize(n, d);
  ProjectRows(proj, scratch->hidden.data().data(), n, d, out->data().data());
}

void BiEncoder::EntityHiddenRowInto(const std::vector<std::uint32_t>& bag,
                                    float* row) const {
  PoolRowInto(*entity_table_, bag, row, config_.dim);
}

void BiEncoder::ProjectEntityRowsInference(const float* hidden, std::size_t n,
                                           float* out) const {
  ProjectRows(*entity_proj_, hidden, n, config_.dim, out);
}

void BiEncoder::EncodeMentionsInference(
    const std::vector<data::LinkingExample>& examples, EncodeScratch* scratch,
    tensor::Tensor* out) const {
  const std::size_t n = examples.size();
  if (scratch->bags.size() < n) scratch->bags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    featurizer_.MentionBagInto(examples[i], &scratch->bags[i]);
  }
  EncodeBagsInference(n, *mention_table_, *mention_proj_, scratch, out);
}

void BiEncoder::EncodeEntitiesInference(
    const std::vector<kb::Entity>& entities, EncodeScratch* scratch,
    tensor::Tensor* out) const {
  const std::size_t n = entities.size();
  if (scratch->bags.size() < n) scratch->bags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    featurizer_.EntityBagInto(entities[i], &scratch->bags[i]);
  }
  EncodeBagsInference(n, *entity_table_, *entity_proj_, scratch, out);
}

void BiEncoder::EncodeMentionBagsInference(std::size_t n,
                                           EncodeScratch* scratch,
                                           tensor::Tensor* out) const {
  EncodeBagsInference(n, *mention_table_, *mention_proj_, scratch, out);
}

void BiEncoder::SaveCheckpoint(store::CheckpointWriter* ckpt) const {
  util::BinaryWriter* config = ckpt->AddSection("bi_config");
  config->WriteU64(config_.dim);
  SaveFeatureConfig(config_.features, config);
  params_.Save(ckpt->AddSection("bi_params"));
}

util::Result<BiEncoderConfig> BiEncoder::ReadConfig(
    const store::CheckpointReader& ckpt) {
  auto section = ckpt.Section("bi_config");
  if (!section.ok()) return section.status();
  BiEncoderConfig config;
  std::uint64_t dim = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&dim));
  config.dim = static_cast<std::size_t>(dim);
  METABLINK_RETURN_IF_ERROR(LoadFeatureConfig(&*section, &config.features));
  return config;
}

util::Status BiEncoder::LoadCheckpoint(const store::CheckpointReader& ckpt) {
  auto stored = ReadConfig(ckpt);
  if (!stored.ok()) return stored.status();
  if (stored->dim != config_.dim ||
      !FeatureConfigsMatch(stored->features, config_.features)) {
    return util::Status::InvalidArgument(
        "bi-encoder checkpoint config does not match this model");
  }
  auto section = ckpt.Section("bi_params");
  if (!section.ok()) return section.status();
  return params_.Load(&*section);
}

util::Result<std::unique_ptr<BiEncoder>> BiEncoder::FromCheckpoint(
    const store::CheckpointReader& ckpt) {
  auto config = ReadConfig(ckpt);
  if (!config.ok()) return config.status();
  auto section = ckpt.Section("bi_params");
  if (!section.ok()) return section.status();
  METABLINK_RETURN_IF_ERROR(tensor::ParameterStore::CheckSaved(
      std::move(*section), ParameterShapes(*config)));
  auto model = std::make_unique<BiEncoder>(*config, /*rng=*/nullptr);
  METABLINK_RETURN_IF_ERROR(model->LoadCheckpoint(ckpt));
  return model;
}

}  // namespace metablink::model
