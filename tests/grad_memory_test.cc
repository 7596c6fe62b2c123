// Gradient buffers exist only while something writes gradients: a
// Parameter's `grad` is sized on first ZeroGrads or backward, read as zero
// while unsized, and released when a training loop returns. These tests pin
// that life cycle, and that models loaded for serving hold no gradients.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/generator.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "serve/linking_server.h"
#include "store/model_bundle.h"
#include "tensor/graph.h"
#include "tensor/optimizer.h"
#include "tensor/parameter.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "train/meta_trainer.h"
#include "util/rng.h"

namespace metablink {
namespace {

using tensor::Graph;
using tensor::Parameter;
using tensor::ParameterStore;
using tensor::Var;

// ---- Tensor level ------------------------------------------------------------

TEST(GradMemoryTest, NewParametersHoldNoGradient) {
  util::Rng rng(1);
  ParameterStore store;
  store.CreateXavier("w", 4, 3, &rng);
  store.CreateEmbedding("table", 64, 3, 0.1f, &rng);
  const ParameterStore::Bytes bytes = store.MemoryBytes();
  EXPECT_EQ(bytes.values, (4 * 3 + 64 * 3) * sizeof(float));
  EXPECT_EQ(bytes.grads, 0u);

  store.ZeroGrads();
  for (const auto& p : store.parameters()) {
    ASSERT_TRUE(p->has_grad());
    EXPECT_EQ(p->grad.rows(), p->value.rows());
    EXPECT_EQ(p->grad.cols(), p->value.cols());
  }
  EXPECT_GE(store.MemoryBytes().grads, bytes.values);
  store.ReleaseGrads();
  EXPECT_EQ(store.MemoryBytes().grads, 0u);
}

TEST(GradMemoryTest, BackwardOnNeverZeroedStoreAccumulates) {
  util::Rng rng(2);
  ParameterStore store;
  Parameter* w = store.Create("w", 2, 1);
  w->value.at(0, 0) = 1.5f;
  w->value.at(1, 0) = -2.0f;
  Parameter* table = store.CreateEmbedding("table", 8, 2, 0.1f, &rng);
  ASSERT_EQ(store.MemoryBytes().grads, 0u);

  // loss = sum(bags · w); bag 0 averages rows 1 and 3, bag 1 is row 3.
  Graph g;
  const Var emb = g.EmbeddingBagMean(table, {{1, 3}, {3}});
  const Var loss = g.Sum(g.MatMul(emb, g.Param(w)));
  g.Backward(loss);
  const tensor::Tensor& e = g.value(emb);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(w->grad.at(c, 0), e.at(0, c) + e.at(1, c));
  }
  EXPECT_EQ(table->touched_rows, (std::vector<std::uint32_t>{1, 3}));
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(table->grad.at(1, c), 0.5f * w->value.at(c, 0));
    EXPECT_EQ(table->grad.at(3, c), 1.5f * w->value.at(c, 0));
    EXPECT_EQ(table->grad.at(0, c), 0.0f);
  }

  // A second backward adds to what the first left.
  g.ResetGrads();
  g.Backward(loss);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(w->grad.at(c, 0), 2.0f * (e.at(0, c) + e.at(1, c)));
    EXPECT_EQ(table->grad.at(3, c), 3.0f * w->value.at(c, 0));
  }
  EXPECT_EQ(table->touched_rows.size(), 2u);

  // Released, the store backpropagates from zeros again.
  store.ReleaseGrads();
  g.ResetGrads();
  g.Backward(loss);
  EXPECT_EQ(w->grad.at(0, 0), e.at(0, 0) + e.at(1, 0));
  EXPECT_EQ(table->grad.at(3, 0), 1.5f * w->value.at(0, 0));
}

TEST(GradMemoryTest, UnsizedGradientsReadAsZero) {
  util::Rng rng(3);
  ParameterStore lazy, zeroed;
  for (ParameterStore* store : {&lazy, &zeroed}) {
    util::Rng init(4);
    store->CreateXavier("w", 3, 2, &init);
    store->CreateEmbedding("table", 16, 2, 0.1f, &init);
  }
  zeroed.ZeroGrads();

  EXPECT_EQ(lazy.FlattenGrads(), zeroed.FlattenGrads());
  EXPECT_EQ(lazy.FlattenGrads().size(), lazy.TotalSize());
  std::vector<float> snapshot(lazy.TotalSize());
  for (float& v : snapshot) v = rng.NextFloat(-1.0f, 1.0f);
  EXPECT_EQ(lazy.GradDot(snapshot), 0.0);

  // A step on unsized gradients is a step on zero gradients, weight decay
  // and momentum included, and it sizes nothing.
  tensor::AdamOptimizer adam_lazy(0.1f, 0.9f, 0.999f, 1e-8f, 0.01f);
  tensor::AdamOptimizer adam_zeroed(0.1f, 0.9f, 0.999f, 1e-8f, 0.01f);
  tensor::SgdOptimizer sgd_lazy(0.1f, 0.9f, 0.01f);
  tensor::SgdOptimizer sgd_zeroed(0.1f, 0.9f, 0.01f);
  for (int step = 0; step < 2; ++step) {
    adam_lazy.Step(&lazy);
    adam_zeroed.Step(&zeroed);
    sgd_lazy.Step(&lazy);
    sgd_zeroed.Step(&zeroed);
  }
  EXPECT_EQ(lazy.ValuesCrc32(), zeroed.ValuesCrc32());
  EXPECT_EQ(lazy.MemoryBytes().grads, 0u);
}

TEST(GradMemoryTest, JvpAlongUnsizedDirectionIsZero) {
  util::Rng rng(5);
  ParameterStore store;
  Parameter* w = store.CreateXavier("w", 2, 1, &rng);
  Parameter* table = store.CreateEmbedding("table", 8, 2, 0.1f, &rng);
  Graph g;
  const Var out = g.MatMul(g.EmbeddingBagMean(table, {{1, 2}, {5}}),
                           g.Param(w));
  const tensor::Tensor tangent = g.Jvp(out);
  ASSERT_EQ(tangent.size(), 2u);
  EXPECT_EQ(tangent.at(0, 0), 0.0f);
  EXPECT_EQ(tangent.at(1, 0), 0.0f);
  EXPECT_EQ(store.MemoryBytes().grads, 0u);
}

// ---- Trainers ------------------------------------------------------------------

model::BiEncoderConfig SmallBiConfig() {
  model::BiEncoderConfig config;
  config.features.hasher.num_buckets = 2048;
  config.dim = 16;
  return config;
}

model::CrossEncoderConfig SmallCrossConfig() {
  model::CrossEncoderConfig config;
  config.features.hasher.num_buckets = 2048;
  config.dim = 16;
  config.hidden = 16;
  return config;
}

class GradLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 91;
    opts.shared_vocab_size = 300;
    opts.domain_vocab_size = 150;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "target";
    specs[0].num_entities = 60;
    specs[0].num_examples = 120;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    examples_ = corpus_->ExamplesIn("target");
  }

  std::unique_ptr<model::BiEncoder> MakeBi(std::uint64_t seed = 5) const {
    util::Rng rng(seed);
    return std::make_unique<model::BiEncoder>(SmallBiConfig(), &rng);
  }

  std::unique_ptr<model::CrossEncoder> MakeCross(std::uint64_t seed = 6) const {
    util::Rng rng(seed);
    return std::make_unique<model::CrossEncoder>(SmallCrossConfig(), &rng);
  }

  /// Leaves `bi` the way a loop that kept its gradients would: every
  /// buffer sized, holding a real backward's values and touched rows.
  void LeaveStaleGradients(model::BiEncoder* bi) const {
    Graph g;
    const std::vector<data::LinkingExample> batch(examples_.begin(),
                                                  examples_.begin() + 8);
    const Var losses = bi->InBatchLoss(&g, batch, corpus_->kb);
    bi->params()->ZeroGrads();
    g.Backward(losses);
  }

  train::MetaReweightTrainer MakeMetaTrainer(model::BiEncoder* bi) const {
    train::MetaTrainOptions opts;
    opts.steps = 6;
    opts.batch_size = 8;
    opts.meta_batch_size = 4;
    opts.seed = 77;
    const kb::KnowledgeBase* kb = &corpus_->kb;
    return train::MetaReweightTrainer(
        opts, bi->params(),
        [bi, kb](Graph* g, const std::vector<data::LinkingExample>& batch) {
          return bi->InBatchLoss(g, batch, *kb);
        });
  }

  std::unique_ptr<data::Corpus> corpus_;
  std::vector<data::LinkingExample> examples_;
};

TEST_F(GradLifecycleTest, EpochTrainersReturnWithGradientsReleased) {
  train::TrainOptions opts;
  opts.epochs = 2;
  opts.seed = 11;
  auto lazy = MakeBi();
  auto stale = MakeBi();
  for (model::BiEncoder* bi : {lazy.get(), stale.get()}) {
    ASSERT_TRUE(train::BiEncoderTrainer(opts)
                    .Train(bi, corpus_->kb, examples_)
                    .ok());
    EXPECT_EQ(bi->params()->MemoryBytes().grads, 0u);
  }
  EXPECT_EQ(lazy->params()->ValuesCrc32(), stale->params()->ValuesCrc32());

  // A second Train starts from released buffers on one model and from a
  // previous step's leftovers on the other: the same weights either way.
  LeaveStaleGradients(stale.get());
  ASSERT_GT(stale->params()->MemoryBytes().grads, 0u);
  for (model::BiEncoder* bi : {lazy.get(), stale.get()}) {
    ASSERT_TRUE(train::BiEncoderTrainer(opts)
                    .Train(bi, corpus_->kb, examples_)
                    .ok());
    EXPECT_EQ(bi->params()->MemoryBytes().grads, 0u);
  }
  EXPECT_EQ(lazy->params()->ValuesCrc32(), stale->params()->ValuesCrc32());

  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  std::vector<train::CrossInstance> instances;
  for (std::size_t i = 0; i < 20; ++i) {
    train::CrossInstance inst;
    inst.example = examples_[i];
    inst.candidates = {examples_[i].entity_id, ids[i % ids.size()],
                       ids[(i + 7) % ids.size()]};
    instances.push_back(std::move(inst));
  }
  auto cross = MakeCross();
  opts.epochs = 1;
  ASSERT_TRUE(train::CrossEncoderTrainer(opts)
                  .Train(cross.get(), corpus_->kb, instances)
                  .ok());
  EXPECT_EQ(cross->params()->MemoryBytes().grads, 0u);
}

TEST_F(GradLifecycleTest, MetaTrainReturnsWithGradientsReleased) {
  const std::vector<data::LinkingExample> synthetic(examples_.begin(),
                                                    examples_.begin() + 64);
  const std::vector<data::LinkingExample> seeds(examples_.begin() + 64,
                                                examples_.begin() + 80);
  auto lazy = MakeBi();
  auto stale = MakeBi();
  {
    train::MetaReweightTrainer trainer = MakeMetaTrainer(lazy.get());
    ASSERT_TRUE(trainer.Step(synthetic, seeds).ok());
    // Step alone keeps its buffers; Train gives them back.
    EXPECT_GT(lazy->params()->MemoryBytes().grads, 0u);
    ASSERT_TRUE(trainer.Train(synthetic, seeds).ok());
    EXPECT_EQ(lazy->params()->MemoryBytes().grads, 0u);
  }
  {
    train::MetaReweightTrainer trainer = MakeMetaTrainer(stale.get());
    ASSERT_TRUE(trainer.Step(synthetic, seeds).ok());
    ASSERT_TRUE(trainer.Train(synthetic, seeds).ok());
  }
  EXPECT_EQ(lazy->params()->ValuesCrc32(), stale->params()->ValuesCrc32());

  // A second meta Train, from released buffers and from leftovers.
  LeaveStaleGradients(stale.get());
  for (model::BiEncoder* bi : {lazy.get(), stale.get()}) {
    train::MetaReweightTrainer trainer = MakeMetaTrainer(bi);
    ASSERT_TRUE(trainer.Train(synthetic, seeds).ok());
    EXPECT_EQ(bi->params()->MemoryBytes().grads, 0u);
  }
  EXPECT_EQ(lazy->params()->ValuesCrc32(), stale->params()->ValuesCrc32());
}

// ---- Serving -------------------------------------------------------------------

TEST_F(GradLifecycleTest, LoadedBundlesAndServedEpochsHoldNoGradients) {
  // A trained bi-encoder, as a fitted pipeline would package it.
  auto bi = MakeBi();
  auto cross = MakeCross();
  train::TrainOptions opts;
  opts.epochs = 1;
  ASSERT_TRUE(
      train::BiEncoderTrainer(opts).Train(bi.get(), corpus_->kb, examples_)
          .ok());
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  retrieval::DenseIndex index;
  ASSERT_TRUE(index.Build(bi->EmbedEntityIds(ids, corpus_->kb), ids).ok());
  store::ModelBundleParts parts;
  parts.model_version = 1;
  parts.domain = "target";
  parts.bi = bi.get();
  parts.cross = cross.get();
  parts.kb = &corpus_->kb;
  parts.index = &index;
  const std::string dir_a = ::testing::TempDir() + "metablink_grad_bundle_a";
  const std::string dir_b = ::testing::TempDir() + "metablink_grad_bundle_b";
  ASSERT_TRUE(store::SaveModelBundle(parts, dir_a).ok());
  parts.model_version = 2;
  ASSERT_TRUE(store::SaveModelBundle(parts, dir_b).ok());

  const std::size_t model_values = bi->params()->MemoryBytes().values +
                                   cross->params()->MemoryBytes().values;
  {
    auto bundle = store::LoadModelBundle(dir_a);
    ASSERT_TRUE(bundle.ok()) << bundle.status().message();
    EXPECT_EQ(bundle->bi->params()->MemoryBytes().grads, 0u);
    EXPECT_EQ(bundle->cross->params()->MemoryBytes().grads, 0u);
    EXPECT_EQ(bundle->bi->params()->ValuesCrc32(),
              bi->params()->ValuesCrc32());
  }

  serve::ServerOptions sopts;
  sopts.retrieve_k = 16;
  auto server = serve::LinkingServer::FromBundle(dir_a, sopts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_EQ((*server)->model_bytes().values, model_values);
  EXPECT_EQ((*server)->model_bytes().grads, 0u);
  const auto& ex = examples_.front();
  ASSERT_TRUE(
      (*server)->Link(ex.mention, ex.left_context, ex.right_context).ok());
  ASSERT_TRUE((*server)->SwapModel(dir_b).ok());
  EXPECT_EQ((*server)->Stats().model_version, 2u);
  EXPECT_EQ((*server)->model_bytes().values, model_values);
  EXPECT_EQ((*server)->model_bytes().grads, 0u);
  server->reset();
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

}  // namespace
}  // namespace metablink
