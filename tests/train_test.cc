#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <set>

#include "data/generator.h"
#include "gen/bad_data.h"
#include "tensor/grad_workspace.h"
#include "tensor/optimizer.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "train/dl4el_trainer.h"
#include "train/featurized.h"
#include "train/meta_trainer.h"

namespace metablink::train {
namespace {

model::BiEncoderConfig SmallBiConfig() {
  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 1024;
  cfg.dim = 16;
  return cfg;
}

model::CrossEncoderConfig SmallCrossConfig() {
  model::CrossEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 1024;
  cfg.dim = 16;
  cfg.hidden = 16;
  return cfg;
}

class TrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 77;
    opts.shared_vocab_size = 300;
    opts.domain_vocab_size = 150;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "d";
    specs[0].num_entities = 60;
    specs[0].num_examples = 240;
    specs[0].num_documents = 60;
    corpus_ = std::make_unique<data::Corpus>(
        std::move(*gen.Generate(specs)));
  }

  std::unique_ptr<data::Corpus> corpus_;
};

// ---- BiEncoderTrainer ------------------------------------------------------

TEST_F(TrainTest, BiTrainerReducesLoss) {
  util::Rng rng(1);
  model::BiEncoder model(SmallBiConfig(), &rng);
  TrainOptions opts;
  opts.epochs = 4;
  opts.batch_size = 16;
  BiEncoderTrainer trainer(opts);
  auto result = trainer.Train(&model, corpus_->kb, corpus_->ExamplesIn("d"));
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->epoch_losses.size(), 2u);
  EXPECT_LT(result->epoch_losses.back(), result->epoch_losses.front());
  EXPECT_GT(result->steps, 0u);
}

TEST_F(TrainTest, BiTrainerRejectsEmptyAndMisalignedWeights) {
  // Train takes no weights any more, so only the empty half remains.
  util::Rng rng(1);
  model::BiEncoder model(SmallBiConfig(), &rng);
  BiEncoderTrainer trainer;
  EXPECT_FALSE(trainer.Train(&model, corpus_->kb, {}).ok());
}

TEST_F(TrainTest, BiTrainerMaxStepsCap) {
  util::Rng rng(1);
  model::BiEncoder model(SmallBiConfig(), &rng);
  TrainOptions opts;
  opts.epochs = 100;
  opts.max_steps = 3;
  BiEncoderTrainer trainer(opts);
  auto result = trainer.Train(&model, corpus_->kb, corpus_->ExamplesIn("d"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, 3u);
}

// ---- MineCrossTrainingSet --------------------------------------------------

TEST(MineCrossTest, KeepsGoldAndDropsMisses) {
  std::vector<data::LinkingExample> examples(2);
  examples[0].entity_id = 7;
  examples[1].entity_id = 99;  // never retrieved
  std::vector<std::vector<retrieval::ScoredEntity>> lists = {
      {{3, 1.0f}, {7, 0.9f}, {5, 0.8f}},
      {{3, 1.0f}, {5, 0.9f}},
  };
  auto mined = MineCrossTrainingSet(examples, lists, 8);
  ASSERT_EQ(mined.size(), 1u);
  EXPECT_EQ(mined[0].candidates.size(), 3u);
  EXPECT_EQ(mined[0].gold_index, 1u);
  EXPECT_EQ(mined[0].candidates[1], 7u);
}

TEST(MineCrossTest, TruncationPreservesGold) {
  std::vector<data::LinkingExample> examples(1);
  examples[0].entity_id = 9;
  std::vector<std::vector<retrieval::ScoredEntity>> lists = {
      {{1, 1.0f}, {2, 0.9f}, {3, 0.8f}, {9, 0.7f}},
  };
  auto mined = MineCrossTrainingSet(examples, lists, 2);
  ASSERT_EQ(mined.size(), 1u);
  ASSERT_EQ(mined[0].candidates.size(), 2u);
  EXPECT_EQ(mined[0].candidates[mined[0].gold_index], 9u);
}

// ---- CrossEncoderTrainer ---------------------------------------------------

TEST_F(TrainTest, CrossTrainerReducesLoss) {
  util::Rng rng(2);
  model::CrossEncoder model(SmallCrossConfig(), &rng);
  // Build instances: gold + 3 random negatives per example.
  util::Rng neg_rng(3);
  std::vector<CrossInstance> instances;
  const auto& pool = corpus_->kb.EntitiesInDomain("d");
  for (const auto& ex : corpus_->ExamplesIn("d")) {
    CrossInstance inst;
    inst.example = ex;
    inst.candidates.push_back(ex.entity_id);
    inst.gold_index = 0;
    for (int i = 0; i < 3; ++i) {
      inst.candidates.push_back(pool[neg_rng.NextUint64(pool.size())]);
    }
    instances.push_back(std::move(inst));
    if (instances.size() >= 60) break;
  }
  TrainOptions opts;
  opts.epochs = 3;
  CrossEncoderTrainer trainer(opts);
  auto result = trainer.Train(&model, corpus_->kb, instances);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->epoch_losses.back(), result->epoch_losses.front());
}

TEST_F(TrainTest, CrossTrainerRejectsEmpty) {
  util::Rng rng(2);
  model::CrossEncoder model(SmallCrossConfig(), &rng);
  CrossEncoderTrainer trainer;
  EXPECT_FALSE(trainer.Train(&model, corpus_->kb, {}).ok());
}

// ---- MetaReweightTrainer ---------------------------------------------------

TEST_F(TrainTest, MetaStepWeightsNormalized) {
  util::Rng rng(4);
  model::BiEncoder model(SmallBiConfig(), &rng);
  const kb::KnowledgeBase* kb = &corpus_->kb;
  model::BiEncoder* m = &model;
  MetaTrainOptions opts;
  MetaReweightTrainer meta(opts, model.params(),
                           [m, kb](tensor::Graph* g,
                                   const std::vector<data::LinkingExample>&
                                       batch) {
                             return m->InBatchLoss(g, batch, *kb);
                           });
  const auto& examples = corpus_->ExamplesIn("d");
  std::vector<data::LinkingExample> syn(examples.begin(),
                                        examples.begin() + 12);
  std::vector<data::LinkingExample> seed(examples.begin() + 12,
                                         examples.begin() + 20);
  auto weights = meta.Step(syn, seed);
  ASSERT_TRUE(weights.ok());
  ASSERT_EQ(weights->size(), 12u);
  float total = std::accumulate(weights->begin(), weights->end(), 0.0f);
  for (float w : *weights) EXPECT_GE(w, 0.0f);
  EXPECT_TRUE(std::abs(total - 1.0f) < 1e-4 || total == 0.0f);
  EXPECT_EQ(meta.result().steps, 1u);
}

TEST_F(TrainTest, MetaRejectsDegenerateInputs) {
  util::Rng rng(4);
  model::BiEncoder model(SmallBiConfig(), &rng);
  MetaReweightTrainer meta(
      MetaTrainOptions{}, model.params(),
      [](tensor::Graph*, const std::vector<data::LinkingExample>&) {
        return tensor::Var{};
      });
  const auto& examples = corpus_->ExamplesIn("d");
  std::vector<data::LinkingExample> one(examples.begin(),
                                        examples.begin() + 1);
  std::vector<data::LinkingExample> some(examples.begin(),
                                         examples.begin() + 4);
  EXPECT_FALSE(meta.Step(one, some).ok());
  EXPECT_FALSE(meta.Step(some, {}).ok());
  EXPECT_FALSE(meta.Train(one, some).ok());
  EXPECT_FALSE(meta.Train(some, {}).ok());
}

// The Fig. 4 property in miniature, with alignments computed by `mode`:
// after warming up on the trusted seed and meta-training on a mixture of
// gold-consistent and deliberately mislabeled synthetic data, the bad
// population must receive a lower selection ratio.
void ExpectMetaDownweightsInjectedBadData(MetaGrad mode) {
  // Needs a roomy hash space: heavy collisions destroy
  // the per-example gradient signal.
  data::GeneratorOptions gopts;
  gopts.seed = 77;
  gopts.shared_vocab_size = 300;
  gopts.domain_vocab_size = 150;
  data::ZeshelLikeGenerator gen(gopts);
  std::vector<data::DomainSpec> specs(1);
  specs[0].name = "d";
  specs[0].num_entities = 150;
  specs[0].num_examples = 600;
  auto corpus = gen.Generate(specs);
  ASSERT_TRUE(corpus.ok());

  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 4096;
  cfg.dim = 32;
  util::Rng rng(5);
  model::BiEncoder model(cfg, &rng);
  const auto& examples = corpus->ExamplesIn("d");
  std::vector<data::LinkingExample> good(examples.begin(),
                                         examples.begin() + 400);
  for (auto& g : good) g.source = data::ExampleSource::kRewritten;
  std::vector<data::LinkingExample> seed(examples.begin() + 400,
                                         examples.begin() + 450);
  util::Rng bad_rng(6);
  auto bad = gen::InjectBadData(corpus->kb, good, 200, &bad_rng);
  std::vector<data::LinkingExample> synthetic = good;
  synthetic.insert(synthetic.end(), bad.begin(), bad.end());

  // Warm up on the trusted seed so gradients are informative.
  TrainOptions warm;
  warm.epochs = 4;
  BiEncoderTrainer warm_trainer(warm);
  ASSERT_TRUE(warm_trainer.Train(&model, corpus->kb, seed).ok());

  const kb::KnowledgeBase* kb = &corpus->kb;
  model::BiEncoder* m = &model;
  MetaTrainOptions opts;
  opts.steps = 120;
  opts.batch_size = 16;
  opts.meta_grad = mode;
  MetaReweightTrainer meta(opts, model.params(),
                           [m, kb](tensor::Graph* g,
                                   const std::vector<data::LinkingExample>&
                                       batch) {
                             return m->InBatchLoss(g, batch, *kb);
                           });
  auto result = meta.Train(synthetic, seed);
  ASSERT_TRUE(result.ok());
  const auto& sel = result->selection;
  ASSERT_TRUE(sel.count(data::ExampleSource::kRewritten));
  ASSERT_TRUE(sel.count(data::ExampleSource::kInjectedBad));
  const double good_ratio =
      sel.at(data::ExampleSource::kRewritten).SelectedRatio();
  const double bad_ratio =
      sel.at(data::ExampleSource::kInjectedBad).SelectedRatio();
  EXPECT_GT(good_ratio, bad_ratio + 0.05)
      << "good=" << good_ratio << " bad=" << bad_ratio;
}

TEST_F(TrainTest, MetaDownweightsInjectedBadData) {
  ExpectMetaDownweightsInjectedBadData(MetaGrad::kPerExample);
}

TEST_F(TrainTest, JvpMetaDownweightsInjectedBadData) {
  ExpectMetaDownweightsInjectedBadData(MetaGrad::kJvp);
}

// ---- Featurize-once meta training ------------------------------------------

// Cross instances over examples [begin, end) of domain "d": the gold entity
// at position i % c among c - 1 distinct distractors.
std::vector<CrossInstance> MakeInstances(const data::Corpus& corpus,
                                         std::size_t begin, std::size_t end,
                                         std::size_t c) {
  const auto& examples = corpus.ExamplesIn("d");
  const auto& entities = corpus.kb.EntitiesInDomain("d");
  std::vector<CrossInstance> out;
  for (std::size_t i = begin; i < end; ++i) {
    CrossInstance inst;
    inst.example = examples[i];
    for (std::size_t j = 0; inst.candidates.size() + 1 < c; ++j) {
      const kb::EntityId id = entities[(7 * i + j) % entities.size()];
      if (id != inst.example.entity_id) inst.candidates.push_back(id);
    }
    inst.gold_index = i % c;
    inst.candidates.insert(inst.candidates.begin() + inst.gold_index,
                           inst.example.entity_id);
    out.push_back(std::move(inst));
  }
  return out;
}

// The cross-encoder meta loss over raw instances, featurizing every call:
// the reference the featurized RankingLossColumn must reproduce.
tensor::Var StringRankingLossColumn(const model::CrossEncoder& cross,
                                    const kb::KnowledgeBase& kb,
                                    tensor::Graph* graph,
                                    const std::vector<CrossInstance>& batch) {
  std::vector<tensor::Var> losses;
  losses.reserve(batch.size());
  for (const CrossInstance& inst : batch) {
    std::vector<kb::Entity> entities;
    entities.reserve(inst.candidates.size());
    for (kb::EntityId id : inst.candidates) entities.push_back(kb.entity(id));
    losses.push_back(
        cross.RankingLoss(graph, inst.example, entities, inst.gold_index));
  }
  return graph->ConcatRows(losses);
}

// Two selection maps hold the same counts and the same weight mass, bit
// for bit.
void ExpectSameSelection(const MetaTrainResult& a, const MetaTrainResult& b) {
  ASSERT_EQ(a.selection.size(), b.selection.size());
  for (const auto& [source, stats] : a.selection) {
    ASSERT_TRUE(b.selection.count(source));
    const SelectionStats& other = b.selection.at(source);
    EXPECT_EQ(stats.seen, other.seen);
    EXPECT_EQ(stats.selected, other.selected);
    EXPECT_EQ(stats.weight_mass, other.weight_mass);
  }
}

TEST_F(TrainTest, FeaturizedBiMetaTrainingMatchesStringLoss) {
  const auto& examples = corpus_->ExamplesIn("d");
  std::vector<data::LinkingExample> syn(examples.begin(),
                                        examples.begin() + 80);
  for (std::size_t i = 0; i < syn.size(); i += 3) {
    syn[i].source = data::ExampleSource::kRewritten;
  }
  std::vector<data::LinkingExample> seed(examples.begin() + 80,
                                         examples.begin() + 100);
  MetaTrainOptions opts;
  opts.steps = 6;
  opts.batch_size = 12;
  opts.meta_batch_size = 6;
  const kb::KnowledgeBase* kb = &corpus_->kb;

  util::Rng plain_rng(11);
  model::BiEncoder plain(SmallBiConfig(), &plain_rng);
  model::BiEncoder* p = &plain;
  MetaReweightTrainer strings(
      opts, plain.params(),
      [p, kb](tensor::Graph* g,
              const std::vector<data::LinkingExample>& batch) {
        return p->InBatchLoss(g, batch, *kb);
      });
  auto want = strings.Train(syn, seed);
  ASSERT_TRUE(want.ok());

  util::Rng rng(11);
  model::BiEncoder model(SmallBiConfig(), &rng);
  const model::BiEncoder* m = &model;
  TrainingFeatures features(model.featurizer(), *kb);
  FeaturizedMetaTrainer records(
      opts, model.params(),
      [m](tensor::Graph* g, const std::vector<FeaturizedExample>& batch) {
        return InBatchLoss(*m, g, batch);
      });
  auto got = records.Train(features.Examples(syn), features.Examples(seed));
  ASSERT_TRUE(got.ok());

  EXPECT_EQ(got->steps, want->steps);
  EXPECT_EQ(model.params()->ValuesCrc32(), plain.params()->ValuesCrc32());
  ExpectSameSelection(*want, *got);
}

TEST_F(TrainTest, FeaturizedCrossMetaTrainingMatchesStringLoss) {
  std::vector<CrossInstance> syn = MakeInstances(*corpus_, 0, 40, 6);
  for (std::size_t i = 0; i < syn.size(); i += 2) {
    syn[i].example.source = data::ExampleSource::kRewritten;
  }
  const std::vector<CrossInstance> seed = MakeInstances(*corpus_, 40, 52, 6);
  MetaTrainOptions opts;
  opts.steps = 5;
  opts.batch_size = 6;
  opts.meta_batch_size = 4;
  const kb::KnowledgeBase* kb = &corpus_->kb;

  util::Rng plain_rng(12);
  model::CrossEncoder plain(SmallCrossConfig(), &plain_rng);
  const model::CrossEncoder* p = &plain;
  CrossMetaTrainer strings(
      opts, plain.params(),
      [p, kb](tensor::Graph* g, const std::vector<CrossInstance>& batch) {
        return StringRankingLossColumn(*p, *kb, g, batch);
      });
  auto want = strings.Train(syn, seed);
  ASSERT_TRUE(want.ok());

  util::Rng rng(12);
  model::CrossEncoder model(SmallCrossConfig(), &rng);
  const model::CrossEncoder* m = &model;
  TrainingFeatures features(model.featurizer(), *kb);
  FeaturizedCrossMetaTrainer records(
      opts, model.params(),
      [m](tensor::Graph* g, const std::vector<FeaturizedInstance>& batch) {
        return RankingLossColumn(*m, g, batch);
      });
  auto got =
      records.Train(features.Instances(syn), features.Instances(seed));
  ASSERT_TRUE(got.ok());

  EXPECT_EQ(got->steps, want->steps);
  EXPECT_EQ(model.params()->ValuesCrc32(), plain.params()->ValuesCrc32());
  ExpectSameSelection(*want, *got);
}

// ---- Cross-encoder forward-mode alignments -----------------------------------

TEST_F(TrainTest, CrossJvpMatchesPerExampleBackwardDots) {
  // The cross-encoder meta loss the pipeline trains with: each instance's
  // ranking loss over its featurized candidates, stacked into one column.
  const auto instances = MakeInstances(*corpus_, 60, 68, 6);
  util::Rng rng(10);
  model::CrossEncoder model(SmallCrossConfig(), &rng);
  TrainingFeatures features(model.featurizer(), corpus_->kb);
  const auto batch = features.Instances(instances);
  tensor::Graph g;
  tensor::Var losses = RankingLossColumn(model, &g, batch);

  // Every op of that closure has its forward-mode rule exercised here.
  std::set<tensor::OpKind> kinds;
  for (const tensor::TapeOp& op : g.DebugTape()) kinds.insert(op.kind);
  for (tensor::OpKind kind :
       {tensor::OpKind::kEmbeddingBagMean, tensor::OpKind::kTanh,
        tensor::OpKind::kBroadcastRow, tensor::OpKind::kConcatCols,
        tensor::OpKind::kMul, tensor::OpKind::kInput, tensor::OpKind::kParam,
        tensor::OpKind::kMatMul, tensor::OpKind::kAddBiasRow,
        tensor::OpKind::kReshape, tensor::OpKind::kSoftmaxCrossEntropy,
        tensor::OpKind::kConcatRows}) {
    EXPECT_TRUE(kinds.count(kind)) << tensor::OpKindName(kind);
  }

  // A deterministic dense direction in Parameter::grad: the state the meta
  // trainer leaves after the seed-batch backward (g_meta).
  model.params()->ZeroGrads();
  util::Rng dir_rng(11);
  for (const auto& p : model.params()->parameters()) {
    for (std::size_t r = 0; r < p->grad.rows(); ++r) {
      for (std::size_t c = 0; c < p->grad.cols(); ++c) {
        p->grad.at(r, c) = dir_rng.NextFloat(-0.05f, 0.05f);
      }
      p->TouchRow(static_cast<std::uint32_t>(r));
    }
  }
  const std::vector<float> direction = model.params()->FlattenGrads();
  const tensor::Tensor tangent = g.Jvp(losses);
  ASSERT_EQ(tangent.rows(), batch.size());

  std::vector<float> one_hot(batch.size(), 0.0f);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    one_hot[j] = 1.0f;
    model.params()->ZeroGrads();
    tensor::GradWorkspace ws;
    g.BackwardWithSeed(losses, one_hot, &ws);
    one_hot[j] = 0.0f;
    const double reverse = model.params()->GradDot(direction);
    EXPECT_NEAR(tangent.at(j, 0), reverse, 1e-4 * (1.0 + std::abs(reverse)))
        << "instance " << j;
  }
}

TEST_F(TrainTest, CrossJvpStepMatchesSerialPerExample) {
  // One CrossMetaTrainer::Step in the default (kJvp) mode against the serial
  // per-example reference: the same example weights within 1e-5. (Not the
  // updated model: Adam's first step is ~lr * sign(g), so a gradient within
  // rounding of zero may land either side.)
  const auto syn = MakeInstances(*corpus_, 100, 110, 6);
  const auto seed = MakeInstances(*corpus_, 110, 116, 6);
  util::Rng rng(12);
  model::CrossEncoder model(SmallCrossConfig(), &rng);
  const model::CrossEncoder* m = &model;
  const kb::KnowledgeBase* kb = &corpus_->kb;
  const std::vector<float> initial = model.params()->FlattenValues();

  auto step = [&](MetaGrad mode, std::vector<float>* weights) {
    ASSERT_TRUE(model.params()->LoadValues(initial).ok());
    MetaTrainOptions opts;
    opts.meta_grad = mode;
    CrossMetaTrainer meta(
        opts, model.params(),
        [m, kb](tensor::Graph* g, const std::vector<CrossInstance>& batch) {
          return StringRankingLossColumn(*m, *kb, g, batch);
        });
    auto w = meta.Step(syn, seed);
    ASSERT_TRUE(w.ok());
    *weights = *w;
  };

  std::vector<float> serial, jvp;
  ASSERT_NO_FATAL_FAILURE(step(MetaGrad::kPerExample, &serial));
  ASSERT_EQ(MetaTrainOptions{}.meta_grad, MetaGrad::kJvp);
  ASSERT_NO_FATAL_FAILURE(step(MetaGrad::kJvp, &jvp));

  ASSERT_EQ(serial.size(), syn.size());
  ASSERT_EQ(jvp.size(), syn.size());
  // Not the δ-guarded all-zero case, so the check has teeth.
  EXPECT_GT(*std::max_element(serial.begin(), serial.end()), 0.0f);
  for (std::size_t j = 0; j < syn.size(); ++j) {
    EXPECT_NEAR(serial[j], jvp[j], 1e-5f) << "instance " << j;
  }
}

TEST_F(TrainTest, MetaPhasesAreNonNegativeAndWithinTrainWallTime) {
  util::Rng rng(13);
  model::BiEncoder model(SmallBiConfig(), &rng);
  const model::BiEncoder* m = &model;
  const auto& examples = corpus_->ExamplesIn("d");
  std::vector<data::LinkingExample> syn(examples.begin(),
                                        examples.begin() + 40);
  std::vector<data::LinkingExample> seed(examples.begin() + 40,
                                         examples.begin() + 50);
  TrainingFeatures features(model.featurizer(), corpus_->kb);
  MetaTrainOptions opts;
  opts.steps = 5;
  opts.batch_size = 8;
  FeaturizedMetaTrainer meta(
      opts, model.params(),
      [m](tensor::Graph* g, const std::vector<FeaturizedExample>& batch) {
        return InBatchLoss(*m, g, batch);
      });
  const auto syn_records = features.Examples(syn);
  const auto seed_records = features.Examples(seed);
  const auto start = std::chrono::steady_clock::now();
  auto result = meta.Train(syn_records, seed_records);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_TRUE(result.ok());
  const MetaPhaseSeconds& ph = result->phases;
  for (double phase : {ph.seed, ph.synthetic_forward, ph.alignment,
                       ph.weighted_backward, ph.optimizer}) {
    EXPECT_GE(phase, 0.0);
  }
  EXPECT_GT(ph.Total(), 0.0);
  EXPECT_LE(ph.Total(), wall);
}

// ---- Dl4elTrainer ----------------------------------------------------------

TEST(Dl4elTest, SelectionWeightsSumToOneAndFavorLowLoss) {
  Dl4elOptions opts;
  opts.noise_ratio = 0.5;
  opts.kl_mix = 0.2f;
  Dl4elTrainer trainer(opts);
  std::vector<float> losses = {0.1f, 5.0f, 0.2f, 4.0f};
  auto w = trainer.SelectionWeights(losses);
  ASSERT_EQ(w.size(), 4u);
  float total = std::accumulate(w.begin(), w.end(), 0.0f);
  EXPECT_NEAR(total, 1.0f, 1e-5);
  EXPECT_GT(w[0], w[1]);
  EXPECT_GT(w[2], w[3]);
}

TEST(Dl4elTest, FullKlMixIsUniform) {
  Dl4elOptions opts;
  opts.kl_mix = 1.0f;
  Dl4elTrainer trainer(opts);
  auto w = trainer.SelectionWeights({1.0f, 2.0f, 3.0f, 4.0f});
  for (float v : w) EXPECT_NEAR(v, 0.25f, 1e-5);
}

TEST(Dl4elTest, EmptyLossesHandled) {
  Dl4elTrainer trainer;
  EXPECT_TRUE(trainer.SelectionWeights({}).empty());
}

TEST_F(TrainTest, Dl4elTrainsEndToEnd) {
  util::Rng rng(7);
  model::BiEncoder model(SmallBiConfig(), &rng);
  Dl4elOptions opts;
  opts.train.epochs = 2;
  Dl4elTrainer trainer(opts);
  auto result = trainer.Train(&model, corpus_->kb, corpus_->ExamplesIn("d"));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->steps, 0u);
  EXPECT_FALSE(trainer.Train(&model, corpus_->kb, {}).ok());
}

TEST_F(TrainTest, Dl4elHonoursMaxSteps) {
  util::Rng rng(7);
  model::BiEncoder model(SmallBiConfig(), &rng);
  Dl4elOptions opts;
  opts.train.epochs = 100;
  opts.train.max_steps = 3;
  auto result = Dl4elTrainer(opts).Train(&model, corpus_->kb,
                                         corpus_->ExamplesIn("d"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, 3u);
  EXPECT_EQ(result->epoch_losses.size(), 1u);
}

// ---- The epoch loop against the string-taking losses -------------------------

// A step's loss column over the records at `rows`, or an invalid Var to skip
// the step.
using ReferenceLoss = std::function<tensor::Var(
    tensor::Graph*, const std::vector<std::size_t>& rows)>;

// The supervised loop as a test-local reference: Adam over `opts.epochs`
// shuffles of `n` records by an Rng seeded with `seed`, `step_rows` records
// a step, each loss row seeded with `rule(values)` (empty rule: 1/n), and
// at most `opts.max_steps` steps. Returns the number of steps.
std::size_t ReferenceEpochs(
    tensor::ParameterStore* params, std::size_t n, std::uint64_t seed,
    const TrainOptions& opts, std::size_t step_rows, const ReferenceLoss& loss,
    const std::function<std::vector<float>(const std::vector<float>&)>&
        rule) {
  util::Rng rng(seed);
  tensor::AdamOptimizer optimizer(opts.learning_rate);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::size_t steps = 0;
  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (std::size_t begin = 0; begin < n; begin += step_rows) {
      const std::vector<std::size_t> rows(
          order.begin() + begin, order.begin() + std::min(n, begin + step_rows));
      tensor::Graph graph;
      const tensor::Var losses = loss(&graph, rows);
      if (!losses.valid()) continue;
      std::vector<float> values(graph.value(losses).rows());
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = graph.value(losses).at(i, 0);
      }
      const std::vector<float> weights =
          rule ? rule(values)
               : std::vector<float>(values.size(), 1.0f / values.size());
      params->ZeroGrads();
      graph.BackwardWithSeed(losses, weights);
      optimizer.Step(params);
      if (++steps == opts.max_steps) return steps;
    }
  }
  return steps;
}

// The bi-encoder reference loss: BiEncoder::InBatchLoss over the raw
// examples at `rows`, skipping a batch of fewer than 2.
ReferenceLoss StringInBatchLoss(const model::BiEncoder& model,
                                const kb::KnowledgeBase& kb,
                                const std::vector<data::LinkingExample>& ex) {
  return [&model, &kb, &ex](tensor::Graph* g,
                            const std::vector<std::size_t>& rows) {
    if (rows.size() < 2) return tensor::Var{};
    std::vector<data::LinkingExample> batch;
    for (std::size_t r : rows) batch.push_back(ex[r]);
    return model.InBatchLoss(g, batch, kb);
  };
}

TEST_F(TrainTest, BiTrainerMatchesStringLossLoop) {
  // 240 examples in batches of 17: every epoch ends in a batch of 2.
  const auto& examples = corpus_->ExamplesIn("d");
  TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 17;
  opts.max_steps = 40;  // stops inside the third epoch
  opts.seed = 5;
  util::Rng want_rng(21);
  model::BiEncoder want(SmallBiConfig(), &want_rng);
  const std::size_t want_steps = ReferenceEpochs(
      want.params(), examples.size(), opts.seed, opts, opts.batch_size,
      StringInBatchLoss(want, corpus_->kb, examples), nullptr);

  util::Rng rng(21);
  model::BiEncoder model(SmallBiConfig(), &rng);
  auto result = BiEncoderTrainer(opts).Train(&model, corpus_->kb, examples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, want_steps);
  EXPECT_EQ(want_steps, 40u);
  EXPECT_EQ(model.params()->ValuesCrc32(), want.params()->ValuesCrc32());
}

TEST_F(TrainTest, Dl4elTrainerMatchesStringLossLoop) {
  const std::vector<data::LinkingExample> examples(
      corpus_->ExamplesIn("d").begin(), corpus_->ExamplesIn("d").begin() + 97);
  Dl4elOptions opts;
  opts.train.epochs = 2;
  opts.train.batch_size = 12;  // every epoch ends in a skipped batch of 1
  opts.train.seed = 6;
  const Dl4elTrainer trainer(opts);
  util::Rng want_rng(22);
  model::BiEncoder want(SmallBiConfig(), &want_rng);
  const std::size_t want_steps = ReferenceEpochs(
      want.params(), examples.size(), opts.train.seed ^ 0xD14ELu, opts.train,
      opts.train.batch_size, StringInBatchLoss(want, corpus_->kb, examples),
      [&trainer](const std::vector<float>& losses) {
        return trainer.SelectionWeights(losses);
      });

  util::Rng rng(22);
  model::BiEncoder model(SmallBiConfig(), &rng);
  auto result = Dl4elTrainer(opts).Train(&model, corpus_->kb, examples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, want_steps);
  EXPECT_EQ(want_steps, 16u);
  EXPECT_EQ(model.params()->ValuesCrc32(), want.params()->ValuesCrc32());
}

TEST_F(TrainTest, CrossTrainerMatchesStringLossLoopOneInstanceAStep) {
  std::vector<CrossInstance> instances = MakeInstances(*corpus_, 0, 30, 5);
  instances[3].candidates.resize(1);  // fewer than 2 candidates: skipped
  instances[3].gold_index = 0;
  instances[3].candidates[0] = instances[3].example.entity_id;
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 8;  // ignored: one instance a step
  opts.seed = 9;
  util::Rng want_rng(23);
  model::CrossEncoder want(SmallCrossConfig(), &want_rng);
  const kb::KnowledgeBase& kb = corpus_->kb;
  const std::size_t want_steps = ReferenceEpochs(
      want.params(), instances.size(), opts.seed ^ 0xC105Eu, opts, 1,
      [&](tensor::Graph* g, const std::vector<std::size_t>& rows) {
        const CrossInstance& inst = instances[rows[0]];
        if (inst.candidates.size() < 2) return tensor::Var{};
        std::vector<kb::Entity> entities;
        for (kb::EntityId id : inst.candidates) {
          entities.push_back(kb.entity(id));
        }
        return want.RankingLoss(g, inst.example, entities, inst.gold_index);
      },
      nullptr);

  util::Rng rng(23);
  model::CrossEncoder model(SmallCrossConfig(), &rng);
  auto result = CrossEncoderTrainer(opts).Train(&model, kb, instances);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, want_steps);
  EXPECT_EQ(want_steps, 58u);
  EXPECT_EQ(model.params()->ValuesCrc32(), want.params()->ValuesCrc32());
}

// ---- parameterized: meta weight normalization ablation ----------------------

class MetaNormalizationSweep : public ::testing::TestWithParam<bool> {};

TEST_P(MetaNormalizationSweep, WeightsRespectMode) {
  data::GeneratorOptions gopts;
  gopts.seed = 9;
  gopts.shared_vocab_size = 200;
  gopts.domain_vocab_size = 100;
  data::ZeshelLikeGenerator gen(gopts);
  std::vector<data::DomainSpec> specs(1);
  specs[0].name = "d";
  specs[0].num_entities = 40;
  specs[0].num_examples = 60;
  auto corpus = gen.Generate(specs);
  ASSERT_TRUE(corpus.ok());

  util::Rng rng(10);
  model::BiEncoder model(SmallBiConfig(), &rng);
  MetaTrainOptions opts;
  opts.normalize_weights = GetParam();
  const kb::KnowledgeBase* kb = &corpus->kb;
  model::BiEncoder* m = &model;
  MetaReweightTrainer meta(opts, model.params(),
                           [m, kb](tensor::Graph* g,
                                   const std::vector<data::LinkingExample>&
                                       batch) {
                             return m->InBatchLoss(g, batch, *kb);
                           });
  const auto& ex = corpus->ExamplesIn("d");
  std::vector<data::LinkingExample> syn(ex.begin(), ex.begin() + 10);
  std::vector<data::LinkingExample> seed(ex.begin() + 10, ex.begin() + 18);
  auto weights = meta.Step(syn, seed);
  ASSERT_TRUE(weights.ok());
  float total = std::accumulate(weights->begin(), weights->end(), 0.0f);
  if (GetParam()) {
    EXPECT_LE(total, 1.0f + 1e-4);
  }
  for (float w : *weights) EXPECT_GE(w, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Modes, MetaNormalizationSweep, ::testing::Bool());

}  // namespace
}  // namespace metablink::train
