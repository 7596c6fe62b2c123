#include <gtest/gtest.h>

#include <algorithm>

#include "data/generator.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "model/cross_encoder.h"
#include "train/bi_trainer.h"

namespace metablink::eval {
namespace {

// ---- metrics ---------------------------------------------------------------

TEST(MetricsTest, RecallAtK) {
  std::vector<std::vector<retrieval::ScoredEntity>> lists = {
      {{1, 0.9f}, {2, 0.8f}},
      {{3, 0.9f}, {4, 0.8f}},
      {{5, 0.9f}},
  };
  std::vector<kb::EntityId> gold = {2, 9, 5};
  EXPECT_NEAR(RecallAtK(lists, gold), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(RecallAtK({}, {}), 0.0);
  EXPECT_EQ(RecallAtK(lists, {1}), 0.0);  // misaligned
}

TEST(MetricsTest, MakeEvalResultComposes) {
  EvalResult r = MakeEvalResult(100, 80, 40);
  EXPECT_DOUBLE_EQ(r.recall_at_k, 0.8);
  EXPECT_DOUBLE_EQ(r.normalized_acc, 0.5);
  EXPECT_DOUBLE_EQ(r.unnormalized_acc, 0.4);
  // The paper identity: U.Acc = recall * N.Acc.
  EXPECT_NEAR(r.unnormalized_acc, r.recall_at_k * r.normalized_acc, 1e-12);
}

TEST(MetricsTest, MakeEvalResultZeroSafe) {
  EvalResult r = MakeEvalResult(0, 0, 0);
  EXPECT_EQ(r.recall_at_k, 0.0);
  EXPECT_EQ(r.normalized_acc, 0.0);
  EXPECT_EQ(r.unnormalized_acc, 0.0);
}

// ---- name matching ---------------------------------------------------------

TEST(NameMatchingTest, CraftedCases) {
  kb::KnowledgeBase kb;
  kb::Entity e;
  e.domain = "d";
  e.title = "red dragon";
  e.description = "x";
  kb::EntityId dragon = *kb.AddEntity(e);
  e.title = "blue bird";
  kb::EntityId bird = *kb.AddEntity(e);
  (void)bird;

  std::vector<data::LinkingExample> examples(3);
  examples[0].mention = "red dragon";  // exact hit -> correct
  examples[0].entity_id = dragon;
  examples[1].mention = "the scaled one";  // alias, no match -> wrong
  examples[1].entity_id = dragon;
  examples[2].mention = "red";  // substring, no exact match -> wrong
  examples[2].entity_id = dragon;
  for (auto& ex : examples) ex.domain = "d";

  util::Rng rng(1);
  EXPECT_NEAR(NameMatchingAccuracy(kb, "d", examples, &rng), 1.0 / 3.0,
              1e-12);
  EXPECT_EQ(NameMatchingAccuracy(kb, "d", {}, &rng), 0.0);
}

TEST(NameMatchingTest, AmbiguousBaseIsChance) {
  kb::KnowledgeBase kb;
  kb::Entity e;
  e.domain = "d";
  e.description = "x";
  e.title = "sora (satellite)";
  kb::EntityId gold = *kb.AddEntity(e);
  e.title = "sora (program)";
  kb.AddEntity(e);

  std::vector<data::LinkingExample> examples(200);
  for (auto& ex : examples) {
    ex.mention = "sora";
    ex.entity_id = gold;
    ex.domain = "d";
  }
  util::Rng rng(2);
  double acc = NameMatchingAccuracy(kb, "d", examples, &rng);
  EXPECT_NEAR(acc, 0.5, 0.1);  // coin flip between the two siblings
}

// ---- two-stage evaluator ---------------------------------------------------

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 31;
    opts.shared_vocab_size = 300;
    opts.domain_vocab_size = 150;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "d";
    specs[0].num_entities = 50;
    specs[0].num_examples = 160;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
  }

  std::unique_ptr<data::Corpus> corpus_;
};

TEST_F(EvaluatorTest, TrainedBiEncoderBeatsUntrained) {
  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 2048;
  cfg.dim = 16;
  util::Rng rng(1);
  model::BiEncoder untrained(cfg, &rng);
  util::Rng rng2(1);
  model::BiEncoder trained(cfg, &rng2);

  auto split = data::MakeFewShotSplit(corpus_->ExamplesIn("d"), 120, 0, 5);
  train::TrainOptions topt;
  topt.epochs = 5;
  train::BiEncoderTrainer trainer(topt);
  ASSERT_TRUE(trainer.Train(&trained, corpus_->kb, split.train).ok());

  EvaluatorOptions eopt;
  eopt.k = 8;  // small k so recall is informative on 50 entities
  eopt.num_threads = 2;
  TwoStageEvaluator evaluator(eopt);
  auto before =
      evaluator.Evaluate(untrained, nullptr, corpus_->kb, "d", split.test);
  auto after =
      evaluator.Evaluate(trained, nullptr, corpus_->kb, "d", split.test);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->recall_at_k, before->recall_at_k);
  EXPECT_GT(after->unnormalized_acc, before->unnormalized_acc);
}

TEST_F(EvaluatorTest, ResultInvariantsHold) {
  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 1024;
  cfg.dim = 8;
  util::Rng rng(1);
  model::BiEncoder model(cfg, &rng);
  TwoStageEvaluator evaluator(EvaluatorOptions{.k = 16, .num_threads = 2});
  auto split = data::MakeFewShotSplit(corpus_->ExamplesIn("d"), 0, 0, 5);
  auto r = evaluator.Evaluate(model, nullptr, corpus_->kb, "d", split.test);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_examples, split.test.size());
  EXPECT_LE(r->num_top1, r->num_in_candidates);
  EXPECT_LE(r->num_in_candidates, r->num_examples);
  EXPECT_NEAR(r->unnormalized_acc, r->recall_at_k * r->normalized_acc, 1e-9);
}

TEST_F(EvaluatorTest, ErrorsOnBadInputs) {
  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 256;
  cfg.dim = 8;
  util::Rng rng(1);
  model::BiEncoder model(cfg, &rng);
  TwoStageEvaluator evaluator;
  EXPECT_FALSE(evaluator.Evaluate(model, nullptr, corpus_->kb, "d", {}).ok());
  std::vector<data::LinkingExample> one(1);
  EXPECT_FALSE(
      evaluator.Evaluate(model, nullptr, corpus_->kb, "nope", one).ok());
}

TEST_F(EvaluatorTest, RetrieveCandidatesShapes) {
  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 256;
  cfg.dim = 8;
  util::Rng rng(1);
  model::BiEncoder model(cfg, &rng);
  TwoStageEvaluator evaluator(EvaluatorOptions{.k = 10, .num_threads = 2});
  auto split = data::MakeFewShotSplit(corpus_->ExamplesIn("d"), 20, 0, 5);
  auto lists =
      evaluator.RetrieveCandidates(model, corpus_->kb, "d", split.train);
  ASSERT_TRUE(lists.ok());
  ASSERT_EQ(lists->size(), 20u);
  for (const auto& l : *lists) {
    EXPECT_EQ(l.size(), 10u);
    for (const auto& c : l) {
      EXPECT_EQ(corpus_->kb.entity(c.id).domain, "d");
    }
  }
}

// The tape-form reference of Evaluate: EmbedEntityIds rows, EmbedMentions
// queries, DenseIndex::TopK, then CrossEncoder::Score over the candidates,
// with the first maximum in retrieval order as the prediction (the top hit
// without a cross-encoder).
EvalResult TapeReference(const model::BiEncoder& bi,
                         const model::CrossEncoder* cross,
                         const kb::KnowledgeBase& kb,
                         const std::vector<data::LinkingExample>& examples,
                         std::size_t k) {
  const auto& ids = kb.EntitiesInDomain("d");
  retrieval::DenseIndex index;
  EXPECT_TRUE(index.Build(bi.EmbedEntityIds(ids, kb), ids).ok());
  const tensor::Tensor queries = bi.EmbedMentions(examples);
  std::size_t in_candidates = 0;
  std::size_t top1 = 0;
  for (std::size_t i = 0; i < examples.size(); ++i) {
    const auto cands = index.TopK(queries.row_data(i), k);
    bool found = false;
    for (const auto& c : cands) found = found || c.id == examples[i].entity_id;
    if (!found) continue;
    ++in_candidates;
    std::size_t best = 0;
    if (cross != nullptr) {
      std::vector<kb::Entity> entities;
      for (const auto& c : cands) entities.push_back(kb.entity(c.id));
      const std::vector<float> scores = cross->Score(examples[i], entities);
      best = static_cast<std::size_t>(
          std::max_element(scores.begin(), scores.end()) - scores.begin());
    }
    if (cands[best].id == examples[i].entity_id) ++top1;
  }
  return MakeEvalResult(examples.size(), in_candidates, top1);
}

TEST_F(EvaluatorTest, MatchesTapeReference) {
  model::BiEncoderConfig bi_cfg;
  bi_cfg.features.hasher.num_buckets = 2048;
  bi_cfg.dim = 16;
  util::Rng rng(3);
  model::BiEncoder bi(bi_cfg, &rng);
  auto split = data::MakeFewShotSplit(corpus_->ExamplesIn("d"), 120, 0, 5);
  train::TrainOptions topt;
  topt.epochs = 3;
  ASSERT_TRUE(
      train::BiEncoderTrainer(topt).Train(&bi, corpus_->kb, split.train).ok());
  model::CrossEncoderConfig cross_cfg;
  cross_cfg.features.hasher.num_buckets = 2048;
  cross_cfg.dim = 16;
  cross_cfg.hidden = 16;
  model::CrossEncoder cross(cross_cfg, &rng);

  constexpr std::size_t kK = 8;
  TwoStageEvaluator evaluator(EvaluatorOptions{.k = kK, .num_threads = 3});
  for (const model::CrossEncoder* c :
       std::vector<const model::CrossEncoder*>{nullptr, &cross}) {
    SCOPED_TRACE(c == nullptr ? "bi only" : "with cross-encoder");
    auto got = evaluator.Evaluate(bi, c, corpus_->kb, "d", split.test);
    ASSERT_TRUE(got.ok());
    const EvalResult want =
        TapeReference(bi, c, corpus_->kb, split.test, kK);
    EXPECT_GT(want.num_in_candidates, 0u);
    EXPECT_EQ(got->num_examples, want.num_examples);
    EXPECT_EQ(got->num_in_candidates, want.num_in_candidates);
    EXPECT_EQ(got->num_top1, want.num_top1);
    EXPECT_EQ(got->recall_at_k, want.recall_at_k);
    EXPECT_EQ(got->normalized_acc, want.normalized_acc);
    EXPECT_EQ(got->unnormalized_acc, want.unnormalized_acc);
  }
}

}  // namespace
}  // namespace metablink::eval
