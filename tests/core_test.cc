#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <utility>

#include "core/few_shot_linker.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "store/checkpoint.h"

namespace metablink::core {
namespace {

// Small, fast pipeline configuration for integration tests.
PipelineConfig TestConfig() {
  PipelineConfig config;
  config.seed = 4242;
  config.bi.features.hasher.num_buckets = 4096;
  config.bi.dim = 32;
  config.cross.features.hasher.num_buckets = 4096;
  config.cross.dim = 32;
  config.cross.hidden = 32;
  config.meta_bi.steps = 80;
  config.meta_cross.steps = 30;
  config.eval.k = 16;
  config.eval.num_threads = 2;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 99;
    opts.shared_vocab_size = 400;
    opts.domain_vocab_size = 200;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(3);
    specs[0].name = "src_a";
    specs[0].num_entities = 100;
    specs[0].num_examples = 250;
    specs[1].name = "src_b";
    specs[1].num_entities = 100;
    specs[1].num_examples = 250;
    specs[2].name = "target";
    specs[2].num_entities = 150;
    specs[2].num_examples = 300;
    specs[2].num_documents = 250;
    specs[2].gap = 0.5;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    split_ = data::MakeFewShotSplit(corpus_->ExamplesIn("target"), 50, 50, 3);
  }

  std::unique_ptr<data::Corpus> corpus_;
  data::DomainSplit split_;
};

TEST_F(PipelineTest, SyntheticDataRequiresTrainedRewriter) {
  MetaBlinkPipeline pipeline(TestConfig());
  auto syn = pipeline.BuildSyntheticData(*corpus_, "target", false);
  ASSERT_FALSE(syn.ok());
  EXPECT_EQ(syn.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, ExactMatchDataComesFromDocuments) {
  MetaBlinkPipeline pipeline(TestConfig());
  auto exact = pipeline.BuildExactMatchData(*corpus_, "target");
  ASSERT_FALSE(exact.empty());
  for (const auto& ex : exact) {
    EXPECT_EQ(ex.source, data::ExampleSource::kExactMatch);
    EXPECT_EQ(corpus_->kb.entity(ex.entity_id).domain, "target");
  }
}

TEST_F(PipelineTest, FullMetaPipelineBeatsSeedOnlyBlink) {
  // The paper's headline claim at integration-test scale: MetaBLINK with
  // synthetic data beats BLINK trained on the seed alone.
  MetaBlinkPipeline blink(TestConfig());
  ASSERT_TRUE(blink.TrainSupervised(corpus_->kb, split_.train).ok());
  auto blink_result = blink.Evaluate(corpus_->kb, "target", split_.test);
  ASSERT_TRUE(blink_result.ok());

  MetaBlinkPipeline meta(TestConfig());
  ASSERT_TRUE(meta.TrainRewriter(*corpus_, {"src_a", "src_b"}).ok());
  auto syn = meta.BuildSyntheticData(*corpus_, "target", true);
  ASSERT_TRUE(syn.ok());
  EXPECT_GT(syn->size(), 50u);
  ASSERT_TRUE(meta.TrainMeta(corpus_->kb, *syn, split_.train).ok());
  auto meta_result = meta.Evaluate(corpus_->kb, "target", split_.test);
  ASSERT_TRUE(meta_result.ok());

  EXPECT_GT(meta_result->recall_at_k, blink_result->recall_at_k);
  EXPECT_GT(meta_result->unnormalized_acc, blink_result->unnormalized_acc);
  // Meta selection statistics were recorded.
  EXPECT_GT(meta.last_meta_bi_result().steps, 0u);
}

TEST_F(PipelineTest, LinkReturnsRankedCandidates) {
  MetaBlinkPipeline pipeline(TestConfig());
  ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
  eval::DomainSide side;
  ASSERT_TRUE(pipeline.evaluator()
                  .BuildSide(*pipeline.bi_encoder(), pipeline.cross_encoder(),
                             corpus_->kb, "target", &side)
                  .ok());
  const auto ranked =
      side.Link({split_.test.front()}, TestConfig().eval.k, nullptr);
  ASSERT_EQ(ranked.size(), 1u);
  ASSERT_EQ(ranked[0].size(), TestConfig().eval.k);
  for (std::size_t i = 1; i < ranked[0].size(); ++i) {
    EXPECT_GE(ranked[0][i - 1].score, ranked[0][i].score);
  }
}

TEST_F(PipelineTest, SaveLoadRoundTrip) {
  MetaBlinkPipeline pipeline(TestConfig());
  ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
  const std::string dir = ::testing::TempDir() + "metablink_pipeline_test";
  ASSERT_TRUE(pipeline.Save(dir).ok());

  MetaBlinkPipeline restored(TestConfig());
  ASSERT_TRUE(restored.Load(dir).ok());
  auto a = pipeline.Evaluate(corpus_->kb, "target", split_.dev);
  auto b = restored.Evaluate(corpus_->kb, "target", split_.dev);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->unnormalized_acc, b->unnormalized_acc);
  EXPECT_DOUBLE_EQ(a->recall_at_k, b->recall_at_k);
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, LoadFromMissingDirectoryFails) {
  MetaBlinkPipeline pipeline(TestConfig());
  EXPECT_FALSE(pipeline.Load("/nonexistent/bundle").ok());
}

// The bi- and cross-encoder weight checksums of `pipeline`.
std::pair<std::uint32_t, std::uint32_t> EncoderCrcs(
    const MetaBlinkPipeline& pipeline) {
  return {pipeline.bi_encoder()->params()->ValuesCrc32(),
          pipeline.cross_encoder()->params()->ValuesCrc32()};
}

// TestConfig with its own seed, so each pipeline starts from other weights.
PipelineConfig SeededConfig(std::uint64_t seed) {
  PipelineConfig config = TestConfig();
  config.seed = seed;
  return config;
}

TEST_F(PipelineTest, FailedLoadLeavesBothEncodersUntouched) {
  // A bundle whose bi-encoder fits TestConfig but whose cross-encoder has
  // another dim; every CRC in it is valid.
  PipelineConfig narrow = SeededConfig(1);
  narrow.cross.dim = 16;
  const std::string dir = ::testing::TempDir() + "metablink_pipeline_narrow";
  ASSERT_TRUE(MetaBlinkPipeline(narrow).Save(dir).ok());

  MetaBlinkPipeline pipeline(SeededConfig(2));
  const auto before = EncoderCrcs(pipeline);
  const util::Status status = pipeline.Load(dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(EncoderCrcs(pipeline), before);
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, TornSaveFailsLoad) {
  // Model A saved whole, then model B's bi.ckpt written over A's without a
  // new manifest: what a save cut short after its first artifact leaves.
  const std::string dir = ::testing::TempDir() + "metablink_pipeline_torn";
  ASSERT_TRUE(MetaBlinkPipeline(SeededConfig(1)).Save(dir).ok());
  {
    store::CheckpointWriter ckpt;
    MetaBlinkPipeline(SeededConfig(2)).bi_encoder()->SaveCheckpoint(&ckpt);
    ASSERT_TRUE(ckpt.WriteToFile(dir + "/bi.ckpt").ok());
  }

  MetaBlinkPipeline pipeline(SeededConfig(3));
  const auto before = EncoderCrcs(pipeline);
  EXPECT_FALSE(pipeline.Load(dir).ok());
  EXPECT_EQ(EncoderCrcs(pipeline), before);
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, ResetModelsChangesPredictions) {
  MetaBlinkPipeline pipeline(TestConfig());
  ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
  auto before = pipeline.Evaluate(corpus_->kb, "target", split_.dev);
  pipeline.ResetModels();
  auto after = pipeline.Evaluate(corpus_->kb, "target", split_.dev);
  ASSERT_TRUE(before.ok() && after.ok());
  // Untrained fresh models should not coincide with the trained ones.
  EXPECT_NE(before->recall_at_k, after->recall_at_k);
}

TEST_F(PipelineTest, TrainMetaValidatesInputs) {
  MetaBlinkPipeline pipeline(TestConfig());
  EXPECT_FALSE(pipeline.TrainMeta(corpus_->kb, {}, split_.train).ok());
  std::vector<data::LinkingExample> two(split_.train.begin(),
                                        split_.train.begin() + 2);
  EXPECT_FALSE(pipeline.TrainMeta(corpus_->kb, two, {}).ok());
}

// ---- FewShotLinker facade ---------------------------------------------------

TEST_F(PipelineTest, FewShotLinkerEndToEnd) {
  core::FewShotLinker linker(TestConfig());
  EXPECT_FALSE(linker.fitted());
  EXPECT_FALSE(linker.Link("x", "", "").ok());  // not fitted yet
  EXPECT_FALSE(linker.Evaluate(split_.test).ok());

  ASSERT_TRUE(linker
                  .Fit(*corpus_, {"src_a", "src_b"}, "target", split_.train)
                  .ok());
  EXPECT_TRUE(linker.fitted());
  EXPECT_GT(linker.num_synthetic(), 0u);
  EXPECT_EQ(linker.num_seeds(), split_.train.size());

  const auto& probe = split_.test.front();
  auto pred = linker.Link(probe.mention, probe.left_context,
                          probe.right_context, 3);
  ASSERT_TRUE(pred.ok());
  ASSERT_EQ(pred->size(), 3u);
  EXPECT_FALSE((*pred)[0].title.empty());

  auto result = linker.Evaluate(split_.test);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->recall_at_k, 0.2);

  // A failed refit leaves the linker unfitted: it must not answer from the
  // side the last Fit built once training has started again.
  EXPECT_FALSE(
      linker.Fit(*corpus_, {"no_such_source"}, "target", split_.train).ok());
  EXPECT_FALSE(linker.fitted());
  EXPECT_FALSE(linker.Link(probe.mention, "", "").ok());
}

TEST_F(PipelineTest, FewShotLinkerZeroShotHeuristicSeeds) {
  core::FewShotLinker linker(TestConfig());
  ASSERT_TRUE(
      linker.Fit(*corpus_, {"src_a", "src_b"}, "target", {}, 40).ok());
  EXPECT_GT(linker.num_seeds(), 0u);
  EXPECT_LE(linker.num_seeds(), 40u);
}

TEST_F(PipelineTest, FewShotLinkerRejectsUnknownDomain) {
  core::FewShotLinker linker(TestConfig());
  auto status = linker.Fit(*corpus_, {"src_a"}, "nonexistent", split_.train);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace metablink::core
