// Edge cases of public entry points that once crashed or misread the host:
// zero-candidate cross mining, a pipeline configured to mine none, and a
// default-sized thread pool under a narrowed CPU affinity mask.
#include <gtest/gtest.h>

#include <sched.h>

#include <memory>
#include <vector>

#include "core/few_shot_linker.h"
#include "data/generator.h"
#include "train/cross_trainer.h"
#include "util/thread_pool.h"

namespace metablink {
namespace {

TEST(EdgeCaseTest, MiningZeroCandidatesYieldsNoInstances) {
  data::LinkingExample ex;
  ex.mention = "m";
  ex.entity_id = 7;
  // Gold retrieved second: a one-candidate cut patches it in; a zero cut
  // has nowhere to put it and keeps nothing.
  const std::vector<std::vector<retrieval::ScoredEntity>> lists = {
      {{3, 0.9f}, {7, 0.8f}}};
  EXPECT_TRUE(train::MineCrossTrainingSet({ex}, lists, 0).empty());
  const auto one = train::MineCrossTrainingSet({ex}, lists, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].candidates, (std::vector<kb::EntityId>{7}));
  EXPECT_EQ(one[0].gold_index, 0u);
}

TEST(EdgeCaseTest, FitRejectsZeroCrossTrainCandidates) {
  data::GeneratorOptions opts;
  opts.seed = 5;
  opts.shared_vocab_size = 100;
  opts.domain_vocab_size = 50;
  std::vector<data::DomainSpec> specs(2);
  specs[0].name = "source";
  specs[0].num_entities = 20;
  specs[0].num_examples = 40;
  specs[1].name = "target";
  specs[1].num_entities = 20;
  specs[1].num_examples = 40;
  auto corpus = data::ZeshelLikeGenerator(opts).Generate(specs);
  ASSERT_TRUE(corpus.ok());
  core::PipelineConfig config;
  config.cross_train_candidates = 0;
  core::FewShotLinker linker(config);
  const auto& seeds = corpus->ExamplesIn("target");
  const util::Status status = linker.Fit(
      *corpus, {"source"}, "target",
      std::vector<data::LinkingExample>(seeds.begin(), seeds.begin() + 5));
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_FALSE(linker.fitted());
}

TEST(EdgeCaseTest, DefaultThreadPoolFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Pins only this thread; the pool reads the mask of the thread that
  // builds it.
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  std::size_t workers = 0;
  {
    util::ThreadPool pool(0);
    workers = pool.num_threads();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(workers, 1u);

  util::ThreadPool full(0);
  EXPECT_EQ(full.num_threads(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}

}  // namespace
}  // namespace metablink
