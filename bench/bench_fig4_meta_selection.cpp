// Reproduces Figure 4: the effect of meta learning. Bad training data is
// generated by relinking mentions to random entities; the selection ratio
// (fraction of examples receiving a positive meta weight) is recorded per
// population during bi-encoder meta-training on the YuGiOh domain.
//
// Paper: normal data selected ~50%, bad data ~20%. The reproduction target
// is the ordering (normal selected clearly more often than bad), and the
// exit status gates it: 1 unless the normal ratio is above the bad one.
//
//   bench_fig4_meta_selection           # 400 meta steps
//   bench_fig4_meta_selection --smoke   # 100 steps; the ctest gate

#include <cstdio>
#include <cstring>

#include "experiment_common.h"
#include "gen/bad_data.h"
#include "train/bi_trainer.h"
#include "train/meta_trainer.h"

using namespace metablink;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::ExperimentWorld world(bench::ExperimentScale(),
                               bench::ExperimentSeed());
  const std::string domain = "yugioh";
  bench::DomainContext ctx = world.MakeDomainContext(domain);

  // Normal synthetic data + an equal-rate injection of bad pairs.
  util::Rng bad_rng(world.seed() ^ 0xBAD);
  auto bad = gen::InjectBadData(world.corpus().kb, ctx.syn,
                                ctx.syn.size() / 2, &bad_rng);
  std::vector<data::LinkingExample> mixture = ctx.syn;
  mixture.insert(mixture.end(), bad.begin(), bad.end());

  core::PipelineConfig config = world.DefaultConfig();
  core::MetaBlinkPipeline pipeline(config);

  // Warm up on the trusted seed, then run the bi-encoder meta loop directly
  // so the selection statistics are exposed.
  train::TrainOptions warm = config.bi_train;
  warm.epochs = config.meta_warmup_epochs;
  train::BiEncoderTrainer warm_trainer(warm);
  auto warm_result = warm_trainer.Train(pipeline.bi_encoder(),
                                        world.corpus().kb, ctx.split.train);
  if (!warm_result.ok()) {
    std::fprintf(stderr, "%s\n", warm_result.status().ToString().c_str());
    return 1;
  }

  model::BiEncoder* bi = pipeline.bi_encoder();
  const kb::KnowledgeBase* kb = &world.corpus().kb;
  train::MetaTrainOptions mopts = config.meta_bi;
  mopts.steps = smoke ? 100 : 400;
  train::MetaReweightTrainer meta(
      mopts, bi->params(),
      [bi, kb](tensor::Graph* graph,
               const std::vector<data::LinkingExample>& batch) {
        return bi->InBatchLoss(graph, batch, *kb);
      });
  auto result = meta.Train(mixture, ctx.split.train);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Fig. 4: meta-learning selection ratio (bi-encoder, %s, "
              "%zu steps) ===\n",
              domain.c_str(), mopts.steps);
  std::printf("%-16s %10s %12s %12s   %s\n", "population", "examples",
              "sel. ratio", "mean weight", "paper");
  const auto& sel = result->selection;
  auto row = [&](const char* name, data::ExampleSource src,
                 const char* paper) {
    auto it = sel.find(src);
    if (it == sel.end()) return;
    std::printf("%-16s %10zu %11.1f%% %12.4f   %s\n", name, it->second.seen,
                100.0 * it->second.SelectedRatio(),
                it->second.weight_mass / it->second.seen, paper);
  };
  row("normal (syn)", data::ExampleSource::kRewritten, "~50%");
  row("bad (random)", data::ExampleSource::kInjectedBad, "~20%");
  auto ratio = [&](data::ExampleSource src) {
    auto it = sel.find(src);
    return it == sel.end() ? 0.0 : it->second.SelectedRatio();
  };
  const bool shape = ratio(data::ExampleSource::kRewritten) >
                     ratio(data::ExampleSource::kInjectedBad);
  std::printf("\nexpected shape: normal ratio > bad ratio: %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
