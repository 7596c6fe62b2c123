// Few-shot linking on the paper's Lego domain (the workload the paper's
// intro motivates: a specialized entity dictionary with almost no labels).
// Compares plain BLINK fine-tuning against MetaBLINK on the same 50-example
// budget, then links a few held-out mentions with the winning model.

#include <cstdio>

#include "core/pipeline.h"
#include "data/generator.h"
#include "util/string_util.h"

using namespace metablink;

int main() {
  // A reduced paper corpus: the 8 source domains plus Lego.
  data::GeneratorOptions gopts;
  gopts.seed = 2026;
  auto specs = data::ZeshelLikeGenerator::PaperDomains(0.35);
  data::ZeshelLikeGenerator generator(gopts);
  auto corpus = generator.Generate(specs);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto split = data::MakeFewShotSplit(corpus->ExamplesIn("lego"), 50, 50, 7);
  std::printf("lego: %zu entities, %zu seed examples, %zu test mentions\n",
              corpus->kb.EntitiesInDomain("lego").size(), split.train.size(),
              split.test.size());

  core::PipelineConfig config;
  config.seed = 99;

  // --- Baseline: BLINK fine-tuned on the 50 seeds only.
  core::MetaBlinkPipeline blink(config);
  if (auto s = blink.TrainSupervised(corpus->kb, split.train); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto blink_result = blink.Evaluate(corpus->kb, "lego", split.test);

  // --- MetaBLINK: weak supervision + meta reweighting under the same seeds.
  core::MetaBlinkPipeline meta(config);
  if (auto s = meta.TrainRewriter(
          *corpus, data::ZeshelLikeGenerator::TrainDomainNames());
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto syn = meta.BuildSyntheticData(*corpus, "lego", /*adapt=*/true);
  if (!syn.ok()) {
    std::fprintf(stderr, "%s\n", syn.status().ToString().c_str());
    return 1;
  }
  if (auto s = meta.TrainMeta(corpus->kb, *syn, split.train); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto meta_result = meta.Evaluate(corpus->kb, "lego", split.test);

  std::printf("\n%-12s %8s %8s %8s\n", "method", "R@64", "N.Acc", "U.Acc");
  std::printf("%-12s %8.2f %8.2f %8.2f\n", "BLINK",
              100.0 * blink_result->recall_at_k,
              100.0 * blink_result->normalized_acc,
              100.0 * blink_result->unnormalized_acc);
  std::printf("%-12s %8.2f %8.2f %8.2f   (syn pairs: %zu)\n", "MetaBLINK",
              100.0 * meta_result->recall_at_k,
              100.0 * meta_result->normalized_acc,
              100.0 * meta_result->unnormalized_acc, syn->size());

  // Link from the domain's entity side, built once for every mention.
  eval::DomainSide side;
  if (auto s = side.Build(meta.bi_encoder(), meta.cross_encoder(),
                          &corpus->kb, "lego", /*pool=*/nullptr);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const auto ranked = side.Link(split.test, config.eval.k, /*pool=*/nullptr);
  std::printf("\nsample links (MetaBLINK):\n");
  for (std::size_t i = 0; i < 3 && i < split.test.size(); ++i) {
    const auto& ex = split.test[i];
    if (ranked[i].empty()) continue;
    const auto& top = corpus->kb.entity(ranked[i][0].id);
    std::printf("  \"%s\" -> %s %s\n", ex.mention.c_str(), top.title.c_str(),
                ranked[i][0].id == ex.entity_id ? "[correct]" : "[wrong]");
  }
  return 0;
}
