// Reproduces Table II qualitatively: errors made by a model trained on
// "Exact Match" data that a model trained on rewritten (Syn) data fixes.
// The exact-match model learns the surface-matching shortcut, so on Low
// Overlap mentions it retrieves surface-similar but wrong entities; the
// syn-trained model uses context/description semantics instead.

#include <cstdio>

#include "core/pipeline.h"
#include "experiment_common.h"

using namespace metablink;

int main() {
  bench::ExperimentWorld world(bench::ExperimentScale(),
                               bench::ExperimentSeed());
  const std::string domain = "yugioh";
  bench::DomainContext ctx = world.MakeDomainContext(domain);

  core::MetaBlinkPipeline exact_model(world.DefaultConfig());
  auto s1 = exact_model.TrainSupervised(world.corpus().kb, ctx.exact);
  core::MetaBlinkPipeline syn_model(world.DefaultConfig());
  auto s2 = syn_model.TrainSupervised(world.corpus().kb, ctx.syn);
  if (!s1.ok() || !s2.ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  // Each model's best-first ranking of every test mention, from its
  // domain side.
  auto rank = [&](const core::MetaBlinkPipeline& model) {
    eval::DomainSide side;
    auto s = side.Build(model.bi_encoder(), model.cross_encoder(),
                        &world.corpus().kb, domain, /*pool=*/nullptr);
    return s.ok() ? side.Link(ctx.split.test, model.config().eval.k,
                              /*pool=*/nullptr)
                  : std::vector<std::vector<retrieval::ScoredEntity>>(
                        ctx.split.test.size());
  };
  const auto exact_pred = rank(exact_model);
  const auto syn_pred = rank(syn_model);

  std::printf("=== Table II: errors of the Exact-Match model fixed by Syn ===\n");
  int shown = 0;
  for (std::size_t i = 0; i < ctx.split.test.size(); ++i) {
    const auto& ex = ctx.split.test[i];
    if (shown >= 5) break;
    if (exact_pred[i].empty() || syn_pred[i].empty()) continue;
    const kb::EntityId exact_top = exact_pred[i][0].id;
    const kb::EntityId syn_top = syn_pred[i][0].id;
    if (exact_top != ex.entity_id && syn_top == ex.entity_id) {
      ++shown;
      std::printf("\n[case %d]\n", shown);
      std::printf("  mention      : %s\n", ex.mention.c_str());
      std::printf("  context      : ...%.60s...\n", ex.left_context.c_str());
      std::printf("  gold entity  : %s\n",
                  world.corpus().kb.entity(ex.entity_id).title.c_str());
      std::printf("  ExactMatch ->: %s   (WRONG)\n",
                  world.corpus().kb.entity(exact_top).title.c_str());
      std::printf("  Syn        ->: %s   (correct)\n",
                  world.corpus().kb.entity(syn_top).title.c_str());
    }
  }
  if (shown == 0) {
    std::printf("(no qualifying cases found at this scale/seed)\n");
  }
  return 0;
}
