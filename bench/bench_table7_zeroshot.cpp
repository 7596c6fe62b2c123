// Reproduces Table VII: zero-shot domain transfer. The model is trained on
// the 8 source domains; no in-domain labels exist, so the seed set is built
// with the paper's heuristics (rule-filtered synthetic + self-match).
// Rows: BLINK (general only), BLINK fine-tuned on the heuristic seed, and
// MetaBLINK (general pretraining + Algorithm 1 on syn under heuristic seed).
//
// The general model is trained once and restored from a checkpoint for each
// row/domain (it is identical across them).

#include <cstdio>
#include <filesystem>

#include "experiment_common.h"
#include "gen/seed_selector.h"
#include "util/string_util.h"

using namespace metablink;

namespace {
struct PaperRef {
  const char* domain;
  const char* blink;
  const char* blink_seed;
  const char* meta;
};
const PaperRef kRefs[] = {
    {"forgotten_realms", "paper 84.11", "paper 84.60", "paper 84.81"},
    {"star_trek", "paper 74.45", "paper 74.51", "paper 74.54"},
    {"lego", "paper 72.22", "paper 73.51", "paper 74.11"},
    {"yugioh", "paper 66.30", "paper 68.80", "paper 69.50"},
};
constexpr const char* kCkpt = "/tmp/metablink_table7_general";
}  // namespace

int main() {
  bench::ExperimentWorld world(bench::ExperimentScale(),
                               bench::ExperimentSeed());
  const auto general = world.GeneralData();

  // Train the general (8-domain) BLINK once and checkpoint it.
  {
    core::MetaBlinkPipeline base(world.DefaultConfig());
    auto s = base.TrainSupervised(world.corpus().kb, general);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    if (auto save = base.Save(kCkpt); !save.ok()) {
      std::fprintf(stderr, "%s\n", save.ToString().c_str());
      return 1;
    }
  }
  auto load_general = [&](core::MetaBlinkPipeline* p) {
    auto s = p->Load(kCkpt);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
  };

  for (const PaperRef& ref : kRefs) {
    bench::DomainContext ctx = world.MakeDomainContext(ref.domain);
    // Zero-shot: ignore the gold split.train; build heuristic seeds instead.
    auto seeds =
        gen::HeuristicSeeds(world.corpus().kb, ref.domain, ctx.syn, 50);
    const auto& test = ctx.split.test;
    bench::PrintHeader(std::string("Table VII: ") + ref.domain +
                       util::StrFormat(" (heuristic seeds=%zu)",
                                       seeds.size()));
    {
      core::MetaBlinkPipeline p(world.DefaultConfig());
      load_general(&p);
      auto r = p.Evaluate(world.corpus().kb, ref.domain, test);
      bench::PrintRow("BLINK", "-", *r, ref.blink);
    }
    {
      // Fine-tune the general model on the heuristic seed.
      core::MetaBlinkPipeline p(world.DefaultConfig());
      load_general(&p);
      auto s = p.TrainSupervised(world.corpus().kb, seeds);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      auto r = p.Evaluate(world.corpus().kb, ref.domain, test);
      bench::PrintRow("BLINK", "Seed", *r, ref.blink_seed);
    }
    {
      // MetaBLINK starting from the general model.
      core::MetaBlinkPipeline p(world.DefaultConfig());
      load_general(&p);
      auto s = p.TrainMeta(world.corpus().kb, ctx.syn, seeds);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      auto r = p.Evaluate(world.corpus().kb, ref.domain, test);
      bench::PrintRow("MetaBLINK", "Syn+Seed", *r, ref.meta);
    }
  }
  std::filesystem::remove_all(kCkpt);
  return 0;
}
