// Reproduces Table IX: zero-shot domain transfer on Lego and YuGiOh with
// different training sources. Shows that general-domain data and synthetic
// data both improve transfer, and combining every source is best. The
// general-pretrained model is checkpointed once and reused across rows.

#include <cstdio>
#include <filesystem>

#include "experiment_common.h"
#include "gen/seed_selector.h"

using namespace metablink;

namespace {
struct PaperRef {
  const char* data;
  double lego;
  double yugioh;
};
const PaperRef kRefs[] = {
    {"-", 72.22, 66.30},
    {"Seed", 73.51, 68.80},
    {"Syn+Seed", 74.11, 69.50},
    {"General+Seed", 74.82, 68.90},
    {"General+Syn+Seed", 74.90, 69.52},
    {"General+Syn*+Seed", 74.90, 69.55},
};
constexpr const char* kCkpt = "/tmp/metablink_table9_general";
}  // namespace

int main() {
  bench::ExperimentWorld world(bench::ExperimentScale(),
                               bench::ExperimentSeed());
  const auto general = world.GeneralData();

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
  auto fresh = [&](bool with_general) {
    auto p = std::make_unique<core::MetaBlinkPipeline>(world.DefaultConfig());
    if (with_general) {
      auto s = p->Load(kCkpt);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    return p;
  };

  for (const char* domain : {"lego", "yugioh"}) {
    bench::DomainContext ctx = world.MakeDomainContext(domain);
    auto seeds = gen::HeuristicSeeds(world.corpus().kb, domain, ctx.syn, 50);
    const auto& test = ctx.split.test;
    const bool is_lego = std::string(domain) == "lego";
    const kb::KnowledgeBase& kb = world.corpus().kb;

    bench::PrintHeader(std::string("Table IX: ") + domain);
    char note[8][32];
    for (int i = 0; i < 6; ++i) {
      std::snprintf(note[i], sizeof(note[i]), "paper %.2f",
                    is_lego ? kRefs[i].lego : kRefs[i].yugioh);
    }

    {  // BLINK on general only.
      auto p = fresh(true);
      bench::PrintRow("BLINK", "-", *p->Evaluate(kb, domain, test), note[0]);
    }
    {  // BLINK general + seed fine-tuning.
      auto p = fresh(true);
      (void)p->TrainSupervised(kb, seeds);
      bench::PrintRow("BLINK", "Seed", *p->Evaluate(kb, domain, test),
                      note[1]);
    }
    {  // MetaBLINK from scratch on syn.
      auto p = fresh(false);
      (void)p->TrainMeta(kb, ctx.syn, seeds);
      bench::PrintRow("MetaBLINK", "Syn+Seed", *p->Evaluate(kb, domain, test),
                      note[2]);
    }
    {  // MetaBLINK from the general model, D_f = general data.
      auto p = fresh(true);
      (void)p->TrainMeta(kb, general, seeds);
      bench::PrintRow("MetaBLINK", "General+Seed",
                      *p->Evaluate(kb, domain, test), note[3]);
    }
    {  // MetaBLINK from the general model, D_f = syn.
      auto p = fresh(true);
      (void)p->TrainMeta(kb, ctx.syn, seeds);
      bench::PrintRow("MetaBLINK", "General+Syn+Seed",
                      *p->Evaluate(kb, domain, test), note[4]);
    }
    {  // MetaBLINK from the general model, D_f = syn*.
      auto p = fresh(true);
      (void)p->TrainMeta(kb, ctx.syn_star, seeds);
      bench::PrintRow("MetaBLINK", "General+Syn*+Seed",
                      *p->Evaluate(kb, domain, test), note[5]);
    }
  }
  std::filesystem::remove_all(kCkpt);
  return 0;
}
