// Reproduces Table VIII: the "gap" between the general domain and each test
// domain, measured as the U.Acc improvement from fine-tuning the
// general-domain BLINK on 500 in-domain samples. The paper uses this gap to
// explain why MetaBLINK helps more on Lego/YuGiOh (large gap) than on
// Forgotten Realms/Star Trek (small gap).
//
// This bench builds its own corpus variant with enough in-domain examples
// for the 500-sample fine-tuning split.

#include <cstdio>
#include <filesystem>

#include "experiment_common.h"

using namespace metablink;

namespace {
struct PaperRef {
  const char* domain;
  double paper_gap;
};
const PaperRef kRefs[] = {
    {"forgotten_realms", 3.36},
    {"star_trek", 2.55},
    {"lego", 6.67},
    {"yugioh", 7.47},
};
}  // namespace

int main() {
  const double scale = bench::ExperimentScale();
  // Enlarge test-domain example pools so 500 fine-tuning samples exist.
  data::GeneratorOptions gopts;
  gopts.seed = bench::ExperimentSeed();
  auto specs = data::ZeshelLikeGenerator::PaperDomains(scale);
  for (auto& s : specs) {
    for (const auto& t : data::ZeshelLikeGenerator::TestDomainNames()) {
      if (s.name == t) s.num_examples = 800;
    }
  }
  data::ZeshelLikeGenerator generator(gopts);
  auto corpus_result = generator.Generate(specs);
  if (!corpus_result.ok()) {
    std::fprintf(stderr, "%s\n", corpus_result.status().ToString().c_str());
    return 1;
  }

  // Wrap in an ExperimentWorld-compatible flow: reuse the runner helpers by
  // constructing a world and swapping its corpus is not possible, so run
  // the pipelines directly here.
  std::printf("=== Table VIII: domain gap (U.Acc of BLINK vs BLINK+FT500) ===\n");
  std::printf("%-20s %8s %8s %8s   %s\n", "domain", "BLINK", "BLINK+FT",
              "GAP", "paper gap");

  const data::Corpus& corpus = *corpus_result;
  std::vector<data::LinkingExample> general;
  for (const auto& d : data::ZeshelLikeGenerator::TrainDomainNames()) {
    const auto& ex = corpus.ExamplesIn(d);
    general.insert(general.end(), ex.begin(), ex.end());
  }

  core::PipelineConfig config;
  config.seed = bench::ExperimentSeed() ^ 0xBEEF;

  // Train the general model once and checkpoint it as a bundle directory;
  // each domain restores it for the base evaluation and for the 500-sample
  // fine-tune.
  const char* ckpt = "/tmp/metablink_table8_general";
  {
    core::MetaBlinkPipeline base(config);
    auto s = base.TrainSupervised(corpus.kb, general);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    if (auto save = base.Save(ckpt); !save.ok()) {
      std::fprintf(stderr, "%s\n", save.ToString().c_str());
      return 1;
    }
  }

  for (const PaperRef& ref : kRefs) {
    const auto& all = corpus.ExamplesIn(ref.domain);
    const std::size_t ft_n = std::min<std::size_t>(500, all.size() / 2);
    std::vector<data::LinkingExample> ft(all.begin(), all.begin() + ft_n);
    std::vector<data::LinkingExample> test(all.begin() + ft_n, all.end());

    // BLINK trained on general data only.
    core::MetaBlinkPipeline base(config);
    if (auto s = base.Load(ckpt); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto r_base = base.Evaluate(corpus.kb, ref.domain, test);

    // The general model fine-tuned on 500 in-domain samples.
    core::MetaBlinkPipeline tuned(config);
    if (auto s = tuned.Load(ckpt); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto s2 = tuned.TrainSupervised(corpus.kb, ft);
    if (!s2.ok()) {
      std::fprintf(stderr, "%s\n", s2.ToString().c_str());
      return 1;
    }
    auto r_tuned = tuned.Evaluate(corpus.kb, ref.domain, test);

    const double base_acc = 100.0 * r_base->unnormalized_acc;
    const double tuned_acc = 100.0 * r_tuned->unnormalized_acc;
    std::printf("%-20s %8.2f %8.2f %8.2f   paper %.2f\n", ref.domain,
                base_acc, tuned_acc, tuned_acc - base_acc, ref.paper_gap);
  }
  std::printf(
      "\nexpected shape: gap(lego), gap(yugioh) > gap(forgotten_realms), "
      "gap(star_trek)\n");
  std::filesystem::remove_all(ckpt);
  return 0;
}
