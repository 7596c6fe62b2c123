// Building a linker for YOUR OWN entity dictionary, without the synthetic
// generator: hand-authored entities (a company-project dictionary, one of
// the paper's motivating domains), raw unlabeled documents, and a handful
// of labeled seed mentions. Demonstrates the lower-level pipeline API:
// knowledge-base construction, fact triples, weak supervision, meta
// training, and end-to-end linking.

#include <cstdio>
#include <vector>

#include "core/pipeline.h"
#include "data/example.h"

using namespace metablink;

namespace {

kb::EntityId MustAdd(kb::KnowledgeBase* kb, const std::string& title,
                     const std::string& description) {
  kb::Entity e;
  e.title = title;
  e.description = description;
  e.domain = "projects";
  auto id = kb->AddEntity(std::move(e));
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    std::abort();
  }
  return *id;
}

data::LinkingExample Seed(const std::string& mention, const std::string& left,
                          const std::string& right, kb::EntityId id) {
  data::LinkingExample ex;
  ex.mention = mention;
  ex.left_context = left;
  ex.right_context = right;
  ex.entity_id = id;
  ex.domain = "projects";
  return ex;
}

}  // namespace

int main() {
  data::Corpus corpus;
  auto& kb = corpus.kb;

  // --- The target dictionary: internal project entities.
  auto atlas = MustAdd(&kb, "project atlas",
                       "project atlas is the cloud migration program moving "
                       "billing and invoicing services to the new platform "
                       "also known as the migration effort atlas");
  auto borealis = MustAdd(&kb, "borealis",
                          "borealis is the machine learning recommendation "
                          "engine powering search ranking and discovery "
                          "sometimes called the ranking engine");
  auto cascade = MustAdd(&kb, "cascade (pipeline)",
                         "cascade is the data pipeline rebuilding ingestion "
                         "of telemetry events into the warehouse");
  auto cascade_ui = MustAdd(&kb, "cascade (dashboard)",
                            "cascade is the dashboard suite visualizing "
                            "pipeline health metrics for operators");
  MustAdd(&kb, "quill", "quill is the documentation toolchain generating "
                        "the developer portal from source comments");

  // Facts (G = {E,R,T}): project dependencies.
  kb::RelationId depends = kb.AddRelation("depends_on");
  (void)kb.AddTriple(cascade_ui, depends, cascade);
  (void)kb.AddTriple(borealis, depends, cascade);

  // --- Unlabeled internal documents (meeting notes, tickets).
  corpus.documents["projects"] = {
      "the quarterly review covered project atlas and the billing cutover "
      "timeline before discussing borealis ranking regressions",
      "oncall report cascade (pipeline) ingestion lag reached two hours "
      "while the cascade (dashboard) showed stale health metrics",
      "quill publish job failed again blocking the developer portal "
      "refresh for project atlas documentation",
      "search ranking experiments on borealis improved discovery clicks "
      "while cascade (pipeline) backfilled telemetry events",
  };

  // --- A handful of labeled seed mentions (what a team can afford).
  std::vector<data::LinkingExample> seeds = {
      Seed("the migration effort", "finance asked when", "finishes moving "
           "invoicing to the platform", atlas),
      Seed("ranking engine", "relevance regressions in the",
           "were traced to stale features", borealis),
      Seed("cascade", "operators watched the", "health metrics dashboard "
           "during the incident", cascade_ui),
      Seed("cascade", "telemetry ingestion through", "was delayed by the "
           "warehouse maintenance", cascade),
  };

  // --- Source-domain supervision for the rewriter: reuse the seeds (tiny
  // worlds can self-train; with real data, pass any labeled sibling domain).
  core::PipelineConfig config;
  config.seed = 7;
  // Tiny world: shrink training schedules accordingly.
  config.meta_bi.steps = 120;
  config.meta_cross.steps = 40;
  config.eval.k = 3;
  core::MetaBlinkPipeline pipeline(config);
  corpus.examples["projects"] = seeds;
  if (auto s = pipeline.TrainRewriter(corpus, {"projects"}); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto syn = pipeline.BuildSyntheticData(corpus, "projects", /*adapt=*/true);
  if (!syn.ok()) {
    std::fprintf(stderr, "%s\n", syn.status().ToString().c_str());
    return 1;
  }
  std::printf("weak supervision found %zu synthetic pairs in %zu documents\n",
              syn->size(), corpus.documents["projects"].size());
  for (const auto& pair : *syn) {
    std::printf("  [%s] \"%s\" <- ...%s\n",
                kb.entity(pair.entity_id).title.c_str(),
                pair.mention.c_str(),
                pair.left_context.substr(0, 30).c_str());
  }

  if (auto s = pipeline.TrainMeta(kb, *syn, seeds); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // --- Link new mentions.
  struct Probe {
    const char* mention;
    const char* left;
    const char* right;
  };
  const Probe probes[] = {
      {"atlas", "billing asked whether", "migration slips to next quarter"},
      {"the ranking engine", "clicks dropped after", "deployed new features"},
      {"cascade", "ingestion lag alarms from", "paged the data team"},
  };
  std::vector<data::LinkingExample> mentions;
  for (const Probe& p : probes) {
    data::LinkingExample ex;
    ex.mention = p.mention;
    ex.left_context = p.left;
    ex.right_context = p.right;
    ex.domain = "projects";
    mentions.push_back(ex);
  }
  // The domain's entity side is built once and links every mention.
  eval::DomainSide side;
  if (auto s = side.Build(pipeline.bi_encoder(), pipeline.cross_encoder(),
                          &kb, "projects", /*pool=*/nullptr);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const auto ranked = side.Link(mentions, config.eval.k, /*pool=*/nullptr);
  std::printf("\nlinking new mentions:\n");
  for (std::size_t m = 0; m < mentions.size(); ++m) {
    std::printf("  \"%s\"\n", mentions[m].mention.c_str());
    for (std::size_t r = 0; r < 2 && r < ranked[m].size(); ++r) {
      const auto& c = ranked[m][r];
      std::printf("    -> %-24s score=%.3f\n", kb.entity(c.id).title.c_str(),
                  c.score);
    }
  }

  // Fact lookups still work alongside linking.
  std::printf("\ndependencies of '%s':\n", kb.entity(cascade_ui).title.c_str());
  for (const auto& t : kb.TriplesFrom(cascade_ui)) {
    std::printf("  %s -> %s\n", kb.RelationName(t.relation).c_str(),
                kb.entity(t.tail).title.c_str());
  }
  return 0;
}
