#ifndef METABLINK_CORE_FEW_SHOT_LINKER_H_
#define METABLINK_CORE_FEW_SHOT_LINKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/example.h"
#include "gen/seed_selector.h"
#include "util/status.h"

namespace metablink::core {

/// One ranked linking answer.
struct LinkPrediction {
  kb::EntityId entity_id = kb::kInvalidEntityId;
  std::string title;
  float score = 0.0f;
};

/// The first `top_k` of a best-first candidate list, titled from `kb`;
/// NotFound when `ranked` is empty. Every Link answers through it.
util::Result<std::vector<LinkPrediction>> MakePredictions(
    const kb::KnowledgeBase& kb,
    const std::vector<retrieval::ScoredEntity>& ranked, std::size_t top_k);

/// High-level façade over MetaBlinkPipeline — the five-line API a
/// downstream user adopts:
///
///   FewShotLinker linker;
///   linker.Fit(corpus, source_domains, "lego", seed_examples);
///   auto pred = linker.Link("minifigure", "the ... set contains a", "...");
///
/// Fit runs Algorithm 2 end-to-end: trains the rewriter on the source
/// domains, builds domain-adapted synthetic data for the target domain, and
/// meta-trains both encoders with the provided seed examples. When
/// `seed_examples` is empty, the zero-shot heuristics (filtered synthetic +
/// self-match, Sec. VI-C) construct the seed set instead. Fit ends by
/// building the target domain's eval::DomainSide, which Link and Evaluate
/// answer from: a Link's cost does not grow with the domain.
class FewShotLinker {
 public:
  explicit FewShotLinker(PipelineConfig config = {});

  /// Trains the full system for `target_domain`. `corpus` must contain the
  /// target domain's entities and unlabeled documents, and labeled examples
  /// for every domain in `source_domains`.
  util::Status Fit(const data::Corpus& corpus,
                   const std::vector<std::string>& source_domains,
                   const std::string& target_domain,
                   const std::vector<data::LinkingExample>& seed_examples,
                   std::size_t max_heuristic_seeds = 50);

  bool fitted() const { return fitted_; }
  const std::string& target_domain() const { return side_.domain; }

  /// Links a mention given its surface form and context. Returns up to
  /// `top_k` predictions, best first, as LinkingServer::FromLinker would.
  util::Result<std::vector<LinkPrediction>> Link(
      const std::string& mention, const std::string& left_context,
      const std::string& right_context, std::size_t top_k = 5) const;

  /// Evaluates on held-out examples of the target domain.
  util::Result<eval::EvalResult> Evaluate(
      const std::vector<data::LinkingExample>& examples) const;

  /// Number of synthetic pairs generated during Fit.
  std::size_t num_synthetic() const { return num_synthetic_; }
  /// Size of the seed set actually used (provided or heuristic).
  std::size_t num_seeds() const { return num_seeds_; }

  /// Read-only: changing the encoders would leave Fit's side stale.
  const MetaBlinkPipeline* pipeline() const { return &pipeline_; }
  /// The target domain's side Fit built (empty before Fit).
  const eval::DomainSide& side() const { return side_; }

 private:
  MetaBlinkPipeline pipeline_;
  eval::DomainSide side_;
  bool fitted_ = false;
  std::size_t num_synthetic_ = 0;
  std::size_t num_seeds_ = 0;
};

}  // namespace metablink::core

#endif  // METABLINK_CORE_FEW_SHOT_LINKER_H_
