#include "core/few_shot_linker.h"

#include <algorithm>

namespace metablink::core {

util::Result<std::vector<LinkPrediction>> MakePredictions(
    const kb::KnowledgeBase& kb,
    const std::vector<retrieval::ScoredEntity>& ranked, std::size_t top_k) {
  if (ranked.empty()) {
    return util::Status::NotFound("no candidates retrieved");
  }
  std::vector<LinkPrediction> predictions(std::min(ranked.size(), top_k));
  for (std::size_t r = 0; r < predictions.size(); ++r) {
    predictions[r] = {ranked[r].id, kb.entity(ranked[r].id).title,
                      ranked[r].score};
  }
  return predictions;
}

FewShotLinker::FewShotLinker(PipelineConfig config)
    : pipeline_(std::move(config)) {}

util::Status FewShotLinker::Fit(
    const data::Corpus& corpus,
    const std::vector<std::string>& source_domains,
    const std::string& target_domain,
    const std::vector<data::LinkingExample>& seed_examples,
    std::size_t max_heuristic_seeds) {
  if (pipeline_.config().cross_train_candidates == 0) {
    return util::Status::InvalidArgument(
        "cross_train_candidates must be at least 1");
  }
  if (corpus.kb.EntitiesInDomain(target_domain).empty()) {
    return util::Status::NotFound("target domain has no entities: " +
                                  target_domain);
  }
  fitted_ = false;
  METABLINK_RETURN_IF_ERROR(pipeline_.TrainRewriter(corpus, source_domains));
  auto synthetic = pipeline_.BuildSyntheticData(corpus, target_domain,
                                                /*adapt_to_domain=*/true);
  if (!synthetic.ok()) return synthetic.status();
  num_synthetic_ = synthetic->size();

  std::vector<data::LinkingExample> seeds = seed_examples;
  if (seeds.empty()) {
    // Zero-shot: build the seed set with the paper's heuristics.
    seeds = gen::HeuristicSeeds(corpus.kb, target_domain, *synthetic,
                                max_heuristic_seeds);
    if (seeds.empty()) {
      return util::Status::FailedPrecondition(
          "no seed examples given and heuristics produced none");
    }
  }
  num_seeds_ = seeds.size();

  METABLINK_RETURN_IF_ERROR(
      pipeline_.TrainMeta(corpus.kb, *synthetic, seeds));
  METABLINK_RETURN_IF_ERROR(pipeline_.evaluator().BuildSide(
      *pipeline_.bi_encoder(), pipeline_.cross_encoder(), corpus.kb,
      target_domain, &side_));
  fitted_ = true;
  return util::Status::OK();
}

util::Result<std::vector<LinkPrediction>> FewShotLinker::Link(
    const std::string& mention, const std::string& left_context,
    const std::string& right_context, std::size_t top_k) const {
  if (!fitted_) {
    return util::Status::FailedPrecondition("call Fit before Link");
  }
  data::LinkingExample ex;
  ex.mention = mention;
  ex.left_context = left_context;
  ex.right_context = right_context;
  ex.domain = side_.domain;
  return MakePredictions(
      *side_.kb, side_.Link({ex}, pipeline_.config().eval.k, nullptr)[0],
      top_k);
}

util::Result<eval::EvalResult> FewShotLinker::Evaluate(
    const std::vector<data::LinkingExample>& examples) const {
  if (!fitted_) {
    return util::Status::FailedPrecondition("call Fit before Evaluate");
  }
  return pipeline_.evaluator().Evaluate(side_, examples);
}

}  // namespace metablink::core
