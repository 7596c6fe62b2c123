#include "core/pipeline.h"

#include <unordered_map>

#include "store/bundle.h"
#include "train/featurized.h"
#include "util/logging.h"

namespace metablink::core {

MetaBlinkPipeline::MetaBlinkPipeline(PipelineConfig config)
    : config_(config),
      rng_(config.seed),
      rewriter_(config.rewriter),
      evaluator_(config.eval) {
  ResetModels();
}

void MetaBlinkPipeline::ResetModels() {
  util::Rng bi_rng = rng_.Fork();
  util::Rng cross_rng = rng_.Fork();
  bi_ = std::make_unique<model::BiEncoder>(config_.bi, &bi_rng);
  cross_ = std::make_unique<model::CrossEncoder>(config_.cross, &cross_rng);
}

util::Status MetaBlinkPipeline::TrainRewriter(
    const data::Corpus& corpus,
    const std::vector<std::string>& source_domains) {
  std::vector<data::LinkingExample> source;
  for (const auto& domain : source_domains) {
    const auto& examples = corpus.ExamplesIn(domain);
    source.insert(source.end(), examples.begin(), examples.end());
  }
  util::Rng rng = rng_.Fork();
  return rewriter_.Train(corpus.kb, source, &rng);
}

std::vector<data::LinkingExample> MetaBlinkPipeline::BuildExactMatchData(
    const data::Corpus& corpus, const std::string& domain) const {
  gen::ExactMatcher matcher(corpus.kb, domain, config_.exact);
  return matcher.MatchAll(corpus.DocumentsIn(domain));
}

util::Result<std::vector<data::LinkingExample>>
MetaBlinkPipeline::BuildSyntheticData(const data::Corpus& corpus,
                                      const std::string& domain,
                                      bool adapt_to_domain) {
  if (!rewriter_.trained()) {
    return util::Status::FailedPrecondition(
        "call TrainRewriter before BuildSyntheticData");
  }
  if (adapt_to_domain) {
    rewriter_.AdaptToDomain(corpus.DocumentsIn(domain));
  }
  const std::vector<data::LinkingExample> exact =
      BuildExactMatchData(corpus, domain);
  if (exact.empty()) {
    return util::Status::NotFound("exact matching produced no pairs for " +
                                  domain);
  }
  util::Rng rng = rng_.Fork();
  return rewriter_.GenerateSyntheticData(
      corpus.kb, exact, corpus.kb.EntitiesInDomain(domain), &rng);
}

util::Result<std::vector<train::CrossInstance>>
MetaBlinkPipeline::MineInstances(
    const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples) {
  // Candidates come from the example's own domain.
  std::unordered_map<std::string, std::vector<data::LinkingExample>>
      by_domain;
  for (const auto& ex : examples) by_domain[ex.domain].push_back(ex);
  std::vector<train::CrossInstance> instances;
  for (auto& [domain, group] : by_domain) {
    auto candidates =
        evaluator_.RetrieveCandidates(*bi_, kb, domain, group);
    if (!candidates.ok()) return candidates.status();
    auto mined = train::MineCrossTrainingSet(group, *candidates,
                                             config_.cross_train_candidates);
    for (auto& inst : mined) instances.push_back(std::move(inst));
  }
  return instances;
}

util::Status MetaBlinkPipeline::TrainSupervised(
    const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples) {
  train::BiEncoderTrainer bi_trainer(config_.bi_train);
  auto bi_result = bi_trainer.Train(bi_.get(), kb, examples);
  if (!bi_result.ok()) return bi_result.status();

  auto instances = MineInstances(kb, examples);
  if (!instances.ok()) return instances.status();
  if (instances->empty()) {
    METABLINK_LOG(kWarning)
        << "no cross-encoder instances mined; stage 2 left untrained";
    return util::Status::OK();
  }
  train::CrossEncoderTrainer cross_trainer(config_.cross_train);
  auto cross_result = cross_trainer.Train(cross_.get(), kb, *instances);
  return cross_result.ok() ? util::Status::OK() : cross_result.status();
}

util::Status MetaBlinkPipeline::TrainDl4el(
    const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& examples,
    const train::Dl4elOptions& dl4el_options) {
  train::Dl4elTrainer dl4el(dl4el_options);
  auto bi_result = dl4el.Train(bi_.get(), kb, examples);
  if (!bi_result.ok()) return bi_result.status();

  auto instances = MineInstances(kb, examples);
  if (!instances.ok()) return instances.status();
  if (instances->empty()) return util::Status::OK();
  train::CrossEncoderTrainer cross_trainer(config_.cross_train);
  auto cross_result = cross_trainer.Train(cross_.get(), kb, *instances);
  return cross_result.ok() ? util::Status::OK() : cross_result.status();
}

util::Status MetaBlinkPipeline::TrainMeta(
    const kb::KnowledgeBase& kb,
    const std::vector<data::LinkingExample>& synthetic,
    const std::vector<data::LinkingExample>& seed_set) {
  if (synthetic.size() < 2) {
    return util::Status::InvalidArgument("need at least 2 synthetic examples");
  }
  if (seed_set.empty()) {
    return util::Status::InvalidArgument("seed set is empty");
  }

  // Warm-up: a short supervised pass over the *trusted seed set only*.
  // Seeding the model with trusted structure is what makes the per-example
  // gradient alignment informative; warming up on the (noisy) synthetic
  // data instead lets the model memorize the noise first, after which bad
  // examples no longer conflict with the seed gradient (ablated in
  // bench_ablation_meta).
  if (config_.meta_warmup_epochs > 0) {
    train::TrainOptions warm = config_.bi_train;
    warm.epochs = config_.meta_warmup_epochs;
    train::BiEncoderTrainer warm_trainer(warm);
    auto warm_result = warm_trainer.Train(bi_.get(), kb, seed_set);
    if (!warm_result.ok()) return warm_result.status();
  }

  // Stage 1: Algorithm 1 on the bi-encoder. Each example and entity is
  // featurized once here; the meta steps only gather the stored bags.
  {
    const model::BiEncoder* bi = bi_.get();
    train::TrainingFeatures features(bi->featurizer(), kb);
    const auto syn = features.Examples(synthetic);
    const auto seeds = features.Examples(seed_set);
    train::FeaturizedMetaTrainer meta(
        config_.meta_bi, bi_->params(),
        [bi](tensor::Graph* graph,
             const std::vector<train::FeaturizedExample>& batch) {
          return train::InBatchLoss(*bi, graph, batch);
        });
    auto result = meta.Train(syn, seeds);
    if (!result.ok()) return result.status();
    last_meta_bi_ = *result;
  }

  // Stage 2: Algorithm 1 on the cross-encoder, over candidates mined with
  // the meta-trained bi-encoder.
  auto syn_instances = MineInstances(kb, synthetic);
  if (!syn_instances.ok()) return syn_instances.status();
  auto seed_instances = MineInstances(kb, seed_set);
  if (!seed_instances.ok()) return seed_instances.status();
  if (syn_instances->size() < 2 || seed_instances->empty()) {
    METABLINK_LOG(kWarning)
        << "insufficient mined instances for cross-encoder meta training "
        << "(syn=" << syn_instances->size()
        << ", seed=" << seed_instances->size() << "); stage 2 untrained";
    return util::Status::OK();
  }
  {
    const model::CrossEncoder* cross = cross_.get();
    train::TrainingFeatures features(cross->featurizer(), kb);
    const auto syn = features.Instances(*syn_instances);
    const auto seeds = features.Instances(*seed_instances);
    train::FeaturizedCrossMetaTrainer meta(
        config_.meta_cross, cross_->params(),
        [cross](tensor::Graph* graph,
                const std::vector<train::FeaturizedInstance>& batch) {
          return train::RankingLossColumn(*cross, graph, batch);
        });
    auto result = meta.Train(syn, seeds);
    if (!result.ok()) return result.status();
    last_meta_cross_ = *result;
  }
  return util::Status::OK();
}

util::Result<eval::EvalResult> MetaBlinkPipeline::Evaluate(
    const kb::KnowledgeBase& kb, const std::string& domain,
    const std::vector<data::LinkingExample>& examples) const {
  return evaluator_.Evaluate(*bi_, cross_.get(), kb, domain, examples);
}

util::Status MetaBlinkPipeline::Save(const std::string& dir) const {
  store::BundleWriter bundle(dir);
  store::CheckpointWriter bi, cross;
  bi_->SaveCheckpoint(&bi);
  cross_->SaveCheckpoint(&cross);
  METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("bi_encoder", "bi.ckpt", bi));
  METABLINK_RETURN_IF_ERROR(
      bundle.AddArtifact("cross_encoder", "cross.ckpt", cross));
  return bundle.Finalize(/*model_version=*/0, /*domain=*/"");
}

util::Status MetaBlinkPipeline::Load(const std::string& dir) {
  auto bundle = store::BundleReader::Open(dir);
  if (!bundle.ok()) return bundle.status();
  auto bi_ckpt = bundle->OpenArtifact("bi_encoder");
  if (!bi_ckpt.ok()) return bi_ckpt.status();
  auto bi = std::make_unique<model::BiEncoder>(config_.bi, /*rng=*/nullptr);
  METABLINK_RETURN_IF_ERROR(bi->LoadCheckpoint(*bi_ckpt));
  auto cross_ckpt = bundle->OpenArtifact("cross_encoder");
  if (!cross_ckpt.ok()) return cross_ckpt.status();
  auto cross =
      std::make_unique<model::CrossEncoder>(config_.cross, /*rng=*/nullptr);
  METABLINK_RETURN_IF_ERROR(cross->LoadCheckpoint(*cross_ckpt));
  bi_ = std::move(bi);
  cross_ = std::move(cross);
  return util::Status::OK();
}

}  // namespace metablink::core
