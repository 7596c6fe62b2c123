#include "eval/evaluator.h"

#include <algorithm>

#include "model/entity_side.h"
#include "model/features.h"

namespace metablink::eval {

void SortBestFirst(std::vector<retrieval::ScoredEntity>::iterator begin,
                   std::vector<retrieval::ScoredEntity>::iterator end) {
  std::sort(begin, end, [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  });
}

std::size_t HeadSize(const std::vector<retrieval::ScoredEntity>& hits,
                     float band, std::size_t head_k) {
  std::size_t h = 1;
  while (h < hits.size() && h < head_k &&
         hits[0].score - hits[h].score <= band) {
    ++h;
  }
  return h;
}

util::Status DomainSide::Build(const model::BiEncoder* bi,
                               const model::CrossEncoder* cross,
                               const kb::KnowledgeBase* kb,
                               const std::string& domain,
                               util::ThreadPool* pool) {
  const std::vector<kb::EntityId>& ids = kb->EntitiesInDomain(domain);
  if (ids.empty()) {
    return util::Status::NotFound("domain has no entities: " + domain);
  }
  this->domain = domain;
  this->bi = bi;
  this->cross = cross;
  this->kb = kb;
  tensor::Tensor rows;
  model::BuildEntitySide(bi, cross, *kb, ids, pool, &rows, &cross_cache);
  METABLINK_RETURN_IF_ERROR(index.Build(std::move(rows), ids));
  MapRows();
  return util::Status::OK();
}

void DomainSide::MapRows() {
  const std::vector<kb::EntityId>& ids = index.ids();
  entity_pos.clear();
  entity_pos.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) entity_pos[ids[i]] = i;
}

void DomainSide::Rescore(const data::LinkingExample& example,
                         const model::MentionText& text,
                         const std::vector<std::uint32_t>& mention_bag,
                         retrieval::ScoredEntity* cands, std::size_t n,
                         RescoreScratch* scratch) const {
  scratch->rows.clear();
  for (std::size_t c = 0; c < n; ++c) {
    scratch->rows.push_back(entity_pos.at(cands[c].id));
  }
  cross->ScoreCachedInference(example, text, mention_bag, scratch->rows,
                              cross_cache, &scratch->cross, &scratch->scores);
  for (std::size_t c = 0; c < n; ++c) cands[c].score = scratch->scores[c];
}

std::vector<std::vector<retrieval::ScoredEntity>> DomainSide::Rank(
    const std::vector<data::LinkingExample>& examples, std::size_t k,
    util::ThreadPool* pool) const {
  // Each mention is tokenized once, as LinkingServer::ServeBatch does: its
  // tokens give the stage-1 bag and serve the rescore.
  const std::size_t n = examples.size();
  std::vector<model::MentionText> texts(n);
  model::EncodeScratch encode_scratch;
  encode_scratch.bags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    model::TokenizeMention(examples[i], &texts[i]);
    bi->featurizer().MentionBagInto(texts[i], &encode_scratch.bags[i]);
  }
  tensor::Tensor queries;
  bi->EncodeMentionBagsInference(n, &encode_scratch, &queries);
  std::vector<std::vector<retrieval::ScoredEntity>> lists =
      index.BatchTopK(queries, k, pool);
  if (cross == nullptr) return lists;
  // Stage 1's bag is the cross tower's too when both hash one feature space.
  const bool share_bags = model::FeatureConfigsMatch(bi->config().features,
                                                     cross->config().features);
  auto rescore = [&](std::size_t, std::size_t begin, std::size_t end) {
    RescoreScratch scratch;
    std::vector<std::uint32_t> bag;
    for (std::size_t i = begin; i < end; ++i) {
      if (!share_bags) cross->featurizer().MentionBagInto(texts[i], &bag);
      Rescore(examples[i], texts[i],
              share_bags ? encode_scratch.bags[i] : bag, lists[i].data(),
              lists[i].size(), &scratch);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunks(lists.size(), 0, rescore);
  } else {
    rescore(0, 0, lists.size());
  }
  return lists;
}

std::vector<std::vector<retrieval::ScoredEntity>> DomainSide::Link(
    const std::vector<data::LinkingExample>& examples, std::size_t k,
    util::ThreadPool* pool) const {
  std::vector<std::vector<retrieval::ScoredEntity>> lists =
      Rank(examples, k, pool);
  for (auto& list : lists) SortBestFirst(list.begin(), list.end());
  return lists;
}

TwoStageEvaluator::TwoStageEvaluator(EvaluatorOptions options)
    : options_(options), pool_(options.num_threads) {}

util::Status TwoStageEvaluator::BuildSide(
    const model::BiEncoder& bi_encoder,
    const model::CrossEncoder* cross_encoder, const kb::KnowledgeBase& kb,
    const std::string& domain, DomainSide* side) const {
  return side->Build(&bi_encoder, cross_encoder, &kb, domain, &pool_);
}

util::Result<std::vector<std::vector<retrieval::ScoredEntity>>>
TwoStageEvaluator::RetrieveCandidates(
    const model::BiEncoder& bi_encoder, const kb::KnowledgeBase& kb,
    const std::string& domain,
    const std::vector<data::LinkingExample>& examples) const {
  DomainSide side;
  METABLINK_RETURN_IF_ERROR(
      BuildSide(bi_encoder, /*cross_encoder=*/nullptr, kb, domain, &side));
  return side.Rank(examples, options_.k, &pool_);
}

util::Result<EvalResult> TwoStageEvaluator::Evaluate(
    const model::BiEncoder& bi_encoder,
    const model::CrossEncoder* cross_encoder, const kb::KnowledgeBase& kb,
    const std::string& domain,
    const std::vector<data::LinkingExample>& examples) const {
  DomainSide side;
  METABLINK_RETURN_IF_ERROR(
      BuildSide(bi_encoder, cross_encoder, kb, domain, &side));
  return Evaluate(side, examples);
}

util::Result<EvalResult> TwoStageEvaluator::Evaluate(
    const DomainSide& side,
    const std::vector<data::LinkingExample>& examples) const {
  if (examples.empty()) {
    return util::Status::InvalidArgument("no examples to evaluate");
  }
  const auto lists = side.Rank(examples, options_.k, &pool_);
  std::size_t in_candidates = 0;
  std::size_t top1 = 0;
  for (std::size_t i = 0; i < examples.size(); ++i) {
    const auto& cands = lists[i];
    auto gold = [&](const auto& c) { return c.id == examples[i].entity_id; };
    if (std::none_of(cands.begin(), cands.end(), gold)) continue;
    ++in_candidates;
    // The first maximum in retrieval order wins. Stage-1 lists come best
    // first, so without a cross-encoder that is the top hit.
    top1 += gold(*std::max_element(
        cands.begin(), cands.end(),
        [](const auto& a, const auto& b) { return a.score < b.score; }));
  }
  return MakeEvalResult(examples.size(), in_candidates, top1);
}

double NameMatchingAccuracy(const kb::KnowledgeBase& kb,
                            const std::string& domain,
                            const std::vector<data::LinkingExample>& examples,
                            util::Rng* rng) {
  if (examples.empty()) return 0.0;
  kb::TitleIndex index(kb, domain);
  std::size_t correct = 0;
  for (const auto& ex : examples) {
    const auto& exact = index.LookupExact(ex.mention);
    const std::vector<kb::EntityId>* pool = &exact;
    if (pool->empty()) pool = &index.LookupBase(ex.mention);
    if (pool->empty()) continue;
    const kb::EntityId pick = (*pool)[rng->NextUint64(pool->size())];
    if (pick == ex.entity_id) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

}  // namespace metablink::eval
