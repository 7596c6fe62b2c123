#ifndef METABLINK_EVAL_EVALUATOR_H_
#define METABLINK_EVAL_EVALUATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "data/example.h"
#include "eval/metrics.h"
#include "kb/knowledge_base.h"
#include "kb/title_index.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace metablink::eval {

/// Evaluation knobs.
struct EvaluatorOptions {
  /// Stage-1 candidate count (paper: 64).
  std::size_t k = 64;
  /// Worker threads for retrieval / cross scoring (0 = hardware).
  std::size_t num_threads = 0;
};

/// Reusable buffers for DomainSide::Rescore.
struct RescoreScratch {
  model::CrossScoreScratch cross;
  std::vector<std::size_t> rows;
  std::vector<float> scores;
};

/// Sorts best first: score descending, ties by ascending id.
void SortBestFirst(std::vector<retrieval::ScoredEntity>::iterator begin,
                   std::vector<retrieval::ScoredEntity>::iterator end);

/// The rerank cascade's ambiguous head, the one rule serving and
/// calibration share: the prefix of retrieval-ordered (score descending)
/// `hits` within `band` of the top score, capped at `head_k`, never empty.
std::size_t HeadSize(const std::vector<retrieval::ScoredEntity>& hits,
                     float band, std::size_t head_k);

/// One domain's tape-free entity side over borrowed encoders and KB: the
/// bi-encoder index and cross-encoder rerank cache (model::BuildEntitySide)
/// of its entities. Built once, it ranks any number of mentions, bit-
/// identically to the tape forms; serving, evaluation, candidate mining and
/// offline linking all rank against one. The encoders and KB must outlive
/// it and must not change while it is in use.
struct DomainSide {
  std::string domain;
  const model::BiEncoder* bi = nullptr;
  /// Null: retrieval only, `cross_cache` stays empty.
  const model::CrossEncoder* cross = nullptr;
  const kb::KnowledgeBase* kb = nullptr;
  retrieval::DenseIndex index;
  model::CrossEntityCache cross_cache;
  std::unordered_map<kb::EntityId, std::size_t> entity_pos;  // id -> row

  /// Builds `domain`'s side, chunked on `pool` (nullptr: serially).
  util::Status Build(const model::BiEncoder* bi,
                     const model::CrossEncoder* cross,
                     const kb::KnowledgeBase* kb, const std::string& domain,
                     util::ThreadPool* pool);
  /// Fills `entity_pos` from the index's row ids.
  void MapRows();

  /// Sets the scores of cands[0, n) to the cross-encoder's, in place
  /// (CrossEncoder::ScoreCachedInference). `text` is the example's
  /// TokenizeMention and `mention_bag` its bag in the cross-encoder's
  /// feature space, already hashed (by cross->featurizer(), or by a
  /// featurizer whose FeatureConfig matches). Pre: `cross` is set.
  void Rescore(const data::LinkingExample& example,
               const model::MentionText& text,
               const std::vector<std::uint32_t>& mention_bag,
               retrieval::ScoredEntity* cands, std::size_t n,
               RescoreScratch* scratch) const;

  /// Each example's top-`k` entities (DenseIndex::BatchTopK) in retrieval
  /// order, rescored when there is a cross-encoder. Runs on `pool`
  /// (nullptr: serially).
  std::vector<std::vector<retrieval::ScoredEntity>> Rank(
      const std::vector<data::LinkingExample>& examples, std::size_t k,
      util::ThreadPool* pool) const;

  /// Rank, with each list sorted best first.
  std::vector<std::vector<retrieval::ScoredEntity>> Link(
      const std::vector<data::LinkingExample>& examples, std::size_t k,
      util::ThreadPool* pool) const;
};

/// Runs the paper's two-stage evaluation protocol: bi-encoder retrieval of
/// the top-k entities of the mention's domain, then cross-encoder ranking of
/// the retrieved candidates.
class TwoStageEvaluator {
 public:
  explicit TwoStageEvaluator(EvaluatorOptions options = {});

  /// Full two-stage evaluation of `examples` (all of one domain) against
  /// the entities of `domain`. Pass a null cross_encoder to rank candidates
  /// by the stage-1 score instead (bi-encoder-only evaluation). Safe to
  /// call concurrently: all mutable state is per-call, and the shared
  /// thread pool's scheduling APIs are thread-safe.
  util::Result<EvalResult> Evaluate(
      const model::BiEncoder& bi_encoder,
      const model::CrossEncoder* cross_encoder, const kb::KnowledgeBase& kb,
      const std::string& domain,
      const std::vector<data::LinkingExample>& examples) const;

  /// Evaluate against a prebuilt side (ranked by its cross-encoder, if
  /// any). The first best score in retrieval order is the prediction.
  util::Result<EvalResult> Evaluate(
      const DomainSide& side,
      const std::vector<data::LinkingExample>& examples) const;

  /// DomainSide::Build on this evaluator's pool.
  util::Status BuildSide(const model::BiEncoder& bi_encoder,
                         const model::CrossEncoder* cross_encoder,
                         const kb::KnowledgeBase& kb,
                         const std::string& domain, DomainSide* side) const;

  /// Stage-1 only: builds the domain index and returns per-example
  /// candidate lists (used by cross-encoder training to mine candidates).
  /// Safe to call concurrently (see Evaluate).
  util::Result<std::vector<std::vector<retrieval::ScoredEntity>>>
  RetrieveCandidates(const model::BiEncoder& bi_encoder,
                     const kb::KnowledgeBase& kb, const std::string& domain,
                     const std::vector<data::LinkingExample>& examples) const;

 private:
  EvaluatorOptions options_;
  // The pool's Submit/ParallelFor* entry points are internally
  // synchronized; mutable lets the logically-const evaluation paths share
  // one pool across concurrent callers.
  mutable util::ThreadPool pool_;
};

/// The Name Matching baseline (Riedel et al.): a mention links to the
/// entity whose title exactly matches it (falling back to disambiguated
/// base-title matches); ties are broken uniformly at random with `rng`;
/// unmatched mentions count as wrong. Returns end-to-end accuracy (U.Acc.).
double NameMatchingAccuracy(const kb::KnowledgeBase& kb,
                            const std::string& domain,
                            const std::vector<data::LinkingExample>& examples,
                            util::Rng* rng);

}  // namespace metablink::eval

#endif  // METABLINK_EVAL_EVALUATOR_H_
