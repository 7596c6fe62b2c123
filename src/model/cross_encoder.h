#ifndef METABLINK_MODEL_CROSS_ENCODER_H_
#define METABLINK_MODEL_CROSS_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/features.h"
#include "store/checkpoint.h"
#include "tensor/graph.h"
#include "tensor/parameter.h"
#include "util/rng.h"
#include "util/status.h"

namespace metablink::model {

/// Cross-encoder hyperparameters.
struct CrossEncoderConfig {
  FeatureConfig features;
  /// Embedding dimension of the joint representation.
  std::size_t dim = 64;
  /// Hidden width of the scoring MLP.
  std::size_t hidden = 64;
};

/// Caller-owned scratch for ScoreInference / ScoreCachedInference. Reused
/// across calls, the numeric path is allocation-free after warm-up.
struct CrossScoreScratch {
  MentionText text;  // the example forms' tokens of the mention
  std::vector<std::uint32_t> mention_bag;
  std::vector<std::vector<std::uint32_t>> entity_bags;
  std::vector<float> mention_vec;  // [dim] pooled + tanh'd mention tower
  tensor::Tensor entity_vec;       // [c, dim] pooled + tanh'd entities
  std::vector<float> prefix;       // [hidden] mention_vec · W1[0, dim)
  std::vector<float> pair;         // [2*dim + kNumOverlapFeatures] e, m*e, ov
  std::vector<const float*> entity_rows;  // [c] each candidate's tower row
  std::vector<float> overlaps;     // [c, kNumOverlapFeatures]
  std::vector<float> hidden;       // [c, hidden] the block's hidden layer
  MentionTokens mention_tokens;    // used by ScoreCachedInference only
};

/// Everything about a fixed entity set that candidate scoring reuses:
/// the pooled + tanh'd entity-tower rows and the precomputed overlap
/// tokens, interned into one vocabulary. Built once per served domain
/// (PrecomputeEntities); row i of `entity_vec` / `tokens` corresponds to
/// entity i of the input list.
struct CrossEntityCache {
  tensor::Tensor entity_vec;  // [n, dim]
  std::vector<CachedEntityTokens> tokens;
  TokenVocabulary vocab;      // every token id in `tokens`
};

/// BLINK-style cross-encoder: stage-2 ranker that jointly reads the mention
/// (with context) and a candidate entity (with description) and outputs a
/// relevance score. Where BLINK concatenates the texts into one BERT pass,
/// this model concatenates [mention_vec, entity_vec, mention_vec *
/// entity_vec, dense overlap features] and scores with an MLP — a joint
/// interaction representation the bi-encoder cannot express.
class CrossEncoder {
 public:
  /// Builds a freshly initialized model; a null `rng` leaves every weight
  /// zero.
  CrossEncoder(CrossEncoderConfig config, util::Rng* rng);

  /// Builds the model a SaveCheckpoint container holds, at its stored
  /// config. The stored parameter shapes are checked against that config
  /// and against the bytes that hold them before anything is allocated, so
  /// a crafted config is a Status, never a huge allocation. Weights start
  /// zero and LoadCheckpoint overwrites every one.
  static util::Result<std::unique_ptr<CrossEncoder>> FromCheckpoint(
      const store::CheckpointReader& ckpt);

  /// Scores every candidate for one mention; returns a [c, 1] Var.
  tensor::Var ScoreCandidates(tensor::Graph* graph,
                              const data::LinkingExample& example,
                              const std::vector<kb::Entity>& candidates) const;

  /// Softmax cross-entropy ranking loss over the candidate list; returns a
  /// [1,1] Var. Pre: gold_index < candidates.size().
  tensor::Var RankingLoss(tensor::Graph* graph,
                          const data::LinkingExample& example,
                          const std::vector<kb::Entity>& candidates,
                          std::size_t gold_index) const;

  /// RankingLoss over inputs featurized beforehand (by featurizer()): the
  /// mention's MentionBag, each candidate's EntityBag, and `overlaps`
  /// [c, kNumOverlapFeatures] holding each candidate's OverlapFeatures row.
  /// Both forms score through one body (ScoreBags), so equal inputs give a
  /// bit-identical tape.
  tensor::Var RankingLoss(tensor::Graph* graph,
                          std::vector<std::uint32_t> mention_bag,
                          std::vector<std::vector<std::uint32_t>> entity_bags,
                          tensor::Tensor overlaps,
                          std::size_t gold_index) const;

  /// Inference scores for the candidates (no gradients kept).
  std::vector<float> Score(const data::LinkingExample& example,
                           const std::vector<kb::Entity>& candidates) const;

  /// Tape-free inference: the identical forward computation as
  /// ScoreCandidates run directly through tensor::kernels — zero Graph
  /// nodes, and allocation-free after warm-up when `scratch` and `*out`
  /// are reused. Appends candidate scores to `*out` after clearing it.
  /// Results are bit-identical to Score().
  void ScoreInference(const data::LinkingExample& example,
                      const std::vector<kb::Entity>& candidates,
                      CrossScoreScratch* scratch,
                      std::vector<float>* out) const;

  /// Builds the reusable entity-side cache for a fixed entity set (a
  /// served domain's KB slice): BuildEntitySide's cross half, serially.
  void PrecomputeEntities(const std::vector<kb::Entity>& entities,
                          CrossEntityCache* out) const;

  /// The tower shared by mentions and entities, for one bag featurized by
  /// featurizer(): adds the mean of the bag's table rows to row[0, dim)
  /// (which the caller has zeroed), then applies tanh in place. An entity
  /// bag gives that entity's CrossEntityCache::entity_vec row.
  void TowerRowInto(const std::vector<std::uint32_t>& bag, float* row) const;

  /// ScoreInference against cache rows instead of raw entities: candidate
  /// i is row `rows[i]` of `cache`. The per-candidate tokenization,
  /// hashing, and embedding-bag gather all disappear, and the overlap
  /// features come from interned ids; scores are bit-identical to
  /// ScoreInference / Score on the same entities. The example is tokenized
  /// once, for its bag and its overlap tokens.
  void ScoreCachedInference(const data::LinkingExample& example,
                            const std::vector<std::size_t>& rows,
                            const CrossEntityCache& cache,
                            CrossScoreScratch* scratch,
                            std::vector<float>* out) const;
  /// The same, over the example featurized beforehand: `text` is its
  /// TokenizeMention and `mention_bag` its bag, hashed by featurizer() or by
  /// any featurizer whose FeatureConfig matches (the bi-encoder's, when
  /// FeatureConfigsMatch), so a server that already featurized the mention
  /// for stage 1 neither tokenizes nor hashes it again. The example form
  /// forwards here; equal inputs give bit-identical scores.
  void ScoreCachedInference(const data::LinkingExample& example,
                            const MentionText& text,
                            const std::vector<std::uint32_t>& mention_bag,
                            const std::vector<std::size_t>& rows,
                            const CrossEntityCache& cache,
                            CrossScoreScratch* scratch,
                            std::vector<float>* out) const;

  /// Runs just the mention tower (bag gather + tanh) into
  /// scratch->mention_vec — the per-request half of ScoreCachedInference,
  /// exposed so a profiler can time the tower apart from the scoring MLP.
  /// Bit-identical to the vector ScoreCachedInference computes internally.
  void MentionVecInto(const data::LinkingExample& example,
                      CrossScoreScratch* scratch) const;

  tensor::ParameterStore* params() { return &params_; }
  const tensor::ParameterStore* params() const { return &params_; }
  const Featurizer& featurizer() const { return featurizer_; }
  const CrossEncoderConfig& config() const { return config_; }

  // ---- Checkpointing -----------------------------------------------------

  /// Adds "cross_config" + "cross_params" sections to `ckpt`.
  void SaveCheckpoint(store::CheckpointWriter* ckpt) const;

  /// Restores weights from a container written by SaveCheckpoint. The
  /// stored config must match this model's (InvalidArgument otherwise).
  util::Status LoadCheckpoint(const store::CheckpointReader& ckpt);

 private:
  static util::Result<CrossEncoderConfig> ReadConfig(
      const store::CheckpointReader& ckpt);
  /// Names and shapes of the parameters the constructor creates at
  /// `config`, in creation order.
  static std::vector<tensor::ParameterShape> ParameterShapes(
      const CrossEncoderConfig& config);

  // The tape-free MLP, factored along GemmRaw's accumulation chain. Row i
  // of W1 sees input i, and GemmRaw adds inputs in ascending order, so the
  // mention's block [0, dim) is an exact partial sum shared by every
  // candidate of a request:
  //   PrefixInto:  scratch->prefix = m · W1[0, dim), once per request.
  //   ScoreBlock:  per candidate, continues that chain over
  //                [e, m*e, overlaps] (rows [dim, in) of W1) into its own
  //                row of a [c, hidden] block; then one tanh(+b1) over the
  //                block, then each row's · w2 + b2.
  // Pre for ScoreBlock: scratch->mention_vec and ->prefix are current,
  // scratch->entity_rows holds candidate i's entity-tower row and
  // scratch->overlaps row i its overlap features.
  void PrefixInto(CrossScoreScratch* scratch) const;
  /// The scoring body of ScoreCandidates and both RankingLoss forms, over
  /// featurized inputs: `mention_bag` holds the one mention bag.
  tensor::Var ScoreBags(tensor::Graph* graph,
                        std::vector<std::vector<std::uint32_t>> mention_bag,
                        std::vector<std::vector<std::uint32_t>> entity_bags,
                        tensor::Tensor overlaps) const;
  void ScoreBlock(CrossScoreScratch* scratch, std::vector<float>* out) const;

  CrossEncoderConfig config_;
  Featurizer featurizer_;
  tensor::ParameterStore params_;
  tensor::Parameter* table_;      // shared embedding table for both texts
  tensor::Parameter* w1_;         // [3*dim + kNumOverlapFeatures, hidden]
  tensor::Parameter* b1_;         // [1, hidden]
  tensor::Parameter* w2_;         // [hidden, 1]
  tensor::Parameter* b2_;         // [1, 1]
};

}  // namespace metablink::model

#endif  // METABLINK_MODEL_CROSS_ENCODER_H_
