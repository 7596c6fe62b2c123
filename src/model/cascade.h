#ifndef METABLINK_MODEL_CASCADE_H_
#define METABLINK_MODEL_CASCADE_H_

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "model/features.h"
#include "util/serialize.h"
#include "util/status.h"

namespace metablink::model {

/// Retrieval-context features leading every cascade feature row:
/// [candidate bi-score, gap to top1, normalized retrieval rank,
/// top1-top2 margin].
inline constexpr std::size_t kNumCascadeBaseFeatures = 4;

/// Length of the distilled scorer's feature row for cross-encoder tower
/// dimension `d`: the base features, the elementwise mention*entity tower
/// product (the cross-encoder's own bilinear interaction), the raw entity
/// tower vector (entity prior), and the kNumOverlapFeatures
/// lexical-interaction features the cross-encoder also consumes. A linear
/// model over this row is a first-order approximation of the cross
/// scoring MLP at ~2d multiplies per candidate instead of the MLP's
/// (3d + overlap) * hidden.
inline constexpr std::size_t CascadeFeatureCount(std::size_t d) {
  return kNumCascadeBaseFeatures + 2 * d + kNumOverlapFeatures;
}

/// Calibrated thresholds of the three-tier rerank cascade. Tier selection
/// for one request with fp32 retrieval margin m (top1 - top2 score):
///
///   m >= margin_tau            -> EXIT: skip rerank, answer from retrieval
///   m >= distill_tau           -> DISTILLED: rescore the ambiguous head
///                                 with the cheap linear scorer
///   otherwise                  -> FULL: cross-encode the ambiguous head
///
/// The "ambiguous head" is the prefix of the retrieval list whose scores
/// sit within `band_epsilon` of top1, capped at `rerank_head_k`. The
/// defaults disable every shortcut (never exit, never distill, head covers
/// the whole band cap), so an uncalibrated config degrades to partial
/// rerank of the top `rerank_head_k` candidates.
struct CascadeConfig {
  /// Early-exit margin threshold (inclusive: a margin equal to tau exits).
  /// +inf never exits; 0 always exits.
  float margin_tau = std::numeric_limits<float>::infinity();
  /// Distilled-tier margin threshold (inclusive). +inf never distills.
  float distill_tau = std::numeric_limits<float>::infinity();
  /// Candidates within this score distance of top1 form the ambiguous
  /// head. +inf means the head is limited by rerank_head_k alone.
  float band_epsilon = std::numeric_limits<float>::infinity();
  /// Hard cap on the ambiguous head (the number of candidates the
  /// distilled or full tier rescores). Always >= 1.
  std::size_t rerank_head_k = 16;
};

/// A calibrated cascade policy plus the distilled middle-tier scorer: a
/// linear model over CascadeFeatureCount(d) features trained
/// (train::CalibrateCascade) to mimic cached cross-encoder scores on the
/// ambiguous head. Small enough to copy by value into each serving epoch;
/// persisted as the CRC-framed "cascade" bundle artifact.
struct CascadeModel {
  CascadeConfig config;
  /// Distilled scorer weights ([CascadeFeatureCount(d)] for the paired
  /// cross-encoder's tower dimension d, or empty). Empty disables the
  /// distilled tier regardless of distill_tau; a non-empty size that does
  /// not match the serving cross-encoder is rejected at epoch build.
  std::vector<float> weights;
  float bias = 0.0f;

  bool has_scorer() const { return !weights.empty(); }

  /// Distilled score of one feature row (see CascadeFeaturesInto).
  /// Pre: has_scorer().
  float ScoreFeatures(const float* features) const;

  // ---- Persistence -------------------------------------------------------

  /// Serializes the "CSCD"-tagged payload.
  void Save(util::BinaryWriter* writer) const;
  /// Loads and validates a payload (tag, threshold sanity, weight shape).
  util::Status Load(util::BinaryReader* reader);
};

/// Fills `out[0..CascadeFeatureCount(d))` for candidate `rank` of one
/// retrieval list. `scores` holds the fp32 retrieval scores of all `n`
/// candidates, best first — the same strict (score desc, id asc) order the
/// retrieval stage produces. `mention_vec` and `entity_vec` are the
/// cross-encoder's mention tower output (CrossEncoder::MentionVecInto,
/// once per request) and cached entity tower row, both of length `d`; the
/// overlap block is computed through the same cached-token path the
/// cross-encoder uses, so training-time and serving-time features are
/// bit-identical.
void CascadeFeaturesInto(const float* scores, std::size_t n, std::size_t rank,
                         const float* mention_vec, const float* entity_vec,
                         std::size_t d, const MentionTokens& mention,
                         const CachedEntityTokens& entity, float* out);

}  // namespace metablink::model

#endif  // METABLINK_MODEL_CASCADE_H_
