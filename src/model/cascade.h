#ifndef METABLINK_MODEL_CASCADE_H_
#define METABLINK_MODEL_CASCADE_H_

#include <cstddef>
#include <limits>

#include "util/serialize.h"
#include "util/status.h"

namespace metablink::model {

/// Calibrated thresholds of the two-tier rerank cascade. Tier selection
/// for one request with fp32 retrieval margin m (top1 - top2 score):
///
///   m >= margin_tau            -> EXIT: skip rerank, answer from retrieval
///   otherwise                  -> FULL: cross-encode the ambiguous head
///
/// The "ambiguous head" is the prefix of the retrieval list whose scores
/// sit within `band_epsilon` of top1, capped at `rerank_head_k`. The
/// defaults disable every shortcut (never exit, head covers the whole band
/// cap), so an uncalibrated config degrades to partial rerank of the top
/// `rerank_head_k` candidates.
struct CascadeConfig {
  /// Early-exit margin threshold (inclusive: a margin equal to tau exits).
  /// +inf never exits; 0 always exits.
  float margin_tau = std::numeric_limits<float>::infinity();
  /// Candidates within this score distance of top1 form the ambiguous
  /// head. +inf means the head is limited by rerank_head_k alone.
  float band_epsilon = std::numeric_limits<float>::infinity();
  /// Hard cap on the ambiguous head (the number of candidates the full
  /// tier rescores). Always >= 1.
  std::size_t rerank_head_k = 16;
};

/// A calibrated cascade policy (train::CalibrateCascade). Small enough to
/// copy by value into each serving epoch; persisted as the CRC-framed
/// "cascade" bundle artifact.
struct CascadeModel {
  CascadeConfig config;

  // ---- Persistence -------------------------------------------------------

  /// Serializes the "CSCD"-tagged version-1 payload. The layout keeps the
  /// retired distilled tier's fields (distill_tau, bias, weights), written
  /// as +inf, 0 and an empty vector, so older readers load it unchanged.
  void Save(util::BinaryWriter* writer) const;
  /// Loads and validates a payload (tag, threshold sanity). A legacy
  /// payload's distill_tau and scorer weights are validated exactly as
  /// their writers required, then dropped: its old distilled band serves
  /// through the full head rerank.
  util::Status Load(util::BinaryReader* reader);
};

}  // namespace metablink::model

#endif  // METABLINK_MODEL_CASCADE_H_
