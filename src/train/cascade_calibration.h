#ifndef METABLINK_TRAIN_CASCADE_CALIBRATION_H_
#define METABLINK_TRAIN_CASCADE_CALIBRATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/example.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "util/status.h"

namespace metablink::train {

/// Knobs for CalibrateCascade.
struct CascadeCalibrationOptions {
  /// Candidate-list length; matches ServerOptions::retrieve_k at serving
  /// time so calibration sees the lists the cascade will see.
  std::size_t retrieve_k = 64;
};

/// Diagnostics from one calibration run (all measured on the calibration
/// examples themselves).
struct CascadeCalibrationReport {
  std::size_t examples = 0;
  /// Requests whose margin clears margin_tau (would exit).
  std::size_t exit_eligible = 0;
  /// Final ambiguous-head cap after the budgeted shrink.
  std::size_t head_k = 0;
  /// Exact-match accuracy of full cross-encoder rerank over all retrieve_k.
  double accuracy_full = 0.0;
  /// Exact-match accuracy of the simulated cascade with the calibrated
  /// thresholds. Calibration guarantees accuracy_cascade >= accuracy_full
  /// on this set.
  double accuracy_cascade = 0.0;
};

/// Calibrates the two-tier rerank cascade (exit, or cross-encode the
/// ambiguous head) against the frozen bi/cross encoders, offline, on
/// `examples` (a Zeshel-like eval slice of `domain`).
///
/// Procedure (deterministic; no RNG). Every knob is chosen under a NET
/// gold-accuracy harm budget of 0: a decision that loses an answer full
/// rerank got right costs 1, one that gains an answer full rerank missed
/// earns 1 back, and the running total may not exceed 0.
///   1. Retrieve top-`retrieve_k` per example with an exact fp32 index
///      built exactly like a serving epoch, then full cross-encoder rerank
///      through the same ScoreCachedInference path the server uses.
///   2. margin_tau = the exact margin bounding a high-margin prefix whose
///      net harm from exiting (answering with retrieval top1) fits the
///      budget; margin ties exit together or not at all.
///   3. rerank_head_k and band_epsilon = the cheapest (cap, band) pair
///      whose net harm from answering non-exited examples with the
///      cross-argmax over the banded head fits what the exits left of the
///      budget (cap = retrieve_k is always feasible: harm 0). The exit
///      prefix is swept jointly with this pair, and the one that reranks
///      the fewest candidates in total wins.
///
/// So the simulated cascade's calibration-set accuracy is never below
/// full rerank's — the accuracy-delta gate in bench_serving measures
/// exactly how this transfers to serving.
util::Result<model::CascadeModel> CalibrateCascade(
    const model::BiEncoder& bi, const model::CrossEncoder& cross,
    const kb::KnowledgeBase& kb, const std::string& domain,
    const std::vector<data::LinkingExample>& examples,
    const CascadeCalibrationOptions& options = {},
    CascadeCalibrationReport* report = nullptr);

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_CASCADE_CALIBRATION_H_
