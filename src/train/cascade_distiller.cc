#include "train/cascade_distiller.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "eval/evaluator.h"
#include "model/features.h"
#include "tensor/optimizer.h"
#include "tensor/parameter.h"
#include "tensor/tensor.h"

namespace metablink::train {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Everything calibration needs about one example, computed once.
struct CalibrationRow {
  std::vector<retrieval::ScoredEntity> hits;  // retrieval order (desc)
  std::vector<float> cross_scores;            // aligned with hits
  float margin = kInf;                        // top1 - top2 (inf when k=1)
  std::size_t cross_best_rank = 0;            // retrieval rank of full winner
  kb::EntityId cross_best_id = kb::kInvalidEntityId;
  std::vector<float> mention_vec;  // cross-encoder mention tower output
};

/// Index of the best (score desc, id asc) candidate among ranks [0, n).
std::size_t ArgBest(const std::vector<retrieval::ScoredEntity>& hits,
                    const std::vector<float>& scores, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t r = 1; r < n; ++r) {
    if (scores[r] > scores[best] ||
        (scores[r] == scores[best] && hits[r].id < hits[best].id)) {
      best = r;
    }
  }
  return best;
}

}  // namespace

util::Result<model::CascadeModel> CalibrateCascade(
    const model::BiEncoder& bi, const model::CrossEncoder& cross,
    const kb::KnowledgeBase& kb, const std::string& domain,
    const std::vector<data::LinkingExample>& examples,
    const CascadeCalibrationOptions& options,
    CascadeCalibrationReport* report) {
  if (examples.empty()) {
    return util::Status::InvalidArgument(
        "cascade calibration needs at least one example");
  }
  // ---- Full-rerank pass: the same entity side a server builds (chunked
  // entity encode, exact fp32 index, cached cross rerank), so the margins
  // and scores calibrated here are the ones the server will gate on.
  eval::DomainSide side;
  METABLINK_RETURN_IF_ERROR(
      side.Build(&bi, &cross, &kb, domain, /*pool=*/nullptr));
  const retrieval::DenseIndex& index = side.index;
  const model::CrossEntityCache& cross_cache = side.cross_cache;
  const auto& entity_pos = side.entity_pos;

  model::EncodeScratch encode_scratch;
  tensor::Tensor queries;
  bi.EncodeMentionsInference(examples, &encode_scratch, &queries);

  const std::size_t k =
      std::max<std::size_t>(1, std::min(options.retrieve_k, index.size()));
  std::vector<CalibrationRow> rows(examples.size());
  retrieval::TopKScratch topk_scratch;
  model::CrossScoreScratch cross_scratch;
  std::vector<std::size_t> cache_rows;
  for (std::size_t i = 0; i < examples.size(); ++i) {
    CalibrationRow& row = rows[i];
    index.TopKInto(queries.row_data(i), k, &topk_scratch, &row.hits);
    cache_rows.clear();
    for (const auto& h : row.hits) cache_rows.push_back(entity_pos.at(h.id));
    cross.ScoreCachedInference(examples[i], cache_rows, cross_cache,
                               &cross_scratch, &row.cross_scores);
    row.margin = row.hits.size() > 1
                     ? row.hits[0].score - row.hits[1].score
                     : kInf;
    row.cross_best_rank = ArgBest(row.hits, row.cross_scores,
                                  row.hits.size());
    row.cross_best_id = row.hits[row.cross_best_rank].id;
    cross.MentionVecInto(examples[i], &cross_scratch);
    row.mention_vec = cross_scratch.mention_vec;
  }
  const std::size_t cross_d = cross_cache.entity_vec.cols();
  const std::size_t n_features = model::CascadeFeatureCount(cross_d);

  model::CascadeModel cascade;

  // Every knob below is set by NET gold-accuracy harm against a shared
  // budget (default 0: the cascade may not answer worse than full rerank
  // on this set, net). Harm is signed — a high-margin example where
  // retrieval beats the cross-encoder banks credit — which admits far more
  // exits than demanding per-example agreement would, while keeping the
  // aggregate accuracy guarantee exact on the calibration set.
  auto full_correct = [&](std::size_t i) {
    return rows[i].cross_best_id == examples[i].entity_id;
  };
  auto exit_correct = [&](std::size_t i) {
    return rows[i].hits[0].id == examples[i].entity_id;
  };

  // ---- margin_tau / rerank_head_k / band_epsilon: jointly chosen by
  // sweeping every feasible exit cutoff. Rows are grouped by exact margin
  // value so the serving-side `margin >= tau` test selects exactly the
  // chosen prefix (ties exit together or not at all). Exiting MORE is not
  // always cheaper overall: a shorter exit prefix can bank accuracy credit
  // (examples where retrieval beats the cross-encoder) that then buys a
  // much smaller head cap and band for everything else. So for each
  // cutoff whose exit harm fits the budget, the cheapest feasible
  // (head_k, band) pair is derived and the cutoff minimizing total
  // reranked candidates wins.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows[a].margin != rows[b].margin) {
      return rows[a].margin > rows[b].margin;
    }
    return a < b;
  });
  const double budget = options.harm_budget;

  // Net harm of answering every example of `subset` with the cross-argmax
  // over the banded head instead of over the full candidate list.
  auto head_harm = [&](const std::vector<std::size_t>& subset, std::size_t h,
                       float band) {
    double harm = 0.0;
    for (std::size_t i : subset) {
      const CalibrationRow& row = rows[i];
      const std::size_t head = eval::HeadSize(row.hits, band, h);
      const bool correct =
          row.hits[ArgBest(row.hits, row.cross_scores, head)].id ==
          examples[i].entity_id;
      harm += (full_correct(i) ? 1.0 : 0.0) - (correct ? 1.0 : 0.0);
    }
    return harm;
  };
  // The (head cap, band) pair is picked JOINTLY: shrinking the cap first
  // and the band second (or vice versa) gets stuck in poor corners — a
  // mid-size cap with a tight band often reranks far fewer candidates
  // than the smallest standalone-feasible cap. Band candidates are the
  // observed gap values (where some example's in-band count changes), so
  // the grid covers every distinct serving behaviour; per-row in-band
  // counts and prefix-argmax correctness are precomputed once, making the
  // grid scan O(h * bands * examples).
  std::vector<float> band_cands;
  band_cands.push_back(0.0f);
  for (const CalibrationRow& row : rows) {
    for (std::size_t h = 1; h < row.hits.size(); ++h) {
      band_cands.push_back(row.hits[0].score - row.hits[h].score);
    }
  }
  std::sort(band_cands.begin(), band_cands.end());
  band_cands.erase(std::unique(band_cands.begin(), band_cands.end()),
                   band_cands.end());
  constexpr std::size_t kMaxBandCands = 96;
  if (band_cands.size() > kMaxBandCands) {
    std::vector<float> kept;
    for (std::size_t s = 0; s < kMaxBandCands; ++s) {
      kept.push_back(
          band_cands[s * (band_cands.size() - 1) / (kMaxBandCands - 1)]);
    }
    band_cands = std::move(kept);
  }
  // count_at[i][b]: uncapped in-band head size of row i at band_cands[b].
  // correct_at[i][L]: does the cross-argmax over the first L hits answer
  // row i correctly (L is 1-based).
  std::vector<std::vector<std::uint16_t>> count_at(rows.size());
  std::vector<std::vector<std::uint8_t>> correct_at(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CalibrationRow& row = rows[i];
    count_at[i].resize(band_cands.size());
    for (std::size_t b = 0; b < band_cands.size(); ++b) {
      count_at[i][b] = static_cast<std::uint16_t>(
          eval::HeadSize(row.hits, band_cands[b], k));
    }
    correct_at[i].assign(row.hits.size() + 1, 0);
    std::size_t best = 0;
    for (std::size_t len = 1; len <= row.hits.size(); ++len) {
      const std::size_t r = len - 1;
      if (r > 0 && (row.cross_scores[r] > row.cross_scores[best] ||
                    (row.cross_scores[r] == row.cross_scores[best] &&
                     row.hits[r].id < row.hits[best].id))) {
        best = r;
      }
      correct_at[i][len] = row.hits[best].id == examples[i].entity_id;
    }
  }
  // Minimum-rerank-cost feasible (cap, band) for a subset; cap = k with
  // the widest band reranks every candidate (harm 0), so with a
  // non-negative remaining budget a feasible pair always exists.
  auto shrink_head = [&](const std::vector<std::size_t>& subset,
                         double remaining, std::size_t* h_out,
                         float* band_out, double* cost_out) {
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t h = 1; h <= k; ++h) {
      for (std::size_t b = 0; b < band_cands.size(); ++b) {
        double harm = 0.0;
        double cost = 0.0;
        for (std::size_t i : subset) {
          const std::size_t len =
              std::min<std::size_t>(count_at[i][b], h);
          harm += (full_correct(i) ? 1.0 : 0.0) -
                  (correct_at[i][len] ? 1.0 : 0.0);
          cost += static_cast<double>(len);
        }
        if (harm > remaining) continue;
        // Cost only grows with the band at fixed cap: the first feasible
        // band is the cheapest for this cap.
        if (cost < best_cost) {
          best_cost = cost;
          *h_out = h;
          *band_out = band_cands[b];
        }
        break;
      }
    }
    *cost_out = best_cost;
  };

  double exit_harm = 0.0;
  std::size_t head_k = k;
  {
    // Feasible cutoffs: after each margin group (and before any exit)
    // with cumulative exit harm within budget.
    struct Cutoff {
      std::size_t count = 0;  // exited examples
      float tau = kInf;
      double harm = 0.0;
    };
    std::vector<Cutoff> cutoffs;
    if (budget >= 0.0) cutoffs.push_back(Cutoff{});
    double cum = 0.0;
    std::size_t g = 0;
    while (g < order.size()) {
      const float m = rows[order[g]].margin;
      std::size_t end = g;
      while (end < order.size() && rows[order[end]].margin == m) {
        cum += (full_correct(order[end]) ? 1.0 : 0.0) -
               (exit_correct(order[end]) ? 1.0 : 0.0);
        ++end;
      }
      if (cum <= budget) cutoffs.push_back(Cutoff{end, m, cum});
      g = end;
    }
    // Bound the sweep: always keep the extremes, subsample the middle.
    constexpr std::size_t kMaxSweep = 48;
    std::vector<Cutoff> sweep;
    if (cutoffs.size() <= kMaxSweep) {
      sweep = cutoffs;
    } else {
      for (std::size_t s = 0; s < kMaxSweep; ++s) {
        sweep.push_back(cutoffs[s * (cutoffs.size() - 1) / (kMaxSweep - 1)]);
      }
    }
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_count = 0;
    std::vector<std::size_t> subset;
    for (const Cutoff& cut : sweep) {
      subset.assign(order.begin() + cut.count, order.end());
      std::size_t h = k;
      float band = kInf;
      double cost = std::numeric_limits<double>::infinity();
      shrink_head(subset, budget - cut.harm, &h, &band, &cost);
      if (cost < best_cost ||
          (cost == best_cost && cut.count > best_count)) {
        best_cost = cost;
        best_count = cut.count;
        cascade.config.margin_tau = cut.count == 0 ? kInf : cut.tau;
        cascade.config.rerank_head_k = h;
        cascade.config.band_epsilon = band;
        exit_harm = cut.harm;
      }
    }
    head_k = cascade.config.rerank_head_k;
  }
  std::vector<std::size_t> nonexit;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].margin < cascade.config.margin_tau) nonexit.push_back(i);
  }
  const double nonexit_harm =
      head_harm(nonexit, head_k, cascade.config.band_epsilon);

  // ---- Distill the middle-tier scorer: full-batch Adam regression of
  // cross-encoder head scores onto the cheap feature row, over exactly the
  // (example, candidate) pairs the distilled tier could ever see — the
  // final banded heads of the non-exited examples. Deterministic — zero
  // init, fixed example order, no sampling.
  std::vector<float> features;   // [rows x n_features]
  std::vector<float> targets;
  std::vector<float> strip;      // per-example retrieval score strip
  // Resolved per example where its features are built: a MentionTokens
  // holds counts over the whole vocabulary, so rows do not keep one each.
  model::MentionTokens mention_tokens;
  for (std::size_t i : nonexit) {
    const CalibrationRow& row = rows[i];
    cross.featurizer().PrecomputeMentionTokens(examples[i], cross_cache.vocab,
                                               &mention_tokens);
    const std::size_t head =
        eval::HeadSize(row.hits, cascade.config.band_epsilon, head_k);
    strip.resize(row.hits.size());
    for (std::size_t r = 0; r < row.hits.size(); ++r) {
      strip[r] = row.hits[r].score;
    }
    for (std::size_t r = 0; r < head; ++r) {
      const std::size_t base = features.size();
      features.resize(base + n_features);
      model::CascadeFeaturesInto(
          strip.data(), row.hits.size(), r, row.mention_vec.data(),
          cross_cache.entity_vec.row_data(entity_pos.at(row.hits[r].id)),
          cross_d, mention_tokens,
          cross_cache.tokens[entity_pos.at(row.hits[r].id)],
          features.data() + base);
      targets.push_back(row.cross_scores[r]);
    }
  }
  const std::size_t n_rows = targets.size();
  double mse = 0.0;
  if (n_rows > 0) {
    tensor::ParameterStore store;
    tensor::Parameter* w =
        store.Create("cascade_w", n_features, 1);
    tensor::Parameter* b = store.Create("cascade_b", 1, 1);
    tensor::AdamOptimizer adam(options.distill_lr);
    std::vector<double> grad_w(n_features);
    for (std::size_t step = 0; step < options.distill_steps; ++step) {
      std::fill(grad_w.begin(), grad_w.end(), 0.0);
      double grad_b = 0.0;
      mse = 0.0;
      for (std::size_t r = 0; r < n_rows; ++r) {
        const float* x = features.data() + r * n_features;
        double pred = static_cast<double>(b->value.data()[0]);
        for (std::size_t j = 0; j < n_features; ++j) {
          pred += static_cast<double>(w->value.data()[j]) * x[j];
        }
        const double err = pred - targets[r];
        mse += err * err;
        for (std::size_t j = 0; j < n_features; ++j) {
          grad_w[j] += 2.0 * err * x[j];
        }
        grad_b += 2.0 * err;
      }
      const double inv = 1.0 / static_cast<double>(n_rows);
      mse *= inv;
      store.ZeroGrads();
      for (std::size_t j = 0; j < n_features; ++j) {
        w->grad.data()[j] = static_cast<float>(grad_w[j] * inv);
      }
      b->grad.data()[0] = static_cast<float>(grad_b * inv);
      adam.Step(&store);
    }
    cascade.weights = w->value.data();
    cascade.bias = b->value.data()[0];
  }

  // ---- distill_tau: route the largest high-margin prefix of the
  // NON-exited examples to the distilled tier. Moving an example from the
  // full tier to the distilled tier changes its harm by (head answer
  // correct) - (distilled answer correct); the largest prefix whose summed
  // change fits the remaining budget wins, with margin ties again routed
  // together.
  std::vector<std::size_t> distilled_best(rows.size(), 0);
  {
    std::vector<bool> head_correct(rows.size(), false);
    std::vector<bool> distilled_correct(rows.size(), false);
    std::vector<float> distilled;
    std::vector<float> feat_row(n_features);
    for (std::size_t i : nonexit) {
      const CalibrationRow& row = rows[i];
      const std::size_t head =
          eval::HeadSize(row.hits, cascade.config.band_epsilon, head_k);
      head_correct[i] =
          row.hits[ArgBest(row.hits, row.cross_scores, head)].id ==
          examples[i].entity_id;
      if (!cascade.has_scorer()) continue;
      cross.featurizer().PrecomputeMentionTokens(
          examples[i], cross_cache.vocab, &mention_tokens);
      strip.resize(row.hits.size());
      for (std::size_t r = 0; r < row.hits.size(); ++r) {
        strip[r] = row.hits[r].score;
      }
      distilled.resize(head);
      for (std::size_t r = 0; r < head; ++r) {
        model::CascadeFeaturesInto(
            strip.data(), row.hits.size(), r, row.mention_vec.data(),
            cross_cache.entity_vec.row_data(entity_pos.at(row.hits[r].id)),
            cross_d, mention_tokens,
            cross_cache.tokens[entity_pos.at(row.hits[r].id)],
            feat_row.data());
        distilled[r] = cascade.ScoreFeatures(feat_row.data());
      }
      distilled_best[i] = ArgBest(row.hits, distilled, head);
      distilled_correct[i] =
          row.hits[distilled_best[i]].id == examples[i].entity_id;
    }
    std::sort(nonexit.begin(), nonexit.end(),
              [&](std::size_t a, std::size_t b) {
                if (rows[a].margin != rows[b].margin) {
                  return rows[a].margin > rows[b].margin;
                }
                return a < b;
              });
    float tau = kInf;
    std::size_t accepted = 0;
    if (cascade.has_scorer()) {
      const double remaining = budget - exit_harm - nonexit_harm;
      double cum = 0.0;
      std::size_t g = 0;
      while (g < nonexit.size()) {
        const float m = rows[nonexit[g]].margin;
        std::size_t end = g;
        while (end < nonexit.size() && rows[nonexit[end]].margin == m) {
          const std::size_t i = nonexit[end];
          cum += (head_correct[i] ? 1.0 : 0.0) -
                 (distilled_correct[i] ? 1.0 : 0.0);
          ++end;
        }
        if (cum <= remaining) {
          tau = m;
          accepted = end;
        }
        g = end;
      }
    }
    cascade.config.distill_tau = accepted == 0 ? kInf : tau;
  }

  // ---- Simulate the calibrated cascade for the report.
  if (report != nullptr) {
    *report = CascadeCalibrationReport{};
    report->examples = rows.size();
    report->head_k = head_k;
    report->distill_mse = mse;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CalibrationRow& row = rows[i];
      kb::EntityId predicted;
      if (row.margin >= cascade.config.margin_tau) {
        ++report->exit_eligible;
        predicted = row.hits[0].id;
      } else if (row.margin >= cascade.config.distill_tau) {
        ++report->distill_eligible;
        predicted = row.hits[distilled_best[i]].id;
      } else {
        const std::size_t head =
            eval::HeadSize(row.hits, cascade.config.band_epsilon, head_k);
        predicted = row.hits[ArgBest(row.hits, row.cross_scores, head)].id;
      }
      if (predicted == examples[i].entity_id) ++report->accuracy_cascade;
      if (row.cross_best_id == examples[i].entity_id) {
        ++report->accuracy_full;
      }
    }
    report->accuracy_full /= static_cast<double>(rows.size());
    report->accuracy_cascade /= static_cast<double>(rows.size());
  }
  return cascade;
}

}  // namespace metablink::train
