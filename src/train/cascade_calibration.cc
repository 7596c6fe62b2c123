#include "train/cascade_calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "eval/evaluator.h"

namespace metablink::train {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Net gold-accuracy harm every knob must fit: the calibrated cascade may
/// not answer worse than full rerank on its calibration set, net.
constexpr double kHarmBudget = 0.0;

/// Everything calibration needs about one example, computed once.
struct CalibrationRow {
  std::vector<retrieval::ScoredEntity> hits;  // retrieval order (desc)
  std::vector<float> cross_scores;            // aligned with hits
  float margin = kInf;                        // top1 - top2 (inf when k=1)
  kb::EntityId cross_best_id = kb::kInvalidEntityId;  // full-rerank winner
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
    row.cross_best_id =
        row.hits[ArgBest(row.hits, row.cross_scores, row.hits.size())].id;
  }

  model::CascadeModel cascade;

  // Every knob below is set by NET gold-accuracy harm against a shared
  // budget of 0 (the cascade may not answer worse than full rerank on this
  // set, net). Harm is signed — a high-margin example where
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

  {
    // Feasible cutoffs: after each margin group (and before any exit)
    // with cumulative exit harm within budget.
    struct Cutoff {
      std::size_t count = 0;  // exited examples
      float tau = kInf;
      double harm = 0.0;
    };
    std::vector<Cutoff> cutoffs(1);
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
      if (cum <= kHarmBudget) cutoffs.push_back(Cutoff{end, m, cum});
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
      shrink_head(subset, kHarmBudget - cut.harm, &h, &band, &cost);
      if (cost < best_cost ||
          (cost == best_cost && cut.count > best_count)) {
        best_cost = cost;
        best_count = cut.count;
        cascade.config.margin_tau = cut.count == 0 ? kInf : cut.tau;
        cascade.config.rerank_head_k = h;
        cascade.config.band_epsilon = band;
      }
    }
  }

  // ---- Simulate the calibrated cascade for the report.
  if (report != nullptr) {
    *report = CascadeCalibrationReport{};
    report->examples = rows.size();
    report->head_k = cascade.config.rerank_head_k;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CalibrationRow& row = rows[i];
      kb::EntityId predicted;
      if (row.margin >= cascade.config.margin_tau) {
        ++report->exit_eligible;
        predicted = row.hits[0].id;
      } else {
        const std::size_t head =
            eval::HeadSize(row.hits, cascade.config.band_epsilon,
                           cascade.config.rerank_head_k);
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
