#include "model/cascade.h"

#include <cmath>
#include <vector>

#include "model/features.h"

namespace metablink::model {

namespace {

// "CSCD" little-endian payload tag.
constexpr std::uint32_t kCascadeTag = 0x44435343u;
constexpr std::uint32_t kCascadeVersion = 1;

// Fixed part of the retired distilled scorer's feature row: four
// retrieval-context features and the lexical overlap block. The rest was
// 2 * d tower features for the cross-encoder's dimension d.
constexpr std::size_t kLegacyScorerFixedFeatures = 4 + kNumOverlapFeatures;

// Thresholds may be +inf (tier disabled) but never NaN or negative.
bool ValidThreshold(float v) { return !std::isnan(v) && v >= 0.0f; }

}  // namespace

void CascadeModel::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(kCascadeTag);
  writer->WriteU32(kCascadeVersion);
  writer->WriteF32(config.margin_tau);
  writer->WriteF32(std::numeric_limits<float>::infinity());  // distill_tau
  writer->WriteF32(config.band_epsilon);
  writer->WriteU64(config.rerank_head_k);
  writer->WriteF32(0.0f);        // scorer bias
  writer->WriteFloatVector({});  // scorer weights
}

util::Status CascadeModel::Load(util::BinaryReader* reader) {
  std::uint32_t tag = 0;
  std::uint32_t version = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&tag));
  if (tag != kCascadeTag) {
    return util::Status::InvalidArgument("not a cascade artifact");
  }
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version == 0 || version > kCascadeVersion) {
    return util::Status::InvalidArgument("unsupported cascade version");
  }
  CascadeConfig loaded;
  float distill_tau = 0.0f;
  float bias = 0.0f;
  std::vector<float> weights;
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&loaded.margin_tau));
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&distill_tau));
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&loaded.band_epsilon));
  std::uint64_t head_k = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&head_k));
  loaded.rerank_head_k = static_cast<std::size_t>(head_k);
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&bias));
  METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&weights));
  if (!ValidThreshold(loaded.margin_tau) || !ValidThreshold(distill_tau) ||
      !ValidThreshold(loaded.band_epsilon)) {
    return util::Status::InvalidArgument("cascade threshold is NaN or < 0");
  }
  if (loaded.rerank_head_k == 0) {
    return util::Status::InvalidArgument("cascade rerank_head_k must be >= 1");
  }
  // A legacy scorer block is checked as its writers required (a weight
  // count that matches some tower dimension d >= 1, no NaN), then dropped.
  if (!weights.empty() &&
      (weights.size() < kLegacyScorerFixedFeatures + 2 ||
       (weights.size() - kLegacyScorerFixedFeatures) % 2 != 0)) {
    return util::Status::InvalidArgument(
        "cascade scorer weight count matches no tower dimension");
  }
  if (std::isnan(bias)) {
    return util::Status::InvalidArgument("cascade scorer bias is NaN");
  }
  for (float w : weights) {
    if (std::isnan(w)) {
      return util::Status::InvalidArgument("cascade scorer weight is NaN");
    }
  }
  config = loaded;
  return util::Status::OK();
}

}  // namespace metablink::model
