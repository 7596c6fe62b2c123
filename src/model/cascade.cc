#include "model/cascade.h"

#include <algorithm>
#include <cmath>

#include "tensor/tensor.h"

namespace metablink::model {

namespace {

// "CSCD" little-endian payload tag.
constexpr std::uint32_t kCascadeTag = 0x44435343u;
constexpr std::uint32_t kCascadeVersion = 1;

// Thresholds may be +inf (tier disabled) but never NaN or negative.
bool ValidThreshold(float v) { return !std::isnan(v) && v >= 0.0f; }

}  // namespace

float CascadeModel::ScoreFeatures(const float* features) const {
  return tensor::Dot(weights.data(), features, weights.size()) + bias;
}

void CascadeModel::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(kCascadeTag);
  writer->WriteU32(kCascadeVersion);
  writer->WriteF32(config.margin_tau);
  writer->WriteF32(config.distill_tau);
  writer->WriteF32(config.band_epsilon);
  writer->WriteU64(config.rerank_head_k);
  writer->WriteF32(bias);
  writer->WriteFloatVector(weights);
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
  CascadeModel loaded;
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&loaded.config.margin_tau));
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&loaded.config.distill_tau));
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&loaded.config.band_epsilon));
  std::uint64_t head_k = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&head_k));
  loaded.config.rerank_head_k = static_cast<std::size_t>(head_k);
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&loaded.bias));
  METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&loaded.weights));
  if (!ValidThreshold(loaded.config.margin_tau) ||
      !ValidThreshold(loaded.config.distill_tau) ||
      !ValidThreshold(loaded.config.band_epsilon)) {
    return util::Status::InvalidArgument("cascade threshold is NaN or < 0");
  }
  if (loaded.config.rerank_head_k == 0) {
    return util::Status::InvalidArgument("cascade rerank_head_k must be >= 1");
  }
  if (!loaded.weights.empty()) {
    // Must be CascadeFeatureCount(d) for SOME tower dimension d >= 1; the
    // exact d is checked against the paired cross-encoder at epoch build.
    const std::size_t fixed =
        kNumCascadeBaseFeatures + kNumOverlapFeatures;
    if (loaded.weights.size() < fixed + 2 ||
        (loaded.weights.size() - fixed) % 2 != 0) {
      return util::Status::InvalidArgument(
          "cascade scorer weight count matches no tower dimension");
    }
  }
  if (std::isnan(loaded.bias)) {
    return util::Status::InvalidArgument("cascade scorer bias is NaN");
  }
  for (float w : loaded.weights) {
    if (std::isnan(w)) {
      return util::Status::InvalidArgument("cascade scorer weight is NaN");
    }
  }
  *this = std::move(loaded);
  return util::Status::OK();
}

void CascadeFeaturesInto(const float* scores, std::size_t n, std::size_t rank,
                         const float* mention_vec, const float* entity_vec,
                         std::size_t d, const MentionTokens& mention,
                         const CachedEntityTokens& entity, float* out) {
  const float top1 = scores[0];
  out[0] = scores[rank];
  out[1] = top1 - scores[rank];
  out[2] = static_cast<float>(rank) / static_cast<float>(n);
  out[3] = n > 1 ? top1 - scores[1] : 0.0f;
  float* cursor = out + kNumCascadeBaseFeatures;
  for (std::size_t j = 0; j < d; ++j) {
    cursor[j] = mention_vec[j] * entity_vec[j];
  }
  cursor += d;
  std::copy(entity_vec, entity_vec + d, cursor);
  cursor += d;
  OverlapFeaturesCached(mention, entity, cursor);
}

}  // namespace metablink::model
