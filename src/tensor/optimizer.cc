#include "tensor/optimizer.h"

#include <cmath>

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace metablink::tensor {

namespace {

// Optimizer-state stream tags, so loading the wrong optimizer type (or a
// non-optimizer section) fails cleanly instead of garbling moments.
constexpr std::uint32_t kSgdStateTag = 0x4D444753u;   // "SGDM"
constexpr std::uint32_t kAdamStateTag = 0x4D414441u;  // "ADAM"

// The gradient Step reads: `p.grad`, or zeros in `*zeros` when no
// backward has sized it (its touched-row list is then empty too).
const float* GradOrZeros(const Parameter& p, std::vector<float>* zeros) {
  if (p.has_grad()) return p.grad.data().data();
  zeros->assign(p.value.size(), 0.0f);
  return zeros->data();
}

}  // namespace

void SgdOptimizer::Step(ParameterStore* store) {
  std::vector<float> zeros;
  for (const auto& p : store->parameters()) {
    auto& val = p->value.data();
    const float* grad = GradOrZeros(*p, &zeros);
    if (momentum_ > 0.0f) {
      auto& vel = velocity_[p.get()];
      if (vel.size() != val.size()) vel.assign(val.size(), 0.0f);
      for (std::size_t i = 0; i < val.size(); ++i) {
        vel[i] = momentum_ * vel[i] + grad[i] + weight_decay_ * val[i];
        val[i] -= lr_ * vel[i];
      }
    } else if (p->row_sparse_grad && weight_decay_ == 0.0f) {
      const std::size_t cols = p->value.cols();
      for (std::uint32_t row : p->touched_rows) {
        const std::size_t base = row * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          val[base + c] -= lr_ * grad[base + c];
        }
      }
    } else {
      for (std::size_t i = 0; i < val.size(); ++i) {
        val[i] -= lr_ * (grad[i] + weight_decay_ * val[i]);
      }
    }
  }
}

void AdamOptimizer::Step(ParameterStore* store) {
  ++t_;
  AdamStepParams step;
  step.lr = lr_;
  step.beta1 = beta1_;
  step.beta2 = beta2_;
  step.eps = eps_;
  step.weight_decay = weight_decay_;
  step.bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  step.bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  std::vector<float> zeros;
  for (const auto& p : store->parameters()) {
    float* val = p->value.data().data();
    const float* grad = GradOrZeros(*p, &zeros);
    auto& mom = moments_[p.get()];
    if (mom.m.size() != p->value.size()) {
      mom.m.assign(p->value.size(), 0.0f);
      mom.v.assign(p->value.size(), 0.0f);
    }
    if (p->row_sparse_grad) {
      // Lazy Adam: rows with zero gradient keep their moments unchanged
      // (standard sparse-Adam approximation for embedding tables).
      const std::size_t cols = p->value.cols();
      for (std::uint32_t row : p->touched_rows) {
        const std::size_t base = row * cols;
        AdamRow(step, grad + base, val + base, mom.m.data() + base,
                mom.v.data() + base, cols);
      }
    } else {
      AdamRow(step, grad, val, mom.m.data(), mom.v.data(), p->value.size());
    }
  }
}

void SgdOptimizer::Save(const ParameterStore& store,
                        util::BinaryWriter* writer) const {
  writer->WriteU32(kSgdStateTag);
  writer->WriteF32(lr_);
  writer->WriteU64(store.parameters().size());
  for (const auto& p : store.parameters()) {
    auto it = velocity_.find(p.get());
    const bool live = it != velocity_.end();
    writer->WriteU32(live ? 1u : 0u);
    if (live) writer->WriteFloatVector(it->second);
  }
}

util::Status SgdOptimizer::Load(const ParameterStore& store,
                                util::BinaryReader* reader) {
  std::uint32_t tag = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&tag));
  if (tag != kSgdStateTag) {
    return util::Status::InvalidArgument("not an SGD optimizer state");
  }
  float lr = 0.0f;
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&lr));
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n != store.parameters().size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "optimizer state has %llu parameters, model has %zu",
        static_cast<unsigned long long>(n), store.parameters().size()));
  }
  std::unordered_map<const Parameter*, std::vector<float>> velocity;
  for (const auto& p : store.parameters()) {
    std::uint32_t live = 0;
    METABLINK_RETURN_IF_ERROR(reader->ReadU32(&live));
    if (live == 0) continue;
    std::vector<float> vel;
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&vel));
    if (vel.size() != p->value.size()) {
      return util::Status::InvalidArgument(
          "optimizer velocity shape mismatch at parameter " + p->name);
    }
    velocity[p.get()] = std::move(vel);
  }
  lr_ = lr;
  velocity_ = std::move(velocity);
  return util::Status::OK();
}

void AdamOptimizer::Save(const ParameterStore& store,
                         util::BinaryWriter* writer) const {
  writer->WriteU32(kAdamStateTag);
  writer->WriteF32(lr_);
  writer->WriteI64(t_);
  writer->WriteU64(store.parameters().size());
  for (const auto& p : store.parameters()) {
    auto it = moments_.find(p.get());
    const bool live = it != moments_.end();
    writer->WriteU32(live ? 1u : 0u);
    if (live) {
      writer->WriteFloatVector(it->second.m);
      writer->WriteFloatVector(it->second.v);
    }
  }
}

util::Status AdamOptimizer::Load(const ParameterStore& store,
                                 util::BinaryReader* reader) {
  std::uint32_t tag = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&tag));
  if (tag != kAdamStateTag) {
    return util::Status::InvalidArgument("not an Adam optimizer state");
  }
  float lr = 0.0f;
  std::int64_t t = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadF32(&lr));
  METABLINK_RETURN_IF_ERROR(reader->ReadI64(&t));
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n != store.parameters().size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "optimizer state has %llu parameters, model has %zu",
        static_cast<unsigned long long>(n), store.parameters().size()));
  }
  std::unordered_map<const Parameter*, Moments> moments;
  for (const auto& p : store.parameters()) {
    std::uint32_t live = 0;
    METABLINK_RETURN_IF_ERROR(reader->ReadU32(&live));
    if (live == 0) continue;
    Moments mom;
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&mom.m));
    METABLINK_RETURN_IF_ERROR(reader->ReadFloatVector(&mom.v));
    if (mom.m.size() != p->value.size() || mom.v.size() != p->value.size()) {
      return util::Status::InvalidArgument(
          "optimizer moment shape mismatch at parameter " + p->name);
    }
    moments[p.get()] = std::move(mom);
  }
  lr_ = lr;
  t_ = t;
  moments_ = std::move(moments);
  return util::Status::OK();
}

}  // namespace metablink::tensor
