#ifndef METABLINK_TENSOR_OPTIMIZER_H_
#define METABLINK_TENSOR_OPTIMIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/parameter.h"

namespace metablink::tensor {

/// Interface for gradient-based parameter updates. Step() consumes the
/// gradients currently accumulated in each Parameter::grad; callers zero
/// gradients themselves (ParameterStore::ZeroGrads) before each step.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update to every parameter in `store`.
  virtual void Step(ParameterStore* store) = 0;

  /// The current learning rate.
  virtual float learning_rate() const = 0;
  virtual void set_learning_rate(float lr) = 0;

  /// Serializes the full update state (step counters, per-parameter moment
  /// buffers) in `store`'s parameter order, so a restored optimizer resumes
  /// bit-identically — Parameter::Save alone drops this state. `store` must
  /// be the same model the optimizer has been stepping. Load parses the
  /// whole state before it replaces any of its own, so a failed Load
  /// leaves the optimizer as it was.
  virtual void Save(const ParameterStore& store,
                    util::BinaryWriter* writer) const = 0;
  virtual util::Status Load(const ParameterStore& store,
                            util::BinaryReader* reader) = 0;
};

/// Plain SGD with optional momentum and decoupled weight decay.
class SgdOptimizer : public Optimizer {
 public:
  explicit SgdOptimizer(float lr, float momentum = 0.0f,
                        float weight_decay = 0.0f)
      : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {}

  void Step(ParameterStore* store) override;
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  void Save(const ParameterStore& store,
            util::BinaryWriter* writer) const override;
  util::Status Load(const ParameterStore& store,
                    util::BinaryReader* reader) override;

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::unordered_map<const Parameter*, std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba). The paper optimizes both encoders with Adam at
/// lr = 2e-5 for BERT-scale nets; our feature models use a larger default.
class AdamOptimizer : public Optimizer {
 public:
  explicit AdamOptimizer(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                         float eps = 1e-8f, float weight_decay = 0.0f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
        weight_decay_(weight_decay) {}

  void Step(ParameterStore* store) override;
  float learning_rate() const override { return lr_; }
  void set_learning_rate(float lr) override { lr_ = lr; }
  void Save(const ParameterStore& store,
            util::BinaryWriter* writer) const override;
  util::Status Load(const ParameterStore& store,
                    util::BinaryReader* reader) override;

  std::int64_t step_count() const { return t_; }

 private:
  struct Moments {
    std::vector<float> m;
    std::vector<float> v;
  };

  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t t_ = 0;
  std::unordered_map<const Parameter*, Moments> moments_;
};

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_OPTIMIZER_H_
