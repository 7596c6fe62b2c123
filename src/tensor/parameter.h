#ifndef METABLINK_TENSOR_PARAMETER_H_
#define METABLINK_TENSOR_PARAMETER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace metablink::tensor {

/// A trainable weight matrix with its gradient accumulator. Parameters are
/// owned by a ParameterStore and referenced (never copied) by autodiff
/// graphs and optimizers.
///
/// `grad` exists only while something writes gradients: it is empty until
/// EnsureGrad sizes it (zeroed) — ParameterStore::ZeroGrads and the graph
/// leaves that scatter into it call it — and ReleaseGrad frees it again.
/// Every reader treats an empty `grad` as all zeros, so a loaded or fitted
/// model that serves never holds a second copy of its weights.
///
/// Large embedding tables opt into row-sparse gradient tracking
/// (`row_sparse_grad`): ops that scatter into the gradient mark the touched
/// rows, and ZeroGrads / GradDot / optimizers then only visit those rows.
/// This is what makes the per-example gradient loop of the meta trainer
/// tractable (each example touches a few hundred of tens of thousands of
/// rows).
struct Parameter {
  std::string name;
  Tensor value;
  /// Empty, or shaped like `value` (see EnsureGrad).
  Tensor grad;
  /// Enables touched-row tracking; set via ParameterStore::CreateEmbedding.
  bool row_sparse_grad = false;
  /// Rows with (potentially) non-zero gradient, deduplicated via the mask;
  /// the mask is sized with `grad`.
  std::vector<std::uint32_t> touched_rows;
  std::vector<std::uint8_t> touched_mask;

  Parameter(std::string n, std::size_t rows, std::size_t cols)
      : name(std::move(n)), value(rows, cols) {}

  bool has_grad() const { return !grad.empty(); }

  /// Sizes `grad` (and the touched-row mask) zeroed on first use; a no-op
  /// once sized.
  void EnsureGrad() {
    if (has_grad()) return;
    grad = Tensor(value.rows(), value.cols());
    if (row_sparse_grad) touched_mask.assign(value.rows(), 0);
  }

  /// Frees `grad` and the touched-row state; the next EnsureGrad starts
  /// from zeros again.
  void ReleaseGrad() {
    grad = Tensor();
    std::vector<std::uint32_t>().swap(touched_rows);
    std::vector<std::uint8_t>().swap(touched_mask);
  }

  /// Marks `row` as holding gradient (no-op unless row_sparse_grad).
  /// Pre: EnsureGrad has run.
  void TouchRow(std::uint32_t row) {
    if (!row_sparse_grad) return;
    if (touched_mask[row] == 0) {
      touched_mask[row] = 1;
      touched_rows.push_back(row);
    }
  }
};

/// One parameter's name and shape as a checkpoint declares it.
struct ParameterShape {
  std::string name;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Owns a model's parameters. Provides the flattened-gradient views used by
/// the meta-learning reweighting step (gradient dot products) and
/// checkpointing.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /// Creates a zero-initialized parameter. Names must be unique.
  Parameter* Create(const std::string& name, std::size_t rows,
                    std::size_t cols);

  /// Creates a parameter with Xavier/Glorot uniform init:
  /// U(-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))). A null `rng` skips the
  /// init and leaves zeros, for a model whose every value a checkpoint is
  /// about to overwrite (the same holds for CreateNormal/CreateEmbedding).
  Parameter* CreateXavier(const std::string& name, std::size_t rows,
                          std::size_t cols, util::Rng* rng);

  /// Creates a parameter with scaled normal init (std = `stddev`).
  Parameter* CreateNormal(const std::string& name, std::size_t rows,
                          std::size_t cols, float stddev, util::Rng* rng);

  /// Creates an embedding table: normal init plus row-sparse gradient
  /// tracking (see Parameter).
  Parameter* CreateEmbedding(const std::string& name, std::size_t rows,
                             std::size_t cols, float stddev, util::Rng* rng);

  /// Looks up a parameter by name (nullptr if absent).
  Parameter* Find(const std::string& name);
  const Parameter* Find(const std::string& name) const;

  const std::vector<std::unique_ptr<Parameter>>& parameters() const {
    return params_;
  }

  /// Total number of scalar weights.
  std::size_t TotalSize() const;

  /// Zeroes every gradient, sizing any that does not exist yet.
  void ZeroGrads();

  /// Frees every gradient buffer and touched-row list (Parameter::
  /// ReleaseGrad). Training loops call it when they return.
  void ReleaseGrads();

  /// Heap bytes held for values and for gradients (gradient buffers plus
  /// touched-row state).
  struct Bytes {
    std::size_t values = 0;
    std::size_t grads = 0;
  };
  Bytes MemoryBytes() const;

  /// Copies all gradients into one flat vector (parameter registration
  /// order; an unsized gradient reads as zeros). Used to hold the meta
  /// (seed-batch) gradient.
  std::vector<float> FlattenGrads() const;

  /// Dot product of the current gradients with a previously flattened
  /// gradient vector. Pre: snapshot.size() == TotalSize().
  double GradDot(const std::vector<float>& snapshot) const;

  /// Copies all values into one flat vector / restores them.
  std::vector<float> FlattenValues() const;
  util::Status LoadValues(const std::vector<float>& flat);

  /// CRC-32 over every parameter's raw value bytes in registration order.
  /// Two stores with identical weights have identical checksums, which is
  /// how the resume-parity tests and the checkpoint smoke gate assert
  /// bit-identity without holding both models in memory.
  std::uint32_t ValuesCrc32() const;

  /// Serializes names, shapes and values.
  void Save(util::BinaryWriter* writer) const;

  /// Restores values from `reader`, a section holding exactly what Save
  /// wrote. Parameters must already exist with matching names and shapes
  /// (i.e. build the model first, then Load); every float count must equal
  /// its shape, and values are read in place, never resized. The whole
  /// section is checked (CheckSaved against Shapes()) before the first
  /// value is written, so a failed Load leaves every parameter untouched.
  util::Status Load(util::BinaryReader* reader);

  /// Every parameter's name and shape, in registration order.
  std::vector<ParameterShape> Shapes() const;

  /// Checks, without allocating, that `reader` holds a Save section of
  /// exactly `expected`: the same names and shapes in order, no empty
  /// parameter, each float count equal to its shape, every float present
  /// and nothing after the last. Lets a loader reject untrusted shapes
  /// before it builds a model of that size.
  static util::Status CheckSaved(util::BinaryReader reader,
                                 const std::vector<ParameterShape>& expected);

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

/// Releases a store's gradients when it leaves scope, so a training loop
/// gives them back on every return, an error's included.
class ReleaseGradsOnExit {
 public:
  explicit ReleaseGradsOnExit(ParameterStore* store) : store_(store) {}
  ~ReleaseGradsOnExit() { store_->ReleaseGrads(); }
  ReleaseGradsOnExit(const ReleaseGradsOnExit&) = delete;
  ReleaseGradsOnExit& operator=(const ReleaseGradsOnExit&) = delete;

 private:
  ParameterStore* store_;
};

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_PARAMETER_H_
