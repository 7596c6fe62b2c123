#ifndef METABLINK_TENSOR_GRAD_WORKSPACE_H_
#define METABLINK_TENSOR_GRAD_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace metablink::tensor {

class Graph;
struct Var;

/// Holds the node gradients for one backward traversal of a Graph.
///
/// Keeping node gradients out of the tape itself lets one forward tape
/// serve several backward passes with different seeds (the meta trainer's
/// one-hot reference passes, then its weighted pass), each over a fresh or
/// Reset workspace. Parameter gradients always go to Parameter::grad /
/// Parameter::TouchRow. Every Graph owns one workspace backing
/// Graph::Backward / Graph::grad.
///
/// Node-gradient buffers allocate lazily on first write and are recycled by
/// Reset() (which zeroes only the buffers dirtied since the previous
/// Reset). The dirty flags double as the sparsity filter for
/// Graph::BackwardWithSeed: a node whose gradient was never written has an
/// exactly-zero gradient, so its backward closure can be skipped without
/// changing any result.
class GradWorkspace {
 public:
  GradWorkspace() = default;
  GradWorkspace(const GradWorkspace&) = delete;
  GradWorkspace& operator=(const GradWorkspace&) = delete;

  /// Read-only gradient of node `v` (zeros if never written).
  const Tensor& grad(const Graph& g, Var v);

  /// Mutable gradient of node `v`; marks it dirty. Closures must only call
  /// this for inputs that actually receive a non-zero contribution, so the
  /// dirty set stays minimal under sparse (one-hot) seeds.
  Tensor& GradForWrite(const Graph& g, Var v);

  /// True when `v`'s gradient has been written since the last Reset.
  bool dirty(Var v) const;

  /// When true (default), BackwardWithSeed skips closures of nodes whose
  /// gradient was never written. Off forces the visit-every-node
  /// traversal: the reference that
  /// ParallelGraphTest.SparsitySkipBackwardMatchesDenseTraversal holds the
  /// skip to, bit for bit.
  void set_sparsity_skip(bool on) { sparsity_skip_ = on; }
  bool sparsity_skip() const { return sparsity_skip_; }

  /// Zeroes every node gradient dirtied since the last Reset.
  void Reset();

 private:
  void EnsureSize(std::size_t n);

  std::vector<Tensor> grads_;  // indexed by node id, lazily shaped
  std::vector<std::uint8_t> dirty_;
  std::vector<std::int32_t> dirty_list_;
  bool sparsity_skip_ = true;
};

/// Tangent buffers for one forward-mode (JVP) sweep over a Graph; see
/// Graph::Jvp. Single-use: construct, sweep, read the root tangent.
class JvpWorkspace {
 public:
  JvpWorkspace() = default;
  JvpWorkspace(const JvpWorkspace&) = delete;
  JvpWorkspace& operator=(const JvpWorkspace&) = delete;

  /// Read-only tangent of node `v` (zeros if never written).
  const Tensor& tangent(const Graph& g, Var v);

  /// Mutable tangent of node `v` (lazily allocated zeros).
  Tensor& TangentForWrite(const Graph& g, Var v);

 private:
  std::vector<Tensor> tangents_;  // indexed by node id
};

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_GRAD_WORKSPACE_H_
