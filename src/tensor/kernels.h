#ifndef METABLINK_TENSOR_KERNELS_H_
#define METABLINK_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace metablink::util {
class ThreadPool;
}  // namespace metablink::util

namespace metablink::tensor {

/// Cache-blocked matrix kernels shared by the Graph ops, the retrieval
/// index, and the benchmarks. All kernels ACCUMULATE into C (callers that
/// want assignment zero C first), and all preserve the per-element
/// accumulation order of the original scalar loops in graph.cc: for a fixed
/// output element, contributions are added in ascending reduction index.
/// That makes the blocked/parallel versions bit-identical to the seed
/// implementation (parallel splits only distribute disjoint output rows).
///
/// Zero-skip rules: adding `0.0f * x` elementwise is elided. Under IEEE-754
/// this is exact — `y + (+0)` returns y unchanged, and a float accumulator
/// cannot flip sign by skipping an addition of +0.

/// C[n,m] += A[n,k] * B[k,m]. Raw row-major pointers; `a` may be a row
/// slice of a larger matrix as long as its stride is `k`.
/// Skips zero elements of A (sparse one-hot gradients make this common).
void GemmRaw(const float* a, const float* b, float* c, std::size_t n,
             std::size_t k, std::size_t m);

/// c[0,m) += a[0,k) * B[k,m] for ONE output row, continuing whatever
/// partial sums `c` already holds: element j receives a[p] * B[p,j] for
/// p ascending, skipping zero a[p] — exactly GemmRaw's chain for that row
/// (separately rounded multiply and add, never fused). So a GemmRaw row
/// over k1 + k2 inputs equals this call over the first k1 rows of B
/// followed by this call over the remaining k2, bit for bit.
///
/// The x86 path keeps 64 output columns at a time (then 32) in AVX registers
/// across the whole reduction instead of streaming `c` through memory per
/// input; a scalar
/// fallback serves other CPUs. One implementation is selected per process
/// by CPU capability; both produce identical bits.
void GemmRowChain(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m);

/// True when the runtime-dispatched AVX2 GemmRowChain is active; false on
/// the portable scalar fallback.
bool GemmRowChainUsesSimd();

/// c[0,m) += alpha * table[ids[t]][0,m) for t = 0..n-1 ascending: the
/// embedding-bag gather, continuing whatever `c` already holds. Element j
/// receives one separately rounded multiply and one add per id, in id
/// order, so the result equals the loop of Axpy(alpha, row, c, m) calls
/// over the same ids bit for bit (repeated ids are added again; n == 0
/// leaves `c` untouched). `table` is row-major with row stride `m`; the
/// caller has checked every id against its row count.
///
/// Dispatched like GemmRowChain: the x86 path keeps 64 output columns at a
/// time (then 32) in AVX registers across the whole bag instead of storing
/// `c` after every id, and a scalar fallback serves other CPUs.
void BagRowChain(const std::uint32_t* ids, std::size_t n, float alpha,
                 const float* table, float* c, std::size_t m);

/// True when the AVX2 BagRowChain is active.
bool BagRowChainUsesSimd();

/// True when Axpy (tensor.h) runs its AVX2 body.
bool AxpyUsesSimd();

/// Hyperparameters of one Adam step, with the step's bias corrections
/// bc1 = 1 - beta1^t and bc2 = 1 - beta2^t already evaluated.
struct AdamStepParams {
  float lr = 0.0f;
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float eps = 0.0f;
  float weight_decay = 0.0f;
  float bc1 = 1.0f;
  float bc2 = 1.0f;
};

/// One Adam update of n contiguous elements (a touched embedding row, or a
/// whole dense parameter). Element i runs exactly AdamOptimizer's scalar
/// update, every operation separately rounded and in this order:
///   g = grad[i] + weight_decay * val[i]
///   m[i] = beta1 * m[i] + (1 - beta1) * g
///   v[i] = beta2 * v[i] + (1 - beta2) * g * g
///   val[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + eps)
/// Elementwise, so the AVX2 body (eight elements at a time, never fused)
/// and the scalar tail/fallback give the same bits; dispatched once per
/// process like GemmRowChain.
void AdamRow(const AdamStepParams& p, const float* grad, float* val, float* m,
             float* v, std::size_t n);

/// True when the AVX2 AdamRow is active.
bool AdamRowUsesSimd();

/// x[i] = tanh(x[i]) for i in [0, n), in place: the single tanh of every
/// forward pass (Graph::Tanh and both encoders' tape-free towers and rerank
/// MLP). Each element is computed by a port of fdlibm's float `__tanhf` and
/// `__expm1f` (the algorithm glibc 2.36's `tanhf` runs), so the results do
/// not depend on the host's libm. The AVX2 body evaluates every
/// branch of that algorithm for eight lanes and blends, with the same
/// separately rounded operations as the scalar body (never fused), so both
/// produce identical bits; dispatched once per process like GemmRowChain.
void Tanh(float* x, std::size_t n);

/// True when Tanh runs its AVX2 body.
bool TanhUsesSimd();

/// Tanh's two bodies, for tests and benches that run one against the
/// other. TanhAvx2 may only be called when TanhUsesSimd() is true.
void TanhScalar(float* x, std::size_t n);
void TanhAvx2(float* x, std::size_t n);

/// out[i] = (x[i,0,m) · w[0,m)) + bias for each of the n rows of x [n, m]:
/// every row's [1, m] x [m, 1] GemmRaw (its products added in ascending
/// column order from +0, zero x[i,j] skipped, separately rounded) followed
/// by the bias add. Rows are independent chains, so they run eight at a
/// time, each in its own order; the bits equal a GemmRaw of each row.
void RowDotsSkipZero(const float* x, const float* w, std::size_t n,
                     std::size_t m, float bias, float* out);

/// C[n,m] += A[n,d] * B[m,d]^T. Each output element is one Dot; B rows are
/// tiled so a panel stays cache-resident across consecutive A rows.
void GemmTransposeBRaw(const float* a, const float* b, float* c,
                       std::size_t n, std::size_t d, std::size_t m);

/// C[k,m] += A[n,k]^T * B[n,m], restricted to output rows
/// [k_begin, k_end). The range split lets callers parallelize over
/// disjoint output rows while every element still accumulates its
/// contributions in ascending i order. Skips zero A elements and all-zero
/// B rows.
void GemmTransposeARaw(const float* a, const float* b, float* c,
                       std::size_t n, std::size_t k, std::size_t m,
                       std::size_t k_begin, std::size_t k_end);

/// out += a * b, splitting output rows across `pool` (nullptr ⇒ serial).
/// Shapes: a [n,k], b [k,m], out [n,m].
void Gemm(const Tensor& a, const Tensor& b, Tensor* out,
          util::ThreadPool* pool);

/// out += a * b^T, splitting output rows across `pool` (nullptr ⇒ serial).
/// Shapes: a [n,d], b [m,d], out [n,m].
void GemmTransposeB(const Tensor& a, const Tensor& b, Tensor* out,
                    util::ThreadPool* pool);

/// out += a^T * b, splitting output rows (columns of a) across `pool`
/// (nullptr ⇒ serial). Shapes: a [n,k], b [n,m], out [k,m].
void GemmTransposeA(const Tensor& a, const Tensor& b, Tensor* out,
                    util::ThreadPool* pool);

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_KERNELS_H_
