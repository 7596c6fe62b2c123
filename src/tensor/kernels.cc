#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define METABLINK_KERNELS_X86 1
#endif

#include "util/logging.h"
#include "util/parallel_trace.h"
#include "util/thread_pool.h"

namespace metablink::tensor {

namespace {

// Panel heights chosen so one panel of a 128-wide float matrix fits in L1
// alongside the output row being accumulated.
constexpr std::size_t kPanelK = 64;  // B rows per panel in GemmRaw.
constexpr std::size_t kPanelM = 64;  // B rows per panel in GemmTransposeBRaw.

bool AllZero(const float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0.0f) return false;
  }
  return true;
}

// Output columns one GemmRowChain pass keeps in registers.
constexpr std::size_t kChainBlock = 32;

// Columns [j0, m) of GemmRowChain, kChainBlock at a time in a local array.
void RowChainColumns(const float* a, const float* b, float* c, std::size_t k,
                     std::size_t m, std::size_t j0) {
  float acc[kChainBlock];
  for (std::size_t jb = j0; jb < m; jb += kChainBlock) {
    const std::size_t w = std::min(kChainBlock, m - jb);
    std::copy(c + jb, c + jb + w, acc);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * m + jb;
      for (std::size_t j = 0; j < w; ++j) acc[j] += av * brow[j];
    }
    std::copy(acc, acc + w, c + jb);
  }
}

void GemmRowChainScalar(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t m) {
  RowChainColumns(a, b, c, k, m, 0);
}

// Columns [j0, m) of BagRowChain, kChainBlock at a time in a local array.
void BagChainColumns(const std::uint32_t* ids, std::size_t n, float alpha,
                     const float* table, float* c, std::size_t m,
                     std::size_t j0) {
  float acc[kChainBlock];
  for (std::size_t jb = j0; jb < m; jb += kChainBlock) {
    const std::size_t w = std::min(kChainBlock, m - jb);
    std::copy(c + jb, c + jb + w, acc);
    for (std::size_t t = 0; t < n; ++t) {
      const float* row = table + static_cast<std::size_t>(ids[t]) * m + jb;
      for (std::size_t j = 0; j < w; ++j) acc[j] += alpha * row[j];
    }
    std::copy(acc, acc + w, c + jb);
  }
}

void BagRowChainScalar(const std::uint32_t* ids, std::size_t n, float alpha,
                       const float* table, float* c, std::size_t m) {
  BagChainColumns(ids, n, alpha, table, c, m, 0);
}

void AxpyScalar(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AdamRowScalar(const AdamStepParams& p, const float* grad, float* val,
                   float* m, float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] + p.weight_decay * val[i];
    m[i] = p.beta1 * m[i] + (1.0f - p.beta1) * g;
    v[i] = p.beta2 * v[i] + (1.0f - p.beta2) * g * g;
    const float mhat = m[i] / p.bc1;
    const float vhat = v[i] / p.bc2;
    val[i] -= p.lr * mhat / (std::sqrt(vhat) + p.eps);
  }
}

#ifdef METABLINK_KERNELS_X86

// AVX2 only, never "avx2,fma": under an FMA target GCC may contract the
// multiply and add below into one fused op, whose single rounding would
// break bit-identity with GemmRaw.
__attribute__((target("avx2"))) void GemmRowChainAvx2(const float* a,
                                                      const float* b,
                                                      float* c, std::size_t k,
                                                      std::size_t m) {
  std::size_t j = 0;
  for (; j + kChainBlock <= m; j += kChainBlock) {
    __m256 c0 = _mm256_loadu_ps(c + j);
    __m256 c1 = _mm256_loadu_ps(c + j + 8);
    __m256 c2 = _mm256_loadu_ps(c + j + 16);
    __m256 c3 = _mm256_loadu_ps(c + j + 24);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(av);
      const float* brow = b + p * m + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(c + j, c0);
    _mm256_storeu_ps(c + j + 8, c1);
    _mm256_storeu_ps(c + j + 16, c2);
    _mm256_storeu_ps(c + j + 24, c3);
  }
  RowChainColumns(a, b, c, k, m, j);
}

// The bag gather of GemmRowChainAvx2's shape: 32 output columns stay in
// registers while every id's table row streams past. Same no-FMA rule.
__attribute__((target("avx2"))) void BagRowChainAvx2(const std::uint32_t* ids,
                                                     std::size_t n,
                                                     float alpha,
                                                     const float* table,
                                                     float* c, std::size_t m) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t j = 0;
  for (; j + kChainBlock <= m; j += kChainBlock) {
    __m256 c0 = _mm256_loadu_ps(c + j);
    __m256 c1 = _mm256_loadu_ps(c + j + 8);
    __m256 c2 = _mm256_loadu_ps(c + j + 16);
    __m256 c3 = _mm256_loadu_ps(c + j + 24);
    for (std::size_t t = 0; t < n; ++t) {
      const float* row = table + static_cast<std::size_t>(ids[t]) * m + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(row)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(row + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(row + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(row + 24)));
    }
    _mm256_storeu_ps(c + j, c0);
    _mm256_storeu_ps(c + j + 8, c1);
    _mm256_storeu_ps(c + j + 16, c2);
    _mm256_storeu_ps(c + j + 24, c3);
  }
  BagChainColumns(ids, n, alpha, table, c, m, j);
}

// Elementwise, so any vector width gives the scalar loop's bits: each y[i]
// sees one separately rounded multiply and one add.
__attribute__((target("avx2"))) void AxpyAvx2(float alpha, const float* x,
                                              float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                          _mm256_mul_ps(va,
                                                        _mm256_loadu_ps(x + i))));
  }
  AxpyScalar(alpha, x + i, y + i, n - i);
}

// AdamRowScalar eight lanes at a time, op for op: vsqrtps is correctly
// rounded like sqrtss, and the same no-FMA rule keeps every multiply and
// add separately rounded.
__attribute__((target("avx2"))) void AdamRowAvx2(const AdamStepParams& p,
                                                 const float* grad,
                                                 float* val, float* m,
                                                 float* v, std::size_t n) {
  const __m256 wd = _mm256_set1_ps(p.weight_decay);
  const __m256 b1 = _mm256_set1_ps(p.beta1);
  const __m256 b2 = _mm256_set1_ps(p.beta2);
  const __m256 one_b1 = _mm256_set1_ps(1.0f - p.beta1);
  const __m256 one_b2 = _mm256_set1_ps(1.0f - p.beta2);
  const __m256 bc1 = _mm256_set1_ps(p.bc1);
  const __m256 bc2 = _mm256_set1_ps(p.bc2);
  const __m256 lr = _mm256_set1_ps(p.lr);
  const __m256 eps = _mm256_set1_ps(p.eps);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 w = _mm256_loadu_ps(val + i);
    const __m256 g =
        _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(wd, w));
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_b1, g));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_b2, g), g));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 mhat = _mm256_div_ps(mi, bc1);
    const __m256 vhat = _mm256_div_ps(vi, bc2);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(val + i, _mm256_sub_ps(w, step));
  }
  AdamRowScalar(p, grad + i, val + i, m + i, v + i, n - i);
}

#endif  // METABLINK_KERNELS_X86

using RowChainFn = void (*)(const float*, const float*, float*, std::size_t,
                            std::size_t);
using BagChainFn = void (*)(const std::uint32_t*, std::size_t, float,
                            const float*, float*, std::size_t);
using AxpyFn = void (*)(float, const float*, float*, std::size_t);
using AdamRowFn = void (*)(const AdamStepParams&, const float*, float*,
                           float*, float*, std::size_t);

// One-time dispatch: the CPU's capabilities cannot change mid-process, so
// every call (from any thread) sees the same implementation.
bool ResolveAvx2() {
#ifdef METABLINK_KERNELS_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const bool g_avx2 = ResolveAvx2();

#ifdef METABLINK_KERNELS_X86
const RowChainFn g_row_chain_fn =
    g_avx2 ? &GemmRowChainAvx2 : &GemmRowChainScalar;
const BagChainFn g_bag_chain_fn =
    g_avx2 ? &BagRowChainAvx2 : &BagRowChainScalar;
const AxpyFn g_axpy_fn = g_avx2 ? &AxpyAvx2 : &AxpyScalar;
const AdamRowFn g_adam_row_fn = g_avx2 ? &AdamRowAvx2 : &AdamRowScalar;
#else
const RowChainFn g_row_chain_fn = &GemmRowChainScalar;
const BagChainFn g_bag_chain_fn = &BagRowChainScalar;
const AxpyFn g_axpy_fn = &AxpyScalar;
const AdamRowFn g_adam_row_fn = &AdamRowScalar;
#endif

}  // namespace

void GemmRowChain(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m) {
  g_row_chain_fn(a, b, c, k, m);
}

bool GemmRowChainUsesSimd() { return g_row_chain_fn != &GemmRowChainScalar; }

void BagRowChain(const std::uint32_t* ids, std::size_t n, float alpha,
                 const float* table, float* c, std::size_t m) {
  g_bag_chain_fn(ids, n, alpha, table, c, m);
}

bool BagRowChainUsesSimd() { return g_bag_chain_fn != &BagRowChainScalar; }

void Axpy(float alpha, const float* x, float* y, std::size_t n) {
  g_axpy_fn(alpha, x, y, n);
}

bool AxpyUsesSimd() { return g_axpy_fn != &AxpyScalar; }

void AdamRow(const AdamStepParams& p, const float* grad, float* val, float* m,
             float* v, std::size_t n) {
  g_adam_row_fn(p, grad, val, m, v, n);
}

bool AdamRowUsesSimd() { return g_adam_row_fn != &AdamRowScalar; }

void GemmRaw(const float* a, const float* b, float* c, std::size_t n,
             std::size_t k, std::size_t m) {
  // Panel over the reduction dimension so the B panel is reused across all
  // n output rows before it leaves cache. Within a row, p stays ascending
  // (pb blocks ascend, p ascends inside a block), so every output element
  // sees contributions in the same order as the unblocked loop.
  for (std::size_t pb = 0; pb < k; pb += kPanelK) {
    const std::size_t pe = std::min(k, pb + kPanelK);
    for (std::size_t i = 0; i < n; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * m;
      for (std::size_t p = pb; p < pe; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        Axpy(av, b + p * m, crow, m);
      }
    }
  }
}

void GemmTransposeBRaw(const float* a, const float* b, float* c,
                       std::size_t n, std::size_t d, std::size_t m) {
  for (std::size_t jb = 0; jb < m; jb += kPanelM) {
    const std::size_t je = std::min(m, jb + kPanelM);
    for (std::size_t i = 0; i < n; ++i) {
      const float* arow = a + i * d;
      if (AllZero(arow, d)) continue;
      float* crow = c + i * m;
      for (std::size_t j = jb; j < je; ++j) {
        crow[j] += Dot(arow, b + j * d, d);
      }
    }
  }
}

void GemmTransposeARaw(const float* a, const float* b, float* c,
                       std::size_t n, std::size_t k, std::size_t m,
                       std::size_t k_begin, std::size_t k_end) {
  for (std::size_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * m;
    if (AllZero(brow, m)) continue;
    for (std::size_t p = k_begin; p < k_end; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      Axpy(av, brow, c + p * m, m);
    }
  }
}

void Gemm(const Tensor& a, const Tensor& b, Tensor* out,
          util::ThreadPool* pool) {
  METABLINK_CHECK(a.cols() == b.rows()) << "Gemm shape mismatch";
  METABLINK_CHECK(out->rows() == a.rows() && out->cols() == b.cols())
      << "Gemm output shape mismatch";
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  if (pool == nullptr || n < 2) {
    GemmRaw(a.data().data(), b.data().data(), out->data().data(), n, k, m);
    return;
  }
  util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
  if (trace != nullptr) {
    trace->OnRegionBegin(out->data().data(), n, /*expect_cover=*/true,
                         "Gemm");
  }
  pool->ParallelForChunks(
      n, 0, [&a, &b, out, k, m, trace](std::size_t, std::size_t begin,
                                       std::size_t end) {
        if (trace != nullptr) {
          trace->OnTaskWrite(out->data().data(), begin, end);
        }
        GemmRaw(a.row_data(begin), b.data().data(), out->row_data(begin),
                end - begin, k, m);
      });
  if (trace != nullptr) trace->OnRegionEnd(out->data().data());
}

void GemmTransposeB(const Tensor& a, const Tensor& b, Tensor* out,
                    util::ThreadPool* pool) {
  METABLINK_CHECK(a.cols() == b.cols()) << "GemmTransposeB shape mismatch";
  METABLINK_CHECK(out->rows() == a.rows() && out->cols() == b.rows())
      << "GemmTransposeB output shape mismatch";
  const std::size_t n = a.rows(), d = a.cols(), m = b.rows();
  if (pool == nullptr || n < 2) {
    GemmTransposeBRaw(a.data().data(), b.data().data(), out->data().data(),
                      n, d, m);
    return;
  }
  util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
  if (trace != nullptr) {
    trace->OnRegionBegin(out->data().data(), n, /*expect_cover=*/true,
                         "GemmTransposeB");
  }
  pool->ParallelForChunks(
      n, 0, [&a, &b, out, d, m, trace](std::size_t, std::size_t begin,
                                       std::size_t end) {
        if (trace != nullptr) {
          trace->OnTaskWrite(out->data().data(), begin, end);
        }
        GemmTransposeBRaw(a.row_data(begin), b.data().data(),
                          out->row_data(begin), end - begin, d, m);
      });
  if (trace != nullptr) trace->OnRegionEnd(out->data().data());
}

void GemmTransposeA(const Tensor& a, const Tensor& b, Tensor* out,
                    util::ThreadPool* pool) {
  METABLINK_CHECK(a.rows() == b.rows()) << "GemmTransposeA shape mismatch";
  METABLINK_CHECK(out->rows() == a.cols() && out->cols() == b.cols())
      << "GemmTransposeA output shape mismatch";
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  if (pool == nullptr || k < 2) {
    GemmTransposeARaw(a.data().data(), b.data().data(), out->data().data(),
                      n, k, m, 0, k);
    return;
  }
  // Workers own disjoint [k_begin, k_end) output-row ranges; each element
  // still accumulates in ascending i order, so this matches serial exactly.
  util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
  if (trace != nullptr) {
    trace->OnRegionBegin(out->data().data(), k, /*expect_cover=*/true,
                         "GemmTransposeA");
  }
  pool->ParallelForChunks(
      k, 0, [&a, &b, out, n, k, m, trace](std::size_t, std::size_t begin,
                                          std::size_t end) {
        if (trace != nullptr) {
          trace->OnTaskWrite(out->data().data(), begin, end);
        }
        GemmTransposeARaw(a.data().data(), b.data().data(),
                          out->data().data(), n, k, m, begin, end);
      });
  if (trace != nullptr) trace->OnRegionEnd(out->data().data());
}

}  // namespace metablink::tensor
