#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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

// Tanh: a port of fdlibm's float tanh (s_tanhf.c) and the part of its
// expm1 (s_expm1f.c) that tanh reaches, as glibc 2.36 ships them:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//
// tanh(x) = (1 - e^-2|x|) / (1 + e^-2|x|) with its sign, from one expm1:
//   |x| >= 1: 1 - 2 / (expm1(2|x|) + 2);  |x| < 1: -t / (t + 2) where
//   t = expm1(-2|x|). So expm1 only ever sees arguments in (-2, 44), and
// its overflow and non-finite filters (and its k == 128 case) are left out.
// expm1 reduces x = k ln2 + r, |r| <= ln2/2, evaluates a rational
// approximation of expm1(r), and scales by 2^k through the exponent bits.
constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kExpm1Q1 = -3.3333335072e-02f;  // 0xbd088889
constexpr float kExpm1Q2 = 1.5873016091e-03f;   // 0x3ad00d01
constexpr float kExpm1Q3 = -7.9365076090e-05f;  // 0xb8a670cd
constexpr float kExpm1Q4 = 4.0082177293e-06f;   // 0x36867e54
constexpr float kExpm1Q5 = -2.0109921195e-07f;  // 0xb457edbb
// 1 - 1e-30 rounds to 1; fdlibm writes it so to raise inexact.
constexpr float kTanhSaturated = 1.0f - 1.0e-30f;

// y * 2^k by adding k to y's exponent field (y is normal and stays so).
float AddToExponent(float y, std::int32_t k) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                              (static_cast<std::uint32_t>(k) << 23));
}

float Expm1ForTanh(float x) {
  const std::uint32_t hx = std::bit_cast<std::uint32_t>(x) & 0x7fffffffu;
  const bool neg = std::signbit(x);
  std::int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > ln2/2: reduce.
    float hi;
    float lo;
    if (hx < 0x3f851592u) {  // and |x| < 3 ln2/2
      if (!neg) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (neg ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) rounds to x
    return x;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f +
      hxs * (kExpm1Q1 +
             hxs * (kExpm1Q2 +
                    hxs * (kExpm1Q3 + hxs * (kExpm1Q4 + hxs * kExpm1Q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) return AddToExponent(1.0f - (e - x), k) - 1.0f;
  float y;
  if (k < 23) {
    t = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = std::bit_cast<float>(static_cast<std::uint32_t>(0x7f - k) << 23);
    y = x - (e + t);  // t = 2^-k
    y += 1.0f;
  }
  return AddToExponent(y, k);
}

float TanhOne(float x) {
  const std::uint32_t jx = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx >> 31) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {                        // |x| < 22
    if (ix == 0) return x;                       // +-0
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                     // |x| >= 1
      const float t = Expm1ForTanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1ForTanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {
    z = kTanhSaturated;
  }
  return neg ? -z : z;
}

void TanhScalarBody(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = TanhOne(x[i]);
}

#ifdef METABLINK_KERNELS_X86

// AVX2 only, never "avx2,fma": under an FMA target GCC may contract the
// multiply and add below into one fused op, whose single rounding would
// break bit-identity with GemmRaw.
//
// Output columns [0, 8 kVecs) of c, held in kVecs registers across the whole
// reduction; b is a row-major [k, m] panel already offset to the block.
template <std::size_t kVecs>
__attribute__((target("avx2"))) inline void RowChainBlockAvx2(
    const float* a, const float* b, float* c, std::size_t k, std::size_t m) {
  __m256 acc[kVecs];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_loadu_ps(c + 8 * v);
  for (std::size_t p = 0; p < k; ++p) {
    const float av = a[p];
    if (av == 0.0f) continue;
    const __m256 va = _mm256_set1_ps(av);
    const float* brow = b + p * m;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_ps(
          acc[v], _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8 * v)));
    }
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kVecs; ++v) _mm256_storeu_ps(c + 8 * v, acc[v]);
}

// 64 columns per pass where they fit (eight independent accumulator chains
// and one pass over `b`, so a 64-wide row such as the rerank MLP's hidden
// layer streams W1 once), then 32, then the scalar tail.
__attribute__((target("avx2"))) void GemmRowChainAvx2(const float* a,
                                                      const float* b,
                                                      float* c, std::size_t k,
                                                      std::size_t m) {
  std::size_t j = 0;
  for (; j + 2 * kChainBlock <= m; j += 2 * kChainBlock) {
    RowChainBlockAvx2<8>(a, b + j, c + j, k, m);
  }
  for (; j + kChainBlock <= m; j += kChainBlock) {
    RowChainBlockAvx2<4>(a, b + j, c + j, k, m);
  }
  RowChainColumns(a, b, c, k, m, j);
}

// The bag gather in RowChainBlockAvx2's shape: kVecs registers of output
// columns stay live while every id's table row streams past. Same no-FMA
// rule.
template <std::size_t kVecs>
__attribute__((target("avx2"))) inline void BagChainBlockAvx2(
    const std::uint32_t* ids, std::size_t n, __m256 va, const float* table,
    float* c, std::size_t m) {
  __m256 acc[kVecs];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_loadu_ps(c + 8 * v);
  for (std::size_t t = 0; t < n; ++t) {
    const float* row = table + static_cast<std::size_t>(ids[t]) * m;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(va, _mm256_loadu_ps(row + 8 * v)));
    }
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kVecs; ++v) _mm256_storeu_ps(c + 8 * v, acc[v]);
}

__attribute__((target("avx2"))) void BagRowChainAvx2(const std::uint32_t* ids,
                                                     std::size_t n,
                                                     float alpha,
                                                     const float* table,
                                                     float* c, std::size_t m) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t j = 0;
  for (; j + 2 * kChainBlock <= m; j += 2 * kChainBlock) {
    BagChainBlockAvx2<8>(ids, n, va, table + j, c + j, m);
  }
  for (; j + kChainBlock <= m; j += kChainBlock) {
    BagChainBlockAvx2<4>(ids, n, va, table + j, c + j, m);
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

// Expm1ForTanh for eight lanes whose |a| bit patterns are `ha`; `neg` is
// all-ones in the lanes where a < 0. Every lane runs the one reduction (k = 0
// gives hi = a, lo = c = 0, and k = +-1 through t = +-1 gives fdlibm's
// hi = a -+ kLn2Hi, lo = +-kLn2Lo exactly), then every result formula, and
// the lane's branch picks its result. Same no-FMA rule as above.
__attribute__((target("avx2"))) __m256 Expm1ForTanhAvx2(__m256 a, __m256i ha,
                                                        __m256i neg) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i sign_bit = _mm256_set1_epi32(INT32_MIN);
  const __m256i reduce = _mm256_cmpgt_epi32(ha, _mm256_set1_epi32(0x3eb17218));
  const __m256i near_ln2 =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f851592), ha);
  const __m256 signed_half =
      _mm256_or_ps(half, _mm256_castsi256_ps(_mm256_and_si256(neg, sign_bit)));
  const __m256i k_round = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), a), signed_half));
  const __m256i k_unit = _mm256_or_si256(neg, _mm256_set1_epi32(1));  // +-1
  const __m256i k = _mm256_and_si256(
      _mm256_blendv_epi8(k_round, k_unit, near_ln2), reduce);
  const __m256 kf = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(a, _mm256_mul_ps(kf, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(kf, _mm256_set1_ps(kLn2Lo));
  const __m256 x = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);

  const __m256 hfx = _mm256_mul_ps(half, x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q4),
                              _mm256_mul_ps(hxs, _mm256_set1_ps(kExpm1Q5)));
  poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(kExpm1Q1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(x, t))));
  const __m256 r_k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(x, e)), half);
  const __m256 r_kp1 = _mm256_blendv_ps(
      _mm256_add_ps(one,
                    _mm256_mul_ps(_mm256_set1_ps(2.0f), _mm256_sub_ps(x, e))),
      _mm256_mul_ps(_mm256_set1_ps(-2.0f),
                    _mm256_sub_ps(e, _mm256_add_ps(x, half))),
      _mm256_cmp_ps(x, _mm256_set1_ps(-0.25f), _CMP_LT_OQ));
  const __m256i k_exp = _mm256_slli_epi32(k, 23);
  const __m256 e_x = _mm256_sub_ps(e, x);
  const __m256 r_far = _mm256_sub_ps(
      _mm256_castsi256_ps(_mm256_add_epi32(
          _mm256_castps_si256(_mm256_sub_ps(one, e_x)), k_exp)),
      one);
  const __m256 t_lt23 = _mm256_castsi256_ps(
      _mm256_sub_epi32(_mm256_set1_epi32(0x3f800000),
                       _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 y_lt23 = _mm256_sub_ps(t_lt23, e_x);
  const __m256 t_ge23 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 y_ge23 =
      _mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t_ge23)), one);
  const __m256 y = _mm256_blendv_ps(
      y_ge23, y_lt23,
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k)));

  __m256 r = _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k_exp));
  const __m256i far =
      _mm256_or_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
                      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  r = _mm256_blendv_ps(r, r_far, _mm256_castsi256_ps(far));
  r = _mm256_blendv_ps(
      r, r_kp1, _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(1))));
  r = _mm256_blendv_ps(
      r, r_km1,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))));
  r = _mm256_blendv_ps(
      r, r_k0,
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
  return _mm256_blendv_ps(
      r, a,
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000), ha)));
}

// TanhOne for eight lanes: one expm1 per lane (its argument is 2|x| or
// -2|x| by the lane's |x| >= 1 test), every tanh branch, then a blend in
// the order that lets each of fdlibm's early returns win.
__attribute__((target("avx2"))) __m256 TanhAvx2Lanes(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256i jx = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(jx, _mm256_set1_epi32(0x7fffffff));
  const __m256 sign = _mm256_castsi256_ps(_mm256_andnot_si256(ix, jx));
  const __m256 ax = _mm256_castsi256_ps(ix);
  const __m256i ge1 = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7fffff));
  const __m256 a = _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0f), ax),
                                    _mm256_mul_ps(two, ax),
                                    _mm256_castsi256_ps(ge1));
  const __m256i ha = _mm256_and_si256(_mm256_castps_si256(a),
                                      _mm256_set1_epi32(0x7fffffff));
  const __m256i a_neg = _mm256_xor_si256(ge1, _mm256_set1_epi32(-1));
  const __m256 t = Expm1ForTanhAvx2(a, ha, a_neg);
  // One division serves both forms: 2 / (t + 2) where |x| >= 1 (then
  // z = 1 - q), -t / (t + 2) below (then z = q).
  const __m256 num = _mm256_blendv_ps(
      _mm256_xor_ps(t, _mm256_castsi256_ps(_mm256_set1_epi32(INT32_MIN))),
      two, _mm256_castsi256_ps(ge1));
  const __m256 q = _mm256_div_ps(num, _mm256_add_ps(t, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q),
                              _mm256_castsi256_ps(ge1));
  z = _mm256_blendv_ps(
      z, _mm256_set1_ps(kTanhSaturated),
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41afffff))));
  z = _mm256_xor_ps(z, sign);
  // |x| < 2^-55, zeros included: x * (1 + x) returns +-0 for +-0.
  z = _mm256_blendv_ps(
      z, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
      _mm256_castsi256_ps(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(0x24000000), ix)));
  // inf / NaN: 1/x + 1, or 1/x - 1 (as 1/x + (-1)) when the sign is set.
  // A vector with no inf/NaN lane (nearly every one) skips that division.
  const __m256 non_finite = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f7fffff)));
  if (_mm256_movemask_ps(non_finite) == 0) return z;
  const __m256 inf_nan =
      _mm256_add_ps(_mm256_div_ps(one, x), _mm256_or_ps(one, sign));
  return _mm256_blendv_ps(z, inf_nan, non_finite);
}

__attribute__((target("avx2"))) void TanhAvx2Body(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, TanhAvx2Lanes(_mm256_loadu_ps(x + i)));
  }
  // GCC 12 leaves the upper ymm halves dirty before this tail call, and the
  // legacy-SSE scalar code that runs next (here or in the caller) would pay
  // an AVX-SSE transition on every instruction: it doubled the cost of
  // ScorePair's w2 dot.
  _mm256_zeroupper();
  TanhScalarBody(x + i, n - i);
}

#endif  // METABLINK_KERNELS_X86

using RowChainFn = void (*)(const float*, const float*, float*, std::size_t,
                            std::size_t);
using BagChainFn = void (*)(const std::uint32_t*, std::size_t, float,
                            const float*, float*, std::size_t);
using AxpyFn = void (*)(float, const float*, float*, std::size_t);
using AdamRowFn = void (*)(const AdamStepParams&, const float*, float*,
                           float*, float*, std::size_t);
using TanhFn = void (*)(float*, std::size_t);

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
const TanhFn g_tanh_fn = g_avx2 ? &TanhAvx2Body : &TanhScalarBody;
#else
const RowChainFn g_row_chain_fn = &GemmRowChainScalar;
const BagChainFn g_bag_chain_fn = &BagRowChainScalar;
const AxpyFn g_axpy_fn = &AxpyScalar;
const AdamRowFn g_adam_row_fn = &AdamRowScalar;
const TanhFn g_tanh_fn = &TanhScalarBody;
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

void Tanh(float* x, std::size_t n) { g_tanh_fn(x, n); }

void RowDotsSkipZero(const float* x, const float* w, std::size_t n,
                     std::size_t m, float bias, float* out) {
  constexpr std::size_t kRows = 8;
  std::size_t i = 0;
  for (; i + kRows <= n; i += kRows) {
    float acc[kRows] = {};
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t r = 0; r < kRows; ++r) {
        const float v = x[(i + r) * m + j];
        if (v != 0.0f) acc[r] += v * w[j];
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) out[i + r] = acc[r] + bias;
  }
  for (; i < n; ++i) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < m; ++j) {
      if (x[i * m + j] != 0.0f) acc += x[i * m + j] * w[j];
    }
    out[i] = acc + bias;
  }
}

bool TanhUsesSimd() { return g_tanh_fn != &TanhScalarBody; }

void TanhScalar(float* x, std::size_t n) { TanhScalarBody(x, n); }

void TanhAvx2(float* x, std::size_t n) {
#ifdef METABLINK_KERNELS_X86
  METABLINK_CHECK(TanhUsesSimd()) << "TanhAvx2 needs an AVX2 CPU";
  TanhAvx2Body(x, n);
#else
  (void)x;
  (void)n;
  METABLINK_CHECK(false) << "TanhAvx2 needs an x86 build";
#endif
}

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
