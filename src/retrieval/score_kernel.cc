#include "retrieval/score_kernel.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define METABLINK_SCORE_KERNEL_X86 1
#endif

namespace metablink::retrieval::internal {

namespace {

// Portable fallback: four independent fp32 accumulator chains per dot so
// the adds pipeline instead of serializing on one register. Matches the
// SIMD path's "selection-grade fp32" contract, not its exact rounding.
void ScoreTileScalar(const float* queries, const float* entities, float* tile,
                     std::size_t qn, std::size_t d, std::size_t en) {
  for (std::size_t i = 0; i < qn; ++i) {
    const float* q = queries + i * d;
    float* trow = tile + i * en;
    for (std::size_t j = 0; j < en; ++j) {
      const float* e = entities + j * d;
      float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
      std::size_t p = 0;
      for (; p + 4 <= d; p += 4) {
        a0 += q[p] * e[p];
        a1 += q[p + 1] * e[p + 1];
        a2 += q[p + 2] * e[p + 2];
        a3 += q[p + 3] * e[p + 3];
      }
      float s = (a0 + a1) + (a2 + a3);
      for (; p < d; ++p) s += q[p] * e[p];
      trow[j] = s;
    }
  }
}

#ifdef METABLINK_SCORE_KERNEL_X86

__attribute__((target("avx2,fma"))) inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// Register-blocked 4-query × 2-entity micro-kernel: each entity row load is
// reused by four queries and each query row load by two entities, so the
// inner loop runs eight independent FMA chains (enough to hide FMA latency)
// while staying load-bound-free. Remainders fall back to narrower shapes.
__attribute__((target("avx2,fma"))) void ScoreTileAvx2(
    const float* queries, const float* entities, float* tile, std::size_t qn,
    std::size_t d, std::size_t en) {
  const std::size_t d8 = d & ~std::size_t{7};
  std::size_t i = 0;
  for (; i + 4 <= qn; i += 4) {
    const float* q0 = queries + i * d;
    const float* q1 = q0 + d;
    const float* q2 = q1 + d;
    const float* q3 = q2 + d;
    float* t0 = tile + i * en;
    float* t1 = t0 + en;
    float* t2 = t1 + en;
    float* t3 = t2 + en;
    std::size_t j = 0;
    for (; j + 2 <= en; j += 2) {
      const float* ea = entities + j * d;
      const float* eb = ea + d;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < d8; p += 8) {
        const __m256 ev_a = _mm256_loadu_ps(ea + p);
        const __m256 ev_b = _mm256_loadu_ps(eb + p);
        const __m256 qv0 = _mm256_loadu_ps(q0 + p);
        const __m256 qv1 = _mm256_loadu_ps(q1 + p);
        const __m256 qv2 = _mm256_loadu_ps(q2 + p);
        const __m256 qv3 = _mm256_loadu_ps(q3 + p);
        a0 = _mm256_fmadd_ps(qv0, ev_a, a0);
        a1 = _mm256_fmadd_ps(qv1, ev_a, a1);
        a2 = _mm256_fmadd_ps(qv2, ev_a, a2);
        a3 = _mm256_fmadd_ps(qv3, ev_a, a3);
        b0 = _mm256_fmadd_ps(qv0, ev_b, b0);
        b1 = _mm256_fmadd_ps(qv1, ev_b, b1);
        b2 = _mm256_fmadd_ps(qv2, ev_b, b2);
        b3 = _mm256_fmadd_ps(qv3, ev_b, b3);
      }
      float sa0 = HorizontalSum(a0), sa1 = HorizontalSum(a1);
      float sa2 = HorizontalSum(a2), sa3 = HorizontalSum(a3);
      float sb0 = HorizontalSum(b0), sb1 = HorizontalSum(b1);
      float sb2 = HorizontalSum(b2), sb3 = HorizontalSum(b3);
      for (std::size_t p = d8; p < d; ++p) {
        const float va = ea[p], vb = eb[p];
        sa0 += q0[p] * va;
        sa1 += q1[p] * va;
        sa2 += q2[p] * va;
        sa3 += q3[p] * va;
        sb0 += q0[p] * vb;
        sb1 += q1[p] * vb;
        sb2 += q2[p] * vb;
        sb3 += q3[p] * vb;
      }
      t0[j] = sa0;
      t1[j] = sa1;
      t2[j] = sa2;
      t3[j] = sa3;
      t0[j + 1] = sb0;
      t1[j + 1] = sb1;
      t2[j + 1] = sb2;
      t3[j + 1] = sb3;
    }
    for (; j < en; ++j) {
      const float* e = entities + j * d;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < d8; p += 8) {
        const __m256 ev = _mm256_loadu_ps(e + p);
        a0 = _mm256_fmadd_ps(_mm256_loadu_ps(q0 + p), ev, a0);
        a1 = _mm256_fmadd_ps(_mm256_loadu_ps(q1 + p), ev, a1);
        a2 = _mm256_fmadd_ps(_mm256_loadu_ps(q2 + p), ev, a2);
        a3 = _mm256_fmadd_ps(_mm256_loadu_ps(q3 + p), ev, a3);
      }
      float s0 = HorizontalSum(a0), s1 = HorizontalSum(a1);
      float s2 = HorizontalSum(a2), s3 = HorizontalSum(a3);
      for (std::size_t p = d8; p < d; ++p) {
        const float v = e[p];
        s0 += q0[p] * v;
        s1 += q1[p] * v;
        s2 += q2[p] * v;
        s3 += q3[p] * v;
      }
      t0[j] = s0;
      t1[j] = s1;
      t2[j] = s2;
      t3[j] = s3;
    }
  }
  for (; i < qn; ++i) {
    const float* q = queries + i * d;
    float* trow = tile + i * en;
    // Four entities at a time, each through exactly the operation sequence
    // of the one-entity loop below, so a score is bit-identical whichever
    // loop computes it (a one-query score never depends on the entity's
    // position in the panel). Interleaving gives eight independent FMA
    // chains: a single query row (TopKInto's strip) runs at FMA throughput
    // instead of waiting on one chain pair's latency per entity.
    std::size_t j = 0;
    for (; j + 4 <= en; j += 4) {
      const float* e0 = entities + j * d;
      const float* e1 = e0 + d;
      const float* e2 = e1 + d;
      const float* e3 = e2 + d;
      __m256 a0 = _mm256_setzero_ps(), b0 = _mm256_setzero_ps();
      __m256 a1 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), b2 = _mm256_setzero_ps();
      __m256 a3 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      std::size_t p = 0;
      for (; p + 16 <= d; p += 16) {
        const __m256 qa = _mm256_loadu_ps(q + p);
        const __m256 qb = _mm256_loadu_ps(q + p + 8);
        a0 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e0 + p), a0);
        b0 = _mm256_fmadd_ps(qb, _mm256_loadu_ps(e0 + p + 8), b0);
        a1 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e1 + p), a1);
        b1 = _mm256_fmadd_ps(qb, _mm256_loadu_ps(e1 + p + 8), b1);
        a2 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e2 + p), a2);
        b2 = _mm256_fmadd_ps(qb, _mm256_loadu_ps(e2 + p + 8), b2);
        a3 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e3 + p), a3);
        b3 = _mm256_fmadd_ps(qb, _mm256_loadu_ps(e3 + p + 8), b3);
      }
      for (; p + 8 <= d; p += 8) {
        const __m256 qa = _mm256_loadu_ps(q + p);
        a0 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e0 + p), a0);
        a1 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e1 + p), a1);
        a2 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e2 + p), a2);
        a3 = _mm256_fmadd_ps(qa, _mm256_loadu_ps(e3 + p), a3);
      }
      float s0 = HorizontalSum(_mm256_add_ps(a0, b0));
      float s1 = HorizontalSum(_mm256_add_ps(a1, b1));
      float s2 = HorizontalSum(_mm256_add_ps(a2, b2));
      float s3 = HorizontalSum(_mm256_add_ps(a3, b3));
      for (; p < d; ++p) {
        s0 += q[p] * e0[p];
        s1 += q[p] * e1[p];
        s2 += q[p] * e2[p];
        s3 += q[p] * e3[p];
      }
      trow[j] = s0;
      trow[j + 1] = s1;
      trow[j + 2] = s2;
      trow[j + 3] = s3;
    }
    for (; j < en; ++j) {
      const float* e = entities + j * d;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      std::size_t p = 0;
      for (; p + 16 <= d; p += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + p),
                               _mm256_loadu_ps(e + p), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + p + 8),
                               _mm256_loadu_ps(e + p + 8), acc1);
      }
      for (; p + 8 <= d; p += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + p),
                               _mm256_loadu_ps(e + p), acc0);
      }
      float s = HorizontalSum(_mm256_add_ps(acc0, acc1));
      for (; p < d; ++p) s += q[p] * e[p];
      trow[j] = s;
    }
  }
}

#endif  // METABLINK_SCORE_KERNEL_X86

// Portable ADC fallback: one table lookup per (entry, subspace). The adds
// run left-to-right over subspaces — a fixed order, so repeated scans of
// the same codes are bit-identical.
void PqAdcScoresScalar(const float* lut, const std::uint8_t* codes,
                       std::size_t count, std::size_t m_sub, float base,
                       float* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* c = codes + i * m_sub;
    float s = base;
    for (std::size_t m = 0; m < m_sub; ++m) {
      s += lut[m * 256 + c[m]];
    }
    out[i] = s;
  }
}

#ifdef METABLINK_SCORE_KERNEL_X86

// Eight subspaces per step: load 8 code bytes, widen to int32 lanes, offset
// each lane into its own 256-entry table, and gather the 8 partial scores
// in one vpgatherdps. The vector accumulator folds with HorizontalSum, so
// the summation order differs from the scalar loop (selection-grade, per
// the header contract) but is fixed for the process.
__attribute__((target("avx2,fma"))) void PqAdcScoresAvx2(
    const float* lut, const std::uint8_t* codes, std::size_t count,
    std::size_t m_sub, float base, float* out) {
  const std::size_t m8 = m_sub & ~std::size_t{7};
  const __m256i lane_off =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* c = codes + i * m_sub;
    __m256 acc = _mm256_setzero_ps();
    std::size_t m = 0;
    for (; m < m8; m += 8) {
      const __m128i c8 = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(c + m));
      const __m256i idx = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_cvtepu8_epi32(c8), lane_off),
          _mm256_set1_epi32(static_cast<int>(m * 256)));
      acc = _mm256_add_ps(acc, _mm256_i32gather_ps(lut, idx, 4));
    }
    float s = base + HorizontalSum(acc);
    for (; m < m_sub; ++m) s += lut[m * 256 + c[m]];
    out[i] = s;
  }
}

#endif  // METABLINK_SCORE_KERNEL_X86

using TileFn = void (*)(const float*, const float*, float*, std::size_t,
                        std::size_t, std::size_t);

// One-time dispatch: the CPU's capabilities cannot change mid-process, so
// every call (from any thread) sees the same implementation.
TileFn ResolveTileFn() {
#ifdef METABLINK_SCORE_KERNEL_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &ScoreTileAvx2;
  }
#endif
  return &ScoreTileScalar;
}

const TileFn g_tile_fn = ResolveTileFn();

using PqAdcFn = void (*)(const float*, const std::uint8_t*, std::size_t,
                         std::size_t, float, float*);

PqAdcFn ResolvePqAdcFn() {
#ifdef METABLINK_SCORE_KERNEL_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &PqAdcScoresAvx2;
  }
#endif
  return &PqAdcScoresScalar;
}

const PqAdcFn g_pq_adc_fn = ResolvePqAdcFn();

}  // namespace

void ScoreTileF32(const float* queries, const float* entities, float* tile,
                  std::size_t qn, std::size_t d, std::size_t en) {
  if (qn == 0 || en == 0) return;
  g_tile_fn(queries, entities, tile, qn, d, en);
}

bool ScoreTileUsesSimd() { return g_tile_fn != &ScoreTileScalar; }

void PqAdcScores(const float* lut, const std::uint8_t* codes,
                 std::size_t count, std::size_t m_sub, float base,
                 float* out) {
  if (count == 0) return;
  g_pq_adc_fn(lut, codes, count, m_sub, base, out);
}

bool PqAdcUsesSimd() { return g_pq_adc_fn != &PqAdcScoresScalar; }

}  // namespace metablink::retrieval::internal
