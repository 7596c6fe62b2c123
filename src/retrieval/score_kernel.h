#ifndef METABLINK_RETRIEVAL_SCORE_KERNEL_H_
#define METABLINK_RETRIEVAL_SCORE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace metablink::retrieval::internal {

/// Fills tile[i * en + j] = <queries row i, entities row j> for a qn×en
/// inner-product tile over row-major fp32 panels (query rows stride d,
/// entity rows stride d). Every element is written by assignment, never
/// accumulated, so callers do not pre-zero the tile.
///
/// Selection-grade numerics: scores are accumulated in fp32 with a
/// SIMD-friendly order that differs from tensor::Dot's double-chain sum.
/// Callers that surface scores re-score their survivors with tensor::Dot
/// (the same approximate-scan → exact-re-score protocol as the PQ scan),
/// so returned scores carry no kernel-dependent error. The kernel is
/// deterministic on a given machine: one implementation is selected at
/// process start and used for every call, so serial and pooled scans
/// produce identical tiles.
void ScoreTileF32(const float* queries, const float* entities, float* tile,
                  std::size_t qn, std::size_t d, std::size_t en);

/// True when the runtime-dispatched AVX2+FMA tile kernel is active (x86
/// with AVX2/FMA support); false on the portable scalar fallback.
bool ScoreTileUsesSimd();

/// ADC (asymmetric distance computation) strip for a product-quantized
/// inverted list: out[i] = base + sum_m lut[m * 256 + codes[i * m_sub + m]],
/// where `lut` holds the per-query partial inner products of each subspace
/// codebook entry and `base` is the query·centroid term shared by every
/// entry of the list. Codes are 8-bit (256 entries per subspace table).
///
/// Selection-grade numerics, same contract as ScoreTileF32: the AVX2 path
/// (table gathers + one vector accumulator) sums in a different order than
/// the scalar loop, so the two may differ in final-ulp rounding — callers
/// re-score survivors with tensor::Dot before surfacing scores. One
/// implementation is dispatched per process, so serial and pooled scans
/// over the same codes produce bit-identical strips.
void PqAdcScores(const float* lut, const std::uint8_t* codes,
                 std::size_t count, std::size_t m_sub, float base,
                 float* out);

/// True when the runtime-dispatched AVX2 gather ADC kernel is active; false
/// on the portable scalar fallback.
bool PqAdcUsesSimd();

}  // namespace metablink::retrieval::internal

#endif  // METABLINK_RETRIEVAL_SCORE_KERNEL_H_
