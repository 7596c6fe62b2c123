#include "text/feature_hashing.h"

namespace metablink::text {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// HashBytes in three steps, so a feature whose bytes are not contiguous
// (a bigram) streams its pieces through one state.
std::uint64_t FnvBasis(std::uint64_t seed) {
  return 0xCBF29CE484222325ULL ^ (seed * kFnvPrime + seed);
}

std::uint64_t FnvByte(std::uint64_t h, char c) {
  return (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
}

std::uint64_t FnvBytes(std::uint64_t h, std::string_view data) {
  for (char c : data) h = FnvByte(h, c);
  return h;
}

// Final avalanche (from SplitMix64) to decorrelate low bits.
std::uint64_t Avalanche(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace

std::uint64_t HashBytes(std::string_view data, std::uint64_t seed) {
  return Avalanche(FnvBytes(FnvBasis(seed), data));
}

FeatureHasher::FeatureHasher(FeatureHasherOptions options)
    : options_(std::move(options)) {
  if (options_.num_buckets == 0) options_.num_buckets = 1;
}

std::vector<std::uint32_t> FeatureHasher::HashTokens(
    const std::vector<std::string>& tokens, std::uint64_t field_seed) const {
  std::vector<std::uint32_t> out;
  AppendHashedTokens(tokens, field_seed, &out);
  return out;
}

void FeatureHasher::AppendHashedTokens(const std::vector<std::string>& tokens,
                                       std::uint64_t field_seed,
                                       std::vector<std::uint32_t>* out) const {
  // Every feature is HashBytes(bytes, field_seed * 1315423911 + sub_seed)
  // reduced to a bucket: a bigram's bytes "a\x1fb" are streamed through one
  // state without building the string, and an n-gram is a window of "#t#"
  // in one buffer reused for every token. For a power-of-two bucket count
  // the mask equals the remainder.
  const std::uint32_t buckets = options_.num_buckets;
  const bool pow2 = (buckets & (buckets - 1)) == 0;
  const std::uint64_t base = field_seed * 1315423911ULL;
  // Sized up front, so each feature is one store.
  std::size_t count = 0;
  if (options_.word_unigrams) count += tokens.size();
  if (options_.word_bigrams && tokens.size() >= 2) count += tokens.size() - 1;
  for (const auto& t : tokens) {
    for (int n : options_.char_ngram_sizes) {
      const std::size_t len = static_cast<std::size_t>(n);
      if (n > 0 && t.size() + 2 >= len) count += t.size() + 3 - len;
    }
  }
  const std::size_t start = out->size();
  out->resize(start + count);
  std::uint32_t* dst = out->data() + start;
  const auto emit = [&](std::uint64_t state) {
    const std::uint64_t h = Avalanche(state);
    *dst++ =
        static_cast<std::uint32_t>(pow2 ? h & (buckets - 1) : h % buckets);
  };
  if (options_.word_unigrams) {
    const std::uint64_t basis = FnvBasis(base + 1);
    for (const auto& t : tokens) emit(FnvBytes(basis, t));
  }
  if (options_.word_bigrams && tokens.size() >= 2) {
    const std::uint64_t basis = FnvBasis(base + 2);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      emit(FnvBytes(FnvByte(FnvBytes(basis, tokens[i]), '\x1f'),
                    tokens[i + 1]));
    }
  }
  if (!options_.char_ngram_sizes.empty()) {
    std::string padded;  // "#t#", one buffer for every token
    for (const auto& t : tokens) {
      padded.assign(1, '#');
      padded += t;
      padded += '#';
      for (int n : options_.char_ngram_sizes) {
        if (n <= 0) continue;
        const std::size_t len = static_cast<std::size_t>(n);
        if (padded.size() < len) continue;
        const std::uint64_t basis =
            FnvBasis(base + 100 + static_cast<std::uint64_t>(n));
        for (std::size_t i = 0; i + len <= padded.size(); ++i) {
          emit(FnvBytes(basis, std::string_view(padded).substr(i, len)));
        }
      }
    }
  }
}

}  // namespace metablink::text
