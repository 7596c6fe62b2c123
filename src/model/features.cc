#include "model/features.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "text/string_metrics.h"

namespace metablink::model {

namespace {
float FractionIn(const std::vector<std::string>& tokens,
                 const std::unordered_set<std::string>& set) {
  if (tokens.empty()) return 0.0f;
  std::size_t hits = 0;
  for (const auto& t : tokens) {
    if (set.count(t) > 0) ++hits;
  }
  return static_cast<float>(hits) / static_cast<float>(tokens.size());
}

void ResolveTokens(const std::vector<std::string>& tokens,
                   const TokenVocabulary& vocab, TokenCounts* out) {
  std::vector<std::uint32_t> known;
  std::vector<std::string_view> unknown;
  for (const std::string& t : tokens) {
    const auto it = vocab.find(t);
    if (it != vocab.end()) {
      known.push_back(it->second);
    } else {
      unknown.push_back(t);
    }
  }
  std::sort(known.begin(), known.end());
  out->ids.clear();
  for (std::uint32_t id : known) {
    if (!out->ids.empty() && out->ids.back().first == id) {
      ++out->ids.back().second;
    } else {
      out->ids.emplace_back(id, 1u);
    }
  }
  std::sort(unknown.begin(), unknown.end());
  const std::size_t unknown_distinct = static_cast<std::size_t>(
      std::unique(unknown.begin(), unknown.end()) - unknown.begin());
  out->distinct = out->ids.size() + unknown_distinct;
  out->total = tokens.size();
}

/// Matches of a mention-side field in an entity's ascending id set.
struct Matches {
  std::size_t distinct = 0;     // |field set ∩ entity set|
  std::size_t occurrences = 0;  // field tokens (with repeats) in the set
};

Matches Intersect(const TokenCounts& field,
                  const std::vector<std::uint32_t>& set) {
  Matches m;
  auto s = set.begin();
  for (const auto& [id, count] : field.ids) {
    while (s != set.end() && *s < id) ++s;
    if (s == set.end()) break;
    if (*s == id) {
      ++m.distinct;
      m.occurrences += count;
    }
  }
  return m;
}

/// text::TokenJaccard from set sizes: the same intersection and union
/// counts, so the same double.
double Jaccard(std::size_t a, std::size_t b, std::size_t inter) {
  if (a == 0 && b == 0) return 1.0;
  const std::size_t uni = a + b - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

/// FractionIn from counts: the same integer ratio in float.
float Fraction(std::size_t hits, std::size_t total) {
  if (total == 0) return 0.0f;
  return static_cast<float>(hits) / static_cast<float>(total);
}
}  // namespace

void InternTokenSet(const std::vector<std::string>& tokens,
                    TokenVocabulary* vocab, std::vector<std::uint32_t>* ids) {
  ids->clear();
  ids->reserve(tokens.size());
  for (const std::string& t : tokens) {
    const auto next = static_cast<std::uint32_t>(vocab->size());
    ids->push_back(vocab->try_emplace(t, next).first->second);
  }
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

Featurizer::Featurizer(FeatureConfig config) : hasher_(config.hasher) {}

std::vector<std::uint32_t> Featurizer::MentionBag(
    const data::LinkingExample& example) const {
  std::vector<std::uint32_t> bag;
  MentionBagInto(example, &bag);
  return bag;
}

std::vector<std::uint32_t> Featurizer::EntityBag(
    const kb::Entity& entity) const {
  std::vector<std::uint32_t> bag;
  EntityBagInto(entity, &bag);
  return bag;
}

void Featurizer::MentionBagInto(const data::LinkingExample& example,
                                std::vector<std::uint32_t>* out) const {
  out->clear();
  hasher_.AppendHashedTokens(tokenizer_.Tokenize(example.mention),
                             kFieldMention, out);
  hasher_.AppendHashedTokens(tokenizer_.Tokenize(example.left_context),
                             kFieldContext, out);
  hasher_.AppendHashedTokens(tokenizer_.Tokenize(example.right_context),
                             kFieldContext, out);
}

void Featurizer::EntityBagInto(const kb::Entity& entity,
                               std::vector<std::uint32_t>* out) const {
  out->clear();
  hasher_.AppendHashedTokens(tokenizer_.Tokenize(entity.title), kFieldTitle,
                             out);
  hasher_.AppendHashedTokens(tokenizer_.Tokenize(entity.description),
                             kFieldDescription, out);
}

void Featurizer::OverlapFeaturesInto(const data::LinkingExample& example,
                                     const kb::Entity& entity,
                                     float* out) const {
  const std::vector<float> feats = OverlapFeatures(example, entity);
  std::copy(feats.begin(), feats.end(), out);
}

std::vector<float> Featurizer::OverlapFeatures(
    const data::LinkingExample& example, const kb::Entity& entity) const {
  const auto mention_tokens = tokenizer_.Tokenize(example.mention);
  const auto title_tokens = tokenizer_.Tokenize(entity.title);
  const auto desc_tokens = tokenizer_.Tokenize(entity.description);
  auto context_tokens = tokenizer_.Tokenize(example.left_context);
  for (auto& t : tokenizer_.Tokenize(example.right_context)) {
    context_tokens.push_back(std::move(t));
  }
  const std::unordered_set<std::string> desc_set(desc_tokens.begin(),
                                                 desc_tokens.end());

  const auto category = text::ClassifyOverlap(example.mention, entity.title);
  std::vector<float> feats(kNumOverlapFeatures, 0.0f);
  feats[0] = category == text::OverlapCategory::kHighOverlap ? 1.0f : 0.0f;
  feats[1] = (category == text::OverlapCategory::kAmbiguousSubstring ||
              category == text::OverlapCategory::kMultipleCategories)
                 ? 1.0f
                 : 0.0f;
  feats[2] = static_cast<float>(text::TokenJaccard(mention_tokens,
                                                   title_tokens));
  feats[3] = static_cast<float>(text::TokenJaccard(context_tokens,
                                                   desc_tokens));
  feats[4] = FractionIn(mention_tokens, desc_set);
  feats[5] = FractionIn(context_tokens, desc_set);
  return feats;
}

void Featurizer::PrecomputeEntityTokens(const kb::Entity& entity,
                                        TokenVocabulary* vocab,
                                        CachedEntityTokens* out) const {
  InternTokenSet(tokenizer_.Tokenize(entity.title), vocab, &out->title_ids);
  InternTokenSet(tokenizer_.Tokenize(entity.description), vocab,
                 &out->desc_ids);
  out->norm_title = text::NormalizeForMatch(entity.title);
  std::string phrase;
  out->norm_base =
      text::NormalizeForMatch(text::StripDisambiguation(entity.title,
                                                        &phrase));
  out->has_phrase = !phrase.empty();
}

void Featurizer::PrecomputeMentionTokens(const data::LinkingExample& example,
                                         const TokenVocabulary& vocab,
                                         MentionTokens* out) const {
  ResolveTokens(tokenizer_.Tokenize(example.mention), vocab, &out->mention);
  auto context = tokenizer_.Tokenize(example.left_context);
  for (auto& t : tokenizer_.Tokenize(example.right_context)) {
    context.push_back(std::move(t));
  }
  ResolveTokens(context, vocab, &out->context);
  out->norm_mention = text::NormalizeForMatch(example.mention);
}

void OverlapFeaturesCached(const MentionTokens& mention,
                           const CachedEntityTokens& entity, float* out) {
  // The category branches mirror text::ClassifyOverlap on the cached
  // normalized forms.
  const std::string& m = mention.norm_mention;
  text::OverlapCategory category = text::OverlapCategory::kLowOverlap;
  if (m == entity.norm_title && !m.empty()) {
    category = text::OverlapCategory::kHighOverlap;
  } else if (entity.has_phrase && m == entity.norm_base && !m.empty()) {
    category = text::OverlapCategory::kMultipleCategories;
  } else if (!m.empty() &&
             entity.norm_title.find(m) != std::string::npos) {
    category = text::OverlapCategory::kAmbiguousSubstring;
  }
  out[0] = category == text::OverlapCategory::kHighOverlap ? 1.0f : 0.0f;
  out[1] = (category == text::OverlapCategory::kAmbiguousSubstring ||
            category == text::OverlapCategory::kMultipleCategories)
               ? 1.0f
               : 0.0f;
  const Matches m_title = Intersect(mention.mention, entity.title_ids);
  const Matches c_desc = Intersect(mention.context, entity.desc_ids);
  const Matches m_desc = Intersect(mention.mention, entity.desc_ids);
  out[2] = static_cast<float>(Jaccard(mention.mention.distinct,
                                      entity.title_ids.size(),
                                      m_title.distinct));
  out[3] = static_cast<float>(Jaccard(mention.context.distinct,
                                      entity.desc_ids.size(),
                                      c_desc.distinct));
  out[4] = Fraction(m_desc.occurrences, mention.mention.total);
  out[5] = Fraction(c_desc.occurrences, mention.context.total);
}

void SaveFeatureConfig(const FeatureConfig& config,
                       util::BinaryWriter* writer) {
  const text::FeatureHasherOptions& h = config.hasher;
  writer->WriteU32(h.num_buckets);
  writer->WriteU32(h.word_unigrams ? 1u : 0u);
  writer->WriteU32(h.word_bigrams ? 1u : 0u);
  writer->WriteU64(h.char_ngram_sizes.size());
  for (int n : h.char_ngram_sizes) {
    writer->WriteI64(static_cast<std::int64_t>(n));
  }
}

util::Status LoadFeatureConfig(util::BinaryReader* reader, FeatureConfig* out) {
  text::FeatureHasherOptions h;
  std::uint32_t unigrams = 0, bigrams = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&h.num_buckets));
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&unigrams));
  METABLINK_RETURN_IF_ERROR(reader->ReadU32(&bigrams));
  h.word_unigrams = unigrams != 0;
  h.word_bigrams = bigrams != 0;
  std::uint64_t num_sizes = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&num_sizes));
  h.char_ngram_sizes.clear();
  for (std::uint64_t i = 0; i < num_sizes; ++i) {
    std::int64_t n = 0;
    METABLINK_RETURN_IF_ERROR(reader->ReadI64(&n));
    h.char_ngram_sizes.push_back(static_cast<int>(n));
  }
  out->hasher = std::move(h);
  return util::Status::OK();
}

bool FeatureConfigsMatch(const FeatureConfig& a, const FeatureConfig& b) {
  return a.hasher.num_buckets == b.hasher.num_buckets &&
         a.hasher.word_unigrams == b.hasher.word_unigrams &&
         a.hasher.word_bigrams == b.hasher.word_bigrams &&
         a.hasher.char_ngram_sizes == b.hasher.char_ngram_sizes;
}

}  // namespace metablink::model
