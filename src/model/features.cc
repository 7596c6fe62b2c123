#include "model/features.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "text/string_metrics.h"
#include "util/logging.h"

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

void TokenizeMention(const data::LinkingExample& example, MentionText* out) {
  const text::Tokenizer tokenizer;
  tokenizer.TokenizeInto(example.mention, &out->mention);
  tokenizer.TokenizeInto(example.left_context, &out->left_context);
  tokenizer.TokenizeInto(example.right_context, &out->right_context);
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
  MentionText text;
  TokenizeMention(example, &text);
  MentionBagInto(text, out);
}

void Featurizer::MentionBagInto(const MentionText& text,
                                std::vector<std::uint32_t>* out) const {
  out->clear();
  hasher_.AppendHashedTokens(text.mention, kFieldMention, out);
  hasher_.AppendHashedTokens(text.left_context, kFieldContext, out);
  hasher_.AppendHashedTokens(text.right_context, kFieldContext, out);
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
  MentionText text;
  TokenizeMention(example, &text);
  PrecomputeMentionTokens(example, text, vocab, out);
}

void Featurizer::PrecomputeMentionTokens(const data::LinkingExample& example,
                                         const MentionText& text,
                                         const TokenVocabulary& vocab,
                                         MentionTokens* out) const {
  for (std::uint32_t id : out->ids) out->counts[id] = {};
  out->ids.clear();
  if (out->counts.size() < vocab.size()) out->counts.resize(vocab.size());
  // Distinct known tokens are counted as their entries leave zero; the
  // unknown ones, which have no entry, by sorting their strings.
  std::vector<std::string_view> unknown;
  const auto count = [&](const std::vector<std::string>& tokens,
                         std::uint32_t MentionTokens::Counts::*field,
                         std::size_t* distinct) {
    for (const std::string& t : tokens) {
      const auto it = vocab.find(t);
      if (it == vocab.end()) {
        unknown.push_back(t);
        continue;
      }
      METABLINK_CHECK(it->second < out->counts.size())
          << "token id outside its vocabulary";
      MentionTokens::Counts& c = out->counts[it->second];
      if (c.mention == 0 && c.context == 0) out->ids.push_back(it->second);
      if ((c.*field)++ == 0) ++*distinct;
    }
  };
  const auto distinct_unknown = [&unknown] {
    std::sort(unknown.begin(), unknown.end());
    const auto n = static_cast<std::size_t>(
        std::unique(unknown.begin(), unknown.end()) - unknown.begin());
    unknown.clear();
    return n;
  };
  out->mention_distinct = 0;
  count(text.mention, &MentionTokens::Counts::mention, &out->mention_distinct);
  out->mention_distinct += distinct_unknown();
  out->mention_total = text.mention.size();
  out->context_distinct = 0;
  count(text.left_context, &MentionTokens::Counts::context,
        &out->context_distinct);
  count(text.right_context, &MentionTokens::Counts::context,
        &out->context_distinct);
  out->context_distinct += distinct_unknown();
  out->context_total = text.left_context.size() + text.right_context.size();
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
  // Entity ids are distinct and ascending, so each set's last id bounds it.
  const std::size_t vocab = mention.counts.size();
  METABLINK_CHECK(
      (entity.title_ids.empty() || entity.title_ids.back() < vocab) &&
      (entity.desc_ids.empty() || entity.desc_ids.back() < vocab))
      << "entity token id outside the mention's vocabulary";
  const MentionTokens::Counts* counts = mention.counts.data();
  // |mention ∩ title|, |context ∩ desc|, and the mention and context
  // tokens (repeats included) found in the description.
  std::size_t m_title = 0;
  for (std::uint32_t id : entity.title_ids) {
    m_title += counts[id].mention != 0 ? 1 : 0;
  }
  std::size_t c_desc = 0, c_hits = 0, m_hits = 0;
  for (std::uint32_t id : entity.desc_ids) {
    const MentionTokens::Counts k = counts[id];
    c_desc += k.context != 0 ? 1 : 0;
    c_hits += k.context;
    m_hits += k.mention;
  }
  out[2] = static_cast<float>(Jaccard(mention.mention_distinct,
                                      entity.title_ids.size(), m_title));
  out[3] = static_cast<float>(Jaccard(mention.context_distinct,
                                      entity.desc_ids.size(), c_desc));
  out[4] = Fraction(m_hits, mention.mention_total);
  out[5] = Fraction(c_hits, mention.context_total);
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
