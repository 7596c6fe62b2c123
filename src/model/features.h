#ifndef METABLINK_MODEL_FEATURES_H_
#define METABLINK_MODEL_FEATURES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/example.h"
#include "kb/entity.h"
#include "text/feature_hashing.h"
#include "text/tokenizer.h"
#include "util/serialize.h"
#include "util/status.h"

namespace metablink::model {

/// Field seeds separating the hashed feature spaces of the different text
/// fields (mention surface vs. context vs. title vs. description).
enum FieldSeed : std::uint64_t {
  kFieldMention = 11,
  kFieldContext = 22,
  kFieldTitle = 33,
  kFieldDescription = 44,
};

/// Number of dense overlap features produced by OverlapFeatures().
inline constexpr std::size_t kNumOverlapFeatures = 6;

/// Shared featurization config for both encoders.
struct FeatureConfig {
  text::FeatureHasherOptions hasher;
};

/// Serializes `config` so a checkpoint records the exact feature space its
/// weights were trained in (bucket count and n-gram settings change the
/// hashed input representation, so loading weights under a different
/// config would be silently wrong).
void SaveFeatureConfig(const FeatureConfig& config, util::BinaryWriter* writer);
util::Status LoadFeatureConfig(util::BinaryReader* reader, FeatureConfig* out);

/// True when the two configs describe the same hashed feature space.
bool FeatureConfigsMatch(const FeatureConfig& a, const FeatureConfig& b);

/// Exact token -> id map over the title and description tokens of one
/// entity set (a CrossEntityCache's). Unlike the hashed bags it never
/// collides: two tokens share an id exactly when they are equal strings,
/// so set intersections over ids count exactly what string sets would.
using TokenVocabulary = std::unordered_map<std::string, std::uint32_t>;

/// Interns every token into `vocab` (new tokens take the next free id) and
/// writes the distinct ids, ascending, to `*ids`.
void InternTokenSet(const std::vector<std::string>& tokens,
                    TokenVocabulary* vocab, std::vector<std::uint32_t>* ids);

/// Entity-side text work that does not depend on the mention, precomputed
/// once per entity for the serving path: the distinct title and
/// description tokens as ascending vocabulary ids (for the jaccard and
/// coverage features) and the match-normalized title forms (for the
/// overlap category).
struct CachedEntityTokens {
  std::vector<std::uint32_t> title_ids;
  std::vector<std::uint32_t> desc_ids;
  std::string norm_title;
  /// Normalized title with its trailing "(...)" phrase stripped; only
  /// meaningful when has_phrase.
  std::string norm_base;
  bool has_phrase = false;
};

/// An example's mention and context tokens. Every Featurizer tokenizes
/// alike, so one MentionText, tokenized once, serves every featurization of
/// the example: the bi- and cross-encoder bags (MentionBagInto) and the
/// overlap features' mention side (PrecomputeMentionTokens).
struct MentionText {
  std::vector<std::string> mention;
  std::vector<std::string> left_context;
  std::vector<std::string> right_context;
};

/// Tokenizes `example` into `*out`, reusing its buffers.
void TokenizeMention(const data::LinkingExample& example, MentionText* out);

/// Mention-side text work shared by every candidate of one request, resolved
/// against one TokenVocabulary.
struct MentionTokens {
  /// Occurrences of a vocabulary id in the mention and in the context
  /// (left then right). A token outside the vocabulary matches no entity
  /// token and has no entry.
  struct Counts {
    std::uint32_t mention = 0;
    std::uint32_t context = 0;
  };
  /// Indexed by vocabulary id, at least the vocabulary's size; zero except
  /// at `ids`. Kept across requests: each resolve clears only the entries
  /// the previous one set, so its cost follows the text, not the
  /// vocabulary.
  std::vector<Counts> counts;
  std::vector<std::uint32_t> ids;  // the ids set in `counts`
  std::size_t mention_distinct = 0;  // distinct tokens, known or not
  std::size_t mention_total = 0;     // all tokens, repeats included
  std::size_t context_distinct = 0;
  std::size_t context_total = 0;
  std::string norm_mention;
};

/// Precomputed-overlap serving path: exactly the values of
/// Featurizer::OverlapFeatures() for the mention and entity the two token
/// records were built from (with the same vocabulary). One pass over the
/// entity's ids reads the mention's counts, giving the same integer
/// intersection sizes and hit counts the string sets give, so the floats
/// are identical.
void OverlapFeaturesCached(const MentionTokens& mention,
                           const CachedEntityTokens& entity, float* out);

/// Converts examples and entities into hashed feature bags — the input
/// representation of both encoders (the stand-in for BERT's tokenizer +
/// embedding layer; see DESIGN.md §1).
class Featurizer {
 public:
  explicit Featurizer(FeatureConfig config = {});

  /// Mention-side bag: mention tokens (kFieldMention) + left/right context
  /// tokens (kFieldContext). This is ENCODER^m's input (eq. 3).
  std::vector<std::uint32_t> MentionBag(
      const data::LinkingExample& example) const;

  /// Entity-side bag: title tokens (kFieldTitle) + description tokens
  /// (kFieldDescription). This is ENCODER^e's input (eq. 4).
  std::vector<std::uint32_t> EntityBag(const kb::Entity& entity) const;

  /// Buffer-reusing variants for the tape-free serving path: clear `*out`
  /// and refill it, keeping its capacity across calls.
  void MentionBagInto(const data::LinkingExample& example,
                      std::vector<std::uint32_t>* out) const;
  /// The same bag from the example's tokens (TokenizeMention).
  void MentionBagInto(const MentionText& text,
                      std::vector<std::uint32_t>* out) const;
  void EntityBagInto(const kb::Entity& entity,
                     std::vector<std::uint32_t>* out) const;

  /// Writes the kNumOverlapFeatures dense features into `out[0..5]`.
  void OverlapFeaturesInto(const data::LinkingExample& example,
                           const kb::Entity& entity, float* out) const;

  /// Inputs of OverlapFeaturesCached: the entity side once per entity
  /// (interning its tokens into the entity set's `vocab`), the mention side
  /// once per request (resolved against that same vocabulary), so the
  /// per-(mention, candidate) loop does no tokenizing or string hashing.
  void PrecomputeEntityTokens(const kb::Entity& entity,
                              TokenVocabulary* vocab,
                              CachedEntityTokens* out) const;
  void PrecomputeMentionTokens(const data::LinkingExample& example,
                               const TokenVocabulary& vocab,
                               MentionTokens* out) const;
  /// The same, from the example's tokens (TokenizeMention).
  void PrecomputeMentionTokens(const data::LinkingExample& example,
                               const MentionText& text,
                               const TokenVocabulary& vocab,
                               MentionTokens* out) const;

  /// Dense lexical-interaction features for the cross-encoder:
  /// [mention==title, mention substring-of title, jaccard(mention, title),
  ///  jaccard(context, description), fraction of mention tokens in
  ///  description, fraction of context tokens in description].
  std::vector<float> OverlapFeatures(const data::LinkingExample& example,
                                     const kb::Entity& entity) const;

  std::uint32_t num_buckets() const { return hasher_.num_buckets(); }

 private:
  text::Tokenizer tokenizer_;
  text::FeatureHasher hasher_;
};

}  // namespace metablink::model

#endif  // METABLINK_MODEL_FEATURES_H_
