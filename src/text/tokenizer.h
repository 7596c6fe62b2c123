#ifndef METABLINK_TEXT_TOKENIZER_H_
#define METABLINK_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace metablink::text {

/// Options controlling tokenization.
struct TokenizerOptions {
  /// Lowercase all tokens (the paper's encoders are uncased).
  bool lowercase = true;
  /// Keep single punctuation marks as their own tokens (e.g. "(" for
  /// disambiguation phrases). When false punctuation is dropped.
  bool keep_punctuation = false;
};

/// Deterministic rule-based word tokenizer: splits on whitespace and
/// punctuation boundaries; alphanumeric runs form tokens.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {}) : options_(options) {}

  /// Tokenizes `text` into word tokens.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Tokenize into `*out`, replacing its contents. The strings already in
  /// `*out` are reassigned in place, so a buffer reused across calls keeps
  /// its allocations.
  void TokenizeInto(std::string_view text,
                    std::vector<std::string>* out) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  TokenizerOptions options_;
};

/// Normalizes text for exact-title matching: lowercases, collapses
/// whitespace, and drops punctuation. "The  Curse," -> "the curse".
std::string NormalizeForMatch(std::string_view text);

/// Strips a trailing parenthesised disambiguation phrase:
/// "Jack (Star Trek)" -> "Jack". Returns the input unchanged if there is no
/// such phrase. The stripped phrase (without parens) is stored in `*phrase`
/// when non-null.
std::string StripDisambiguation(std::string_view title,
                                std::string* phrase = nullptr);

}  // namespace metablink::text

#endif  // METABLINK_TEXT_TOKENIZER_H_
