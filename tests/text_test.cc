#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>

#include "data/generator.h"
#include "text/feature_hashing.h"
#include "text/rouge.h"
#include "text/string_metrics.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace metablink::text {
namespace {

// ---- tokenizer -------------------------------------------------------------

TEST(TokenizerTest, BasicWords) {
  Tokenizer tok;
  auto t = tok.Tokenize("Hello, World! 42");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "hello");
  EXPECT_EQ(t[1], "world");
  EXPECT_EQ(t[2], "42");
}

TEST(TokenizerTest, CasePreservedWhenDisabled) {
  Tokenizer tok(TokenizerOptions{.lowercase = false});
  auto t = tok.Tokenize("Hello World");
  EXPECT_EQ(t[0], "Hello");
}

TEST(TokenizerTest, KeepPunctuation) {
  Tokenizer tok(TokenizerOptions{.lowercase = true, .keep_punctuation = true});
  auto t = tok.Tokenize("a (b)");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1], "(");
  EXPECT_EQ(t[3], ")");
}

TEST(TokenizerTest, ApostropheStaysInWord) {
  Tokenizer tok;
  auto t = tok.Tokenize("misgarth's satellite");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], "misgarth's");
}

TEST(TokenizerTest, EmptyInput) {
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("  ,.!  ").empty());
}

TEST(NormalizeTest, CollapsesCaseAndPunctuation) {
  EXPECT_EQ(NormalizeForMatch("The  Curse, of GOLD!"), "the curse of gold");
  EXPECT_EQ(NormalizeForMatch(""), "");
  EXPECT_EQ(NormalizeForMatch("...x..."), "x");
}

TEST(StripDisambiguationTest, StripsTrailingParen) {
  std::string phrase;
  EXPECT_EQ(StripDisambiguation("SORA (satellite)", &phrase), "SORA");
  EXPECT_EQ(phrase, "satellite");
}

TEST(StripDisambiguationTest, NoParenUnchanged) {
  std::string phrase = "stale";
  EXPECT_EQ(StripDisambiguation("Jack Atlas", &phrase), "Jack Atlas");
  EXPECT_TRUE(phrase.empty());
}

TEST(StripDisambiguationTest, RequiresSpaceBeforeParen) {
  EXPECT_EQ(StripDisambiguation("F(x)"), "F(x)");
}

// ---- vocabulary ------------------------------------------------------------

TEST(VocabularyTest, FreezeAssignsByFrequency) {
  Vocabulary v;
  v.CountAll({"b", "a", "a", "a", "b", "c"});
  ASSERT_TRUE(v.Freeze().ok());
  EXPECT_EQ(v.Lookup("a"), 1u);  // most frequent after <unk>
  EXPECT_EQ(v.Lookup("b"), 2u);
  EXPECT_EQ(v.Lookup("c"), 3u);
  EXPECT_EQ(v.Lookup("zzz"), Vocabulary::kUnkId);
  EXPECT_EQ(v.size(), 4u);
}

TEST(VocabularyTest, MinFrequencyFilters) {
  Vocabulary v;
  v.CountAll({"a", "a", "b"});
  ASSERT_TRUE(v.Freeze(/*min_freq=*/2).ok());
  EXPECT_NE(v.Lookup("a"), Vocabulary::kUnkId);
  EXPECT_EQ(v.Lookup("b"), Vocabulary::kUnkId);
}

TEST(VocabularyTest, DoubleFreezeFails) {
  Vocabulary v;
  v.Count("a");
  ASSERT_TRUE(v.Freeze().ok());
  EXPECT_FALSE(v.Freeze().ok());
}

TEST(VocabularyTest, EncodeAndTokenOfRoundTrip) {
  Vocabulary v;
  v.CountAll({"x", "y"});
  ASSERT_TRUE(v.Freeze().ok());
  auto ids = v.Encode({"x", "unknown", "y"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(v.TokenOf(ids[0]), "x");
  EXPECT_EQ(ids[1], Vocabulary::kUnkId);
  EXPECT_EQ(v.TokenOf(999), "<unk>");
  EXPECT_EQ(v.Frequency("x"), 1u);
}

// ---- feature hashing -------------------------------------------------------

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(HashBytes("abc", 1), HashBytes("abc", 1));
  EXPECT_NE(HashBytes("abc", 1), HashBytes("abc", 2));
  EXPECT_NE(HashBytes("abc", 1), HashBytes("abd", 1));
}

TEST(FeatureHasherTest, BucketsRespected) {
  FeatureHasherOptions opts;
  opts.num_buckets = 64;
  FeatureHasher hasher(opts);
  auto ids = hasher.HashTokens({"alpha", "beta", "gamma"}, 0);
  EXPECT_FALSE(ids.empty());
  for (auto id : ids) EXPECT_LT(id, 64u);
}

TEST(FeatureHasherTest, FieldSeedSeparatesSpaces) {
  FeatureHasher hasher;
  auto a = hasher.HashTokens({"alpha"}, 1);
  auto b = hasher.HashTokens({"alpha"}, 2);
  EXPECT_NE(a, b);
}

TEST(FeatureHasherTest, UnigramOnlyCount) {
  FeatureHasherOptions opts;
  opts.word_bigrams = false;
  opts.char_ngram_sizes = {};
  FeatureHasher hasher(opts);
  EXPECT_EQ(hasher.HashTokens({"a", "b", "c"}, 0).size(), 3u);
}

TEST(FeatureHasherTest, BigramsAddNMinusOne) {
  FeatureHasherOptions opts;
  opts.char_ngram_sizes = {};
  FeatureHasher hasher(opts);
  EXPECT_EQ(hasher.HashTokens({"a", "b", "c"}, 0).size(), 3u + 2u);
}

TEST(FeatureHasherTest, CharNgramsSharedAcrossSimilarWords) {
  // Words sharing character n-grams must share some hashed features
  // (the surface-similarity channel of the encoders).
  FeatureHasherOptions opts;
  opts.word_unigrams = false;
  opts.word_bigrams = false;
  opts.char_ngram_sizes = {3};
  FeatureHasher hasher(opts);
  auto a = hasher.HashTokens({"dragonfly"}, 0);
  auto b = hasher.HashTokens({"dragonfire"}, 0);
  std::set<std::uint32_t> sa(a.begin(), a.end());
  std::size_t shared = 0;
  for (auto id : b) shared += sa.count(id);
  EXPECT_GE(shared, 4u);  // "#dr","dra","rag","ago","gon"
}

TEST(FeatureHasherTest, EmptyTokensYieldEmptyBag) {
  FeatureHasher hasher;
  EXPECT_TRUE(hasher.HashTokens({}, 0).empty());
}

// AppendHashedTokens as it was before it streamed its features: one
// std::string per bigram and per "#tok#", each hashed with HashBytes and
// reduced with %.
std::vector<std::uint32_t> ReferenceHashTokens(
    const FeatureHasherOptions& o, const std::vector<std::string>& tokens,
    std::uint64_t field_seed) {
  std::vector<std::uint32_t> out;
  auto emit = [&](std::string_view data, std::uint64_t sub_seed) {
    out.push_back(static_cast<std::uint32_t>(
        HashBytes(data, field_seed * 1315423911ULL + sub_seed) %
        o.num_buckets));
  };
  if (o.word_unigrams) {
    for (const auto& t : tokens) emit(t, 1);
  }
  if (o.word_bigrams) {
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      emit(tokens[i] + '\x1f' + tokens[i + 1], 2);
    }
  }
  for (const auto& t : tokens) {
    const std::string padded = "#" + t + "#";
    for (int n : o.char_ngram_sizes) {
      const auto len = static_cast<std::size_t>(n);
      if (n <= 0 || padded.size() < len) continue;
      for (std::size_t i = 0; i + len <= padded.size(); ++i) {
        emit(std::string_view(padded).substr(i, len),
             100 + static_cast<std::uint64_t>(n));
      }
    }
  }
  return out;
}

TEST(FeatureHasherTest, StreamedFeaturesEqualStringBuildingReference) {
  Tokenizer tok;
  std::vector<std::vector<std::string>> fields = {
      {},
      {"x"},
      {"misgarth's", "satellite", "of", "the", "north", "42"},
      {std::string(300, 'q'), "ab", std::string(257, 'z')},
      {"caf\xc3\xa9", "\xff\x80", "na\xefve", "\x1f"},
      tok.Tokenize("The Curse of Varnath (Star Trek) ruled the Vale, "
                   "and its 3 heirs fled north in 1204."),
  };
  // Every mention, context, title and description field of a generated
  // corpus.
  data::GeneratorOptions gen_opts;
  gen_opts.seed = 17;
  data::ZeshelLikeGenerator gen(gen_opts);
  const std::vector<data::DomainSpec> specs = {
      {.name = "d", .num_entities = 40, .num_examples = 60,
       .num_documents = 20}};
  const data::Corpus corpus = std::move(*gen.Generate(specs));
  for (const auto& ex : corpus.ExamplesIn("d")) {
    fields.push_back(tok.Tokenize(ex.mention));
    fields.push_back(tok.Tokenize(ex.left_context));
    fields.push_back(tok.Tokenize(ex.right_context));
  }
  for (kb::EntityId id : corpus.kb.EntitiesInDomain("d")) {
    fields.push_back(tok.Tokenize(corpus.kb.entity(id).title));
    fields.push_back(tok.Tokenize(corpus.kb.entity(id).description));
  }
  for (std::uint32_t buckets : {1u, 1000u, 1u << 14}) {
    for (const std::vector<int>& sizes :
         {std::vector<int>{3, 4}, std::vector<int>{1, 2, 5, 0, -1},
          std::vector<int>{}}) {
      FeatureHasherOptions opts;
      opts.num_buckets = buckets;
      opts.char_ngram_sizes = sizes;
      const FeatureHasher hasher(opts);
      for (std::size_t f = 0; f < fields.size(); ++f) {
        for (std::uint64_t seed : {0ull, 11ull, 44ull}) {
          EXPECT_EQ(hasher.HashTokens(fields[f], seed),
                    ReferenceHashTokens(opts, fields[f], seed))
              << "buckets " << buckets << " field " << f << " seed " << seed;
        }
      }
    }
  }
}

TEST(TokenizerTest, EveryByteClassifiedAsTheCLocaleClassifiesIt) {
  // The tokenizer spells out the "C" locale's classes; this program never
  // calls setlocale, so the <cctype> calls give the reference.
  std::string all;
  for (int b = 1; b < 256; ++b) {
    all += 'A';
    all += static_cast<char>(b);
    all += 'b';
  }
  for (bool keep_punctuation : {false, true}) {
    std::vector<std::string> want;
    std::string word;
    for (char c : all) {
      const auto u = static_cast<unsigned char>(c);
      if (std::isalnum(u) != 0 || c == '\'' || c == '_') {
        word += static_cast<char>(std::tolower(u));
        continue;
      }
      if (!word.empty()) want.push_back(word);
      word.clear();
      if (keep_punctuation && std::ispunct(u) != 0) want.emplace_back(1, c);
    }
    if (!word.empty()) want.push_back(word);
    TokenizerOptions opts;
    opts.keep_punctuation = keep_punctuation;
    EXPECT_EQ(Tokenizer(opts).Tokenize(all), want);
  }
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    const auto u = static_cast<unsigned char>(b);
    std::string want;
    if (std::isalnum(u) != 0) want += static_cast<char>(std::tolower(u));
    EXPECT_EQ(NormalizeForMatch(s), want) << "byte " << b;
  }
}

TEST(TokenizerTest, TokenizeIntoReusesAndReplacesContents) {
  Tokenizer tok;
  std::vector<std::string> out = {"stale", "entries", "here", "too"};
  tok.TokenizeInto("Hello, World!", &out);
  EXPECT_EQ(out, tok.Tokenize("Hello, World!"));
  tok.TokenizeInto("a much longer line of several words", &out);
  EXPECT_EQ(out, tok.Tokenize("a much longer line of several words"));
  tok.TokenizeInto("", &out);
  EXPECT_TRUE(out.empty());
}

// ---- string metrics --------------------------------------------------------

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("flaw", "lawn"), EditDistance("lawn", "flaw"));
}

TEST(TokenJaccardTest, Values) {
  EXPECT_DOUBLE_EQ(TokenJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard({"a"}, {"b"}), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard({"a", "a", "b"}, {"a", "b"}), 1.0);  // set
}

TEST(LcsTest, KnownValues) {
  EXPECT_EQ(LcsLength({"a", "b", "c"}, {"a", "c"}), 2u);
  EXPECT_EQ(LcsLength({}, {"a"}), 0u);
  EXPECT_EQ(LcsLength({"x"}, {"y"}), 0u);
}

TEST(OverlapCategoryTest, HighOverlap) {
  EXPECT_EQ(ClassifyOverlap("Jack Atlas", "jack atlas"),
            OverlapCategory::kHighOverlap);
}

TEST(OverlapCategoryTest, MultipleCategories) {
  EXPECT_EQ(ClassifyOverlap("SORA", "SORA (satellite)"),
            OverlapCategory::kMultipleCategories);
}

TEST(OverlapCategoryTest, AmbiguousSubstring) {
  EXPECT_EQ(ClassifyOverlap("Atlas", "Jack Atlas"),
            OverlapCategory::kAmbiguousSubstring);
}

TEST(OverlapCategoryTest, LowOverlap) {
  EXPECT_EQ(ClassifyOverlap("the fourth episode",
                            "The Curse of the Golden Master"),
            OverlapCategory::kLowOverlap);
}

TEST(OverlapCategoryTest, NamesAreStable) {
  EXPECT_STREQ(OverlapCategoryName(OverlapCategory::kLowOverlap),
               "Low Overlap");
  EXPECT_STREQ(OverlapCategoryName(OverlapCategory::kHighOverlap),
               "High Overlap");
}

// ---- rouge -----------------------------------------------------------------

TEST(RougeTest, IdenticalIsPerfect) {
  auto s = RougeN({"a", "b", "c"}, {"a", "b", "c"}, 1);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
}

TEST(RougeTest, DisjointIsZero) {
  auto s = RougeN({"a"}, {"b"}, 1);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
}

TEST(RougeTest, ClippedCounts) {
  // candidate repeats "a" 3x, reference has it once: precision 1/3.
  auto s = RougeN({"a", "a", "a"}, {"a"}, 1);
  EXPECT_NEAR(s.precision, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
}

TEST(RougeTest, Rouge2NeedsBigrams) {
  auto s = RougeN({"a", "b"}, {"a", "b"}, 2);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
  auto short_s = RougeN({"a"}, {"a"}, 2);
  EXPECT_DOUBLE_EQ(short_s.f1, 0.0);  // no bigrams exist
}

TEST(RougeTest, RougeLUsesLcs) {
  auto s = RougeL({"a", "x", "b"}, {"a", "b"});
  EXPECT_NEAR(s.recall, 1.0, 1e-12);
  EXPECT_NEAR(s.precision, 2.0 / 3.0, 1e-12);
}

TEST(RougeTest, CorpusAverage) {
  double f1 = CorpusRougeNF1({{"a"}, {"b"}}, {{"a"}, {"c"}}, 1);
  EXPECT_DOUBLE_EQ(f1, 0.5);
  EXPECT_DOUBLE_EQ(CorpusRougeNF1({}, {}, 1), 0.0);
  EXPECT_DOUBLE_EQ(CorpusRougeNF1({{"a"}}, {}, 1), 0.0);  // misaligned
}

// ---- tf-idf ----------------------------------------------------------------

TEST(TfIdfTest, DocumentFrequencyCountsOncePerDoc) {
  TfIdfStats stats;
  stats.AddDocument({"a", "a", "b"});
  stats.AddDocument({"a", "c"});
  EXPECT_EQ(stats.DocumentFrequency("a"), 2u);
  EXPECT_EQ(stats.DocumentFrequency("b"), 1u);
  EXPECT_EQ(stats.TermCount("a"), 3u);
  EXPECT_EQ(stats.num_documents(), 2u);
  EXPECT_EQ(stats.total_terms(), 5u);
}

TEST(TfIdfTest, RareTokenHasHigherIdf) {
  TfIdfStats stats;
  for (int i = 0; i < 10; ++i) stats.AddDocument({"common", "filler"});
  stats.AddDocument({"rare"});
  EXPECT_GT(stats.Idf("rare"), stats.Idf("common"));
}

TEST(TfIdfTest, TfIdfAlignedWithDoc) {
  TfIdfStats stats;
  stats.AddDocument({"a", "b"});
  auto w = stats.TfIdf({"a", "a", "zzz"});
  ASSERT_EQ(w.size(), 3u);
  EXPECT_GT(w[2], 0.0);   // unseen token: max idf
  EXPECT_GT(w[0], 0.0);
}

TEST(TfIdfTest, PerplexityProxyHigherForUnseen) {
  TfIdfStats stats;
  for (int i = 0; i < 50; ++i) stats.AddDocument({"in", "domain", "words"});
  EXPECT_GT(stats.PerplexityProxy({"never", "seen"}),
            stats.PerplexityProxy({"in", "domain"}));
  EXPECT_DOUBLE_EQ(stats.PerplexityProxy({}), 0.0);
}

// ---- property sweep: edit distance triangle inequality ---------------------

class EditDistanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EditDistanceProperty, TriangleInequalityAndBounds) {
  util::Rng rng(GetParam());
  auto random_word = [&rng]() {
    std::string w;
    std::size_t len = rng.NextUint64(12);
    for (std::size_t i = 0; i < len; ++i) {
      w += static_cast<char>('a' + rng.NextUint64(4));
    }
    return w;
  };
  for (int iter = 0; iter < 50; ++iter) {
    std::string a = random_word(), b = random_word(), c = random_word();
    std::size_t ab = EditDistance(a, b);
    std::size_t bc = EditDistance(b, c);
    std::size_t ac = EditDistance(a, c);
    EXPECT_LE(ac, ab + bc);
    EXPECT_LE(ab, std::max(a.size(), b.size()));
    EXPECT_GE(ab + b.size(), a.size());  // |len diff| <= distance
    EXPECT_EQ(EditDistance(a, a), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace metablink::text
