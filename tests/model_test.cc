#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "model/entity_side.h"
#include "model/features.h"
#include "store/checkpoint.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"
#include "text/tokenizer.h"
#include "util/thread_pool.h"

namespace metablink::model {
namespace {

data::LinkingExample MakeExample(const std::string& mention,
                                 const std::string& left,
                                 const std::string& right,
                                 kb::EntityId id = 0) {
  data::LinkingExample ex;
  ex.mention = mention;
  ex.left_context = left;
  ex.right_context = right;
  ex.entity_id = id;
  ex.domain = "d";
  return ex;
}

kb::Entity MakeEntity(const std::string& title, const std::string& desc) {
  kb::Entity e;
  e.title = title;
  e.description = desc;
  e.domain = "d";
  return e;
}

// ---- Featurizer ------------------------------------------------------------

TEST(FeaturizerTest, MentionBagNonEmptyAndBounded) {
  Featurizer f;
  auto bag = f.MentionBag(MakeExample("hero", "the great", "of the realm"));
  EXPECT_FALSE(bag.empty());
  for (auto id : bag) EXPECT_LT(id, f.num_buckets());
}

TEST(FeaturizerTest, MentionVsTitleFieldsSeparated) {
  // The same word as mention vs. as title must hash differently.
  Featurizer f;
  auto mention_bag = f.MentionBag(MakeExample("hero", "", ""));
  auto entity_bag = f.EntityBag(MakeEntity("hero", ""));
  EXPECT_NE(mention_bag, entity_bag);
}

TEST(FeaturizerTest, ContextContributes) {
  Featurizer f;
  auto without = f.MentionBag(MakeExample("hero", "", ""));
  auto with = f.MentionBag(MakeExample("hero", "castle", ""));
  EXPECT_GT(with.size(), without.size());
}

TEST(FeaturizerTest, OverlapFeaturesHighOverlap) {
  Featurizer f;
  auto feats = f.OverlapFeatures(MakeExample("red dragon", "a", "b"),
                                 MakeEntity("Red Dragon", "fire beast"));
  ASSERT_EQ(feats.size(), kNumOverlapFeatures);
  EXPECT_EQ(feats[0], 1.0f);  // exact match flag
  EXPECT_EQ(feats[2], 1.0f);  // token jaccard
}

TEST(FeaturizerTest, OverlapFeaturesDisjoint) {
  Featurizer f;
  auto feats = f.OverlapFeatures(MakeExample("zzz", "aaa", "bbb"),
                                 MakeEntity("Red Dragon", "fire beast"));
  EXPECT_EQ(feats[0], 0.0f);
  EXPECT_EQ(feats[2], 0.0f);
  EXPECT_EQ(feats[4], 0.0f);
}

TEST(FeaturizerTest, MentionInDescriptionFraction) {
  Featurizer f;
  auto feats =
      f.OverlapFeatures(MakeExample("fire beast", "", ""),
                        MakeEntity("Red Dragon", "a fire beast of legend"));
  EXPECT_FLOAT_EQ(feats[4], 1.0f);
}

TEST(FeaturizerTest, CachedOverlapMatchesOverlapFeatures) {
  // The interned-id path against the string reference, over every pair of
  // a grid that hits each overlap category, repeated tokens on both sides,
  // tokens no entity carries (repeated too), and empty fields.
  Featurizer f;
  const std::vector<kb::Entity> entities = {
      MakeEntity("Red Dragon", "fire beast fire beast of the north"),
      MakeEntity("Mercury (planet)", "the smallest planet"),
      MakeEntity("Mercury (element)", ""),
      MakeEntity("", "a beast with no name"),
  };
  const std::vector<data::LinkingExample> examples = {
      MakeExample("red dragon", "the fire fire", "beast"),
      MakeExample("Mercury", "qux qux the planet", "zork qux"),
      MakeExample("dragon", "", ""),
      MakeExample("", "fire", "north north"),
      MakeExample("zzz zzz", "quux", "quux quux"),
  };
  TokenVocabulary vocab;
  std::vector<CachedEntityTokens> cached(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    f.PrecomputeEntityTokens(entities[i], &vocab, &cached[i]);
  }
  MentionTokens mention;
  float got[kNumOverlapFeatures];
  for (std::size_t e = 0; e < examples.size(); ++e) {
    f.PrecomputeMentionTokens(examples[e], vocab, &mention);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      const std::vector<float> want = f.OverlapFeatures(examples[e],
                                                        entities[i]);
      OverlapFeaturesCached(mention, cached[i], got);
      for (std::size_t k = 0; k < kNumOverlapFeatures; ++k) {
        EXPECT_EQ(got[k], want[k])
            << "example " << e << " entity " << i << " feature " << k;
      }
    }
  }
}

// OverlapFeaturesCached's integer features as they were computed before
// the dense counts, kept as the reference: each mention-side field resolved
// to ascending (id, count) pairs, then three sorted-list merges against the
// entity's ascending id sets. Writes out[2..5].
struct MergeField {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ids;
  std::size_t distinct = 0;
  std::size_t total = 0;
};

MergeField MergeResolve(const std::vector<std::string>& tokens,
                        const TokenVocabulary& vocab) {
  MergeField f;
  std::vector<std::uint32_t> known;
  std::vector<std::string> unknown;
  for (const std::string& t : tokens) {
    const auto it = vocab.find(t);
    if (it != vocab.end()) {
      known.push_back(it->second);
    } else {
      unknown.push_back(t);
    }
  }
  std::sort(known.begin(), known.end());
  for (std::uint32_t id : known) {
    if (!f.ids.empty() && f.ids.back().first == id) {
      ++f.ids.back().second;
    } else {
      f.ids.emplace_back(id, 1u);
    }
  }
  std::sort(unknown.begin(), unknown.end());
  f.distinct = f.ids.size() + static_cast<std::size_t>(
      std::unique(unknown.begin(), unknown.end()) - unknown.begin());
  f.total = tokens.size();
  return f;
}

std::pair<std::size_t, std::size_t> MergeIntersect(
    const MergeField& field, const std::vector<std::uint32_t>& set) {
  std::size_t distinct = 0, occurrences = 0;
  auto s = set.begin();
  for (const auto& [id, count] : field.ids) {
    while (s != set.end() && *s < id) ++s;
    if (s == set.end()) break;
    if (*s == id) {
      ++distinct;
      occurrences += count;
    }
  }
  return {distinct, occurrences};
}

void MergeOverlap(const data::LinkingExample& ex, const TokenVocabulary& vocab,
                  const CachedEntityTokens& entity, float* out) {
  const text::Tokenizer tok;
  std::vector<std::string> context = tok.Tokenize(ex.left_context);
  for (auto& t : tok.Tokenize(ex.right_context)) context.push_back(t);
  const MergeField mention = MergeResolve(tok.Tokenize(ex.mention), vocab);
  const MergeField ctx = MergeResolve(context, vocab);
  const auto jaccard = [](std::size_t a, std::size_t b, std::size_t inter) {
    if (a == 0 && b == 0) return 1.0;
    const std::size_t uni = a + b - inter;
    return uni == 0 ? 1.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
  };
  const auto fraction = [](std::size_t hits, std::size_t total) {
    return total == 0 ? 0.0f
                      : static_cast<float>(hits) / static_cast<float>(total);
  };
  const auto m_title = MergeIntersect(mention, entity.title_ids);
  const auto c_desc = MergeIntersect(ctx, entity.desc_ids);
  const auto m_desc = MergeIntersect(mention, entity.desc_ids);
  out[2] = static_cast<float>(
      jaccard(mention.distinct, entity.title_ids.size(), m_title.first));
  out[3] = static_cast<float>(
      jaccard(ctx.distinct, entity.desc_ids.size(), c_desc.first));
  out[4] = fraction(m_desc.second, mention.total);
  out[5] = fraction(c_desc.second, ctx.total);
}

TEST(FeaturizerTest, DenseCountOverlapMatchesMergeForm) {
  // Every (mention, entity) pair of a generated domain, then hand cases:
  // empty mention or context, repeated and out-of-vocabulary tokens, an
  // empty description. One MentionTokens serves every example, so each
  // resolve must clear what the previous one set.
  data::GeneratorOptions opts;
  opts.seed = 29;
  data::ZeshelLikeGenerator gen(opts);
  data::DomainSpec spec;
  spec.name = "d";
  spec.num_entities = 60;
  spec.num_examples = 40;
  spec.num_documents = 0;
  auto corpus = gen.Generate({spec});
  ASSERT_TRUE(corpus.ok());
  std::vector<kb::Entity> entities;
  for (kb::EntityId id : corpus->kb.EntitiesInDomain("d")) {
    entities.push_back(corpus->kb.entity(id));
  }
  std::vector<data::LinkingExample> examples = corpus->ExamplesIn("d");
  entities.push_back(MakeEntity("Red Dragon (beast)", ""));
  entities.push_back(MakeEntity("", "a beast with no name"));
  examples.push_back(MakeExample("", "the fire fire", "beast"));
  examples.push_back(MakeExample("red dragon red", "", ""));
  examples.push_back(MakeExample("zzz qqq zzz", "xyzzy xyzzy", "plugh"));
  examples.push_back(MakeExample("", "", ""));
  examples.push_back(examples.front());
  const Featurizer f;
  TokenVocabulary vocab;
  std::vector<CachedEntityTokens> cached(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    f.PrecomputeEntityTokens(entities[i], &vocab, &cached[i]);
  }
  MentionTokens mention;
  float got[kNumOverlapFeatures];
  float merge[kNumOverlapFeatures];
  for (std::size_t e = 0; e < examples.size(); ++e) {
    f.PrecomputeMentionTokens(examples[e], vocab, &mention);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      SCOPED_TRACE("example " + std::to_string(e) + " entity " +
                   std::to_string(i));
      OverlapFeaturesCached(mention, cached[i], got);
      MergeOverlap(examples[e], vocab, cached[i], merge);
      const std::vector<float> strings =
          f.OverlapFeatures(examples[e], entities[i]);
      for (std::size_t k = 0; k < kNumOverlapFeatures; ++k) {
        if (k >= 2) {
          EXPECT_EQ(got[k], merge[k]) << "feature " << k;
        }
        EXPECT_EQ(got[k], strings[k]) << "feature " << k;
      }
    }
  }
}

// ---- BiEncoder -------------------------------------------------------------

class BiEncoderTest : public ::testing::Test {
 protected:
  BiEncoderTest() : rng_(3), model_(MakeConfig(), &rng_) {
    for (int i = 0; i < 4; ++i) {
      kb_.AddEntity(MakeEntity("entity" + std::to_string(i),
                               "description of number " + std::to_string(i)));
    }
  }

  static BiEncoderConfig MakeConfig() {
    BiEncoderConfig cfg;
    cfg.features.hasher.num_buckets = 512;
    cfg.dim = 16;
    return cfg;
  }

  util::Rng rng_;
  BiEncoder model_;
  kb::KnowledgeBase kb_;
};

TEST_F(BiEncoderTest, EncodingsAreUnitRows) {
  tensor::Graph g;
  std::vector<data::LinkingExample> examples = {
      MakeExample("a", "x y", "z"), MakeExample("b", "", "w")};
  tensor::Var m = model_.EncodeMentions(&g, examples);
  const auto& t = g.value(m);
  ASSERT_EQ(t.rows(), 2u);
  ASSERT_EQ(t.cols(), 16u);
  for (std::size_t r = 0; r < t.rows(); ++r) {
    float norm2 = tensor::Dot(t.row_data(r), t.row_data(r), t.cols());
    EXPECT_NEAR(norm2, 1.0f, 1e-5);
  }
}

TEST_F(BiEncoderTest, InBatchLossShapeAndFinite) {
  std::vector<data::LinkingExample> batch;
  for (kb::EntityId i = 0; i < 4; ++i) {
    batch.push_back(MakeExample("m" + std::to_string(i), "ctx", "ctx", i));
  }
  tensor::Graph g;
  tensor::Var loss = model_.InBatchLoss(&g, batch, kb_);
  ASSERT_EQ(g.value(loss).rows(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(g.value(loss).at(i, 0)));
    EXPECT_GT(g.value(loss).at(i, 0), 0.0f);
  }
}

TEST_F(BiEncoderTest, TrainingStepReducesLoss) {
  // Distinct mention/context words so the batch is separable (heavy char
  // n-gram sharing between "mention0".."mention3" makes the 4-way task
  // nearly degenerate otherwise).
  static const char* kMentions[] = {"kordal", "fenwip", "zubrak", "mivolo"};
  static const char* kContexts[] = {"harbor tide", "ember forge",
                                    "glade moss", "dune spire"};
  std::vector<data::LinkingExample> batch;
  for (kb::EntityId i = 0; i < 4; ++i) {
    batch.push_back(MakeExample(kMentions[i], kContexts[i], "", i));
  }
  tensor::AdamOptimizer opt(0.02f);
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    tensor::Graph g;
    tensor::Var loss = model_.InBatchLoss(&g, batch, kb_);
    float total = 0;
    for (std::size_t i = 0; i < 4; ++i) total += g.value(loss).at(i, 0);
    if (step == 0) first = total;
    last = total;
    model_.params()->ZeroGrads();
    g.Backward(loss);
    opt.Step(model_.params());
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST_F(BiEncoderTest, EmbedApisMatchGraphEncoding) {
  std::vector<data::LinkingExample> examples = {MakeExample("a", "b", "c", 1)};
  tensor::Tensor direct = model_.EmbedMentions(examples);
  tensor::Graph g;
  const auto& via_graph = g.value(model_.EncodeMentions(&g, examples));
  ASSERT_EQ(direct.size(), via_graph.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_FLOAT_EQ(direct.data()[i], via_graph.data()[i]);
  }
  tensor::Tensor ents = model_.EmbedEntityIds({0, 1}, kb_);
  EXPECT_EQ(ents.rows(), 2u);
}

TEST_F(BiEncoderTest, SaveLoadPreservesEmbeddings) {
  store::CheckpointWriter ckpt;
  model_.SaveCheckpoint(&ckpt);
  auto parsed = store::CheckpointReader::Parse(ckpt.Serialize());
  ASSERT_TRUE(parsed.ok());
  util::Rng rng2(777);  // different init
  BiEncoder other(MakeConfig(), &rng2);
  std::vector<data::LinkingExample> ex = {MakeExample("a", "b", "c")};
  tensor::Tensor before = other.EmbedMentions(ex);
  ASSERT_TRUE(other.LoadCheckpoint(*parsed).ok());
  tensor::Tensor after = other.EmbedMentions(ex);
  tensor::Tensor original = model_.EmbedMentions(ex);
  bool changed = false;
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_FLOAT_EQ(after.data()[i], original.data()[i]);
    if (after.data()[i] != before.data()[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

// ---- CrossEncoder ----------------------------------------------------------

class CrossEncoderTest : public ::testing::Test {
 protected:
  CrossEncoderTest() : rng_(5), model_(MakeConfig(), &rng_) {}

  static CrossEncoderConfig MakeConfig() {
    CrossEncoderConfig cfg;
    cfg.features.hasher.num_buckets = 512;
    cfg.dim = 16;
    cfg.hidden = 16;
    return cfg;
  }

  util::Rng rng_;
  CrossEncoder model_;
};

TEST_F(CrossEncoderTest, ScoresOnePerCandidate) {
  auto ex = MakeExample("hero", "brave", "fights");
  std::vector<kb::Entity> candidates = {
      MakeEntity("hero", "a brave fighter"),
      MakeEntity("villain", "an evil schemer"),
      MakeEntity("castle", "a big building")};
  auto scores = model_.Score(ex, candidates);
  ASSERT_EQ(scores.size(), 3u);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_F(CrossEncoderTest, RankingLossTrainsTowardGold) {
  auto ex = MakeExample("kresto", "vanor belem kresto sign", "vanor ruled");
  std::vector<kb::Entity> candidates = {
      MakeEntity("alpha one", "vanor belem kresto the king sign"),
      MakeEntity("beta two", "melko dran forest wild"),
      MakeEntity("gamma three", "ocean tide water deep")};
  tensor::AdamOptimizer opt(0.05f);
  for (int step = 0; step < 40; ++step) {
    tensor::Graph g;
    tensor::Var loss = model_.RankingLoss(&g, ex, candidates, 0);
    model_.params()->ZeroGrads();
    g.Backward(loss);
    opt.Step(model_.params());
  }
  auto scores = model_.Score(ex, candidates);
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[0], scores[2]);
}

TEST_F(CrossEncoderTest, SaveLoadPreservesScores) {
  store::CheckpointWriter ckpt;
  model_.SaveCheckpoint(&ckpt);
  auto parsed = store::CheckpointReader::Parse(ckpt.Serialize());
  ASSERT_TRUE(parsed.ok());
  util::Rng rng2(888);
  CrossEncoder other(MakeConfig(), &rng2);
  ASSERT_TRUE(other.LoadCheckpoint(*parsed).ok());
  auto ex = MakeExample("a", "b", "c");
  std::vector<kb::Entity> cands = {MakeEntity("x", "y z")};
  EXPECT_FLOAT_EQ(model_.Score(ex, cands)[0], other.Score(ex, cands)[0]);
}

TEST(CrossEncoderBlockTest, BlockScoresEqualTapeScores) {
  // The block rerank (every candidate's W1 chain into its own row, one tanh
  // over the block, then the w2 dots eight rows at a time) against the
  // tape's Score, at 1, 7 and 64 candidates. dim 20 / hidden 36 leaves
  // tails in the 64/32-column chains, the 8-lane tanh and the 8-row dots.
  // Hidden unit 3 is exactly 0 for every pair (a zero W1 column and bias),
  // and its w2 weight is NaN: the tape's GEMM skips the zero activation,
  // so the block must too, or every score reads NaN.
  data::GeneratorOptions opts;
  opts.seed = 37;
  data::ZeshelLikeGenerator gen(opts);
  data::DomainSpec spec;
  spec.name = "d";
  spec.num_entities = 80;
  spec.num_examples = 6;
  spec.num_documents = 0;
  auto corpus = gen.Generate({spec});
  ASSERT_TRUE(corpus.ok());
  std::vector<kb::Entity> entities;
  for (kb::EntityId id : corpus->kb.EntitiesInDomain("d")) {
    entities.push_back(corpus->kb.entity(id));
  }
  const std::vector<data::LinkingExample>& examples = corpus->ExamplesIn("d");
  for (const auto& [dim, hidden] :
       {std::pair<std::size_t, std::size_t>{16, 16}, {20, 36}, {64, 64}}) {
    CrossEncoderConfig cfg;
    cfg.features.hasher.num_buckets = 1024;
    cfg.dim = dim;
    cfg.hidden = hidden;
    util::Rng rng(41);
    CrossEncoder cross(cfg, &rng);
    constexpr std::size_t kZeroUnit = 3;
    tensor::Parameter* w1 = cross.params()->Find("cross_w1");
    for (std::size_t i = 0; i < w1->value.rows(); ++i) {
      w1->value.at(i, kZeroUnit) = 0.0f;
    }
    cross.params()->Find("cross_b1")->value.at(0, kZeroUnit) = 0.0f;
    cross.params()->Find("cross_w2")->value.at(kZeroUnit, 0) =
        std::numeric_limits<float>::quiet_NaN();
    CrossEntityCache cache;
    cross.PrecomputeEntities(entities, &cache);
    CrossScoreScratch scratch;
    std::vector<float> block, free;
    for (std::size_t c : {1, 7, 64}) {
      for (std::size_t e = 0; e < examples.size(); ++e) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " hidden " +
                     std::to_string(hidden) + " candidates " +
                     std::to_string(c) + " example " + std::to_string(e));
        std::vector<std::size_t> rows;
        std::vector<kb::Entity> candidates;
        for (std::size_t i = 0; i < c; ++i) {
          rows.push_back((e * 13 + i * 5) % entities.size());
          candidates.push_back(entities[rows.back()]);
        }
        const std::vector<float> tape = cross.Score(examples[e], candidates);
        cross.ScoreCachedInference(examples[e], rows, cache, &scratch, &block);
        cross.ScoreInference(examples[e], candidates, &scratch, &free);
        ASSERT_EQ(block.size(), c);
        ASSERT_EQ(free.size(), c);
        for (std::size_t i = 0; i < c; ++i) {
          ASSERT_FALSE(std::isnan(tape[i])) << "candidate " << i;
          EXPECT_EQ(block[i], tape[i]) << "candidate " << i;
          EXPECT_EQ(free[i], tape[i]) << "candidate " << i;
        }
      }
    }
  }
}

// ---- Entity-side build -----------------------------------------------------

// The serial pair BuildEntitySide replaced, kept verbatim as the reference:
// BiEncoder::EncodeEntitiesInference (one Axpy per bag id, tanh, GemmRaw,
// row normalize) and CrossEncoder::PrecomputeEntities (one Axpy per id,
// tokens interned into one vocabulary in entity order, tanh over every
// row). Only the private weights are reached through params().
void ReferenceEncodeEntities(const BiEncoder& bi,
                             const std::vector<kb::Entity>& entities,
                             tensor::Tensor* out) {
  const std::size_t n = entities.size();
  const std::size_t d = bi.dim();
  const tensor::Parameter& table = *bi.params()->Find("entity_table");
  const tensor::Parameter& proj = *bi.params()->Find("entity_proj");
  std::vector<std::vector<std::uint32_t>> bags(n);
  for (std::size_t i = 0; i < n; ++i) {
    bi.featurizer().EntityBagInto(entities[i], &bags[i]);
  }
  tensor::Tensor hidden(n, d);
  for (std::size_t b = 0; b < n; ++b) {
    const auto& bag = bags[b];
    if (bag.empty()) continue;
    const float inv = 1.0f / static_cast<float>(bag.size());
    float* dst = hidden.row_data(b);
    for (std::uint32_t id : bag) {
      tensor::Axpy(inv, table.value.row_data(id), dst, d);
    }
  }
  for (float& v : hidden.data()) v = std::tanh(v);
  out->Resize(n, d);
  tensor::GemmRaw(hidden.data().data(), proj.value.data().data(),
                  out->data().data(), n, d, d);
  constexpr float kEps = 1e-8f;
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out->row_data(i);
    const float n2 = tensor::Dot(row, row, d);
    const float inv = 1.0f / std::max(std::sqrt(n2), kEps);
    for (std::size_t c = 0; c < d; ++c) row[c] *= inv;
  }
}

void ReferencePrecomputeEntities(const CrossEncoder& cross,
                                 const std::vector<kb::Entity>& entities,
                                 CrossEntityCache* out) {
  const std::size_t n = entities.size();
  const std::size_t d = cross.config().dim;
  const tensor::Parameter& table = *cross.params()->Find("cross_table");
  out->entity_vec.Resize(n, d);
  out->tokens.resize(n);
  out->vocab.clear();
  std::vector<std::uint32_t> bag;
  for (std::size_t i = 0; i < n; ++i) {
    cross.featurizer().EntityBagInto(entities[i], &bag);
    if (!bag.empty()) {
      const float inv = 1.0f / static_cast<float>(bag.size());
      float* dst = out->entity_vec.row_data(i);
      for (std::uint32_t id : bag) {
        tensor::Axpy(inv, table.value.row_data(id), dst, d);
      }
    }
    cross.featurizer().PrecomputeEntityTokens(entities[i], &out->vocab,
                                              &out->tokens[i]);
  }
  for (float& v : out->entity_vec.data()) v = std::tanh(v);
}

bool SameBits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

void ExpectSameCache(const CrossEntityCache& got,
                     const CrossEntityCache& want) {
  EXPECT_TRUE(SameBits(got.entity_vec, want.entity_vec));
  ASSERT_EQ(got.tokens.size(), want.tokens.size());
  for (std::size_t i = 0; i < want.tokens.size(); ++i) {
    ASSERT_EQ(got.tokens[i].title_ids, want.tokens[i].title_ids) << i;
    ASSERT_EQ(got.tokens[i].desc_ids, want.tokens[i].desc_ids) << i;
    ASSERT_EQ(got.tokens[i].norm_title, want.tokens[i].norm_title) << i;
    ASSERT_EQ(got.tokens[i].norm_base, want.tokens[i].norm_base) << i;
    ASSERT_EQ(got.tokens[i].has_phrase, want.tokens[i].has_phrase) << i;
  }
  EXPECT_EQ(got.vocab, want.vocab);
}

class EntitySideTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorOptions opts;
    opts.seed = 91;
    data::ZeshelLikeGenerator gen(opts);
    data::DomainSpec spec;
    spec.name = "d";
    spec.num_entities = 1000;
    spec.num_examples = 10;
    spec.num_documents = 0;
    auto corpus = gen.Generate({spec});
    ASSERT_TRUE(corpus.ok());
    for (kb::EntityId id : corpus->kb.EntitiesInDomain("d")) {
      entities_.push_back(corpus->kb.entity(id));
    }
  }

  // Every entity count against the serial pair, at every pool size.
  static void CheckAllSizes(const BiEncoder& bi, const CrossEncoder& cross) {
    util::ThreadPool pool1(1), pool2(2), pool4(4);
    for (std::size_t n : {1, 255, 256, 257, 1000}) {
      const std::vector<kb::Entity> part(entities_.begin(),
                                         entities_.begin() + n);
      tensor::Tensor want_emb;
      ReferenceEncodeEntities(bi, part, &want_emb);
      CrossEntityCache want_cache;
      ReferencePrecomputeEntities(cross, part, &want_cache);
      std::vector<const kb::Entity*> refs;
      for (const kb::Entity& e : part) refs.push_back(&e);
      for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                     &pool1, &pool2, &pool4}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                     std::to_string(pool ? pool->num_threads() : 0));
        tensor::Tensor emb;
        CrossEntityCache cache;
        BuildEntitySide(&bi, &cross, refs, pool, &emb, &cache);
        EXPECT_TRUE(SameBits(emb, want_emb));
        ExpectSameCache(cache, want_cache);
      }
      // The cross-only form PrecomputeEntities runs.
      CrossEntityCache cross_only;
      cross.PrecomputeEntities(part, &cross_only);
      ExpectSameCache(cross_only, want_cache);
    }
  }

  static inline std::vector<kb::Entity> entities_;
};

TEST_F(EntitySideTest, MatchesSerialPairAtAnyPoolSize) {
  // Equal feature configs: the cross rows reuse the bi bags.
  BiEncoderConfig bi_cfg;
  bi_cfg.features.hasher.num_buckets = 4096;
  bi_cfg.dim = 64;
  CrossEncoderConfig cross_cfg;
  cross_cfg.features = bi_cfg.features;
  cross_cfg.dim = 64;
  util::Rng rng(5);
  BiEncoder bi(bi_cfg, &rng);
  CrossEncoder cross(cross_cfg, &rng);
  CheckAllSizes(bi, cross);
}

TEST_F(EntitySideTest, MatchesSerialPairWithUnequalFeatureConfigs) {
  // The cross side featurizes on its own; odd dims take the kernels' tails.
  BiEncoderConfig bi_cfg;
  bi_cfg.features.hasher.num_buckets = 4096;
  bi_cfg.dim = 40;
  CrossEncoderConfig cross_cfg;
  cross_cfg.features.hasher.num_buckets = 2048;
  cross_cfg.features.hasher.char_ngram_sizes = {3};
  cross_cfg.dim = 24;
  cross_cfg.hidden = 16;
  ASSERT_FALSE(FeatureConfigsMatch(bi_cfg.features, cross_cfg.features));
  util::Rng rng(6);
  BiEncoder bi(bi_cfg, &rng);
  CrossEncoder cross(cross_cfg, &rng);
  CheckAllSizes(bi, cross);
}

// ---- parameterized: dims sweep ---------------------------------------------

class BiEncoderDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BiEncoderDimSweep, UnitNormAtAnyDim) {
  BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 256;
  cfg.dim = GetParam();
  util::Rng rng(1);
  BiEncoder model(cfg, &rng);
  tensor::Graph g;
  auto v = model.EncodeMentions(&g, {MakeExample("word", "some ctx", "")});
  const auto& t = g.value(v);
  ASSERT_EQ(t.cols(), GetParam());
  EXPECT_NEAR(tensor::Dot(t.row_data(0), t.row_data(0), t.cols()), 1.0f,
              1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dims, BiEncoderDimSweep,
                         ::testing::Values(4, 8, 16, 32, 64, 128));

}  // namespace
}  // namespace metablink::model
