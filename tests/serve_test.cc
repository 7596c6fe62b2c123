#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/few_shot_linker.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "serve/linking_server.h"
#include "store/model_bundle.h"
#include "util/rng.h"

namespace metablink::serve {
namespace {

core::PipelineConfig TestConfig() {
  core::PipelineConfig config;
  config.seed = 4242;
  config.bi.features.hasher.num_buckets = 4096;
  config.bi.dim = 32;
  config.cross.features.hasher.num_buckets = 4096;
  config.cross.dim = 32;
  config.cross.hidden = 32;
  config.meta_bi.steps = 80;
  config.meta_cross.steps = 30;
  config.eval.k = 16;
  config.eval.num_threads = 2;
  return config;
}

/// The retrieval artifacts a bundle ships beside its encoders, KB and
/// rerank cache — which is what decides how a server built from it
/// retrieves.
struct RetrievalForm {
  const char* name = "plain";
  /// Ship a "clustered" artifact whose saved default nprobe probes every
  /// cell, so the probe path answers exactly like the exhaustive scan.
  bool clustered = false;
  /// ... carrying PQ codes (the test KB fits in the default re-score
  /// pool, so the PQ probe stays exact).
  bool pq = false;
  /// Save the clustered artifact with a default nprobe that probes every
  /// cell; false keeps ClusteredIndexOptions' default nprobe.
  bool probe_all = true;
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 77;
    opts.shared_vocab_size = 400;
    opts.domain_vocab_size = 200;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(2);
    specs[0].name = "source";
    specs[0].num_entities = 80;
    specs[0].num_examples = 200;
    specs[1].name = "target";
    specs[1].num_entities = 120;
    specs[1].num_examples = 240;
    specs[1].num_documents = 200;
    specs[1].gap = 0.5;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    split_ = data::MakeFewShotSplit(corpus_->ExamplesIn("target"), 40, 40, 3);
    // Randomly initialized (untrained) encoders: parity and serving-path
    // behavior do not depend on trained weights.
    pipeline_ = std::make_unique<core::MetaBlinkPipeline>(TestConfig());
  }

  void TearDown() override {
    for (const std::string& dir : bundle_dirs_) {
      std::filesystem::remove_all(dir);
    }
  }

  /// Packages one pipeline's components as an artifact bundle under `dir`,
  /// which TearDown removes.
  void SaveBundle(const core::MetaBlinkPipeline& pipeline,
                  const std::string& dir, std::uint64_t version,
                  const RetrievalForm& form = {}) {
    bundle_dirs_.push_back(dir);
    const auto& ids = corpus_->kb.EntitiesInDomain("target");
    retrieval::DenseIndex index;
    ASSERT_TRUE(index
                    .Build(pipeline.bi_encoder()->EmbedEntityIds(
                               ids, corpus_->kb),
                           ids)
                    .ok());
    std::vector<kb::Entity> entities;
    for (kb::EntityId id : ids) entities.push_back(corpus_->kb.entity(id));
    model::CrossEntityCache cache;
    pipeline.cross_encoder()->PrecomputeEntities(entities, &cache);
    store::ModelBundleParts parts;
    parts.model_version = version;
    parts.domain = "target";
    parts.bi = pipeline.bi_encoder();
    parts.cross = pipeline.cross_encoder();
    parts.kb = &corpus_->kb;
    parts.index = &index;
    parts.rerank_cache = &cache;
    retrieval::ClusteredIndex clustered;
    if (form.clustered) {
      retrieval::ClusteredIndexOptions copts;
      if (form.probe_all) {
        copts.default_nprobe = std::size_t{1} << 20;  // clamps to probe-all
      }
      copts.use_pq = form.pq;
      ASSERT_TRUE(clustered.Build(index, copts).ok());
      parts.clustered = &clustered;
    }
    ASSERT_TRUE(store::SaveModelBundle(parts, dir).ok());
  }

  /// Asserts both servers answer the first `n` test probes identically:
  /// same entities, bit-identical fp32 scores.
  void ExpectSameServing(LinkingServer* a, LinkingServer* b,
                         std::size_t n = 5) {
    for (std::size_t e = 0; e < n; ++e) {
      const auto& ex = split_.test[e];
      auto ra = a->Link(ex.mention, ex.left_context, ex.right_context, 5);
      auto rb = b->Link(ex.mention, ex.left_context, ex.right_context, 5);
      ASSERT_TRUE(ra.ok() && rb.ok());
      ASSERT_EQ(ra->size(), rb->size()) << "probe " << e;
      for (std::size_t i = 0; i < ra->size(); ++i) {
        EXPECT_EQ((*ra)[i].entity_id, (*rb)[i].entity_id)
            << "probe " << e << " rank " << i;
        EXPECT_EQ((*ra)[i].score, (*rb)[i].score)
            << "probe " << e << " rank " << i;
      }
    }
  }

  /// The plain server over the raw components: exhaustive fp32 retrieval.
  void ServePlain(std::unique_ptr<LinkingServer>* out) {
    auto server =
        LinkingServer::Create(pipeline_->bi_encoder(),
                              pipeline_->cross_encoder(), &corpus_->kb,
                              "target", ServingOptions());
    ASSERT_TRUE(server.ok()) << server.status().message();
    EXPECT_FALSE((*server)->Stats().pq_active);
    *out = std::move(*server);
  }

  /// Saves `form` as a bundle and serves it, asserting that Stats() reports
  /// the layout the bundle declares.
  void ServeForm(const RetrievalForm& form, std::uint64_t version,
                 std::unique_ptr<LinkingServer>* out) {
    const std::string dir =
        ::testing::TempDir() + "metablink_serve_form_" + form.name;
    SaveBundle(*pipeline_, dir, version, form);
    auto server = LinkingServer::FromBundle(dir, ServingOptions());
    ASSERT_TRUE(server.ok()) << server.status().message();
    const ServerStats stats = (*server)->Stats();
    EXPECT_EQ(stats.model_version, version);
    EXPECT_EQ(stats.pq_active, form.pq);
    *out = std::move(*server);
  }

  /// Asserts two responses are byte-identical: same entities, bit-identical
  /// fp32 scores, same titles.
  static void ExpectSamePredictions(
      const std::vector<core::LinkPrediction>& got,
      const std::vector<core::LinkPrediction>& want,
      const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].entity_id, want[i].entity_id) << where << " rank " << i;
      EXPECT_EQ(got[i].score, want[i].score) << where << " rank " << i;
      EXPECT_EQ(got[i].title, want[i].title) << where << " rank " << i;
    }
  }

  /// The hot-swap hammer: 8 client threads link the first `probes` test
  /// probes round-robin while this thread swaps A -> B -> A -> B; each
  /// client issues at least `min_per_thread` requests and keeps going
  /// until the last swap is published. Every response must exactly equal
  /// what version A or version B computes for that probe — a mixed-version
  /// response (new scores over an old index, stale LRU entries, torn
  /// epoch) fails the equality against both. Run under
  /// METABLINK_SANITIZE=thread this also vets the epoch publication and
  /// the answer cache's locking. Returns the hammered server's stats.
  ServerStats RunSwapHammer(const std::string& tag, std::size_t probes,
                            std::size_t min_per_thread) {
    core::PipelineConfig other_config = TestConfig();
    other_config.seed = 999;
    core::MetaBlinkPipeline other(other_config);
    const std::string dir_a =
        ::testing::TempDir() + "metablink_serve_" + tag + "_a";
    const std::string dir_b =
        ::testing::TempDir() + "metablink_serve_" + tag + "_b";
    SaveBundle(*pipeline_, dir_a, /*version=*/1);
    SaveBundle(other, dir_b, /*version=*/2);

    ServerOptions opts;
    opts.retrieve_k = 8;
    opts.max_batch = 8;
    opts.flush_deadline_us = 200;
    opts.cache_capacity = 32;

    // Per-probe reference answers from each version.
    constexpr std::size_t kTopK = 3;
    std::vector<std::vector<core::LinkPrediction>> ref_a(probes);
    std::vector<std::vector<core::LinkPrediction>> ref_b(probes);
    {
      auto sa = LinkingServer::FromBundle(dir_a, opts);
      auto sb = LinkingServer::FromBundle(dir_b, opts);
      EXPECT_TRUE(sa.ok() && sb.ok());
      if (!sa.ok() || !sb.ok()) return {};
      for (std::size_t p = 0; p < probes; ++p) {
        const auto& ex = split_.test[p];
        auto a = (*sa)->Link(ex.mention, ex.left_context, ex.right_context,
                             kTopK);
        auto b = (*sb)->Link(ex.mention, ex.left_context, ex.right_context,
                             kTopK);
        EXPECT_TRUE(a.ok() && b.ok());
        if (!a.ok() || !b.ok()) return {};
        ref_a[p] = *std::move(a);
        ref_b[p] = *std::move(b);
      }
    }
    const auto matches = [](const std::vector<core::LinkPrediction>& got,
                            const std::vector<core::LinkPrediction>& want) {
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].entity_id != want[i].entity_id ||
            got[i].score != want[i].score) {
          return false;
        }
      }
      return true;
    };
    // The two versions must actually disagree somewhere for the "old or
    // new, never a mix" check to have teeth.
    bool versions_differ = false;
    for (std::size_t p = 0; p < probes; ++p) {
      versions_differ = versions_differ || !matches(ref_a[p], ref_b[p]);
    }
    EXPECT_TRUE(versions_differ);

    auto server = LinkingServer::FromBundle(dir_a, opts);
    EXPECT_TRUE(server.ok());
    if (!server.ok()) return {};

    constexpr std::size_t kThreads = 8;
    std::atomic<bool> swapped{false};
    std::atomic<std::size_t> issued{0};
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> mixed{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t r = 0; r < min_per_thread || !swapped.load();
             ++r) {
          const std::size_t p = (t + 3 * r) % probes;
          const auto& ex = split_.test[p];
          auto got = (*server)->Link(ex.mention, ex.left_context,
                                     ex.right_context, kTopK);
          issued.fetch_add(1);
          if (!got.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (!matches(*got, ref_a[p]) && !matches(*got, ref_b[p])) {
            mixed.fetch_add(1);
          }
        }
      });
    }
    // Three swaps while the hammer runs: A -> B -> A -> B.
    std::size_t swaps_done = 0;
    for (const std::string* dir : {&dir_b, &dir_a, &dir_b}) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      EXPECT_TRUE((*server)->SwapModel(*dir).ok());
      ++swaps_done;
    }
    swapped.store(true);
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mixed.load(), 0u);

    const ServerStats stats = (*server)->Stats();
    EXPECT_EQ(stats.swaps, swaps_done);
    EXPECT_EQ(stats.model_version, 2u);
    EXPECT_EQ(stats.requests, issued.load());
    EXPECT_EQ(stats.accepted, stats.requests);
    EXPECT_EQ(stats.rerank_exited + stats.rerank_distilled + stats.rerank_full,
              stats.requests);
    return stats;
  }

  static ServerOptions ServingOptions() {
    ServerOptions opts;
    opts.retrieve_k = 16;
    return opts;
  }

  std::unique_ptr<data::Corpus> corpus_;
  data::DomainSplit split_;
  std::unique_ptr<core::MetaBlinkPipeline> pipeline_;
  /// Every directory SaveBundle wrote in this test.
  std::vector<std::string> bundle_dirs_;
};

// ---- Tape vs tape-free parity ----------------------------------------------

TEST_F(ServeTest, TapeFreeMentionEncodeMatchesTape) {
  const model::BiEncoder* bi = pipeline_->bi_encoder();
  const std::vector<data::LinkingExample> batch(split_.test.begin(),
                                                split_.test.begin() + 20);
  tensor::Tensor tape = bi->EmbedMentions(batch);
  model::EncodeScratch scratch;
  tensor::Tensor free;
  bi->EncodeMentionsInference(batch, &scratch, &free);
  ASSERT_EQ(free.rows(), tape.rows());
  ASSERT_EQ(free.cols(), tape.cols());
  for (std::size_t i = 0; i < tape.rows(); ++i) {
    for (std::size_t j = 0; j < tape.cols(); ++j) {
      EXPECT_EQ(tape.at(i, j), free.at(i, j))
          << "mention row " << i << " col " << j;
    }
  }
  // Scratch reuse across differently-sized batches stays correct.
  const std::vector<data::LinkingExample> one(split_.test.begin(),
                                              split_.test.begin() + 1);
  tensor::Tensor tape1 = bi->EmbedMentions(one);
  bi->EncodeMentionsInference(one, &scratch, &free);
  ASSERT_EQ(free.rows(), 1u);
  for (std::size_t j = 0; j < tape1.cols(); ++j) {
    EXPECT_EQ(tape1.at(0, j), free.at(0, j));
  }
}

TEST_F(ServeTest, TapeFreeEntityEncodeMatchesTape) {
  const model::BiEncoder* bi = pipeline_->bi_encoder();
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  std::vector<kb::EntityId> some(ids.begin(), ids.begin() + 30);
  tensor::Tensor tape = bi->EmbedEntityIds(some, corpus_->kb);
  std::vector<kb::Entity> entities;
  for (kb::EntityId id : some) entities.push_back(corpus_->kb.entity(id));
  model::EncodeScratch scratch;
  tensor::Tensor free;
  bi->EncodeEntitiesInference(entities, &scratch, &free);
  ASSERT_EQ(free.rows(), tape.rows());
  for (std::size_t i = 0; i < tape.rows(); ++i) {
    for (std::size_t j = 0; j < tape.cols(); ++j) {
      EXPECT_EQ(tape.at(i, j), free.at(i, j));
    }
  }
}

TEST_F(ServeTest, TapeFreeCrossScoreMatchesTape) {
  const model::CrossEncoder* cross = pipeline_->cross_encoder();
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  std::vector<kb::Entity> candidates;
  for (std::size_t i = 0; i < 16; ++i) {
    candidates.push_back(corpus_->kb.entity(ids[i]));
  }
  model::CrossScoreScratch scratch;
  std::vector<float> free_scores;
  for (std::size_t e = 0; e < 10; ++e) {
    const auto& ex = split_.test[e];
    const std::vector<float> tape_scores = cross->Score(ex, candidates);
    cross->ScoreInference(ex, candidates, &scratch, &free_scores);
    ASSERT_EQ(free_scores.size(), tape_scores.size());
    for (std::size_t c = 0; c < tape_scores.size(); ++c) {
      EXPECT_EQ(tape_scores[c], free_scores[c]) << "example " << e
                                                << " candidate " << c;
    }
  }
}

TEST_F(ServeTest, CachedCrossScoreMatchesTape) {
  // The server's rerank (mention prefix once per request, per-pair chain,
  // interned-id overlap features) against the tape's Score, at two hidden
  // widths, with untrained and trained weights. Rows repeat, as the same
  // entity does across one request's candidates and across requests.
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  std::vector<kb::Entity> entities;
  std::unordered_map<kb::EntityId, std::size_t> row_of;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    entities.push_back(corpus_->kb.entity(ids[i]));
    row_of[ids[i]] = i;
  }
  for (std::size_t hidden : {32, 64}) {
    core::PipelineConfig config = TestConfig();
    config.cross.hidden = hidden;
    core::MetaBlinkPipeline pipeline(config);
    for (bool trained : {false, true}) {
      SCOPED_TRACE("hidden=" + std::to_string(hidden) +
                   (trained ? " trained" : " untrained"));
      if (trained) {
        ASSERT_TRUE(pipeline.TrainSupervised(corpus_->kb, split_.train).ok());
      }
      const model::CrossEncoder* cross = pipeline.cross_encoder();
      model::CrossEntityCache cache;
      cross->PrecomputeEntities(entities, &cache);
      model::CrossScoreScratch scratch;
      std::vector<float> cached;
      for (std::size_t e = 0; e < 10; ++e) {
        const auto& ex = split_.test[e];
        // The gold entity, whose overlap features fire, then repeats.
        const std::size_t gold = row_of.at(ex.entity_id);
        const std::vector<std::size_t> rows = {gold, 0, 7, 7, 0, 3 + e, gold};
        std::vector<kb::Entity> candidates;
        for (std::size_t r : rows) candidates.push_back(entities[r]);
        const std::vector<float> tape = cross->Score(ex, candidates);
        cross->ScoreCachedInference(ex, rows, cache, &scratch, &cached);
        ASSERT_EQ(cached.size(), tape.size());
        for (std::size_t c = 0; c < tape.size(); ++c) {
          EXPECT_EQ(tape[c], cached[c]) << "example " << e << " candidate "
                                        << c;
        }
      }
    }
  }
}

// ---- LinkingServer ---------------------------------------------------------

// The tape forms are the reference the tape-free serving path is certified
// against: EmbedEntityIds rows, EmbedMentions queries, DenseIndex::TopK,
// CrossEncoder::Score over the candidates, then best first (score desc,
// id asc), cut to 5.
TEST_F(ServeTest, ServerMatchesTapeReference) {
  constexpr std::size_t kRetrieve = 16;
  ServerOptions opts;
  opts.retrieve_k = kRetrieve;
  const model::BiEncoder* bi = pipeline_->bi_encoder();
  const model::CrossEncoder* cross = pipeline_->cross_encoder();
  auto server =
      LinkingServer::Create(bi, cross, &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  retrieval::DenseIndex index;
  ASSERT_TRUE(index.Build(bi->EmbedEntityIds(ids, corpus_->kb), ids).ok());
  const tensor::Tensor queries = bi->EmbedMentions(split_.test);
  for (std::size_t e = 0; e < split_.test.size(); ++e) {
    const auto& ex = split_.test[e];
    std::vector<retrieval::ScoredEntity> want =
        index.TopK(queries.row_data(e), kRetrieve);
    std::vector<kb::Entity> entities;
    for (const auto& c : want) entities.push_back(corpus_->kb.entity(c.id));
    const std::vector<float> scores = cross->Score(ex, entities);
    for (std::size_t c = 0; c < want.size(); ++c) want[c].score = scores[c];
    std::sort(want.begin(), want.end(),
              [](const retrieval::ScoredEntity& a,
                 const retrieval::ScoredEntity& b) {
                return a.score != b.score ? a.score > b.score : a.id < b.id;
              });
    want.resize(std::min<std::size_t>(want.size(), 5));
    auto got = (*server)->Link(ex.mention, ex.left_context, ex.right_context,
                               /*top_k=*/5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want.size()) << "mention " << e;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].entity_id, want[i].id) << "mention " << e;
      EXPECT_EQ((*got)[i].score, want[i].score) << "mention " << e;
    }
  }
}

// The bundle decides how stage 1 retrieves. Every form below is exact on
// this KB — the clustered artifacts probe every cell, and PQ keeps a full
// re-score pool — so each must answer bit-identically to the plain server,
// while Stats() reports which layout answered.

TEST_F(ServeTest, ClusteredServerProbeAllMatchesFp32Server) {
  // A clustered artifact saved with a probe-all default nprobe visits every
  // row, so its server answers bit-identically to the exhaustive server —
  // the serving-level form of the probe-all parity invariant.
  RetrievalForm ivf;
  ivf.name = "clustered_probe_all";
  ivf.clustered = true;
  std::unique_ptr<LinkingServer> plain, clustered;
  ASSERT_NO_FATAL_FAILURE(ServePlain(&plain));
  ASSERT_NO_FATAL_FAILURE(ServeForm(ivf, /*version=*/9, &clustered));
  ExpectSameServing(plain.get(), clustered.get());

  // At the artifact's default nprobe the clustered server still answers
  // every request (recall quality is gated in bench_retrieval, not here).
  RetrievalForm probe = ivf;
  probe.name = "clustered_default_nprobe";
  probe.probe_all = false;
  std::unique_ptr<LinkingServer> partial;
  ASSERT_NO_FATAL_FAILURE(ServeForm(probe, /*version=*/9, &partial));
  const auto& ex = split_.test[0];
  auto got = partial->Link(ex.mention, ex.left_context, ex.right_context, 5);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->empty());
}

TEST_F(ServeTest, ClusteredBundleRoundTripServes) {
  // A bundle shipping the "clustered" artifact serves through the adopted
  // clustering (re-attached after the bundle move) and matches a server
  // loaded from a bundle of the same weights without it.
  RetrievalForm exhaustive;
  exhaustive.name = "round_trip_plain";
  RetrievalForm ivf;
  ivf.name = "round_trip_clustered";
  ivf.clustered = true;
  std::unique_ptr<LinkingServer> plain, clustered;
  ASSERT_NO_FATAL_FAILURE(ServeForm(exhaustive, /*version=*/9, &plain));
  ASSERT_NO_FATAL_FAILURE(ServeForm(ivf, /*version=*/9, &clustered));
  ExpectSameServing(plain.get(), clustered.get());
}

TEST_F(ServeTest, PqBundleAdoptionAndPqFreeServing) {
  // A bundle shipping the PQ form of the clustered artifact is adopted
  // as-is; the test KB is small enough that the re-score pool covers the
  // whole domain, so probe-all PQ serving is bit-identical to the
  // exhaustive server. A clustered artifact without PQ codes serves the
  // PQ-free scan, with the same responses.
  RetrievalForm with_pq;
  with_pq.name = "pq_adopted";
  with_pq.clustered = true;
  with_pq.pq = true;
  RetrievalForm pq_free = with_pq;
  pq_free.name = "pq_free";
  pq_free.pq = false;
  std::unique_ptr<LinkingServer> plain, adopted, unquantized;
  ASSERT_NO_FATAL_FAILURE(ServePlain(&plain));
  ASSERT_NO_FATAL_FAILURE(ServeForm(with_pq, /*version=*/12, &adopted));
  ASSERT_NO_FATAL_FAILURE(ServeForm(pq_free, /*version=*/12, &unquantized));
  ExpectSameServing(plain.get(), adopted.get());
  ExpectSameServing(plain.get(), unquantized.get());
}

TEST_F(ServeTest, ServerCachesRepeatedRequests) {
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.cache_capacity = 64;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  const auto& ex = split_.test.front();
  auto first = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  auto second = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].entity_id, (*second)[i].entity_id);
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2u);
}

TEST_F(ServeTest, LinkHitIsNotCountedAsBatched) {
  // A miss goes through a batch; the repeat is answered in Link from the
  // answer cache and forms none.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.cache_capacity = 64;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  const auto& ex = split_.test.front();
  ASSERT_TRUE(
      (*server)->Link(ex.mention, ex.left_context, ex.right_context).ok());
  ASSERT_TRUE(
      (*server)->Link(ex.mention, ex.left_context, ex.right_context).ok());
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.batched_requests, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(ServeTest, CacheKeyFieldsCannotCollide) {
  // Two requests whose fields differ only in where a '\x1f' byte falls:
  // joined with that byte as a separator they would be one cache key, and
  // the second caller would get the first one's answer. Each must get the
  // answer a cache-off server gives it, whichever fills the cache first.
  const auto& ex = split_.test[0];
  const std::string sep(1, '\x1f');
  const std::string extra = split_.test[1].left_context;
  data::LinkingExample a, b;
  a.mention = ex.mention + sep + ex.left_context;
  a.left_context = extra;
  a.right_context = ex.right_context;
  b.mention = ex.mention;
  b.left_context = ex.left_context + sep + extra;
  b.right_context = ex.right_context;
  ServerOptions on = ServingOptions();
  on.cache_capacity = 16;
  ServerOptions off = on;
  off.cache_capacity = 0;
  const auto create = [&](const ServerOptions& opts) {
    auto server =
        LinkingServer::Create(pipeline_->bi_encoder(),
                              pipeline_->cross_encoder(), &corpus_->kb,
                              "target", opts);
    EXPECT_TRUE(server.ok());
    return std::move(*server);
  };
  auto reference = create(off);
  const auto link = [](LinkingServer* server, const data::LinkingExample& e) {
    auto got = server->Link(e.mention, e.left_context, e.right_context, 5);
    EXPECT_TRUE(got.ok());
    return got.ok() ? *std::move(got) : std::vector<core::LinkPrediction>{};
  };
  const auto want_a = link(reference.get(), a);
  const auto want_b = link(reference.get(), b);
  ASSERT_FALSE(want_a.empty());
  // The pair must link differently for a shared entry to be observable.
  bool differ = want_a.size() != want_b.size();
  for (std::size_t i = 0; !differ && i < want_a.size(); ++i) {
    differ = want_a[i].entity_id != want_b[i].entity_id ||
             want_a[i].score != want_b[i].score;
  }
  ASSERT_TRUE(differ);
  for (const bool a_first : {true, false}) {
    auto cached = create(on);
    const data::LinkingExample& first = a_first ? a : b;
    const data::LinkingExample& second = a_first ? b : a;
    ExpectSamePredictions(link(cached.get(), first), a_first ? want_a : want_b,
                          "first");
    ExpectSamePredictions(link(cached.get(), second),
                          a_first ? want_b : want_a, "second");
    EXPECT_EQ(cached->Stats().cache_hits, 0u);
  }
}

TEST_F(ServeTest, AnswerCacheMatchesCacheOffServer) {
  // A Zipf-like request stream over the test split, each request with its
  // own top_k (some above retrieve_k), served through a small answer cache
  // that keeps evicting: every response must be byte-identical to a
  // cache-off server's, serially and with concurrent clients (whose
  // batches mix hits with duplicate misses).
  ServerOptions on = ServingOptions();
  on.max_batch = 8;
  on.flush_deadline_us = 200;
  on.cache_capacity = 8;
  ServerOptions off = on;
  off.cache_capacity = 0;
  const std::size_t probes = std::min<std::size_t>(24, split_.test.size());
  std::vector<std::pair<std::size_t, std::size_t>> stream;  // (probe, top_k)
  // A hit asking for more than the miss that filled its entry, and for
  // more than retrieve_k.
  stream.push_back({0, 1});
  stream.push_back({0, 12});
  stream.push_back({0, 40});
  util::Rng rng(2024);
  for (std::size_t r = 0; r < 240; ++r) {
    const double u = rng.NextDouble();
    stream.push_back({static_cast<std::size_t>(probes * u * u * u),
                      1 + rng.NextUint64(20)});
  }
  auto reference = LinkingServer::Create(pipeline_->bi_encoder(),
                                         pipeline_->cross_encoder(),
                                         &corpus_->kb, "target", off);
  ASSERT_TRUE(reference.ok());
  std::vector<std::vector<core::LinkPrediction>> want(stream.size());
  for (std::size_t r = 0; r < stream.size(); ++r) {
    const auto& ex = split_.test[stream[r].first];
    auto got = (*reference)->Link(ex.mention, ex.left_context,
                                  ex.right_context, stream[r].second);
    ASSERT_TRUE(got.ok());
    want[r] = *std::move(got);
  }
  EXPECT_EQ((*reference)->Stats().cache_hits, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads == 1 ? "serial" : "concurrent");
    auto cached = LinkingServer::Create(pipeline_->bi_encoder(),
                                        pipeline_->cross_encoder(),
                                        &corpus_->kb, "target", on);
    ASSERT_TRUE(cached.ok());
    std::vector<std::vector<core::LinkPrediction>> got(stream.size());
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t r = t; r < stream.size(); r += threads) {
          const auto& ex = split_.test[stream[r].first];
          auto res = (*cached)->Link(ex.mention, ex.left_context,
                                     ex.right_context, stream[r].second);
          if (!res.ok()) {
            failures.fetch_add(1);
            continue;
          }
          got[r] = *std::move(res);
        }
      });
    }
    for (auto& c : clients) c.join();
    EXPECT_EQ(failures.load(), 0u);
    for (std::size_t r = 0; r < stream.size(); ++r) {
      ExpectSamePredictions(got[r], want[r], "request " + std::to_string(r));
    }
    const ServerStats stats = (*cached)->Stats();
    EXPECT_EQ(stats.requests, stream.size());
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, stream.size());
    EXPECT_GT(stats.cache_hits, stream.size() / 4);
    EXPECT_EQ(stats.rerank_full, stream.size());
  }
}

TEST_F(ServeTest, EightThreadHammer) {
  // The acceptance test for the scheduler: 8 concurrent client threads,
  // repeated mentions (exercises the LRU), every request answered, and
  // identical mentions get identical answers. Run under
  // METABLINK_SANITIZE=thread this vets the queue/stats/scratch locking.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 8;
  opts.flush_deadline_us = 200;
  opts.cache_capacity = 32;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20;
  std::atomic<std::size_t> failures{0};
  std::vector<std::vector<kb::EntityId>> best(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        // A small rotating pool of distinct mentions shared across threads.
        const auto& ex = split_.test[(t + 3 * r) % 10];
        auto got =
            (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
        if (!got.ok() || got->empty()) {
          failures.fetch_add(1);
          continue;
        }
        best[t].push_back((*got)[0].entity_id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);

  // Determinism across threads: the same probe index always links to the
  // same top entity.
  std::vector<kb::EntityId> canonical(10, kb::kInvalidEntityId);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(best[t].size(), kPerThread);
    for (std::size_t r = 0; r < kPerThread; ++r) {
      const std::size_t probe = (t + 3 * r) % 10;
      if (canonical[probe] == kb::kInvalidEntityId) {
        canonical[probe] = best[t][r];
      }
      EXPECT_EQ(best[t][r], canonical[probe]);
    }
  }
}

// ---- Admission control & backpressure --------------------------------------

TEST_F(ServeTest, BoundedQueueRejectNewIsDeterministic) {
  // A scheduler that cannot flush (huge batch, far-off deadline) lets the
  // test fill the queue to exactly max_queue, making the admission
  // decision deterministic: the next Link must be rejected.
  ServerOptions opts;
  opts.retrieve_k = 4;
  opts.max_batch = 64;
  opts.flush_deadline_us = 10'000'000;  // drained at shutdown, not by timer
  opts.max_queue = 3;
  opts.shed_policy = LoadShedPolicy::kRejectNew;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());

  std::vector<std::thread> clients;
  std::atomic<std::size_t> ok_count{0};
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      const auto& ex = split_.test[i];
      auto got =
          (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
      if (got.ok()) ok_count.fetch_add(1);
    });
    // Admit strictly one at a time so the fill order is known.
    while ((*server)->Stats().queue_depth < i + 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const auto& extra = split_.test[5];
  auto refused = (*server)->Link(extra.mention, extra.left_context,
                                 extra.right_context, 3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kUnavailable);

  const ServerStats before = (*server)->Stats();
  EXPECT_EQ(before.accepted, 3u);
  EXPECT_EQ(before.rejected, 1u);
  EXPECT_EQ(before.shed, 0u);
  EXPECT_EQ(before.queue_depth, 3u);
  EXPECT_EQ(before.queue_depth_high_water, 3u);
  EXPECT_EQ(before.in_flight, 0u);
  EXPECT_EQ(before.requests, 0u);
  EXPECT_GT(before.oldest_wait_us, 0.0);

  // Shutdown drains the queue: every admitted request still completes.
  server->reset();
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), 3u);
}

TEST_F(ServeTest, BoundedQueueDropOldestShedsTheOldest) {
  ServerOptions opts;
  opts.retrieve_k = 4;
  opts.max_batch = 64;
  opts.flush_deadline_us = 10'000'000;
  opts.max_queue = 3;
  opts.shed_policy = LoadShedPolicy::kDropOldest;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());

  std::vector<std::thread> clients;
  std::vector<util::Status> statuses(4, util::Status::OK());
  for (std::size_t i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      const auto& ex = split_.test[i];
      auto got =
          (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
      statuses[i] = got.status();
    });
    if (i < 3) {
      while ((*server)->Stats().queue_depth < i + 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  // The fourth arrival evicted the first-enqueued request, which completes
  // with kUnavailable immediately — before any batch runs.
  clients[0].join();
  EXPECT_EQ(statuses[0].code(), util::StatusCode::kUnavailable);

  const ServerStats before = (*server)->Stats();
  EXPECT_EQ(before.accepted, 4u);
  EXPECT_EQ(before.rejected, 0u);
  EXPECT_EQ(before.shed, 1u);
  EXPECT_EQ(before.queue_depth, 3u);
  EXPECT_EQ(before.requests, 0u);

  server->reset();
  for (std::size_t i = 1; i < 4; ++i) {
    clients[i].join();
    EXPECT_TRUE(statuses[i].ok()) << "client " << i << ": " << statuses[i];
  }
}

TEST_F(ServeTest, HitIsAnsweredWhileTheQueueIsFull) {
  // An answer-cache hit is answered on the calling thread and never
  // queues, so a full reject-new queue cannot refuse it. With max_queue
  // below max_batch a full queue is held, not flushed. X and Y queue one
  // at a time (a tiny arrival gap) and close together just before the
  // deadline, which caches X. Z and W then fill the queue: the idle sample
  // before Z is clipped at the deadline and weighted 1/8, so the gap
  // estimate is about an eighth of the deadline and they are held for
  // most of it, while Link(X) runs.
  ServerOptions opts;
  opts.retrieve_k = 4;
  opts.max_batch = 3;
  opts.flush_deadline_us = 1'000'000;
  opts.max_queue = 2;
  opts.shed_policy = LoadShedPolicy::kRejectNew;
  opts.cache_capacity = 16;
  ServerOptions off = opts;
  off.cache_capacity = 0;
  off.max_queue = 0;
  off.flush_deadline_us = 0;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  auto reference =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", off);
  ASSERT_TRUE(server.ok() && reference.ok());

  // Queues split_.test[first..first+1] one at a time, each on its own
  // client thread.
  std::vector<util::Status> statuses(4, util::Status::OK());
  const auto queue_pair = [&](std::size_t first) {
    std::vector<std::thread> clients;
    for (std::size_t i = first; i < first + 2; ++i) {
      clients.emplace_back([&, i] {
        const auto& ex = split_.test[i];
        statuses[i] =
            (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3)
                .status();
      });
      while ((*server)->Stats().queue_depth < i - first + 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return clients;
  };
  const auto& x = split_.test[0];
  auto want =
      (*reference)->Link(x.mention, x.left_context, x.right_context, 3);
  ASSERT_TRUE(want.ok());
  for (auto& c : queue_pair(0)) c.join();  // X, Y: served, X cached
  std::vector<std::thread> held = queue_pair(2);  // Z, W: the queue is full

  // Not ASSERT: the held clients must still be joined below.
  auto hit = (*server)->Link(x.mention, x.left_context, x.right_context, 3);
  EXPECT_TRUE(hit.ok()) << hit.status();
  if (hit.ok()) ExpectSamePredictions(*hit, *want, "hit behind a full queue");
  const ServerStats during = (*server)->Stats();
  EXPECT_EQ(during.queue_depth, opts.max_queue);
  EXPECT_EQ(during.rejected, 0u);
  EXPECT_EQ(during.cache_hits, 1u);

  // Drained by their own early close, not by shutdown.
  for (auto& c : held) c.join();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "client " << i << ": " << statuses[i];
  }
  const ServerStats after = (*server)->Stats();
  EXPECT_EQ(after.accepted, 5u);
  EXPECT_EQ(after.requests, 5u);
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.cache_misses, 4u);
  EXPECT_EQ(after.batches, 2u);
  EXPECT_EQ(after.accepted, after.requests + after.shed + after.queue_depth +
                                after.in_flight);
  EXPECT_EQ(after.rerank_exited + after.rerank_distilled + after.rerank_full,
            after.requests);
}

// ---- Batch-close rule -------------------------------------------------------

TEST_F(ServeTest, SerialReplayClosesEveryBatchButTheFirstEarly) {
  // One caller at a time: the first request has no gap estimate and is
  // held to its deadline; from the second on the gap exists, so each batch
  // closes at deadline - gap instead.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.flush_deadline_us = 2000;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  constexpr std::size_t kRequests = 8;
  for (std::size_t r = 0; r < kRequests; ++r) {
    const auto& ex = split_.test[r];
    ASSERT_TRUE(
        (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3).ok());
  }
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.batches, kRequests);
  EXPECT_EQ(stats.batches_full, 0u);
  EXPECT_EQ(stats.batches_deadline, 1u);
  EXPECT_EQ(stats.batches_early, kRequests - 1);
}

TEST_F(ServeTest, ConcurrentBurstStillClosesFull) {
  // 16 callers at once against max_batch 16 and a far-off deadline: the
  // gap between their arrivals is tiny, so the batch is held until it is
  // full, exactly as before the early-close rule.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 16;
  opts.flush_deadline_us = 10'000'000;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  constexpr std::size_t kThreads = 16;
  std::atomic<std::size_t> ok_count{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const auto& ex = split_.test[t];
      if ((*server)->Link(ex.mention, ex.left_context, ex.right_context, 3)
              .ok()) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), kThreads);
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batches_full, 1u);
  EXPECT_EQ(stats.batches_deadline + stats.batches_early, 0u);
}

TEST_F(ServeTest, RepeatsInOneBatchAreComputedOnce) {
  // Eight callers send one uncached request at once, each with its own
  // top_k, and fill one batch. The model runs for the first; the other
  // seven are answered from its ranking, each cut to its own top_k, and
  // count as hits. Every answer equals a cache-off server's.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 8;
  opts.flush_deadline_us = 10'000'000;
  ServerOptions off;
  off.retrieve_k = 8;
  off.cache_capacity = 0;
  off.flush_deadline_us = 0;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  auto reference =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", off);
  ASSERT_TRUE(server.ok() && reference.ok());
  const auto& ex = split_.test.front();
  constexpr std::size_t kThreads = 8;
  std::vector<util::Result<std::vector<core::LinkPrediction>>> got(
      kThreads, util::Status::Internal("not run"));
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      got[t] = (*server)->Link(ex.mention, ex.left_context, ex.right_context,
                               1 + t % 4);
    });
  }
  for (auto& c : clients) c.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(got[t].ok()) << got[t].status();
    auto want = (*reference)->Link(ex.mention, ex.left_context,
                                   ex.right_context, 1 + t % 4);
    ASSERT_TRUE(want.ok());
    ExpectSamePredictions(*got[t], *want, "caller " + std::to_string(t));
  }
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, kThreads - 1);
  EXPECT_EQ(stats.rerank_exited + stats.rerank_distilled + stats.rerank_full,
            stats.requests);
}

TEST_F(ServeTest, CloseReasonsAddUpUnderConcurrentLoad) {
  // Every batch is booked under exactly one close reason, whichever path
  // closed it, so the three add up to the batch count at quiescence.
  ServerOptions opts;
  opts.retrieve_k = 4;
  opts.max_batch = 4;
  opts.flush_deadline_us = 300;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 10;
  std::atomic<std::size_t> ok_count{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const auto& ex = split_.test[(t + 5 * r) % split_.test.size()];
        if ((*server)->Link(ex.mention, ex.left_context, ex.right_context, 3)
                .ok()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.batches_full + stats.batches_deadline + stats.batches_early,
            stats.batches);
}

TEST_F(ServeTest, LoneMissIsServedOnItsCallersThread) {
  // A serial caller's first miss has no gap estimate: it queues and is
  // held to its deadline. Its second arrives at least a deadline later, so
  // the clipped gap is the whole deadline, 2 * gap > deadline, and the
  // server is idle: Link serves it itself, as an early close with no hold.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.flush_deadline_us = 2000;
  ServerOptions off = opts;
  off.cache_capacity = 0;
  off.flush_deadline_us = 0;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  auto reference =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", off);
  ASSERT_TRUE(server.ok() && reference.ok());
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& ex = split_.test[r];
    auto got =
        (*server)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    auto want =
        (*reference)->Link(ex.mention, ex.left_context, ex.right_context, 5);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSamePredictions(*got, *want, "request " + std::to_string(r));
  }
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.caller_batches, 1u);
  EXPECT_EQ(stats.batches_deadline, 1u);
  EXPECT_EQ(stats.batches_early, 1u);
  EXPECT_EQ(stats.batches_full, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.accepted, stats.requests + stats.shed + stats.queue_depth +
                                stats.in_flight);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ((*reference)->Stats().caller_batches, 0u);
}

/// Misses from `threads` client threads on one shared open-loop schedule:
/// the gap between consecutive calls is drawn uniformly from {0, 1/4, ...,
/// 2} deadlines, and call i goes to thread i % threads, which sleeps until
/// its start time. The mean clipped gap (13/18 of the deadline) sends many
/// calls to an idle server down the caller-run path; a zero gap puts two
/// calls on the server at once, so the second queues. Which path a call
/// takes depends on timing. Returns each call's answer (empty unless OK)
/// and, in codes[i], call i's status code.
std::vector<std::vector<core::LinkPrediction>> PacedMisses(
    LinkingServer* server, const std::vector<data::LinkingExample>& probes,
    std::size_t calls, std::size_t threads, std::uint64_t seed,
    std::vector<util::StatusCode>* codes) {
  const auto deadline =
      std::chrono::microseconds(server->options().flush_deadline_us);
  util::Rng rng(seed);
  std::vector<std::chrono::microseconds> start(calls);
  std::chrono::microseconds at{0};
  for (std::size_t i = 0; i < calls; ++i) {
    at += deadline * static_cast<std::int64_t>(rng.NextUint64(9)) / 4;
    start[i] = at;
  }
  std::vector<std::vector<core::LinkPrediction>> got(calls);
  codes->assign(calls, util::StatusCode::kOk);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = t; i < calls; i += threads) {
        std::this_thread::sleep_until(t0 + start[i]);
        const auto& ex = probes[i % probes.size()];
        auto res = server->Link(ex.mention, ex.left_context, ex.right_context,
                                3);
        (*codes)[i] = res.status().code();
        if (res.ok()) got[i] = *std::move(res);
      }
    });
  }
  for (auto& c : clients) c.join();
  return got;
}

/// Two serial misses on a fresh server, a deadline apart, whose paths do
/// not depend on timing: the first has no gap estimate, so it queues for
/// the scheduler; the second finds the server idle with a clipped gap of
/// the whole deadline (2 * gap > deadline), so its caller serves it.
void SerialMissPair(LinkingServer* server,
                    const std::vector<data::LinkingExample>& probes) {
  for (std::size_t r = 0; r < 2; ++r) {
    if (r > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(server->options().flush_deadline_us));
    }
    const auto& ex = probes[r];
    ASSERT_TRUE(
        server->Link(ex.mention, ex.left_context, ex.right_context, 3).ok());
  }
}

TEST_F(ServeTest, CallerRunAndQueuedBatchesInterleave) {
  // A serial pair pins one batch on each path; then six threads on one
  // paced schedule mix them: a call that finds the server idle with a long
  // gap estimate is served on its caller's thread, a call that lands while
  // a batch runs (or is held) queues for the scheduler. Whatever the
  // timing, the books must balance and every answer must equal a
  // cache-off reference's.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 4;
  opts.flush_deadline_us = 2000;
  opts.cache_capacity = 0;
  ServerOptions off = opts;
  off.flush_deadline_us = 0;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  auto reference =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", off);
  ASSERT_TRUE(server.ok() && reference.ok());
  SerialMissPair(server->get(), split_.test);
  const ServerStats pair = (*server)->Stats();
  EXPECT_EQ(pair.batches, 2u);
  EXPECT_EQ(pair.caller_batches, 1u);

  constexpr std::size_t kCalls = 72;
  std::vector<util::StatusCode> codes;
  const auto got = PacedMisses(server->get(), split_.test, kCalls,
                               /*threads=*/6, /*seed=*/27, &codes);
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(codes[i], util::StatusCode::kOk) << "call " << i;
    const auto& ex = split_.test[i % split_.test.size()];
    auto want =
        (*reference)->Link(ex.mention, ex.left_context, ex.right_context, 3);
    ASSERT_TRUE(want.ok());
    ExpectSamePredictions(got[i], *want, "call " + std::to_string(i));
  }
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.requests, kCalls + 2);
  EXPECT_LE(stats.caller_batches, stats.batches_early);
  EXPECT_EQ(stats.batches_full + stats.batches_deadline + stats.batches_early,
            stats.batches);
  EXPECT_EQ(stats.batched_requests, kCalls + 2);
  EXPECT_EQ(stats.accepted, kCalls + 2);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.accepted, stats.requests + stats.shed + stats.queue_depth +
                                stats.in_flight);
}

TEST_F(ServeTest, DropOldestShedOfALoneQueuedMissStillQueuesTheArrival) {
  // max_queue = 1, drop-oldest. A fresh server's first miss has no gap
  // estimate, so it queues and is held to its deadline. The second arrives
  // after more than half the deadline, sheds the first and leaves the
  // queue empty on an idle server with 2 * gap > deadline: the caller-run
  // rule would hold but for the shed. It must queue instead, so the victim
  // gets Unavailable (not a broken promise) and the held scheduler wakes
  // to a non-empty queue. Paced callers then press the one-slot bound on
  // both paths: every Link returns OK or Unavailable and the books
  // balance.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 4;
  opts.flush_deadline_us = 400'000;
  opts.cache_capacity = 0;
  opts.max_queue = 1;
  opts.shed_policy = LoadShedPolicy::kDropOldest;
  ServerOptions off = opts;
  off.flush_deadline_us = 0;
  off.max_queue = 0;
  auto server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  auto reference =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", off);
  ASSERT_TRUE(server.ok() && reference.ok());
  const auto& victim = split_.test[0];
  util::Status victim_status = util::Status::Internal("not run");
  std::thread first([&] {
    try {
      victim_status =
          (*server)
              ->Link(victim.mention, victim.left_context, victim.right_context,
                     3)
              .status();
    } catch (const std::future_error& e) {
      victim_status = util::Status::Internal(e.what());
    }
  });
  while ((*server)->Stats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const auto& ex = split_.test[1];
  auto got = (*server)->Link(ex.mention, ex.left_context, ex.right_context, 3);
  first.join();
  EXPECT_EQ(victim_status.code(), util::StatusCode::kUnavailable)
      << victim_status;
  ASSERT_TRUE(got.ok()) << got.status();
  auto want =
      (*reference)->Link(ex.mention, ex.left_context, ex.right_context, 3);
  ASSERT_TRUE(want.ok());
  ExpectSamePredictions(*got, *want, "arrival that shed");
  ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.caller_batches, 0u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.accepted, stats.requests + stats.shed + stats.queue_depth +
                                stats.in_flight);

  // A short deadline now, on a fresh server, so the paced phase is quick.
  opts.flush_deadline_us = 1000;
  server =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "target", opts);
  ASSERT_TRUE(server.ok());
  constexpr std::size_t kCalls = 96;
  std::vector<util::StatusCode> codes;
  const auto answers = PacedMisses(server->get(), split_.test, kCalls,
                                   /*threads=*/6, /*seed=*/41, &codes);
  std::size_t unavailable = 0;
  for (std::size_t i = 0; i < kCalls; ++i) {
    if (codes[i] == util::StatusCode::kUnavailable) {
      ++unavailable;
      continue;
    }
    ASSERT_EQ(codes[i], util::StatusCode::kOk) << "call " << i;
    const auto& probe = split_.test[i % split_.test.size()];
    auto ref = (*reference)->Link(probe.mention, probe.left_context,
                                  probe.right_context, 3);
    ASSERT_TRUE(ref.ok());
    ExpectSamePredictions(answers[i], *ref, "call " + std::to_string(i));
  }
  stats = (*server)->Stats();
  EXPECT_EQ(stats.shed, unavailable);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.accepted, kCalls);
  EXPECT_EQ(stats.requests, kCalls - unavailable);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.accepted, stats.requests + stats.shed + stats.queue_depth +
                                stats.in_flight);
}

TEST_F(ServeTest, DestroyAfterInterleavedCallersLeavesNoPromiseUnset) {
  // Shutdown while both paths are busy or just done. First, a serial pair
  // pins a batch on each path, paced callers mix them, and the server is
  // destroyed as soon as they return, while the scheduler may still be
  // finishing its last batch. Then a lone miss is caught on its caller's
  // thread and the server destroyed under it: the scheduler must not
  // exit, and the destructor not free the serving scratch, until that
  // batch ends. Every Link must return its answer; an unset promise would
  // surface as a broken-promise exception or a hang. Under the sanitizers
  // this also vets the hand-off at teardown.
  ServerOptions opts;
  opts.retrieve_k = 8;
  opts.max_batch = 4;
  opts.flush_deadline_us = 1000;
  opts.cache_capacity = 0;
  const auto create = [&] {
    auto server =
        LinkingServer::Create(pipeline_->bi_encoder(),
                              pipeline_->cross_encoder(), &corpus_->kb,
                              "target", opts);
    EXPECT_TRUE(server.ok());
    std::unique_ptr<LinkingServer> out;
    if (server.ok()) out = std::move(*server);
    return out;
  };
  for (std::uint64_t round = 0; round < 3; ++round) {
    auto server = create();
    ASSERT_NE(server, nullptr);
    SerialMissPair(server.get(), split_.test);
    constexpr std::size_t kCalls = 24;
    std::vector<util::StatusCode> codes;
    const auto got = PacedMisses(server.get(), split_.test, kCalls,
                                 /*threads=*/4, /*seed=*/100 + round, &codes);
    const ServerStats stats = server->Stats();
    EXPECT_GE(stats.caller_batches, 1u);
    EXPECT_GE(stats.batches - stats.caller_batches, 1u);
    server.reset();
    for (std::size_t i = 0; i < kCalls; ++i) {
      EXPECT_EQ(codes[i], util::StatusCode::kOk) << "call " << i;
      EXPECT_FALSE(got[i].empty());
    }
    EXPECT_EQ(stats.requests, kCalls + 2);
    EXPECT_EQ(stats.in_flight, 0u);
  }
  for (std::size_t round = 0; round < 5; ++round) {
    auto server = create();
    ASSERT_NE(server, nullptr);
    // The first miss queues (no gap estimate) and is held to its
    // deadline; after a further deadline of quiet the second is a lone
    // miss with a full-deadline gap, which its caller serves (the path
    // SerialMissPair pins and LoneMissIsServedOnItsCallersThread counts).
    const auto& first = split_.test[0];
    ASSERT_TRUE(
        server->Link(first.mention, first.left_context, first.right_context, 3)
            .ok());
    std::this_thread::sleep_for(
        std::chrono::microseconds(opts.flush_deadline_us));
    const auto& ex = split_.test[1 + round];
    util::Status status = util::Status::Internal("not run");
    std::size_t answers = 0;
    std::thread caller([&] {
      auto res = server->Link(ex.mention, ex.left_context, ex.right_context, 3);
      status = res.status();
      if (res.ok()) answers = res->size();
    });
    // Destroy as soon as the caller's batch is admitted (or done).
    while (server->Stats().requests < 2 && server->Stats().in_flight == 0) {
    }
    server.reset();
    caller.join();
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_GT(answers, 0u);
  }
}

TEST_F(ServeTest, UnboundedAdmissionPathIsByteIdentical) {
  // max_queue=0 must serve exactly like a bound that never triggers: the
  // admission bookkeeping cannot perturb responses.
  ServerOptions unbounded;
  unbounded.retrieve_k = 8;
  ServerOptions bounded = unbounded;
  bounded.max_queue = std::size_t{1} << 20;
  auto a = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", unbounded);
  auto b = LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", bounded);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameServing(a->get(), b->get(), 8);
  const ServerStats sa = (*a)->Stats();
  const ServerStats sb = (*b)->Stats();
  for (const ServerStats* s : {&sa, &sb}) {
    EXPECT_EQ(s->accepted, 8u);
    EXPECT_EQ(s->rejected, 0u);
    EXPECT_EQ(s->shed, 0u);
    EXPECT_EQ(s->requests, 8u);
    EXPECT_EQ(s->queue_depth, 0u);
    EXPECT_EQ(s->in_flight, 0u);
  }
}

TEST_F(ServeTest, OverloadHammerStatsReconcile) {
  // 8 threads hammer a 2-deep queue served one request at a time, so
  // shedding fires constantly. Under METABLINK_SANITIZE=thread this vets
  // the admission path's locking; in every build the books must balance:
  // every attempt is accepted or rejected, every accepted request is
  // completed or shed, and the caller-visible outcomes match the counters
  // exactly. The answer cache holds 2 of the 10 rotating probes: a hit
  // never queues, so most requests must miss for the queue to overflow,
  // while the hits that do occur race admission and shedding.
  for (const LoadShedPolicy policy :
       {LoadShedPolicy::kRejectNew, LoadShedPolicy::kDropOldest}) {
    ServerOptions opts;
    opts.retrieve_k = 4;
    opts.max_batch = 1;
    opts.flush_deadline_us = 0;
    opts.max_queue = 2;
    opts.shed_policy = policy;
    opts.cache_capacity = 2;
    auto server = LinkingServer::Create(pipeline_->bi_encoder(),
                                        pipeline_->cross_encoder(),
                                        &corpus_->kb, "target", opts);
    ASSERT_TRUE(server.ok());

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 25;
    std::atomic<std::size_t> ok_count{0};
    std::atomic<std::size_t> unavailable{0};
    std::atomic<std::size_t> other{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t r = 0; r < kPerThread; ++r) {
          const auto& ex = split_.test[(t + 3 * r) % 10];
          auto got = (*server)->Link(ex.mention, ex.left_context,
                                     ex.right_context, 3);
          if (got.ok()) {
            ok_count.fetch_add(1);
          } else if (got.status().code() == util::StatusCode::kUnavailable) {
            unavailable.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    const ServerStats stats = (*server)->Stats();
    EXPECT_EQ(other.load(), 0u);
    EXPECT_EQ(stats.accepted + stats.rejected, kThreads * kPerThread);
    EXPECT_EQ(stats.accepted, stats.requests + stats.shed);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(ok_count.load(), stats.requests);
    EXPECT_EQ(unavailable.load(), stats.rejected + stats.shed);
    EXPECT_EQ(stats.rerank_exited + stats.rerank_distilled + stats.rerank_full,
              stats.requests);
    EXPECT_LE(stats.queue_depth_high_water, opts.max_queue);
    // The whole point of the bound: overload actually shed something.
    EXPECT_GT(stats.rejected + stats.shed, 0u);
    if (policy == LoadShedPolicy::kRejectNew) {
      EXPECT_EQ(stats.shed, 0u);
    } else {
      EXPECT_EQ(stats.rejected, 0u);
    }
  }
}

TEST_F(ServeTest, CreateValidatesInputs) {
  EXPECT_FALSE(LinkingServer::Create(nullptr, pipeline_->cross_encoder(),
                                     &corpus_->kb, "target")
                   .ok());
  auto missing =
      LinkingServer::Create(pipeline_->bi_encoder(), pipeline_->cross_encoder(),
                            &corpus_->kb, "no_such_domain");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST_F(ServeTest, FromLinkerRequiresFit) {
  core::FewShotLinker linker(TestConfig());
  auto server = LinkingServer::FromLinker(linker);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---- Fitted-linker integration: edge cases + concurrent const Link ---------

TEST_F(ServeTest, FittedLinkerEdgeCasesAndConcurrentLink) {
  core::FewShotLinker linker(TestConfig());
  ASSERT_TRUE(
      linker.Fit(*corpus_, {"source"}, "target", split_.train).ok());

  // top_k far beyond the KB clamps to the stage-1 candidate count.
  const auto& probe = split_.test.front();
  auto big = linker.Link(probe.mention, probe.left_context,
                         probe.right_context, 100000);
  ASSERT_TRUE(big.ok());
  EXPECT_LE(big->size(),
            corpus_->kb.EntitiesInDomain("target").size());
  EXPECT_GT(big->size(), 0u);

  // Empty mention / empty context: no features on one side is still a
  // servable request, not a crash.
  auto no_mention = linker.Link("", probe.left_context, probe.right_context);
  ASSERT_TRUE(no_mention.ok());
  EXPECT_GT(no_mention->size(), 0u);
  auto no_context = linker.Link(probe.mention, "", "");
  ASSERT_TRUE(no_context.ok());
  EXPECT_GT(no_context->size(), 0u);

  // Concurrent const Link on the shared linker: 8 threads hammering the
  // same fitted instance (TSan-checked in the sanitizer matrix).
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  const core::FewShotLinker& shared = linker;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < 4; ++r) {
        const auto& ex = split_.test[(t + r) % split_.test.size()];
        auto got = shared.Link(ex.mention, ex.left_context, ex.right_context);
        if (!got.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  // FromLinker serves, bit for bit, the answers the linker computes
  // directly from its Fit-built side, for every test mention (same stage-1
  // k, so both rerank the same candidate set).
  ServerOptions opts;
  opts.retrieve_k = TestConfig().eval.k;
  auto server = LinkingServer::FromLinker(linker, opts);
  ASSERT_TRUE(server.ok());
  for (std::size_t e = 0; e < split_.test.size(); ++e) {
    const auto& ex = split_.test[e];
    auto direct = linker.Link(ex.mention, ex.left_context, ex.right_context);
    auto served =
        (*server)->Link(ex.mention, ex.left_context, ex.right_context);
    ASSERT_TRUE(direct.ok() && served.ok());
    ASSERT_EQ(direct->size(), served->size()) << "mention " << e;
    for (std::size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ((*direct)[i].entity_id, (*served)[i].entity_id)
          << "mention " << e;
      EXPECT_EQ((*direct)[i].score, (*served)[i].score) << "mention " << e;
      EXPECT_EQ((*direct)[i].title, (*served)[i].title) << "mention " << e;
    }
  }
}

// ---- Bundles & hot swap ----------------------------------------------------

TEST_F(ServeTest, FromBundleMatchesCreate) {
  // A loaded rerank cache numbers its tokens by vocabulary-table position,
  // not in Create's first-seen order; over the whole test split, served
  // from the bundle directly or swapped in, every answer must still be the
  // one Create gives: same ids, bit-identical scores, same titles.
  const std::string dir = ::testing::TempDir() + "metablink_serve_bundle_a";
  SaveBundle(*pipeline_, dir, /*version=*/11);
  ServerOptions opts;
  opts.retrieve_k = 16;
  auto from_bundle = LinkingServer::FromBundle(dir, opts);
  ASSERT_TRUE(from_bundle.ok()) << from_bundle.status().message();
  auto create = [&] {
    return LinkingServer::Create(pipeline_->bi_encoder(),
                                 pipeline_->cross_encoder(), &corpus_->kb,
                                 "target", opts);
  };
  auto direct = create();
  ASSERT_TRUE(direct.ok());
  auto swapped = create();
  ASSERT_TRUE(swapped.ok());
  ASSERT_TRUE((*swapped)->SwapModel(dir).ok());
  EXPECT_EQ((*from_bundle)->index_size(), (*direct)->index_size());
  EXPECT_EQ((*from_bundle)->Stats().model_version, 11u);
  EXPECT_EQ((*swapped)->Stats().model_version, 11u);
  EXPECT_EQ((*direct)->Stats().model_version, 0u);
  ASSERT_FALSE(split_.test.empty());
  for (std::size_t e = 0; e < split_.test.size(); ++e) {
    const auto& ex = split_.test[e];
    auto want = (*direct)->Link(ex.mention, ex.left_context, ex.right_context,
                                5);
    ASSERT_TRUE(want.ok());
    for (LinkingServer* server : {from_bundle->get(), swapped->get()}) {
      auto got = server->Link(ex.mention, ex.left_context, ex.right_context,
                              5);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want->size()) << "probe " << e;
      for (std::size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].entity_id, (*want)[i].entity_id)
            << "probe " << e << " rank " << i;
        EXPECT_EQ((*got)[i].score, (*want)[i].score)
            << "probe " << e << " rank " << i;
        EXPECT_EQ((*got)[i].title, (*want)[i].title)
            << "probe " << e << " rank " << i;
      }
    }
  }
}

TEST_F(ServeTest, SwapModelServesTheNewModel) {
  // Two differently-initialized models over the same KB.
  core::PipelineConfig other_config = TestConfig();
  other_config.seed = 999;
  core::MetaBlinkPipeline other(other_config);
  const std::string dir_a = ::testing::TempDir() + "metablink_serve_swap_a";
  const std::string dir_b = ::testing::TempDir() + "metablink_serve_swap_b";
  SaveBundle(*pipeline_, dir_a, /*version=*/1);
  SaveBundle(other, dir_b, /*version=*/2);

  ServerOptions opts;
  opts.retrieve_k = 16;
  auto server = LinkingServer::FromBundle(dir_a, opts);
  ASSERT_TRUE(server.ok());
  auto reference_b = LinkingServer::FromBundle(dir_b, opts);
  ASSERT_TRUE(reference_b.ok());

  const auto& ex = split_.test.front();
  auto before = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*server)->SwapModel(dir_b).ok());
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.model_version, 2u);
  EXPECT_EQ(stats.swaps, 1u);

  auto after = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  auto want = (*reference_b)->Link(ex.mention, ex.left_context,
                                   ex.right_context);
  ASSERT_TRUE(after.ok() && want.ok());
  ASSERT_EQ(after->size(), want->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*after)[i].entity_id, (*want)[i].entity_id);
    EXPECT_EQ((*after)[i].score, (*want)[i].score);
  }
}

TEST_F(ServeTest, AnswerCacheNeverOutlivesItsModelVersion) {
  // A server fills its answer cache on version A, swaps to B and replays
  // the same requests twice: every answer after the swap — misses first,
  // then hits of B's own cache — must be B's, never A's cached answer.
  core::PipelineConfig other_config = TestConfig();
  other_config.seed = 999;
  core::MetaBlinkPipeline other(other_config);
  const std::string dir_a = ::testing::TempDir() + "metablink_serve_cache_a";
  const std::string dir_b = ::testing::TempDir() + "metablink_serve_cache_b";
  SaveBundle(*pipeline_, dir_a, /*version=*/1);
  SaveBundle(other, dir_b, /*version=*/2);
  ServerOptions on = ServingOptions();
  on.cache_capacity = 64;
  ServerOptions off = on;
  off.cache_capacity = 0;
  auto server = LinkingServer::FromBundle(dir_a, on);
  auto ref_a = LinkingServer::FromBundle(dir_a, off);
  auto ref_b = LinkingServer::FromBundle(dir_b, off);
  ASSERT_TRUE(server.ok() && ref_a.ok() && ref_b.ok());

  constexpr std::size_t kProbes = 10;
  const auto link = [&](LinkingServer* s, std::size_t p) {
    const auto& ex = split_.test[p];
    auto got = s->Link(ex.mention, ex.left_context, ex.right_context, 5);
    EXPECT_TRUE(got.ok());
    return got.ok() ? *std::move(got) : std::vector<core::LinkPrediction>{};
  };
  bool versions_differ = false;
  for (std::size_t p = 0; p < kProbes; ++p) {
    const auto a = link(ref_a->get(), p);
    const auto b = link(ref_b->get(), p);
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      versions_differ = versions_differ || a[i].entity_id != b[i].entity_id ||
                        a[i].score != b[i].score;
    }
    ExpectSamePredictions(link(server->get(), p), a,
                          "before swap, probe " + std::to_string(p));
  }
  ASSERT_TRUE(versions_differ);
  ASSERT_TRUE((*server)->SwapModel(dir_b).ok());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t p = 0; p < kProbes; ++p) {
      ExpectSamePredictions(link(server->get(), p), link(ref_b->get(), p),
                            "after swap, pass " + std::to_string(pass) +
                                ", probe " + std::to_string(p));
    }
  }
  // The second pass after the swap is served from B's own cache.
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 3 * kProbes);
  EXPECT_GE(stats.cache_hits, kProbes);
}

TEST_F(ServeTest, SwapHammerEveryResponseMatchesOldOrNewModel) {
  // The hot-swap acceptance test: 8 client threads hammer Link over 10
  // probes while the main thread swaps between two model versions.
  RunSwapHammer("hammer", /*probes=*/10, /*min_per_thread=*/24);
}

TEST_F(ServeTest, SwapHammerCacheHitsMatchOldOrNewModel) {
  // The hit-heavy variant: two probes repeat, so after each swap's first
  // few misses nearly every Link is answered on its caller's thread from
  // the answer cache, racing the publish.
  const ServerStats stats =
      RunSwapHammer("hit_hammer", /*probes=*/2, /*min_per_thread=*/64);
  EXPECT_GT(stats.cache_hits, 4 * stats.cache_misses);
}

TEST_F(ServeTest, CorruptBundleIsRejectedAndServingContinues) {
  const std::string dir_a = ::testing::TempDir() + "metablink_serve_keep_a";
  const std::string dir_bad = ::testing::TempDir() + "metablink_serve_keep_bad";
  SaveBundle(*pipeline_, dir_a, /*version=*/1);
  SaveBundle(*pipeline_, dir_bad, /*version=*/2);
  // Flip one byte in an artifact of the "new" bundle.
  {
    const std::string victim = dir_bad + "/cross.ckpt";
    std::vector<char> bytes;
    {
      std::ifstream in(victim, std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  ServerOptions opts;
  opts.retrieve_k = 16;
  auto server = LinkingServer::FromBundle(dir_a, opts);
  ASSERT_TRUE(server.ok());
  const auto& ex = split_.test.front();
  auto before = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(before.ok());

  EXPECT_FALSE((*server)->SwapModel(dir_bad).ok());
  EXPECT_FALSE((*server)->SwapModel("/no/such/bundle").ok());

  // Old version keeps serving, unchanged.
  const ServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.model_version, 1u);
  auto after = (*server)->Link(ex.mention, ex.left_context, ex.right_context);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  for (std::size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*after)[i].entity_id, (*before)[i].entity_id);
    EXPECT_EQ((*after)[i].score, (*before)[i].score);
  }
}

}  // namespace
}  // namespace metablink::serve
