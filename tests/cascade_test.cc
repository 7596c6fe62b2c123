#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "model/features.h"
#include "retrieval/dense_index.h"
#include "serve/linking_server.h"
#include "store/checkpoint.h"
#include "store/model_bundle.h"
#include "train/cascade_calibration.h"
#include "util/rng.h"

namespace metablink {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "metablink_cascade_" + name;
}

/// One served response stream, fully materialized for byte-identity
/// comparison (ids and exact float scores of every returned prediction).
struct Responses {
  std::vector<std::vector<kb::EntityId>> ids;
  std::vector<std::vector<float>> scores;
  serve::ServerStats stats;

  bool operator==(const Responses& other) const {
    return ids == other.ids && scores == other.scores;
  }
};

/// Cascade contract tests: a small single-domain world served by
/// UNTRAINED encoders. Calibration's budget guarantee and every serving
/// contract (byte identity, tier accounting, determinism) must hold for
/// arbitrary weights — noisy margins are the stress case, not a nuisance.
class CascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions gopts;
    gopts.seed = 515;
    gopts.shared_vocab_size = 400;
    gopts.domain_vocab_size = 200;
    data::ZeshelLikeGenerator gen(gopts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "serving";
    specs[0].num_entities = 150;
    specs[0].num_examples = 48;
    specs[0].num_documents = 24;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));

    model::BiEncoderConfig bi_cfg;
    bi_cfg.features.hasher.num_buckets = 4096;
    bi_cfg.dim = 32;
    model::CrossEncoderConfig cross_cfg;
    cross_cfg.features.hasher.num_buckets = 4096;
    cross_cfg.dim = 32;
    cross_cfg.hidden = 32;
    util::Rng bi_rng(21), cross_rng(22);
    bi_ = std::make_unique<model::BiEncoder>(bi_cfg, &bi_rng);
    cross_ = std::make_unique<model::CrossEncoder>(cross_cfg, &cross_rng);
  }

  serve::ServerOptions BaseOptions() const {
    serve::ServerOptions opts;
    opts.max_batch = 8;
    opts.flush_deadline_us = 200;
    opts.retrieve_k = 16;
    opts.cache_capacity = 64;
    return opts;
  }

  std::unique_ptr<serve::LinkingServer> MakeServer(
      const serve::ServerOptions& opts) {
    auto server = serve::LinkingServer::Create(bi_.get(), cross_.get(),
                                               &corpus_->kb, "serving", opts);
    EXPECT_TRUE(server.ok()) << server.status().message();
    return std::move(*server);
  }

  /// Serves every corpus example through `server` with `threads`
  /// concurrent clients (thread t owns a contiguous slice, so streams are
  /// position-comparable across runs).
  Responses Drive(serve::LinkingServer* server, std::size_t threads = 1) {
    const auto& examples = corpus_->ExamplesIn("serving");
    Responses out;
    out.ids.resize(examples.size());
    out.scores.resize(examples.size());
    const std::size_t per = examples.size() / threads;
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        const std::size_t end =
            t + 1 == threads ? examples.size() : (t + 1) * per;
        for (std::size_t i = t * per; i < end; ++i) {
          const auto& ex = examples[i];
          auto got = server->Link(ex.mention, ex.left_context,
                                  ex.right_context, 5);
          ASSERT_TRUE(got.ok()) << got.status().message();
          for (const auto& p : *got) {
            out.ids[i].push_back(p.entity_id);
            out.scores[i].push_back(p.score);
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    out.stats = server->Stats();
    return out;
  }

  model::CascadeModel Calibrate(
      train::CascadeCalibrationReport* report = nullptr) {
    train::CascadeCalibrationOptions opts;
    opts.retrieve_k = 16;
    auto calibrated = train::CalibrateCascade(
        *bi_, *cross_, corpus_->kb, "serving",
        corpus_->ExamplesIn("serving"), opts, report);
    EXPECT_TRUE(calibrated.ok()) << calibrated.status().message();
    return *std::move(calibrated);
  }

  /// Each request's routing margin (retrieval top1 - top2), sorted:
  /// exit-everything serving returns the retrieval scores.
  std::vector<float> SortedMargins() {
    model::CascadeModel exit_all;
    exit_all.config.margin_tau = 0.0f;
    serve::ServerOptions opts = BaseOptions();
    opts.use_cascade = true;
    opts.cascade = &exit_all;
    auto server = MakeServer(opts);
    const Responses retrieval_order = Drive(server.get());
    std::vector<float> margins;
    for (const auto& scores : retrieval_order.scores) {
      EXPECT_GE(scores.size(), 2u);
      if (scores.size() >= 2) margins.push_back(scores[0] - scores[1]);
    }
    std::sort(margins.begin(), margins.end());
    return margins;
  }

  std::unique_ptr<data::Corpus> corpus_;
  std::unique_ptr<model::BiEncoder> bi_;
  std::unique_ptr<model::CrossEncoder> cross_;
};

// ---- Calibration -----------------------------------------------------------

TEST_F(CascadeTest, CalibrationNeverNetWorseOnItsOwnSet) {
  train::CascadeCalibrationReport report;
  const model::CascadeModel cascade = Calibrate(&report);
  EXPECT_EQ(report.examples, corpus_->ExamplesIn("serving").size());
  // The harm budget is 0: the simulated cascade may not answer
  // worse than full rerank on the calibration set, net — even with these
  // untrained, uncorrelated encoders.
  EXPECT_GE(report.accuracy_cascade, report.accuracy_full);
  EXPECT_GE(cascade.config.rerank_head_k, 1u);
  EXPECT_LE(cascade.config.rerank_head_k, 16u);
  EXPECT_FALSE(std::isnan(cascade.config.margin_tau));
  EXPECT_FALSE(std::isnan(cascade.config.band_epsilon));
  EXPECT_LE(report.exit_eligible, report.examples);
}

TEST_F(CascadeTest, CalibrationIsDeterministic) {
  const model::CascadeModel a = Calibrate();
  const model::CascadeModel b = Calibrate();
  EXPECT_EQ(a.config.margin_tau, b.config.margin_tau);
  EXPECT_EQ(a.config.band_epsilon, b.config.band_epsilon);
  EXPECT_EQ(a.config.rerank_head_k, b.config.rerank_head_k);
}

// ---- Serving byte-identity -------------------------------------------------

TEST_F(CascadeTest, CascadeOffIsByteIdenticalToPlainServer) {
  const model::CascadeModel cascade = Calibrate();
  auto plain = MakeServer(BaseOptions());
  const Responses base = Drive(plain.get());

  serve::ServerOptions off = BaseOptions();
  off.cascade = &cascade;  // present but not enabled
  auto off_server = MakeServer(off);
  const Responses off_run = Drive(off_server.get());

  EXPECT_TRUE(base == off_run);
  // Off = every request is a full rerank.
  EXPECT_EQ(off_run.stats.rerank_full, off_run.stats.requests);
  EXPECT_EQ(off_run.stats.rerank_exited, 0u);
  EXPECT_EQ(off_run.stats.rerank_distilled, 0u);
}

TEST_F(CascadeTest, ForcedFullHeadIsByteIdenticalThroughCascadePath) {
  auto plain = MakeServer(BaseOptions());
  const Responses base = Drive(plain.get());

  // Never exit, never distill, head cap = retrieve_k: the cascade code
  // path must reproduce full rerank byte for byte.
  model::CascadeModel fullhead;
  fullhead.config.rerank_head_k = 16;
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &fullhead;
  auto on_server = MakeServer(on);
  const Responses run = Drive(on_server.get());

  EXPECT_TRUE(base == run);
  EXPECT_EQ(run.stats.rerank_full, run.stats.requests);
}

// ---- Tier routing and accounting -------------------------------------------

TEST_F(CascadeTest, TierCountersAlwaysSumToRequests) {
  const model::CascadeModel cascade = Calibrate();
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &cascade;
  auto server = MakeServer(on);
  const Responses run = Drive(server.get());
  EXPECT_EQ(run.stats.rerank_exited + run.stats.rerank_distilled +
                run.stats.rerank_full,
            run.stats.requests);
  EXPECT_EQ(run.stats.requests, corpus_->ExamplesIn("serving").size());
}

TEST_F(CascadeTest, AnswerCacheReplaysResponsesAndTiers) {
  // A repeated request stream through a cascade whose threshold splits
  // the requests over both tiers: with the answer cache on, every response
  // and every per-tier count must equal a cache-off server's — a hit
  // counts the tier its stored answer came from.
  const auto& examples = corpus_->ExamplesIn("serving");
  const std::vector<float> margins = SortedMargins();
  model::CascadeModel cascade;
  cascade.config.margin_tau = margins[2 * margins.size() / 3];
  cascade.config.rerank_head_k = 6;
  cascade.config.band_epsilon = kInf;
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &cascade;
  on.cache_capacity = 12;
  serve::ServerOptions off = on;
  off.cache_capacity = 0;
  std::vector<std::size_t> stream;
  util::Rng rng(616);
  for (std::size_t r = 0; r < 4 * examples.size(); ++r) {
    const double u = rng.NextDouble();
    stream.push_back(static_cast<std::size_t>(examples.size() * u * u));
  }
  const auto drive = [&](serve::LinkingServer* server) {
    Responses out;
    for (std::size_t i : stream) {
      const auto& ex = examples[i];
      auto got =
          server->Link(ex.mention, ex.left_context, ex.right_context, 5);
      EXPECT_TRUE(got.ok()) << got.status().message();
      out.ids.emplace_back();
      out.scores.emplace_back();
      if (!got.ok()) continue;
      for (const auto& p : *got) {
        out.ids.back().push_back(p.entity_id);
        out.scores.back().push_back(p.score);
      }
    }
    out.stats = server->Stats();
    return out;
  };
  auto cached_server = MakeServer(on);
  auto plain_server = MakeServer(off);
  const Responses cached = drive(cached_server.get());
  const Responses plain = drive(plain_server.get());
  EXPECT_TRUE(cached == plain);
  EXPECT_GT(cached.stats.cache_hits, stream.size() / 4);
  EXPECT_EQ(plain.stats.cache_hits, 0u);
  EXPECT_EQ(cached.stats.rerank_exited, plain.stats.rerank_exited);
  EXPECT_EQ(cached.stats.rerank_full, plain.stats.rerank_full);
  EXPECT_EQ(cached.stats.rerank_exited + cached.stats.rerank_distilled +
                cached.stats.rerank_full,
            stream.size());
  EXPECT_GT(plain.stats.rerank_exited, 0u);
  EXPECT_GT(plain.stats.rerank_full, 0u);
}

TEST_F(CascadeTest, ZeroMarginTauExitsEveryRequest) {
  model::CascadeModel cascade;
  cascade.config.margin_tau = 0.0f;  // margin >= 0 always holds
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &cascade;
  auto server = MakeServer(on);
  const Responses run = Drive(server.get());
  EXPECT_EQ(run.stats.rerank_exited, run.stats.requests);
  EXPECT_EQ(run.stats.rerank_full, 0u);
}

TEST_F(CascadeTest, InfiniteMarginTauNeverExits) {
  model::CascadeModel cascade;  // default margin_tau = +inf, no scorer
  cascade.config.rerank_head_k = 4;
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &cascade;
  auto server = MakeServer(on);
  const Responses run = Drive(server.get());
  EXPECT_EQ(run.stats.rerank_exited, 0u);
  EXPECT_EQ(run.stats.rerank_full, run.stats.requests);
}

TEST_F(CascadeTest, RetrieveKOneExitsEverything) {
  // A single candidate has margin +inf, which clears any finite tau; with
  // the cascade on there is nothing to rerank.
  model::CascadeModel cascade;
  cascade.config.margin_tau = 1e6f;
  serve::ServerOptions on = BaseOptions();
  on.retrieve_k = 1;
  on.use_cascade = true;
  on.cascade = &cascade;
  auto server = MakeServer(on);
  const Responses run = Drive(server.get());
  EXPECT_EQ(run.stats.rerank_exited, run.stats.requests);
}

TEST_F(CascadeTest, BandZeroHeadOneKeepsRetrievalTop1) {
  // band 0 + cap 1: the "head" is just the retrieval winner, so the full
  // tier can only rescore it — top-1 id must equal retrieval's top-1.
  model::CascadeModel exit_all;
  exit_all.config.margin_tau = 0.0f;
  serve::ServerOptions exit_opts = BaseOptions();
  exit_opts.use_cascade = true;
  exit_opts.cascade = &exit_all;
  auto exit_server = MakeServer(exit_opts);
  const Responses retrieval_order = Drive(exit_server.get());

  model::CascadeModel narrow;
  narrow.config.band_epsilon = 0.0f;
  narrow.config.rerank_head_k = 1;
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &narrow;
  auto server = MakeServer(on);
  const Responses run = Drive(server.get());
  ASSERT_EQ(run.ids.size(), retrieval_order.ids.size());
  for (std::size_t i = 0; i < run.ids.size(); ++i) {
    ASSERT_FALSE(run.ids[i].empty());
    EXPECT_EQ(run.ids[i][0], retrieval_order.ids[i][0]) << "request " << i;
  }
}

TEST_F(CascadeTest, SerialAndPooledClientsAreByteIdentical) {
  const model::CascadeModel cascade = Calibrate();
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &cascade;
  auto serial_server = MakeServer(on);
  const Responses serial = Drive(serial_server.get(), 1);
  auto pooled_server = MakeServer(on);
  const Responses pooled = Drive(pooled_server.get(), 4);
  EXPECT_TRUE(serial == pooled);
  EXPECT_EQ(serial.stats.rerank_exited, pooled.stats.rerank_exited);
  EXPECT_EQ(serial.stats.rerank_distilled, pooled.stats.rerank_distilled);
  EXPECT_EQ(serial.stats.rerank_full, pooled.stats.rerank_full);
}

// ---- Artifact persistence --------------------------------------------------

/// The version-1 "CSCD" payload as builds with the distilled tier wrote
/// it, written field by field: the thresholds, then the scorer's bias and
/// weights. Today's Save writes the same layout with no scorer.
struct LegacyCascade {
  model::CascadeConfig config;
  float distill_tau = kInf;
  float bias = 0.0f;
  std::vector<float> weights;

  /// The scorer's weight count for cross-encoder tower dimension d: four
  /// retrieval features, 2 * d tower features, the overlap block.
  static std::size_t WeightCount(std::size_t d) {
    return 4 + 2 * d + model::kNumOverlapFeatures;
  }

  void Save(util::BinaryWriter* writer) const {
    writer->WriteU32(0x44435343u);  // "CSCD"
    writer->WriteU32(1);
    writer->WriteF32(config.margin_tau);
    writer->WriteF32(distill_tau);
    writer->WriteF32(config.band_epsilon);
    writer->WriteU64(config.rerank_head_k);
    writer->WriteF32(bias);
    writer->WriteFloatVector(weights);
  }
};

template <typename Model>
std::vector<std::uint8_t> Payload(const Model& model) {
  util::BinaryWriter writer;
  model.Save(&writer);
  return writer.TakeBuffer();
}

util::Status LoadPayload(std::vector<std::uint8_t> bytes,
                         model::CascadeModel* out) {
  util::BinaryReader reader(std::move(bytes));
  return out->Load(&reader);
}

// The policy framed as a checkpoint container: the bytes of a bundle's
// "cascade" artifact.
template <typename Model>
std::vector<std::uint8_t> Framed(const Model& model) {
  store::CheckpointWriter ckpt;
  model.Save(ckpt.AddSection("cascade"));
  return ckpt.Serialize();
}

// Parses `bytes` as a container and loads its "cascade" section into `out`.
util::Status LoadFramed(std::vector<std::uint8_t> bytes,
                        model::CascadeModel* out) {
  auto ckpt = store::CheckpointReader::Parse(std::move(bytes));
  if (!ckpt.ok()) return ckpt.status();
  auto section = ckpt->Section("cascade");
  return section.ok() ? out->Load(&*section) : section.status();
}

TEST_F(CascadeTest, ArtifactRoundTripsThroughContainer) {
  train::CascadeCalibrationReport report;
  const model::CascadeModel saved = Calibrate(&report);
  model::CascadeModel loaded;
  ASSERT_TRUE(LoadFramed(Framed(saved), &loaded).ok());
  EXPECT_EQ(loaded.config.margin_tau, saved.config.margin_tau);
  EXPECT_EQ(loaded.config.band_epsilon, saved.config.band_epsilon);
  EXPECT_EQ(loaded.config.rerank_head_k, saved.config.rerank_head_k);
}

TEST_F(CascadeTest, SaveWritesTheLegacyLayoutWithoutAScorer) {
  // Older readers load a new artifact: it is the version-1 payload of a
  // scorer-free policy whose distilled tier never fires.
  model::CascadeModel model;
  model.config.margin_tau = 0.25f;
  model.config.band_epsilon = 0.5f;
  model.config.rerank_head_k = 4;
  LegacyCascade legacy;
  legacy.config = model.config;
  EXPECT_EQ(Payload(model), Payload(legacy));
}

TEST_F(CascadeTest, LegacyScorerArtifactServesItsDistilledBandAsFullHead) {
  // A legacy artifact with a scorer for this cross-encoder and a distilled
  // band below margin_tau loads; the scorer is dropped, so it serves
  // exactly like the same thresholds with no scorer: exit, or rerank the
  // head.
  const std::vector<float> margins = SortedMargins();
  LegacyCascade legacy;
  legacy.config.margin_tau = margins[2 * margins.size() / 3];
  legacy.config.rerank_head_k = 6;
  legacy.distill_tau = margins[margins.size() / 3];
  legacy.bias = -0.5f;
  legacy.weights.assign(LegacyCascade::WeightCount(cross_->config().dim),
                        0.125f);
  model::CascadeModel loaded;
  ASSERT_TRUE(LoadFramed(Framed(legacy), &loaded).ok());
  EXPECT_EQ(loaded.config.margin_tau, legacy.config.margin_tau);
  EXPECT_EQ(loaded.config.rerank_head_k, legacy.config.rerank_head_k);

  model::CascadeModel weightless;
  weightless.config = legacy.config;
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &loaded;
  auto legacy_server = MakeServer(on);
  const Responses legacy_run = Drive(legacy_server.get());
  on.cascade = &weightless;
  auto weightless_server = MakeServer(on);
  const Responses weightless_run = Drive(weightless_server.get());
  EXPECT_TRUE(legacy_run == weightless_run);
  EXPECT_EQ(legacy_run.stats.rerank_exited,
            weightless_run.stats.rerank_exited);
  EXPECT_EQ(legacy_run.stats.rerank_full, weightless_run.stats.rerank_full);
  EXPECT_EQ(legacy_run.stats.rerank_distilled, 0u);
  EXPECT_GT(legacy_run.stats.rerank_exited, 0u);
  EXPECT_GT(legacy_run.stats.rerank_full, 0u);
}

TEST_F(CascadeTest, EverySingleBitFlipInArtifactIsRejected) {
  LegacyCascade model;
  model.config.margin_tau = 0.25f;
  model.config.rerank_head_k = 4;
  model.weights.assign(LegacyCascade::WeightCount(8), 0.125f);
  model.bias = -0.5f;
  const std::vector<std::uint8_t> bytes = Framed(model);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[byte] ^= bit;
      model::CascadeModel reloaded;
      EXPECT_FALSE(LoadFramed(std::move(flipped), &reloaded).ok())
          << "bit flip at byte " << byte << " went undetected";
    }
  }
}

TEST_F(CascadeTest, LoadRejectsMalformedPayloads) {
  auto load = [&](const LegacyCascade& m) {
    model::CascadeModel loaded;
    return LoadPayload(Payload(m), &loaded);
  };

  LegacyCascade good;
  good.config.rerank_head_k = 4;
  good.distill_tau = 0.5f;
  good.weights.assign(LegacyCascade::WeightCount(8), 0.0f);
  EXPECT_TRUE(load(good).ok());

  {  // Wrong leading tag.
    auto bytes = Payload(good);
    bytes[0] ^= 0xFF;
    model::CascadeModel loaded;
    EXPECT_FALSE(LoadPayload(std::move(bytes), &loaded).ok());
  }
  {  // head_k = 0 is never servable.
    LegacyCascade bad = good;
    bad.config.rerank_head_k = 0;
    EXPECT_FALSE(load(bad).ok());
  }
  {  // NaN threshold.
    LegacyCascade bad = good;
    bad.config.margin_tau = std::nanf("");
    EXPECT_FALSE(load(bad).ok());
  }
  {  // Negative threshold.
    LegacyCascade bad = good;
    bad.config.band_epsilon = -1.0f;
    EXPECT_FALSE(load(bad).ok());
  }
  {  // NaN legacy distill_tau.
    LegacyCascade bad = good;
    bad.distill_tau = std::nanf("");
    EXPECT_FALSE(load(bad).ok());
  }
  {  // Weight count below any tower dimension's feature count.
    LegacyCascade bad = good;
    bad.weights.assign(LegacyCascade::WeightCount(0) + 1, 0.0f);
    EXPECT_FALSE(load(bad).ok());
  }
  {  // Odd dimension remainder matches no tower (needs 2*d floats).
    LegacyCascade bad = good;
    bad.weights.assign(LegacyCascade::WeightCount(8) + 1, 0.0f);
    EXPECT_FALSE(load(bad).ok());
  }
  {  // NaN scorer weight.
    LegacyCascade bad = good;
    bad.weights[5] = std::nanf("");
    EXPECT_FALSE(load(bad).ok());
  }
  {  // NaN scorer bias.
    LegacyCascade bad = good;
    bad.bias = std::nanf("");
    EXPECT_FALSE(load(bad).ok());
  }
}

// ---- Bundle integration ----------------------------------------------------

TEST_F(CascadeTest, BundleShipsAndServesTheCascadeArtifact) {
  const auto& ids = corpus_->kb.EntitiesInDomain("serving");
  retrieval::DenseIndex index;
  std::vector<kb::Entity> entities;
  for (kb::EntityId id : ids) entities.push_back(corpus_->kb.entity(id));
  model::EncodeScratch scratch;
  tensor::Tensor emb;
  bi_->EncodeEntitiesInference(entities, &scratch, &emb);
  ASSERT_TRUE(index.Build(std::move(emb), ids).ok());
  model::CrossEntityCache cache;
  cross_->PrecomputeEntities(entities, &cache);

  // The shipped policy exits everything — recognizably different from both
  // the default config (never exits) and ServerOptions::cascade below.
  model::CascadeModel shipped;
  shipped.config.margin_tau = 0.0f;
  const std::string dir = TempPath("bundle");
  store::ModelBundleParts parts;
  parts.model_version = 7;
  parts.domain = "serving";
  parts.bi = bi_.get();
  parts.cross = cross_.get();
  parts.kb = &corpus_->kb;
  parts.index = &index;
  parts.rerank_cache = &cache;
  parts.cascade = &shipped;
  ASSERT_TRUE(store::SaveModelBundle(parts, dir).ok());

  auto loaded = store::LoadModelBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded->has_cascade);
  EXPECT_EQ(loaded->cascade.config.margin_tau, 0.0f);

  // FromBundle + use_cascade adopts the bundle artifact even when
  // ServerOptions::cascade points at a never-exit policy: the bundle wins.
  model::CascadeModel never_exit;
  serve::ServerOptions on = BaseOptions();
  on.use_cascade = true;
  on.cascade = &never_exit;
  auto server = serve::LinkingServer::FromBundle(dir, on);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const Responses run = Drive(server->get());
  EXPECT_EQ(run.stats.rerank_exited, run.stats.requests);
}

}  // namespace
}  // namespace metablink
