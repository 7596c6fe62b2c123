// Checkpoint & hot-swap benchmark: measures the store subsystem's three
// costs and writes BENCH_checkpoint.json (argv override; --smoke shrinks
// every dimension for the CI smoke stage).
//
//   save/load MB/s:  framed-container write (serialize + CRC + atomic
//                    temp/fsync/rename) and read (parse + CRC verify +
//                    parameter load) throughput over a full encoder
//                    checkpoint.
//   bundle ms:       packaging a complete serving bundle (encoders, KB,
//                    index, rerank cache + manifest) and loading it back,
//                    with the publish path split into its stages: verify
//                    (BundleReader::Open: read every artifact + whole-file
//                    CRCs), artifact parse (the rest of LoadModelBundle)
//                    and epoch build (an idle SwapModel minus the load).
//                    Each is a p50 over the save/load iterations.
//   swap stall p99:  Link() latency p99 observed by concurrent clients
//                    while SwapModel publishes new versions under load —
//                    the number that proves a swap never stalls serving —
//                    beside the publish p50 and p99 under that load.
//   memory:          the served epoch's parameter bytes (values, and
//                    gradient buffers plus touched-row state) after the
//                    swaps, and the process peak RSS.
//
// Always-on correctness gates (exit 1 on violation, any scale):
//   - checkpoint round trip is bit-identical (ValuesCrc32 equality);
//   - a killed + resumed meta-reweight run finishes bit-identical to an
//     uninterrupted one;
//   - every Link during the swap hammer succeeds and every swap publishes;
//   - the served epoch holds no gradient storage.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "experiment_common.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "serve/linking_server.h"
#include "store/checkpoint.h"
#include "store/model_bundle.h"
#include "train/meta_trainer.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/string_util.h"

using namespace metablink;

namespace {

using bench::Clock;
using bench::Gate;
using bench::MsSince;
using bench::Percentile;

struct BenchScale {
  std::size_t num_buckets = 32768;
  std::size_t dim = 64;
  std::size_t num_entities = 2000;
  std::size_t save_load_iters = 5;
  std::size_t swaps = 6;
  std::size_t client_threads = 4;
  std::size_t requests_per_thread = 120;
  std::size_t meta_steps = 16;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_checkpoint.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  BenchScale scale;
  if (smoke) {
    scale.num_buckets = 4096;
    scale.dim = 32;
    scale.num_entities = 200;
    scale.save_load_iters = 2;
    scale.swaps = 3;
    scale.requests_per_thread = 24;
    scale.meta_steps = 8;
  }
  const std::string tmp = "/tmp/metablink-bench-checkpoint";

  // ---- World ---------------------------------------------------------------
  data::GeneratorOptions gopts;
  gopts.seed = 505;
  gopts.shared_vocab_size = 600;
  gopts.domain_vocab_size = 300;
  data::ZeshelLikeGenerator gen(gopts);
  std::vector<data::DomainSpec> specs(1);
  specs[0].name = "serving";
  specs[0].num_entities = scale.num_entities;
  specs[0].num_examples = 160;
  specs[0].num_documents = 32;
  data::Corpus corpus = std::move(*gen.Generate(specs));
  const kb::KnowledgeBase& kb = corpus.kb;
  const auto& examples = corpus.ExamplesIn("serving");

  model::BiEncoderConfig bi_cfg;
  bi_cfg.features.hasher.num_buckets = scale.num_buckets;
  bi_cfg.dim = scale.dim;
  model::CrossEncoderConfig cross_cfg;
  cross_cfg.features.hasher.num_buckets = scale.num_buckets;
  cross_cfg.dim = scale.dim;
  cross_cfg.hidden = scale.dim;
  util::Rng bi_rng(21), cross_rng(22);
  model::BiEncoder bi(bi_cfg, &bi_rng);
  model::CrossEncoder cross(cross_cfg, &cross_rng);

  std::printf("=== Checkpoint benchmark (%zu buckets, dim %zu, %zu entities"
              "%s) ===\n\n",
              scale.num_buckets, scale.dim, scale.num_entities,
              smoke ? ", smoke" : "");

  // ---- Save / load throughput ----------------------------------------------
  const std::string ckpt_path = tmp + "-encoder.ckpt";
  double save_ms = 0.0, load_ms = 0.0;
  std::size_t ckpt_bytes = 0;
  {
    store::CheckpointWriter probe;
    bi.SaveCheckpoint(&probe);
    ckpt_bytes = probe.Serialize().size();
  }
  util::Rng reload_rng(23);
  model::BiEncoder reloaded(bi_cfg, &reload_rng);
  for (std::size_t it = 0; it < scale.save_load_iters; ++it) {
    const auto s0 = Clock::now();
    store::CheckpointWriter ckpt;
    bi.SaveCheckpoint(&ckpt);
    if (!ckpt.WriteToFile(ckpt_path).ok()) return 1;
    save_ms += MsSince(s0);
    const auto l0 = Clock::now();
    auto reader = store::CheckpointReader::FromFile(ckpt_path);
    if (!reader.ok() || !reloaded.LoadCheckpoint(*reader).ok()) return 1;
    load_ms += MsSince(l0);
  }
  save_ms /= scale.save_load_iters;
  load_ms /= scale.save_load_iters;
  const double mb = static_cast<double>(ckpt_bytes) / (1024.0 * 1024.0);
  const double save_mbps = save_ms > 0.0 ? 1000.0 * mb / save_ms : 0.0;
  const double load_mbps = load_ms > 0.0 ? 1000.0 * mb / load_ms : 0.0;
  std::printf("[checkpoint]  %.2f MB  save %7.2f ms (%7.1f MB/s)  "
              "load %7.2f ms (%7.1f MB/s)\n",
              mb, save_ms, save_mbps, load_ms, load_mbps);
  Gate(bi.params()->ValuesCrc32() == reloaded.params()->ValuesCrc32(),
       "checkpoint round trip bit-identical");

  // ---- Kill/resume bit-identity (meta-reweight) ----------------------------
  {
    const std::string meta_path = tmp + "-meta.ckpt";
    std::remove(meta_path.c_str());
    const std::vector<data::LinkingExample> synthetic(examples.begin(),
                                                      examples.begin() + 96);
    const std::vector<data::LinkingExample> seed_set(examples.begin() + 96,
                                                     examples.begin() + 128);
    train::MetaTrainOptions mopts;
    mopts.steps = scale.meta_steps;
    mopts.batch_size = 8;
    mopts.meta_batch_size = 4;
    mopts.seed = 77;
    const auto make_model = [&] {
      util::Rng rng(88);
      return model::BiEncoder(bi_cfg, &rng);
    };
    const auto loss_for = [&](model::BiEncoder* m) {
      return [m, &kb](tensor::Graph* g,
                      const std::vector<data::LinkingExample>& batch) {
        return m->InBatchLoss(g, batch, kb);
      };
    };
    model::BiEncoder straight = make_model();
    train::MetaReweightTrainer ref(mopts, straight.params(),
                                   loss_for(&straight));
    if (!ref.Train(synthetic, seed_set).ok()) return 1;

    model::BiEncoder resumed = make_model();
    train::MetaTrainOptions killed = mopts;
    killed.steps = scale.meta_steps / 2;
    killed.checkpoint_path = meta_path;
    killed.checkpoint_every = 4;
    {
      train::MetaReweightTrainer t(killed, resumed.params(),
                                   loss_for(&resumed));
      if (!t.Train(synthetic, seed_set).ok()) return 1;
    }
    train::MetaTrainOptions full = mopts;
    full.checkpoint_path = meta_path;
    full.checkpoint_every = 4;
    train::MetaReweightTrainer t2(full, resumed.params(), loss_for(&resumed));
    if (!t2.Train(synthetic, seed_set).ok()) return 1;
    Gate(straight.params()->ValuesCrc32() == resumed.params()->ValuesCrc32(),
         "kill/resume bit-identical");
    std::remove(meta_path.c_str());
  }

  // ---- Bundle package / load -----------------------------------------------
  const std::string dir_a = tmp + "-bundle-a";
  const std::string dir_b = tmp + "-bundle-b";
  double bundle_save_ms = 0.0, bundle_load_ms = 0.0, bundle_verify_ms = 0.0;
  {
    const auto& ids = kb.EntitiesInDomain("serving");
    retrieval::DenseIndex index;
    std::vector<kb::Entity> entities;
    entities.reserve(ids.size());
    for (kb::EntityId id : ids) entities.push_back(kb.entity(id));
    model::EncodeScratch scratch;
    tensor::Tensor emb;
    bi.EncodeEntitiesInference(entities, &scratch, &emb);
    if (!index.Build(std::move(emb), ids).ok()) return 1;
    model::CrossEntityCache cache;
    cross.PrecomputeEntities(entities, &cache);

    store::ModelBundleParts parts;
    parts.domain = "serving";
    parts.bi = &bi;
    parts.cross = &cross;
    parts.kb = &kb;
    parts.index = &index;
    parts.rerank_cache = &cache;
    parts.model_version = 1;
    const auto b0 = Clock::now();
    if (!store::SaveModelBundle(parts, dir_a).ok()) return 1;
    bundle_save_ms = MsSince(b0);
    // Version 2 = the same world under a differently-initialized model, so
    // a swap genuinely changes answers.
    util::Rng rng_b(31), rng_bc(32);
    model::BiEncoder bi_b(bi_cfg, &rng_b);
    model::CrossEncoder cross_b(cross_cfg, &rng_bc);
    retrieval::DenseIndex index_b;
    bi_b.EncodeEntitiesInference(entities, &scratch, &emb);
    if (!index_b.Build(std::move(emb), ids).ok()) return 1;
    model::CrossEntityCache cache_b;
    cross_b.PrecomputeEntities(entities, &cache_b);
    parts.bi = &bi_b;
    parts.cross = &cross_b;
    parts.index = &index_b;
    parts.rerank_cache = &cache_b;
    parts.model_version = 2;
    if (!store::SaveModelBundle(parts, dir_b).ok()) return 1;

    std::vector<double> verify_ms, load_ms;
    for (std::size_t it = 0; it < scale.save_load_iters; ++it) {
      const auto v0 = Clock::now();
      if (!store::BundleReader::Open(dir_a).ok()) return 1;
      verify_ms.push_back(MsSince(v0));
      const auto l0 = Clock::now();
      if (!store::LoadModelBundle(dir_a).ok()) return 1;
      load_ms.push_back(MsSince(l0));
    }
    bundle_verify_ms = Percentile(verify_ms, 0.50);
    bundle_load_ms = Percentile(load_ms, 0.50);
  }

  // ---- Swap stall under load -----------------------------------------------
  serve::ServerOptions sopts;
  sopts.max_batch = 16;
  sopts.flush_deadline_us = 500;
  sopts.retrieve_k = std::min<std::size_t>(64, scale.num_entities);
  sopts.cache_capacity = 0;  // every request exercises the full pipeline
  auto server = serve::LinkingServer::FromBundle(dir_a, sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  // Idle publishes: with no traffic, a swap is the load plus the epoch
  // build, so their medians' difference is the epoch build.
  std::vector<double> idle_publish_ms;
  for (std::size_t it = 0; it < scale.save_load_iters; ++it) {
    const auto p0 = Clock::now();
    if (!(*server)->SwapModel(dir_a).ok()) return 1;
    idle_publish_ms.push_back(MsSince(p0));
  }
  const double idle_publish_p50 = Percentile(idle_publish_ms, 0.50);
  const double epoch_build_ms =
      std::max(0.0, idle_publish_p50 - bundle_load_ms);
  const double parse_ms = std::max(0.0, bundle_load_ms - bundle_verify_ms);
  std::printf("[bundle]      save %7.2f ms  load+validate %7.2f ms "
              "(verify %7.2f + parse %7.2f)  idle publish %7.2f ms "
              "(epoch build %7.2f)\n",
              bundle_save_ms, bundle_load_ms, bundle_verify_ms, parse_ms,
              idle_publish_p50, epoch_build_ms);
  const std::uint64_t swaps_before = (*server)->Stats().swaps;

  std::atomic<std::size_t> link_failures{0};
  std::vector<std::vector<double>> lat(scale.client_threads);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < scale.client_threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < scale.requests_per_thread; ++r) {
        const auto& ex = examples[(t * 7 + r) % examples.size()];
        const auto q0 = Clock::now();
        auto got = (*server)->Link(ex.mention, ex.left_context,
                                   ex.right_context, 5);
        if (!got.ok() || got->empty()) {
          link_failures.fetch_add(1);
          continue;
        }
        lat[t].push_back(MsSince(q0));
      }
    });
  }
  std::vector<double> swap_ms;
  std::size_t swap_failures = 0;
  for (std::size_t s = 0; s < scale.swaps; ++s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::string& dir = (s % 2 == 0) ? dir_b : dir_a;
    const auto s0 = Clock::now();
    if (!(*server)->SwapModel(dir).ok()) ++swap_failures;
    swap_ms.push_back(MsSince(s0));
  }
  for (auto& c : clients) c.join();

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  const double link_p50 = Percentile(all, 0.50);
  const double link_p99 = Percentile(all, 0.99);
  const double swap_p50 = Percentile(swap_ms, 0.50);
  const double swap_p99 = Percentile(swap_ms, 0.99);
  const serve::ServerStats stats = (*server)->Stats();
  std::printf("[swap]        %zu swaps under load  publish p50 %7.2f ms  "
              "p99 %7.2f ms  Link p50 %7.3f ms  p99 %7.3f ms\n\n",
              scale.swaps, swap_p50, swap_p99, link_p50, link_p99);
  Gate(link_failures.load() == 0, "every Link during swaps succeeded");
  Gate(swap_failures == 0 && stats.swaps - swaps_before == scale.swaps,
       "every swap published");

  // ---- Served memory ---------------------------------------------------------
  const tensor::ParameterStore::Bytes served = (*server)->model_bytes();
  const double peak_rss_mb = PeakRssMb();
  std::printf("[memory]      served epoch params %7.2f MiB  grads %7.2f MiB  "
              "peak RSS %7.1f MiB\n\n",
              Mib(served.values), Mib(served.grads), peak_rss_mb);
  Gate(served.grads == 0, "served epoch holds no gradient storage");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"num_buckets\": %zu, \"dim\": %zu, "
               "\"entities\": %zu, \"swaps\": %zu, \"client_threads\": %zu, "
               "\"smoke\": %s},\n",
               scale.num_buckets, scale.dim, scale.num_entities, scale.swaps,
               scale.client_threads, smoke ? "true" : "false");
  bench::WriteHostJson(
      f, util::StrFormat(", \"crc32\": \"%s\"",
                         util::Crc32UsesClmul() ? "pclmul" : "slice-by-8"));
  std::fprintf(f,
               "  \"checkpoint\": {\"size_mb\": %.3f, \"save_ms\": %.3f, "
               "\"save_mb_per_s\": %.1f, \"load_ms\": %.3f, "
               "\"load_mb_per_s\": %.1f},\n",
               mb, save_ms, save_mbps, load_ms, load_mbps);
  std::fprintf(f,
               "  \"bundle\": {\"save_ms\": %.3f, \"load_ms\": %.3f, "
               "\"verify_ms\": %.3f, \"parse_ms\": %.3f, "
               "\"idle_publish_ms\": %.3f, \"epoch_build_ms\": %.3f},\n",
               bundle_save_ms, bundle_load_ms, bundle_verify_ms, parse_ms,
               idle_publish_p50, epoch_build_ms);
  std::fprintf(f,
               "  \"swap\": {\"count\": %zu, \"publish_p50_ms\": %.3f, "
               "\"publish_p99_ms\": %.3f, "
               "\"link_p50_ms\": %.4f, \"link_p99_ms\": %.4f, "
               "\"final_model_version\": %llu},\n",
               scale.swaps, swap_p50, swap_p99, link_p50, link_p99,
               static_cast<unsigned long long>(stats.model_version));
  std::fprintf(f,
               "  \"memory\": {\"served_param_bytes\": %zu, "
               "\"served_grad_bytes\": %zu, \"peak_rss_mb\": %.1f},\n",
               served.values, served.grads, peak_rss_mb);
  std::fprintf(f, "  \"gates_ok\": %s\n",
               bench::GatesOk() ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return bench::GatesOk() ? 0 : 1;
}
