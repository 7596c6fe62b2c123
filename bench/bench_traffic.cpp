// Traffic benchmark: exercises the src/load subsystem end to end and
// writes BENCH_traffic.json (argv override; --smoke shrinks the world and
// skips the timed latency-under-load sweep for the CI traffic stage).
//
// Four instrument groups, each with its own hard gates:
//
//   generators:  seeded workload streams (uniform / Zipf / scrambled /
//                read-latest / hot-shift) are deterministic per seed,
//                differ across seeds, and Zipf(0.99) concentrates mass on
//                the head like it says on the tin.
//   lru_sim:     a pure index-space LRU simulation shows WHY skew matters:
//                Zipf hit rate strictly above uniform at equal pool and
//                capacity, and hot-range shifts churn the working set.
//   pacing:      the open-loop driver's arrival schedule is deterministic,
//                exact for fixed intervals, and achieves its target QPS
//                against a no-op issue function.
//   server:      admission control on a real LinkingServer — max_queue=0
//                responses byte-identical to a huge-bound server that never
//                sheds (the pre-admission-control serving path), both shed
//                policies reconcile their books under an 8-thread hammer,
//                and (full mode) an open-loop QPS sweep shows bounded p99
//                with shedding vs. unbounded queue growth without, plus
//                real-server LRU hit rates under uniform / Zipf / hot-shift
//                streams.
//
// The full run measures closed-loop saturation first, then sweeps
// {0.5, 0.75, 1.0, 1.5, 2.0}x saturation against a bounded (shedding)
// server and {0.5, 1.0, 2.0}x against an unbounded one. Latency is
// recorded from the SCHEDULED arrival (coordinated-omission corrected), so
// an overloaded unbounded server shows its queueing collapse honestly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/generator.h"
#include "experiment_common.h"
#include "load/histogram.h"
#include "load/open_loop.h"
#include "load/workload.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "serve/linking_server.h"
#include "train/bi_trainer.h"
#include "util/rng.h"

using namespace metablink;

namespace {

double g_sink = 0.0;

struct TrafficScale {
  std::size_t num_entities = 2000;
  std::size_t pool_size = 256;
  std::size_t stream_len = 2000;
  std::size_t retrieve_k = 64;
  std::size_t cache_capacity = 64;  // < pool_size: misses are possible
  std::size_t client_threads = 8;
  std::size_t train_epochs = 2;
};

load::WorkloadConfig MakeConfig(load::MixKind kind, std::size_t pool,
                                std::uint64_t seed) {
  load::WorkloadConfig cfg;
  cfg.kind = kind;
  cfg.pool_size = pool;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::size_t> Draw(const load::WorkloadConfig& cfg,
                              std::size_t n) {
  auto stream = load::RequestStream::Make(cfg);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<std::size_t> out;
  stream->Fill(n, &out);
  return out;
}

/// Fraction of draws served from an LRU of `capacity` pool indices — the
/// pure-simulation form of the serving cache, so the skew-vs-hit-rate
/// relationship can be gated without timing noise.
double SimulatedLruHitRate(const std::vector<std::size_t>& draws,
                           std::size_t capacity) {
  std::list<std::size_t> order;  // front = most recent
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where;
  std::size_t hits = 0;
  for (std::size_t idx : draws) {
    auto it = where.find(idx);
    if (it != where.end()) {
      ++hits;
      order.erase(it->second);
    } else if (where.size() >= capacity) {
      where.erase(order.back());
      order.pop_back();
    }
    order.push_front(idx);
    where[idx] = order.begin();
  }
  return draws.empty() ? 0.0
                       : static_cast<double>(hits) / draws.size();
}

/// Top-1 responses of one serial (single-client) pass of `stream_idx`
/// through `server`; position-comparable across servers because the order
/// is the stream order.
struct SerialReplay {
  std::vector<kb::EntityId> top1_id;
  std::vector<float> top1_score;
  serve::ServerStats stats;
};

SerialReplay ReplaySerial(serve::LinkingServer* server,
                          const std::vector<data::LinkingExample>& pool,
                          const std::vector<std::size_t>& stream_idx) {
  SerialReplay out;
  out.top1_id.reserve(stream_idx.size());
  out.top1_score.reserve(stream_idx.size());
  for (std::size_t idx : stream_idx) {
    const auto& ex = pool[idx];
    auto got = server->Link(ex.mention, ex.left_context, ex.right_context, 5);
    if (!got.ok() || got->empty()) {
      std::fprintf(stderr, "serial replay Link failed: %s\n",
                   got.ok() ? "empty" : got.status().ToString().c_str());
      std::exit(1);
    }
    out.top1_id.push_back((*got)[0].entity_id);
    out.top1_score.push_back((*got)[0].score);
    g_sink += (*got)[0].score;
  }
  out.stats = server->Stats();
  return out;
}

bool SameReplay(const SerialReplay& a, const SerialReplay& b) {
  return a.top1_id == b.top1_id && a.top1_score.size() == b.top1_score.size() &&
         std::memcmp(a.top1_score.data(), b.top1_score.data(),
                     a.top1_score.size() * sizeof(float)) == 0;
}

/// Closed-loop drive: `threads` clients each replay their contiguous slice
/// as fast as the server allows. Returns ok-QPS and the final stats.
struct ClosedLoopResult {
  double qps = 0.0;
  double cache_hit_rate = 0.0;
  serve::ServerStats stats;
};

ClosedLoopResult DriveClosed(serve::LinkingServer* server,
                             const std::vector<data::LinkingExample>& pool,
                             const std::vector<std::size_t>& stream_idx,
                             std::size_t threads) {
  const std::size_t per = stream_idx.size() / threads;
  const auto t0 = bench::Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < per; ++r) {
        const auto& ex = pool[stream_idx[t * per + r]];
        auto got =
            server->Link(ex.mention, ex.left_context, ex.right_context, 5);
        if (got.ok() && !got->empty()) g_sink += (*got)[0].score;
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall_s = bench::MsSince(t0) / 1000.0;
  ClosedLoopResult out;
  out.stats = server->Stats();
  out.qps = wall_s > 0.0 ? per * threads / wall_s : 0.0;
  const auto probes = out.stats.cache_hits + out.stats.cache_misses;
  out.cache_hit_rate =
      probes > 0 ? static_cast<double>(out.stats.cache_hits) / probes : 0.0;
  return out;
}

/// One open-loop measurement point against a live server.
struct LoadPoint {
  double qps_frac = 0.0;    // fraction of measured saturation
  double target_qps = 0.0;
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  double shed_rate = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_start_lag_ms = 0.0;
  double achieved_qps = 0.0;
  serve::ServerStats stats;
};

double QuantMs(const load::LatencyHistogram& h, double q) {
  return h.ValueAtQuantile(q) / 1e6;
}

LoadPoint MeasureLoadPoint(serve::LinkingServer* server,
                           const std::vector<data::LinkingExample>& pool,
                           const std::vector<std::size_t>& stream_idx,
                           double frac, double saturation_qps) {
  LoadPoint p;
  p.qps_frac = frac;
  p.target_qps = std::max(1.0, frac * saturation_qps);
  p.total = static_cast<std::size_t>(
      std::clamp(p.target_qps * 2.0, 600.0, 4000.0));
  load::OpenLoopOptions opts;
  opts.target_qps = p.target_qps;
  opts.total_requests = p.total;
  opts.poisson = true;
  opts.seed = 99;
  // The driver can't have more requests outstanding than clients, so the
  // client pool must comfortably exceed the bounded server's
  // max_queue + max_batch or the queue bound would be unreachable and no
  // overload would ever shed — but not by so much that the client threads
  // themselves thrash the scheduler on small machines and pollute the
  // bounded run's p99 with driver-side lag.
  opts.max_clients = 96;
  const auto result = load::OpenLoopDriver::Run(opts, [&](std::size_t i) {
    const auto& ex = pool[stream_idx[i % stream_idx.size()]];
    auto got = server->Link(ex.mention, ex.left_context, ex.right_context, 5);
    if (got.ok()) {
      if (!got->empty()) g_sink += (*got)[0].score;
      return load::IssueOutcome::kOk;
    }
    return got.status().code() == util::StatusCode::kUnavailable
               ? load::IssueOutcome::kShed
               : load::IssueOutcome::kError;
  });
  p.ok = result.ok;
  p.shed = result.shed;
  p.errors = result.errors;
  p.shed_rate = result.issued > 0
                    ? static_cast<double>(result.shed) / result.issued
                    : 0.0;
  p.p50_ms = QuantMs(result.latency_ns, 0.50);
  p.p90_ms = QuantMs(result.latency_ns, 0.90);
  p.p99_ms = QuantMs(result.latency_ns, 0.99);
  p.p999_ms = QuantMs(result.latency_ns, 0.999);
  p.max_start_lag_ms = result.max_start_lag_ms;
  p.achieved_qps = result.achieved_qps;
  p.stats = server->Stats();
  return p;
}

/// The server's batch count, why its batches closed, how many of the
/// early ones ran on their caller's thread, and their mean hold (oldest
/// arrival to close, measured by the server).
void PrintBatches(const serve::ServerStats& s) {
  std::printf("  batches=%llu (full=%llu deadline=%llu early=%llu) "
              "caller_batches=%llu hold=%.3fms/batch\n",
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.batches_full),
              static_cast<unsigned long long>(s.batches_deadline),
              static_cast<unsigned long long>(s.batches_early),
              static_cast<unsigned long long>(s.caller_batches),
              s.batches > 0 ? s.hold_ms / s.batches : 0.0);
}

void PrintLoadPoint(const char* tag, const LoadPoint& p) {
  std::printf("[%s] %.2fx (%7.0f qps, n=%4zu)  p50 %8.2f  p90 %8.2f  "
              "p99 %8.2f  p999 %8.2f ms  shed %.3f  lag %8.2f ms\n",
              tag, p.qps_frac, p.target_qps, p.total, p.p50_ms, p.p90_ms,
              p.p99_ms, p.p999_ms, p.shed_rate, p.max_start_lag_ms);
  PrintBatches(p.stats);
}

void JsonLoadPoint(FILE* f, const LoadPoint& p, bool last) {
  std::fprintf(f,
               "    {\"qps_frac\": %.2f, \"target_qps\": %.1f, \"total\": "
               "%zu, \"ok\": %zu, \"shed\": %zu, \"errors\": %zu, "
               "\"shed_rate\": %.4f, \"p50_ms\": %.3f, \"p90_ms\": %.3f, "
               "\"p99_ms\": %.3f, \"p999_ms\": %.3f, \"max_start_lag_ms\": "
               "%.3f, \"achieved_qps\": %.1f}%s\n",
               p.qps_frac, p.target_qps, p.total, p.ok, p.shed, p.errors,
               p.shed_rate, p.p50_ms, p.p90_ms, p.p99_ms, p.p999_ms,
               p.max_start_lag_ms, p.achieved_qps, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_traffic.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  TrafficScale scale;
  if (smoke) {
    scale.num_entities = 200;
    scale.pool_size = 24;
    scale.stream_len = 120;
    scale.retrieve_k = 16;
    scale.cache_capacity = 8;
    scale.train_epochs = 0;  // admission gates don't need trained weights
  }
  std::printf("=== Traffic benchmark (%zu entities, pool %zu, %s) ===\n\n",
              scale.num_entities, scale.pool_size,
              smoke ? "smoke" : "full");

  // ---- Group 1: generator determinism + skew. ------------------------------
  // Gate pool is deliberately small-ish so the skew contrast is visible in
  // few draws; the kinds cover every MixKind except the legacy round-robin
  // (whose bit-compatibility is a unit-test concern).
  const std::size_t gen_pool = 64;
  const load::MixKind kinds[] = {
      load::MixKind::kUniform, load::MixKind::kZipfian,
      load::MixKind::kScrambledZipfian, load::MixKind::kReadLatest,
      load::MixKind::kHotShift};
  bool same_seed_identical = true;
  bool diff_seed_differs = true;
  for (load::MixKind kind : kinds) {
    const auto a = Draw(MakeConfig(kind, gen_pool, 42), 512);
    const auto b = Draw(MakeConfig(kind, gen_pool, 42), 512);
    const auto c = Draw(MakeConfig(kind, gen_pool, 43), 512);
    same_seed_identical = same_seed_identical && a == b;
    diff_seed_differs = diff_seed_differs && a != c;
  }
  double zipf_top_share = 0.0, uniform_top_share = 0.0;
  {
    const std::size_t n = 8192;
    auto TopShare = [&](load::MixKind kind) {
      std::vector<std::size_t> freq(gen_pool, 0);
      for (std::size_t idx : Draw(MakeConfig(kind, gen_pool, 7), n))
        ++freq[idx];
      return static_cast<double>(*std::max_element(freq.begin(), freq.end())) /
             n;
    };
    zipf_top_share = TopShare(load::MixKind::kZipfian);
    uniform_top_share = TopShare(load::MixKind::kUniform);
  }
  const bool skew_ok = zipf_top_share > 3.0 * uniform_top_share;
  std::printf("[generators] same-seed identical: %s  diff-seed differs: %s\n",
              same_seed_identical ? "PASS" : "FAIL",
              diff_seed_differs ? "PASS" : "FAIL");
  std::printf("[generators] top-rank share: zipf %.3f vs uniform %.3f "
              "(>3x: %s)\n",
              zipf_top_share, uniform_top_share, skew_ok ? "PASS" : "FAIL");

  // ---- Group 2: simulated LRU — skew is what caches monetize. --------------
  const std::size_t sim_pool = 256, sim_cap = 64, sim_draws = 20000;
  const double lru_uniform = SimulatedLruHitRate(
      Draw(MakeConfig(load::MixKind::kUniform, sim_pool, 5), sim_draws),
      sim_cap);
  const double lru_zipf = SimulatedLruHitRate(
      Draw(MakeConfig(load::MixKind::kZipfian, sim_pool, 5), sim_draws),
      sim_cap);
  load::WorkloadConfig shift_cfg =
      MakeConfig(load::MixKind::kHotShift, sim_pool, 5);
  shift_cfg.shift_every = 2000;
  shift_cfg.shift_step = 64;
  const double lru_shift =
      SimulatedLruHitRate(Draw(shift_cfg, sim_draws), sim_cap);
  const bool lru_zipf_gt_uniform = lru_zipf > lru_uniform;
  const bool lru_shift_churns = lru_shift < lru_zipf;
  std::printf("[lru_sim] cap %zu / pool %zu: uniform %.3f  zipf %.3f  "
              "hot-shift %.3f  (zipf>uniform: %s, shift churns: %s)\n",
              sim_cap, sim_pool, lru_uniform, lru_zipf, lru_shift,
              lru_zipf_gt_uniform ? "PASS" : "FAIL",
              lru_shift_churns ? "PASS" : "FAIL");

  // ---- Group 3: open-loop pacing sanity. -----------------------------------
  bool fixed_offsets_exact = true;
  {
    load::OpenLoopOptions fopts;
    fopts.target_qps = 2000.0;
    fopts.total_requests = 16;
    fopts.poisson = false;
    const auto offsets = load::OpenLoopDriver::ArrivalOffsetsNs(fopts);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      fixed_offsets_exact =
          fixed_offsets_exact && offsets[i] == i * std::uint64_t{500000};
    }
  }
  bool poisson_deterministic = false;
  {
    load::OpenLoopOptions popts;
    popts.target_qps = 10000.0;
    popts.total_requests = 4096;
    popts.poisson = true;
    popts.seed = 21;
    poisson_deterministic = load::OpenLoopDriver::ArrivalOffsetsNs(popts) ==
                            load::OpenLoopDriver::ArrivalOffsetsNs(popts);
  }
  double pacing_ratio = 0.0;
  {
    load::OpenLoopOptions ropts;
    ropts.target_qps = 2000.0;
    ropts.total_requests = 1000;
    ropts.poisson = false;
    const auto run = load::OpenLoopDriver::Run(
        ropts, [](std::size_t) { return load::IssueOutcome::kOk; });
    pacing_ratio = run.achieved_qps / ropts.target_qps;
  }
  const bool pacing_ok = fixed_offsets_exact && poisson_deterministic &&
                         pacing_ratio > 0.7 && pacing_ratio < 1.3;
  std::printf("[pacing] fixed offsets exact: %s  poisson deterministic: %s  "
              "no-op achieved/target %.3f  -> %s\n\n",
              fixed_offsets_exact ? "PASS" : "FAIL",
              poisson_deterministic ? "PASS" : "FAIL", pacing_ratio,
              pacing_ok ? "PASS" : "FAIL");

  // ---- World + server factory (shared by every server-side gate). ----------
  data::GeneratorOptions gopts;
  gopts.seed = 505;
  gopts.shared_vocab_size = 600;
  gopts.domain_vocab_size = 300;
  data::ZeshelLikeGenerator gen(gopts);
  std::vector<data::DomainSpec> specs(1);
  specs[0].name = "traffic";
  specs[0].num_entities = scale.num_entities;
  specs[0].num_examples = std::max<std::size_t>(scale.pool_size, 64);
  specs[0].num_documents = 32;
  data::Corpus corpus = std::move(*gen.Generate(specs));
  const kb::KnowledgeBase& kb = corpus.kb;
  const auto& pool = corpus.ExamplesIn("traffic");

  model::BiEncoderConfig bi_cfg;
  bi_cfg.features.hasher.num_buckets = 16384;
  bi_cfg.dim = 64;
  model::CrossEncoderConfig cross_cfg;
  cross_cfg.features.hasher.num_buckets = 16384;
  cross_cfg.dim = 64;
  cross_cfg.hidden = 64;
  util::Rng bi_rng(31), cross_rng(32);
  model::BiEncoder bi(bi_cfg, &bi_rng);
  model::CrossEncoder cross(cross_cfg, &cross_rng);
  if (scale.train_epochs > 0) {
    train::TrainOptions bopts;
    bopts.epochs = scale.train_epochs;
    train::BiEncoderTrainer trainer(bopts);
    auto trained = trainer.Train(&bi, kb, pool);
    if (!trained.ok()) {
      std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
      return 1;
    }
  }

  serve::ServerOptions base_opts;
  base_opts.max_batch = 16;
  base_opts.flush_deadline_us = 500;
  base_opts.retrieve_k = scale.retrieve_k;
  base_opts.cache_capacity = scale.cache_capacity;
  auto MakeServer = [&](const serve::ServerOptions& sopts) {
    auto server =
        serve::LinkingServer::Create(&bi, &cross, &kb, "traffic", sopts);
    if (!server.ok()) {
      std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*server);
  };

  // ---- Group 4a: max_queue=0 byte-identity. --------------------------------
  // The unbounded default (pre-PR serving path: admission is counters-only)
  // must answer a skewed stream byte-identically to a bounded server whose
  // queue bound is never reached — and replaying the same stream twice
  // through unbounded servers must be deterministic.
  const auto ident_stream = Draw(
      MakeConfig(load::MixKind::kZipfian, scale.pool_size, 11),
      scale.stream_len);
  const auto replay_unbounded_a =
      ReplaySerial(MakeServer(base_opts).get(), pool, ident_stream);
  const auto replay_unbounded_b =
      ReplaySerial(MakeServer(base_opts).get(), pool, ident_stream);
  serve::ServerOptions bounded_opts = base_opts;
  bounded_opts.max_queue = std::size_t{1} << 20;
  const auto replay_bounded =
      ReplaySerial(MakeServer(bounded_opts).get(), pool, ident_stream);
  const bool ident_deterministic =
      SameReplay(replay_unbounded_a, replay_unbounded_b);
  const bool ident_bounded = SameReplay(replay_unbounded_a, replay_bounded) &&
                             replay_bounded.stats.rejected == 0 &&
                             replay_bounded.stats.shed == 0;
  std::printf("[identity] unbounded replay deterministic: %s  "
              "huge-bound byte-identical: %s\n",
              ident_deterministic ? "PASS" : "FAIL",
              ident_bounded ? "PASS" : "FAIL");
  PrintBatches(replay_unbounded_a.stats);

  // ---- Group 4b: shed policies reconcile under an 8-thread hammer. ---------
  // max_batch=1 + immediate flush makes service slow relative to 8
  // submitting threads and max_queue=2, so both policies must actually
  // shed, and afterwards every ledger identity must hold exactly.
  struct HammerResult {
    std::uint64_t ok = 0;
    std::uint64_t unavailable = 0;
    serve::ServerStats stats;
    bool reconciled = false;
  };
  auto Hammer = [&](serve::LoadShedPolicy policy) {
    serve::ServerOptions hopts = base_opts;
    hopts.max_batch = 1;
    hopts.flush_deadline_us = 0;
    hopts.max_queue = 2;
    hopts.shed_policy = policy;
    hopts.cache_capacity = 0;  // every request pays full service cost
    auto server = MakeServer(hopts);
    const std::size_t threads = scale.client_threads, per = 25;
    std::vector<std::uint64_t> ok(threads, 0), unavail(threads, 0);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t r = 0; r < per; ++r) {
          const auto& ex = pool[(t * per + r) % scale.pool_size];
          auto got =
              server->Link(ex.mention, ex.left_context, ex.right_context, 5);
          if (got.ok()) {
            ++ok[t];
          } else if (got.status().code() == util::StatusCode::kUnavailable) {
            ++unavail[t];
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    HammerResult r;
    r.stats = server->Stats();
    for (std::size_t t = 0; t < threads; ++t) {
      r.ok += ok[t];
      r.unavailable += unavail[t];
    }
    const std::uint64_t issued = threads * per;
    r.reconciled = r.ok + r.unavailable == issued &&
                   r.stats.accepted + r.stats.rejected == issued &&
                   r.stats.accepted == r.stats.requests + r.stats.shed &&
                   r.unavailable == r.stats.rejected + r.stats.shed &&
                   r.stats.queue_depth == 0 && r.stats.in_flight == 0 &&
                   r.stats.queue_depth_high_water <= 2 &&
                   r.stats.rejected + r.stats.shed > 0;
    return r;
  };
  const HammerResult reject_new = Hammer(serve::LoadShedPolicy::kRejectNew);
  const HammerResult drop_oldest =
      Hammer(serve::LoadShedPolicy::kDropOldest);
  std::printf("[shed] reject-new: ok=%llu rejected=%llu -> %s   "
              "drop-oldest: ok=%llu shed=%llu -> %s\n\n",
              static_cast<unsigned long long>(reject_new.ok),
              static_cast<unsigned long long>(reject_new.stats.rejected),
              reject_new.reconciled ? "PASS" : "FAIL",
              static_cast<unsigned long long>(drop_oldest.ok),
              static_cast<unsigned long long>(drop_oldest.stats.shed),
              drop_oldest.reconciled ? "PASS" : "FAIL");

  // ---- Full mode only: real-server LRU rates + latency-under-load. ---------
  double srv_hit_uniform = 0.0, srv_hit_zipf = 0.0, srv_hit_shift = 0.0;
  bool srv_lru_ok = true;
  double saturation_qps = 0.0;
  std::vector<LoadPoint> bounded_curve, unbounded_curve;
  bool load_gates_ok = true;
  double p99_bounded_2x = 0.0, p99_unbounded_2x = 0.0;
  if (!smoke) {
    // Real-server cache hit rates: same server config, three stream
    // shapes, cache_capacity < pool so uniform traffic misses often.
    auto ServedHitRate = [&](const load::WorkloadConfig& cfg) {
      const auto r = DriveClosed(MakeServer(base_opts).get(), pool,
                                 Draw(cfg, scale.stream_len),
                                 scale.client_threads);
      return r.cache_hit_rate;
    };
    srv_hit_uniform = ServedHitRate(
        MakeConfig(load::MixKind::kUniform, scale.pool_size, 13));
    srv_hit_zipf = ServedHitRate(
        MakeConfig(load::MixKind::kZipfian, scale.pool_size, 13));
    load::WorkloadConfig srv_shift =
        MakeConfig(load::MixKind::kHotShift, scale.pool_size, 13);
    srv_shift.shift_every = scale.stream_len / 8;
    srv_shift.shift_step = scale.pool_size / 4;
    srv_hit_shift = ServedHitRate(srv_shift);
    srv_lru_ok = srv_hit_zipf > srv_hit_uniform;
    std::printf("[server_lru] cap %zu / pool %zu: uniform %.3f  zipf %.3f  "
                "hot-shift %.3f  (zipf>uniform: %s)\n",
                scale.cache_capacity, scale.pool_size, srv_hit_uniform,
                srv_hit_zipf, srv_hit_shift, srv_lru_ok ? "PASS" : "FAIL");

    // Saturation: closed-loop throughput of the swept configuration. It
    // runs with the answer cache off, like the [shed] group: a hit is
    // answered on its caller's thread and never queues, so with the cache
    // on a hit-heavy stream at 2x this rate would not load the queue the
    // sweep exists to overload.
    serve::ServerOptions load_opts = base_opts;
    load_opts.cache_capacity = 0;
    const auto sat_stream = Draw(
        MakeConfig(load::MixKind::kZipfian, scale.pool_size, 17),
        scale.stream_len);
    const ClosedLoopResult saturation =
        DriveClosed(MakeServer(load_opts).get(), pool, sat_stream,
                    scale.client_threads);
    saturation_qps = saturation.qps;
    std::printf("[saturation] closed-loop %zu clients: %.0f qps\n",
                scale.client_threads, saturation_qps);
    PrintBatches(saturation.stats);

    // The sweep. Bounded: small queue + reject-new keeps admitted latency
    // bounded and sheds the excess. Unbounded: the pre-PR behavior —
    // everything queues, and the coordinated-omission-corrected latency
    // shows the backlog growing for as long as the overload lasts.
    serve::ServerOptions shed_opts = load_opts;
    shed_opts.max_queue = 32;
    shed_opts.shed_policy = serve::LoadShedPolicy::kRejectNew;
    for (double frac : {0.5, 0.75, 1.0, 1.5, 2.0}) {
      auto server = MakeServer(shed_opts);
      bounded_curve.push_back(MeasureLoadPoint(server.get(), pool,
                                               sat_stream, frac,
                                               saturation_qps));
      PrintLoadPoint("bounded  ", bounded_curve.back());
    }
    for (double frac : {0.5, 1.0, 2.0}) {
      auto server = MakeServer(load_opts);
      unbounded_curve.push_back(MeasureLoadPoint(server.get(), pool,
                                                 sat_stream, frac,
                                                 saturation_qps));
      PrintLoadPoint("unbounded", unbounded_curve.back());
    }
    p99_bounded_2x = bounded_curve.back().p99_ms;
    p99_unbounded_2x = unbounded_curve.back().p99_ms;
    const bool bounded_beats_unbounded = p99_unbounded_2x > p99_bounded_2x;
    const bool shed_at_2x = bounded_curve.back().shed > 0;
    const bool quiet_at_half = bounded_curve.front().shed_rate < 0.01;
    load_gates_ok = bounded_beats_unbounded && shed_at_2x && quiet_at_half;
    std::printf("[load gates] p99@2x bounded %.1f ms < unbounded %.1f ms: "
                "%s  shed@2x>0: %s  shed@0.5x~0: %s\n",
                p99_bounded_2x, p99_unbounded_2x,
                bounded_beats_unbounded ? "PASS" : "FAIL",
                shed_at_2x ? "PASS" : "FAIL",
                quiet_at_half ? "PASS" : "FAIL");
  }

  const bool pass = same_seed_identical && diff_seed_differs && skew_ok &&
                    lru_zipf_gt_uniform && lru_shift_churns && pacing_ok &&
                    ident_deterministic && ident_bounded &&
                    reject_new.reconciled && drop_oldest.reconciled &&
                    srv_lru_ok && load_gates_ok;
  std::printf("\n  traffic gates: %s\n", pass ? "PASS" : "FAIL");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"config\": {\"entities\": %zu, \"pool_size\": %zu, "
               "\"stream_len\": %zu, \"retrieve_k\": %zu, "
               "\"cache_capacity\": %zu, \"client_threads\": %zu, "
               "\"smoke\": %s},\n",
               scale.num_entities, scale.pool_size, scale.stream_len,
               scale.retrieve_k, scale.cache_capacity, scale.client_threads,
               smoke ? "true" : "false");
  bench::WriteHostJson(f);
  std::fprintf(f,
               "  \"generator_gates\": {\"same_seed_identical\": %s, "
               "\"diff_seed_differs\": %s, \"zipf_top_share\": %.4f, "
               "\"uniform_top_share\": %.4f, \"skew_ok\": %s},\n",
               same_seed_identical ? "true" : "false",
               diff_seed_differs ? "true" : "false", zipf_top_share,
               uniform_top_share, skew_ok ? "true" : "false");
  std::fprintf(f,
               "  \"lru_sim\": {\"pool\": %zu, \"capacity\": %zu, "
               "\"uniform_hit\": %.4f, \"zipf_hit\": %.4f, "
               "\"hot_shift_hit\": %.4f, \"zipf_gt_uniform\": %s, "
               "\"shift_churns\": %s},\n",
               sim_pool, sim_cap, lru_uniform, lru_zipf, lru_shift,
               lru_zipf_gt_uniform ? "true" : "false",
               lru_shift_churns ? "true" : "false");
  std::fprintf(f,
               "  \"pacing\": {\"fixed_offsets_exact\": %s, "
               "\"poisson_deterministic\": %s, \"noop_achieved_over_target\": "
               "%.4f, \"pacing_ok\": %s},\n",
               fixed_offsets_exact ? "true" : "false",
               poisson_deterministic ? "true" : "false", pacing_ratio,
               pacing_ok ? "true" : "false");
  std::fprintf(f,
               "  \"byte_identity\": {\"unbounded_deterministic\": %s, "
               "\"huge_bound_identical\": %s},\n",
               ident_deterministic ? "true" : "false",
               ident_bounded ? "true" : "false");
  std::fprintf(f,
               "  \"shed_policies\": {\"reject_new\": {\"ok\": %llu, "
               "\"rejected\": %llu, \"shed\": %llu, \"reconciled\": %s}, "
               "\"drop_oldest\": {\"ok\": %llu, \"rejected\": %llu, "
               "\"shed\": %llu, \"reconciled\": %s}},\n",
               static_cast<unsigned long long>(reject_new.ok),
               static_cast<unsigned long long>(reject_new.stats.rejected),
               static_cast<unsigned long long>(reject_new.stats.shed),
               reject_new.reconciled ? "true" : "false",
               static_cast<unsigned long long>(drop_oldest.ok),
               static_cast<unsigned long long>(drop_oldest.stats.rejected),
               static_cast<unsigned long long>(drop_oldest.stats.shed),
               drop_oldest.reconciled ? "true" : "false");
  if (!smoke) {
    std::fprintf(f,
                 "  \"server_lru\": {\"capacity\": %zu, \"pool\": %zu, "
                 "\"uniform_hit\": %.4f, \"zipf_hit\": %.4f, "
                 "\"hot_shift_hit\": %.4f, \"zipf_gt_uniform\": %s},\n",
                 scale.cache_capacity, scale.pool_size, srv_hit_uniform,
                 srv_hit_zipf, srv_hit_shift, srv_lru_ok ? "true" : "false");
    std::fprintf(f, "  \"saturation_qps\": %.1f,\n", saturation_qps);
    std::fprintf(f, "  \"latency_under_load_bounded\": [\n");
    for (std::size_t i = 0; i < bounded_curve.size(); ++i)
      JsonLoadPoint(f, bounded_curve[i], i + 1 == bounded_curve.size());
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"latency_under_load_unbounded\": [\n");
    for (std::size_t i = 0; i < unbounded_curve.size(); ++i)
      JsonLoadPoint(f, unbounded_curve[i], i + 1 == unbounded_curve.size());
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"load_gates\": {\"p99_bounded_2x_ms\": %.3f, "
                 "\"p99_unbounded_2x_ms\": %.3f, "
                 "\"bounded_p99_below_unbounded\": %s, \"shed_at_2x\": %s, "
                 "\"no_shed_at_half\": %s},\n",
                 p99_bounded_2x, p99_unbounded_2x,
                 p99_unbounded_2x > p99_bounded_2x ? "true" : "false",
                 bounded_curve.empty() || bounded_curve.back().shed > 0
                     ? "true"
                     : "false",
                 bounded_curve.empty() ||
                         bounded_curve.front().shed_rate < 0.01
                     ? "true"
                     : "false");
  }
  std::fprintf(f, "  \"checksum\": %.6f,\n", g_sink);
  std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}
