// Performance-substrate benchmark: times the blocked GEMM kernels, one
// meta-reweighting Step() under each alignment mode, batched dense
// retrieval, tanh (libm's against both bodies of tensor::Tanh), mention
// featurization and the cross-encoder's block rerank, then writes the
// measurements and the host as JSON (default BENCH_perf_substrate.json in
// the current directory; a path argument overrides).
//
// Gates (each prints PASS/FAIL; any FAIL exits 1):
//   - the meta Step speedup of the product mode, serial kJvp (how
//     FewShotLinker::Fit runs), over the serial kPerExample reference is
//     >= 3x;
//   - every mention bag of the featurize row equals the string-building
//     reference hasher's (below), id for id;
//   - every score of the rerank-block row equals the tape's
//     CrossEncoder::Score, bit for bit.
//
//   bench_perf_substrate [out.json]           full run (~30 s)
//   bench_perf_substrate --smoke [out.json]   the featurize and rerank-block
//                                             rows and their gates only, at
//                                             reduced repetitions (~1 s)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/generator.h"
#include "experiment_common.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "model/features.h"
#include "retrieval/dense_index.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "text/feature_hashing.h"
#include "text/tokenizer.h"
#include "train/meta_trainer.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace metablink;

namespace {

double g_sink = 0.0;  // defeats dead-code elimination across timed regions

template <typename Fn>
double BestOfMs(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = bench::Clock::now();
    fn();
    best = std::min(best, bench::MsSince(t0));
  }
  return best;
}

tensor::Tensor RandomTensor(std::size_t rows, std::size_t cols,
                            util::Rng* rng) {
  tensor::Tensor t(rows, cols);
  for (float& v : t.data()) v = rng->NextFloat(-1.0f, 1.0f);
  return t;
}

// ---- Section 1: kernel GEMM ------------------------------------------------

struct GemmTimes {
  double naive_ms = 0.0;
  double kernel_ms = 0.0;
  double pooled_ms = 0.0;
};

GemmTimes BenchGemm(util::ThreadPool* pool) {
  const std::size_t n = 384, k = 384, m = 384;
  util::Rng rng(101);
  tensor::Tensor a = RandomTensor(n, k, &rng);
  tensor::Tensor b = RandomTensor(k, m, &rng);
  tensor::Tensor out(n, m);

  GemmTimes t;
  t.naive_ms = BestOfMs(3, [&] {
    out.SetZero();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
        out.at(i, j) = acc;
      }
    }
    g_sink += out.at(0, 0);
  });
  t.kernel_ms = BestOfMs(5, [&] {
    out.SetZero();
    tensor::Gemm(a, b, &out, nullptr);
    g_sink += out.at(0, 0);
  });
  t.pooled_ms = BestOfMs(5, [&] {
    out.SetZero();
    tensor::Gemm(a, b, &out, pool);
    g_sink += out.at(0, 0);
  });
  return t;
}

// ---- Section 2: meta Step --------------------------------------------------

struct MetaBench {
  data::Corpus corpus;
  model::BiEncoder model;
  std::vector<float> initial;
  std::vector<data::LinkingExample> syn;
  std::vector<data::LinkingExample> seed;

  explicit MetaBench(util::Rng* rng)
      : corpus(MakeCorpus()), model(Config(), rng) {
    initial = model.params()->FlattenValues();
    const auto& examples = corpus.ExamplesIn("d");
    syn.assign(examples.begin(), examples.begin() + 64);
    seed.assign(examples.begin() + 64, examples.begin() + 80);
  }

  static model::BiEncoderConfig Config() {
    model::BiEncoderConfig cfg;
    cfg.features.hasher.num_buckets = 16384;
    cfg.dim = 64;
    return cfg;
  }

  static data::Corpus MakeCorpus() {
    data::GeneratorOptions opts;
    opts.seed = 202;
    opts.shared_vocab_size = 600;
    opts.domain_vocab_size = 300;
    data::ZeshelLikeGenerator gen(opts);
    // The spec is built in place; assigning the name to a default-built
    // string drew GCC 12's -Wrestrict false positive once inlined.
    const std::vector<data::DomainSpec> specs = {
        {.name = "d", .num_entities = 120, .num_examples = 480,
         .num_documents = 120}};
    return std::move(*gen.Generate(specs));
  }

  double TimeStep(train::MetaGrad mode, util::ThreadPool* pool,
                  int reps = 5) {
    train::MetaTrainOptions opts;
    opts.meta_grad = mode;
    opts.pool = pool;
    model::BiEncoder* m = &model;
    const kb::KnowledgeBase* kb = &corpus.kb;
    train::MetaReweightTrainer meta(
        opts, model.params(),
        [m, kb](tensor::Graph* g,
                const std::vector<data::LinkingExample>& batch) {
          return m->InBatchLoss(g, batch, *kb);
        });
    // Warm up once (allocators, feature caches), then time from identical
    // starting weights each rep: Step takes an optimizer step, so reload
    // outside the timed region.
    (void)model.params()->LoadValues(initial);
    (void)meta.Step(syn, seed);
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
      (void)model.params()->LoadValues(initial);
      const auto t0 = bench::Clock::now();
      auto w = meta.Step(syn, seed);
      const double ms = bench::MsSince(t0);
      if (!w.ok()) {
        std::fprintf(stderr, "meta step failed: %s\n",
                     w.status().ToString().c_str());
        std::exit(1);
      }
      g_sink += (*w)[0];
      best = std::min(best, ms);
    }
    return best;
  }
};

// ---- Section 3: retrieval --------------------------------------------------

struct TopKTimes {
  double old_style_ms = 0.0;
  double batch_serial_ms = 0.0;
  double batch_pooled_ms = 0.0;
};

TopKTimes BenchTopK(util::ThreadPool* pool) {
  const std::size_t n = 20000, d = 128, nq = 128, k = 64;
  util::Rng rng(303);
  tensor::Tensor embeddings = RandomTensor(n, d, &rng);
  tensor::Tensor queries = RandomTensor(nq, d, &rng);
  std::vector<kb::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<kb::EntityId>(i);

  retrieval::DenseIndex index;
  {
    tensor::Tensor copy = embeddings;
    auto status = index.Build(std::move(copy), ids);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  TopKTimes t;
  // The pre-optimization retrieval loop: per query, allocate and fill an
  // O(N) score vector, then partial_sort.
  t.old_style_ms = BestOfMs(3, [&] {
    for (std::size_t q = 0; q < nq; ++q) {
      std::vector<retrieval::ScoredEntity> scored(n);
      for (std::size_t i = 0; i < n; ++i) {
        scored[i].id = ids[i];
        scored[i].score =
            tensor::Dot(queries.row_data(q), embeddings.row_data(i), d);
      }
      std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                        [](const retrieval::ScoredEntity& a,
                           const retrieval::ScoredEntity& b) {
                          if (a.score != b.score) return a.score > b.score;
                          return a.id < b.id;
                        });
      g_sink += scored[0].score;
    }
  });
  t.batch_serial_ms = BestOfMs(3, [&] {
    auto hits = index.BatchTopK(queries, k, nullptr);
    g_sink += hits[0][0].score;
  });
  t.batch_pooled_ms = BestOfMs(3, [&] {
    auto hits = index.BatchTopK(queries, k, pool);
    g_sink += hits[0][0].score;
  });
  return t;
}

// ---- Section 4: tanh -------------------------------------------------------

struct TanhTimes {
  double std_ns = 0.0;
  double scalar_ns = 0.0;
  double avx2_ns = -1.0;  // < 0: no AVX2 body on this CPU
};

// ns/element of one in-place pass over N(0, 1.5) pre-activations (the
// spread of the rerank MLP's hidden units), best of 20; the input is
// restored before each pass.
TanhTimes BenchTanh() {
  constexpr std::size_t kN = 1 << 16;
  util::Rng rng(404);
  std::vector<float> input(kN);
  for (float& v : input) v = static_cast<float>(1.5 * rng.NextGaussian());
  std::vector<float> work(kN);
  const auto ns_per_elem = [&](auto&& pass) {
    double best = 1e100;
    for (int r = 0; r < 20; ++r) {
      work = input;
      const auto t0 = bench::Clock::now();
      pass(work.data(), kN);
      best = std::min(best, bench::MsSince(t0));
      g_sink += work[r];
    }
    return best * 1e6 / static_cast<double>(kN);
  };
  TanhTimes t;
  t.std_ns = ns_per_elem([](float* x, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
  });
  t.scalar_ns = ns_per_elem(tensor::TanhScalar);
  if (tensor::TanhUsesSimd()) t.avx2_ns = ns_per_elem(tensor::TanhAvx2);
  return t;
}

// ---- Section 5: mention featurization ------------------------------------

// FeatureHasher::AppendHashedTokens as it was before it streamed its
// features: one std::string per bigram and per padded token, each hashed
// with text::HashBytes and reduced with %. The gate's reference.
void ReferenceAppendHashed(const text::FeatureHasherOptions& o,
                           const std::vector<std::string>& tokens,
                           std::uint64_t field_seed,
                           std::vector<std::uint32_t>* out) {
  auto emit = [&](std::string_view data, std::uint64_t sub_seed) {
    out->push_back(static_cast<std::uint32_t>(
        text::HashBytes(data, field_seed * 1315423911ULL + sub_seed) %
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
}

// Featurizer::MentionBagInto as it was: tokenize each field, then hash.
void ReferenceMentionBag(const text::FeatureHasherOptions& o,
                         const data::LinkingExample& ex,
                         std::vector<std::uint32_t>* out) {
  const text::Tokenizer tok;
  out->clear();
  ReferenceAppendHashed(o, tok.Tokenize(ex.mention), model::kFieldMention,
                        out);
  ReferenceAppendHashed(o, tok.Tokenize(ex.left_context),
                        model::kFieldContext, out);
  ReferenceAppendHashed(o, tok.Tokenize(ex.right_context),
                        model::kFieldContext, out);
}

// The corpus both serving rows read: perfbench's generator settings.
data::Corpus ServingCorpus() {
  data::GeneratorOptions opts;
  opts.seed = 505;
  opts.shared_vocab_size = 600;
  opts.domain_vocab_size = 300;
  data::ZeshelLikeGenerator gen(opts);
  const std::vector<data::DomainSpec> specs = {
      {.name = "d", .num_entities = 512, .num_examples = 512,
       .num_documents = 128}};
  return std::move(*gen.Generate(specs));
}

struct FeaturizeTimes {
  double library_ns = 0.0;    // Featurizer::MentionBagInto, ns per bag
  double reference_ns = 0.0;  // ReferenceMentionBag, ns per bag
  bool identical = false;
};

FeaturizeTimes BenchFeaturize(const data::Corpus& corpus, int reps) {
  model::FeatureConfig config;
  config.hasher.num_buckets = 16384;
  const model::Featurizer featurizer(config);
  const auto& examples = corpus.ExamplesIn("d");
  FeaturizeTimes t;
  std::vector<std::uint32_t> got, want;
  t.identical = true;
  for (const auto& ex : examples) {
    featurizer.MentionBagInto(ex, &got);
    ReferenceMentionBag(config.hasher, ex, &want);
    t.identical = t.identical && got == want;
  }
  const double n = static_cast<double>(examples.size());
  t.library_ns = BestOfMs(reps, [&] {
                   for (const auto& ex : examples) {
                     featurizer.MentionBagInto(ex, &got);
                     g_sink += got.size();
                   }
                 }) * 1e6 / n;
  t.reference_ns = BestOfMs(reps, [&] {
                     for (const auto& ex : examples) {
                       ReferenceMentionBag(config.hasher, ex, &want);
                       g_sink += want.size();
                     }
                   }) * 1e6 / n;
  return t;
}

// ---- Section 6: cross-encoder block rerank ----------------------------------

struct RerankTimes {
  double block_us_per_pair = 0.0;  // ScoreCachedInference, 64 candidates
  double tape_us_per_pair = 0.0;   // CrossEncoder::Score (the reference)
  bool identical = false;
};

// perfbench's cross-encoder shape (dim 64, hidden 64, 2^14 buckets), each
// request scoring 64 cached candidates, as the server's full rerank does.
RerankTimes BenchRerankBlock(const data::Corpus& corpus, int reps,
                             std::size_t requests) {
  constexpr std::size_t kCandidates = 64;
  model::CrossEncoderConfig config;
  config.features.hasher.num_buckets = 16384;
  config.dim = 64;
  config.hidden = 64;
  util::Rng rng(606);
  const model::CrossEncoder cross(config, &rng);
  const auto& ids = corpus.kb.EntitiesInDomain("d");
  std::vector<kb::Entity> entities;
  for (kb::EntityId id : ids) entities.push_back(corpus.kb.entity(id));
  model::CrossEntityCache cache;
  cross.PrecomputeEntities(entities, &cache);
  const auto& examples = corpus.ExamplesIn("d");
  requests = std::min(requests, examples.size());
  // Request q's candidates: a fixed stride through the entity rows.
  std::vector<std::vector<std::size_t>> rows(requests);
  for (std::size_t q = 0; q < requests; ++q) {
    for (std::size_t c = 0; c < kCandidates; ++c) {
      rows[q].push_back((q * 131 + c * 7) % entities.size());
    }
  }
  model::CrossScoreScratch scratch;
  std::vector<float> scores;
  RerankTimes t;
  t.identical = true;
  std::vector<kb::Entity> candidates;
  double tape_ms = 0.0;
  for (std::size_t q = 0; q < requests; ++q) {
    candidates.clear();
    for (std::size_t r : rows[q]) candidates.push_back(entities[r]);
    const auto t0 = bench::Clock::now();
    const std::vector<float> tape = cross.Score(examples[q], candidates);
    tape_ms += bench::MsSince(t0);
    cross.ScoreCachedInference(examples[q], rows[q], cache, &scratch,
                               &scores);
    t.identical = t.identical && tape == scores;
  }
  const double pairs = static_cast<double>(requests * kCandidates);
  t.tape_us_per_pair = tape_ms * 1e3 / pairs;
  t.block_us_per_pair = BestOfMs(reps, [&] {
                          for (std::size_t q = 0; q < requests; ++q) {
                            cross.ScoreCachedInference(examples[q], rows[q],
                                                       cache, &scratch,
                                                       &scores);
                            g_sink += scores[0];
                          }
                        }) * 1e3 / pairs;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int path_arg = smoke ? 2 : 1;
  const std::string out_path =
      argc > path_arg ? argv[path_arg] : "BENCH_perf_substrate.json";
  util::ThreadPool pool(8);

  std::printf("=== Performance substrate benchmark%s ===\n\n",
              smoke ? " (smoke)" : "");

  GemmTimes gemm;
  double reference_ms = 0.0, jvp_ms = 0.0, jvp_pool_ms = 0.0;
  double meta_speedup = 0.0;
  TopKTimes topk;
  TanhTimes tanh_t;
  if (!smoke) {
    gemm = BenchGemm(&pool);
    std::printf("[gemm 384x384x384]\n");
    std::printf("  naive triple loop   %8.2f ms\n", gemm.naive_ms);
    std::printf("  blocked kernel      %8.2f ms  (%.2fx vs naive)\n",
                gemm.kernel_ms, gemm.naive_ms / gemm.kernel_ms);
    std::printf("  blocked + pool(8)   %8.2f ms  (%.2fx vs naive)\n\n",
                gemm.pooled_ms, gemm.naive_ms / gemm.pooled_ms);

    util::Rng model_rng(9);
    MetaBench meta(&model_rng);
    reference_ms = meta.TimeStep(train::MetaGrad::kPerExample, nullptr);
    jvp_ms = meta.TimeStep(train::MetaGrad::kJvp, nullptr);
    jvp_pool_ms = meta.TimeStep(train::MetaGrad::kJvp, &pool);
    meta_speedup = reference_ms / jvp_ms;
    std::printf("[meta step, n=64 synthetic / m=16 seed, dim=64]\n");
    std::printf("  per-example reference (serial)        %8.2f ms\n",
                reference_ms);
    std::printf("  JVP (serial, as Fit runs)             %8.2f ms  (%.2fx)\n",
                jvp_ms, meta_speedup);
    std::printf("  JVP + pool(8)                         %8.2f ms  (%.2fx)\n",
                jvp_pool_ms, reference_ms / jvp_pool_ms);
    bench::Gate(meta_speedup >= 3.0, "meta step: reference / JVP serial >= 3x");
    std::printf("\n");

    topk = BenchTopK(&pool);
    std::printf("[retrieval, 128 queries x 20000 entities x d=128, k=64]\n");
    std::printf("  old per-query alloc + partial_sort    %8.2f ms\n",
                topk.old_style_ms);
    std::printf("  blocked BatchTopK (serial)            %8.2f ms  (%.2fx)\n",
                topk.batch_serial_ms,
                topk.old_style_ms / topk.batch_serial_ms);
    std::printf("  blocked BatchTopK + pool(8)           %8.2f ms  (%.2fx)\n\n",
                topk.batch_pooled_ms,
                topk.old_style_ms / topk.batch_pooled_ms);

    tanh_t = BenchTanh();
    std::printf("[tanh, 65536 elements ~ N(0, 1.5), in place]\n");
    std::printf("  std::tanh (libm)                      %8.2f ns/elem\n",
                tanh_t.std_ns);
    std::printf("  tensor::Tanh scalar body              %8.2f ns/elem\n",
                tanh_t.scalar_ns);
    if (tanh_t.avx2_ns >= 0.0) {
      std::printf("  tensor::Tanh AVX2 body                %8.2f ns/elem  "
                  "(%.2fx vs std::tanh)\n\n",
                  tanh_t.avx2_ns, tanh_t.std_ns / tanh_t.avx2_ns);
    } else {
      std::printf("  tensor::Tanh AVX2 body                (no AVX2)\n\n");
    }
  }

  const data::Corpus corpus = ServingCorpus();
  const FeaturizeTimes feat = BenchFeaturize(corpus, smoke ? 2 : 20);
  std::printf("[featurize, 512 mention bags, 2^14 buckets]\n");
  std::printf("  Featurizer::MentionBagInto            %8.0f ns/bag\n",
              feat.library_ns);
  std::printf("  string-building reference             %8.0f ns/bag  "
              "(%.2fx)\n",
              feat.reference_ns, feat.reference_ns / feat.library_ns);
  bench::Gate(feat.identical, "featurize: every bag equals the reference's");
  std::printf("\n");

  const RerankTimes rerank =
      BenchRerankBlock(corpus, smoke ? 2 : 20, smoke ? 32 : 256);
  std::printf("[rerank block, 64 cached candidates, dim 64 / hidden 64]\n");
  std::printf("  ScoreCachedInference                  %8.3f us/pair\n",
              rerank.block_us_per_pair);
  std::printf("  tape Score (the reference)            %8.3f us/pair\n",
              rerank.tape_us_per_pair);
  bench::Gate(rerank.identical,
              "rerank block: every score equals the tape's bit for bit");
  std::printf("\n");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteHostJson(
      f, util::StrFormat(", \"gemm_row_chain\": \"%s\", "
                         "\"adam_row\": \"%s\", \"tanh\": \"%s\"",
                         tensor::GemmRowChainUsesSimd() ? "avx2" : "scalar",
                         tensor::AdamRowUsesSimd() ? "avx2" : "scalar",
                         tensor::TanhUsesSimd() ? "avx2" : "scalar"));
  if (!smoke) {
    std::fprintf(f,
                 "  \"gemm_384\": {\"naive_ms\": %.3f, \"kernel_ms\": %.3f, "
                 "\"pooled_ms\": %.3f},\n",
                 gemm.naive_ms, gemm.kernel_ms, gemm.pooled_ms);
    std::fprintf(
        f,
        "  \"meta_step\": {\"per_example_ms\": %.3f, \"jvp_ms\": %.3f, "
        "\"jvp_pool8_ms\": %.3f, \"speedup_jvp_vs_per_example\": %.2f, "
        "\"meets_3x\": %s},\n",
        reference_ms, jvp_ms, jvp_pool_ms, meta_speedup,
        meta_speedup >= 3.0 ? "true" : "false");
    std::fprintf(f,
                 "  \"batch_topk\": {\"old_style_ms\": %.3f, "
                 "\"batch_serial_ms\": %.3f, \"batch_pool8_ms\": %.3f, "
                 "\"speedup_serial\": %.2f},\n",
                 topk.old_style_ms, topk.batch_serial_ms,
                 topk.batch_pooled_ms,
                 topk.old_style_ms / topk.batch_serial_ms);
    std::fprintf(f,
                 "  \"tanh\": {\"std_tanh_ns_per_elem\": %.2f, "
                 "\"scalar_ns_per_elem\": %.2f, \"avx2_ns_per_elem\": %s},\n",
                 tanh_t.std_ns, tanh_t.scalar_ns,
                 tanh_t.avx2_ns >= 0.0
                     ? util::StrFormat("%.2f", tanh_t.avx2_ns).c_str()
                     : "null");
  }
  std::fprintf(f,
               "  \"featurize_ns_per_bag\": {\"library\": %.1f, "
               "\"reference\": %.1f, \"identical\": %s},\n",
               feat.library_ns, feat.reference_ns,
               feat.identical ? "true" : "false");
  std::fprintf(f,
               "  \"rerank_block_us_per_pair\": {\"block\": %.4f, "
               "\"tape_reference\": %.4f, \"identical\": %s},\n",
               rerank.block_us_per_pair, rerank.tape_us_per_pair,
               rerank.identical ? "true" : "false");
  std::fprintf(f, "  \"checksum\": %.6f\n", g_sink);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return bench::GatesOk() ? 0 : 1;
}
