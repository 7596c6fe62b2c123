// Tests for the performance substrate: blocked GEMM kernels, parallel graph
// execution, sparsity-aware / parallel / JVP meta-gradients, and heap-based
// top-k retrieval. Golden rule throughout: every fast path must reproduce
// the serial reference (bit-exactly where the design guarantees it, within
// the ISSUE tolerances elsewhere).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <vector>

#include "data/generator.h"
#include "model/bi_encoder.h"
#include "retrieval/dense_index.h"
#include "tensor/grad_workspace.h"
#include "tensor/graph.h"
#include "tensor/kernels.h"
#include "tensor/parameter.h"
#include "tensor/tensor.h"
#include "train/meta_trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace metablink {
namespace {

using tensor::Tensor;

Tensor RandomTensor(std::size_t rows, std::size_t cols, util::Rng* rng) {
  Tensor t(rows, cols);
  for (float& v : t.data()) v = rng->NextFloat(-1.0f, 1.0f);
  return t;
}

// ---- Kernels ---------------------------------------------------------------

TEST(KernelsTest, GemmMatchesNaiveLoops) {
  util::Rng rng(5);
  const std::size_t n = 23, k = 37, m = 19;
  Tensor a = RandomTensor(n, k, &rng);
  Tensor b = RandomTensor(k, m, &rng);
  a.at(4, 7) = 0.0f;  // exercise the zero-skip path
  for (std::size_t c = 0; c < k; ++c) a.at(9, c) = 0.0f;

  Tensor expected(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      expected.at(i, j) = static_cast<float>(acc);
    }
  }

  Tensor out(n, m);
  tensor::Gemm(a, b, &out, nullptr);
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    EXPECT_NEAR(out.data()[i], expected.data()[i], 1e-4f) << "flat " << i;
  }
}

TEST(KernelsTest, TransposedGemmsMatchNaiveLoops) {
  util::Rng rng(6);
  const std::size_t n = 17, d = 33, m = 21;
  Tensor a = RandomTensor(n, d, &rng);
  Tensor b = RandomTensor(m, d, &rng);

  Tensor tb_out(n, m);
  tensor::GemmTransposeB(a, b, &tb_out, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        acc += static_cast<double>(a.at(i, c)) * b.at(j, c);
      }
      EXPECT_NEAR(tb_out.at(i, j), static_cast<float>(acc), 1e-4f);
    }
  }

  Tensor c = RandomTensor(n, m, &rng);
  Tensor ta_out(d, m);
  tensor::GemmTransposeA(a, c, &ta_out, nullptr);
  for (std::size_t p = 0; p < d; ++p) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<double>(a.at(i, p)) * c.at(i, j);
      }
      EXPECT_NEAR(ta_out.at(p, j), static_cast<float>(acc), 1e-4f);
    }
  }
}

TEST(KernelsTest, PooledGemmsAreBitIdenticalToSerial) {
  util::Rng rng(7);
  util::ThreadPool pool(4);
  const std::size_t n = 61, k = 47, m = 29;
  Tensor a = RandomTensor(n, k, &rng);
  Tensor b = RandomTensor(k, m, &rng);
  Tensor bt = RandomTensor(m, k, &rng);
  Tensor c = RandomTensor(n, m, &rng);

  Tensor serial(n, m), pooled(n, m);
  tensor::Gemm(a, b, &serial, nullptr);
  tensor::Gemm(a, b, &pooled, &pool);
  EXPECT_EQ(serial.data(), pooled.data());

  Tensor serial_tb(n, m), pooled_tb(n, m);
  tensor::GemmTransposeB(a, bt, &serial_tb, nullptr);
  tensor::GemmTransposeB(a, bt, &pooled_tb, &pool);
  EXPECT_EQ(serial_tb.data(), pooled_tb.data());

  Tensor serial_ta(k, m), pooled_ta(k, m);
  tensor::GemmTransposeA(a, c, &serial_ta, nullptr);
  tensor::GemmTransposeA(a, c, &pooled_ta, &pool);
  EXPECT_EQ(serial_ta.data(), pooled_ta.data());
}

// ---- Thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, NestedParallelForDegradesToSerialInsteadOfDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  // Before the fix this deadlocked: outer tasks occupied every worker while
  // their inner ParallelFor waited on tasks no free worker could run.
  pool.ParallelFor(4, [&](std::size_t) {
    EXPECT_TRUE(pool.OnWorkerThread());
    pool.ParallelFor(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(pool.OnWorkerThread());
}

TEST(ThreadPoolTest, ParallelForChunksCoversRangeWithDenseChunkIds) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<std::size_t> max_chunk{0};
  const std::size_t used = pool.ParallelForChunks(
      100, 7, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::size_t seen = max_chunk.load();
        while (chunk > seen && !max_chunk.compare_exchange_weak(seen, chunk)) {
        }
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, 7u);
  EXPECT_EQ(max_chunk.load() + 1, used);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- Shared fixtures for graph / meta tests --------------------------------

model::BiEncoderConfig SmallBiConfig() {
  model::BiEncoderConfig cfg;
  cfg.features.hasher.num_buckets = 1024;
  cfg.dim = 16;
  return cfg;
}

data::Corpus MakeCorpus(std::uint64_t seed) {
  data::GeneratorOptions opts;
  opts.seed = seed;
  opts.shared_vocab_size = 300;
  opts.domain_vocab_size = 150;
  data::ZeshelLikeGenerator gen(opts);
  std::vector<data::DomainSpec> specs(1);
  specs[0].name = "d";
  specs[0].num_entities = 60;
  specs[0].num_examples = 240;
  specs[0].num_documents = 60;
  return std::move(*gen.Generate(specs));
}

// ---- Parallel graph execution ---------------------------------------------

TEST(ParallelGraphTest, PooledForwardAndBackwardMatchSerial) {
  data::Corpus corpus = MakeCorpus(21);
  const auto& examples = corpus.ExamplesIn("d");
  std::vector<data::LinkingExample> batch(examples.begin(),
                                          examples.begin() + 24);

  struct Out {
    std::vector<float> values;
    std::vector<float> grads;
  };
  auto run = [&](util::ThreadPool* pool) {
    util::Rng rng(3);
    model::BiEncoder model(SmallBiConfig(), &rng);
    tensor::Graph g;
    g.SetPool(pool);
    tensor::Var losses = model.InBatchLoss(&g, batch, corpus.kb);
    model.params()->ZeroGrads();
    g.Backward(losses);
    return Out{g.value(losses).data(), model.params()->FlattenGrads()};
  };

  util::ThreadPool pool(4);
  const Out serial = run(nullptr);
  const Out pooled = run(&pool);
  ASSERT_EQ(serial.values.size(), pooled.values.size());
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    EXPECT_NEAR(serial.values[i], pooled.values[i], 1e-6f) << "value " << i;
  }
  ASSERT_EQ(serial.grads.size(), pooled.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    EXPECT_NEAR(serial.grads[i], pooled.grads[i], 1e-6f) << "grad " << i;
  }
}

TEST(ParallelGraphTest, SparsitySkipBackwardMatchesDenseTraversal) {
  data::Corpus corpus = MakeCorpus(22);
  const auto& examples = corpus.ExamplesIn("d");
  std::vector<data::LinkingExample> batch(examples.begin(),
                                          examples.begin() + 16);
  util::Rng rng(4);
  model::BiEncoder model(SmallBiConfig(), &rng);
  tensor::Graph g;
  tensor::Var losses = model.InBatchLoss(&g, batch, corpus.kb);

  std::vector<float> one_hot(batch.size(), 0.0f);
  one_hot[5] = 1.0f;

  model.params()->ZeroGrads();
  tensor::GradWorkspace dense_ws;
  dense_ws.set_sparsity_skip(false);
  g.BackwardWithSeed(losses, one_hot, &dense_ws);
  const std::vector<float> dense = model.params()->FlattenGrads();

  model.params()->ZeroGrads();
  tensor::GradWorkspace sparse_ws;  // skip enabled by default
  g.BackwardWithSeed(losses, one_hot, &sparse_ws);
  const std::vector<float> sparse = model.params()->FlattenGrads();

  // Skipped closures only ever add exact zeros, so this is equality, not a
  // tolerance comparison.
  EXPECT_EQ(dense, sparse);
}

TEST(ParallelGraphTest, JvpMatchesPerExampleBackwardDots) {
  data::Corpus corpus = MakeCorpus(24);
  const auto& examples = corpus.ExamplesIn("d");
  std::vector<data::LinkingExample> batch(examples.begin(),
                                          examples.begin() + 16);
  util::Rng rng(7);
  model::BiEncoder model(SmallBiConfig(), &rng);
  tensor::Graph g;
  tensor::Var losses = model.InBatchLoss(&g, batch, corpus.kb);

  // Load a deterministic direction into Parameter::grad — the state the
  // meta trainer leaves after the seed-batch backward (g_meta).
  model.params()->ZeroGrads();
  util::Rng dir_rng(8);
  for (const auto& p : model.params()->parameters()) {
    for (std::size_t r = 0; r < p->grad.rows(); ++r) {
      for (std::size_t c = 0; c < p->grad.cols(); ++c) {
        p->grad.at(r, c) = dir_rng.NextFloat(-0.05f, 0.05f);
      }
      p->TouchRow(static_cast<std::uint32_t>(r));
    }
  }
  const std::vector<float> direction = model.params()->FlattenGrads();

  const Tensor tangent = g.Jvp(losses);
  ASSERT_EQ(tangent.rows(), batch.size());

  std::vector<float> one_hot(batch.size(), 0.0f);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    one_hot[j] = 1.0f;
    model.params()->ZeroGrads();
    tensor::GradWorkspace ws;
    g.BackwardWithSeed(losses, one_hot, &ws);
    one_hot[j] = 0.0f;
    const double reverse = model.params()->GradDot(direction);
    EXPECT_NEAR(tangent.at(j, 0), reverse, 1e-4 * (1.0 + std::abs(reverse)))
        << "example " << j;
  }
}

// ---- Meta step golden weights ---------------------------------------------

TEST(MetaStepTest, ParallelAndJvpWeightsMatchSerial) {
  data::Corpus corpus = MakeCorpus(25);
  const auto& examples = corpus.ExamplesIn("d");
  std::vector<data::LinkingExample> syn(examples.begin(),
                                        examples.begin() + 24);
  std::vector<data::LinkingExample> seed(examples.begin() + 24,
                                         examples.begin() + 32);

  util::Rng rng(9);
  model::BiEncoder model(SmallBiConfig(), &rng);
  model::BiEncoder* m = &model;
  const kb::KnowledgeBase* kb = &corpus.kb;
  const std::vector<float> initial = model.params()->FlattenValues();

  util::ThreadPool pool(4);
  struct Stepped {
    std::vector<float> weights;
    std::vector<float> values;  // the model after the step
  };
  auto step = [&](train::MetaGrad mode, util::ThreadPool* p, Stepped* out) {
    ASSERT_TRUE(model.params()->LoadValues(initial).ok());
    train::MetaTrainOptions opts;
    opts.meta_grad = mode;
    opts.pool = p;
    train::MetaReweightTrainer meta(
        opts, model.params(),
        [m, kb](tensor::Graph* g,
                const std::vector<data::LinkingExample>& batch) {
          return m->InBatchLoss(g, batch, *kb);
        });
    auto w = meta.Step(syn, seed);
    ASSERT_TRUE(w.ok());
    out->weights = *w;
    out->values = model.params()->FlattenValues();
  };

  Stepped reference, jvp, jvp_pooled;
  ASSERT_NO_FATAL_FAILURE(
      step(train::MetaGrad::kPerExample, nullptr, &reference));
  ASSERT_NO_FATAL_FAILURE(step(train::MetaGrad::kJvp, nullptr, &jvp));
  ASSERT_NO_FATAL_FAILURE(step(train::MetaGrad::kJvp, &pool, &jvp_pooled));

  ASSERT_EQ(reference.weights.size(), syn.size());
  ASSERT_EQ(jvp.weights.size(), syn.size());
  for (std::size_t j = 0; j < syn.size(); ++j) {
    EXPECT_NEAR(reference.weights[j], jvp.weights[j], 1e-5f)
        << "example " << j;
  }
  // The pool only splits the graph ops' disjoint output rows, so a pooled
  // step is the serial one bit for bit: weights and the updated model.
  EXPECT_EQ(jvp_pooled.weights, jvp.weights);
  EXPECT_EQ(jvp_pooled.values, jvp.values);
}

// ---- Retrieval -------------------------------------------------------------

// The pre-heap implementation: materialize every score, partial_sort with
// the same (score desc, id asc) order the index promises.
std::vector<retrieval::ScoredEntity> ReferenceTopK(
    const Tensor& embeddings, const std::vector<kb::EntityId>& ids,
    const float* query, std::size_t k) {
  std::vector<retrieval::ScoredEntity> scored(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    scored[i].id = ids[i];
    scored[i].score =
        tensor::Dot(query, embeddings.row_data(i), embeddings.cols());
  }
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const retrieval::ScoredEntity& a,
                       const retrieval::ScoredEntity& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  scored.resize(k);
  return scored;
}

TEST(TopKTest, HeapSelectionMatchesPartialSortIncludingTies) {
  const std::size_t n = 700, d = 8;
  util::Rng rng(11);
  Tensor embeddings(n, d);
  std::vector<kb::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<kb::EntityId>(i + 1);
    // Coarse quantization forces plenty of exact score ties, exercising the
    // id tie-break in both implementations.
    for (std::size_t c = 0; c < d; ++c) {
      embeddings.at(i, c) = std::round(rng.NextFloat(-1.0f, 1.0f));
    }
  }
  retrieval::DenseIndex index;
  Tensor copy = embeddings;
  ASSERT_TRUE(index.Build(std::move(copy), ids).ok());

  util::Rng qrng(12);
  retrieval::TopKScratch scratch;
  std::vector<retrieval::ScoredEntity> got;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> query(d);
    for (float& v : query) v = std::round(qrng.NextFloat(-1.0f, 1.0f));
    for (std::size_t k : {std::size_t{1}, std::size_t{16}, std::size_t{64},
                          n, n + 5}) {
      const auto expected = ReferenceTopK(embeddings, ids, query.data(), k);
      index.TopKInto(query.data(), k, &scratch, &got);
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " rank " << i;
        EXPECT_EQ(got[i].score, expected[i].score)
            << "k=" << k << " rank " << i;
      }
    }
  }
}

TEST(TopKTest, BlockedBatchTopKMatchesSingleQueryPath) {
  const std::size_t n = 900, d = 12, nq = 37, k = 20;
  util::Rng rng(13);
  Tensor embeddings = RandomTensor(n, d, &rng);
  std::vector<kb::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<kb::EntityId>(i + 100);
  }
  retrieval::DenseIndex index;
  ASSERT_TRUE(index.Build(std::move(embeddings), ids).ok());

  Tensor queries = RandomTensor(nq, d, &rng);
  util::ThreadPool pool(4);
  const auto serial = index.BatchTopK(queries, k, nullptr);
  const auto pooled = index.BatchTopK(queries, k, &pool);
  ASSERT_EQ(serial.size(), nq);
  ASSERT_EQ(pooled.size(), nq);
  for (std::size_t q = 0; q < nq; ++q) {
    const auto single = index.TopK(queries.row_data(q), k);
    ASSERT_EQ(serial[q].size(), single.size());
    ASSERT_EQ(pooled[q].size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(serial[q][i].id, single[i].id) << "q=" << q << " rank " << i;
      EXPECT_EQ(serial[q][i].score, single[i].score)
          << "q=" << q << " rank " << i;
      EXPECT_EQ(pooled[q][i].id, single[i].id) << "q=" << q << " rank " << i;
      EXPECT_EQ(pooled[q][i].score, single[i].score)
          << "q=" << q << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace metablink
