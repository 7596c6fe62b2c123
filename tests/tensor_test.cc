#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tensor/graph.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"
#include "tensor/parameter.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace metablink::tensor {
namespace {

/// A float's bit pattern, so +0 and -0 (and NaN payloads) compare as
/// different values.
std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// ---- Tensor ----------------------------------------------------------------

TEST(TensorTest, ShapeAndIndexing) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.data()[5], 5.0f);
  EXPECT_EQ(t.Row(1)[2], 5.0f);
}

TEST(TensorTest, RowVectorAndZero) {
  Tensor t = Tensor::RowVector({1, 2, 3});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 3u);
  t.SetZero();
  EXPECT_EQ(t.Norm(), 0.0f);
}

TEST(TensorTest, DotAndAxpy) {
  float a[] = {1, 2, 3};
  float b[] = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 32.0f);
  Axpy(2.0f, a, b, 3);
  EXPECT_FLOAT_EQ(b[0], 6.0f);
  EXPECT_FLOAT_EQ(b[2], 12.0f);
}

// ---- GemmRowChain ----------------------------------------------------------

TEST(KernelTest, GemmRowChainMatchesGemmRawBitForBit) {
  // One GemmRaw over every row is the reference. The chain kernel must
  // reproduce each row bit for bit, both in one call and split at any
  // reduction index (the factored rerank splits at the mention block).
  RecordProperty("simd", GemmRowChainUsesSimd() ? "avx2" : "scalar");
  util::Rng rng(2024);
  constexpr std::size_t kRows = 3;
  for (std::size_t h : {1, 7, 8, 31, 32, 33, 64, 100}) {
    for (std::size_t k : {0, 1, 9, 70, 134}) {
      SCOPED_TRACE("h=" + std::to_string(h) + " k=" + std::to_string(k));
      std::vector<float> a(kRows * k), b(k * h), start(kRows * h, 0.0f);
      for (float& v : a) {
        const double u = rng.NextDouble();
        v = u < 0.2 ? 0.0f : u < 0.35 ? -0.0f : rng.NextFloat(-1.0f, 1.0f);
      }
      for (float& v : b) v = rng.NextFloat(-1.0f, 1.0f);
      // Row 0 starts from zero like a fresh GEMM; the others continue
      // arbitrary partial sums.
      for (std::size_t j = h; j < start.size(); ++j) {
        start[j] = rng.NextFloat(-1.0f, 1.0f);
      }
      std::vector<float> want = start;
      GemmRaw(a.data(), b.data(), want.data(), kRows, k, h);
      for (std::size_t i = 0; i < kRows; ++i) {
        const float* arow = a.data() + i * k;
        const float* want_row = want.data() + i * h;
        std::vector<float> whole(start.begin() + i * h,
                                 start.begin() + (i + 1) * h);
        GemmRowChain(arow, b.data(), whole.data(), k, h);
        for (std::size_t split : {std::size_t{0}, k / 3, k}) {
          std::vector<float> parts(start.begin() + i * h,
                                   start.begin() + (i + 1) * h);
          GemmRowChain(arow, b.data(), parts.data(), split, h);
          GemmRowChain(arow + split, b.data() + split * h, parts.data(),
                       k - split, h);
          for (std::size_t j = 0; j < h; ++j) {
            ASSERT_EQ(Bits(parts[j]), Bits(want_row[j]))
                << "row " << i << " col " << j << " split " << split;
          }
        }
        for (std::size_t j = 0; j < h; ++j) {
          ASSERT_EQ(Bits(whole[j]), Bits(want_row[j]))
              << "row " << i << " col " << j;
        }
      }
    }
  }
}

TEST(KernelTest, BagRowChainMatchesScalarLoopBitForBit) {
  // The reference is the per-id loop the gather replaced: one separately
  // rounded multiply and add per element, ids in bag order.
  RecordProperty("simd", BagRowChainUsesSimd() ? "avx2" : "scalar");
  util::Rng rng(77);
  constexpr std::size_t kTableRows = 50;
  const float alpha = 1.0f / 3.0f;  // not a power of two: the products round
  const std::vector<std::vector<std::uint32_t>> bags = {
      {}, {4}, {0, 49, 7, 7, 7, 12, 0}, {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}};
  for (std::size_t m : {1, 7, 8, 31, 32, 33, 64, 100}) {
    std::vector<float> table(kTableRows * m);
    for (float& v : table) v = rng.NextFloat(-1.0f, 1.0f);
    for (const auto& bag : bags) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   " bag=" + std::to_string(bag.size()));
      std::vector<float> start(m);
      for (float& v : start) v = rng.NextFloat(-1.0f, 1.0f);
      std::vector<float> want = start;
      for (std::uint32_t id : bag) {
        for (std::size_t j = 0; j < m; ++j) want[j] += alpha * table[id * m + j];
      }
      std::vector<float> got = start;
      BagRowChain(bag.data(), bag.size(), alpha, table.data(), got.data(), m);
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(Bits(got[j]), Bits(want[j])) << "col " << j;
      }
    }
  }
}

TEST(KernelTest, AxpyMatchesScalarLoopBitForBit) {
  RecordProperty("simd", AxpyUsesSimd() ? "avx2" : "scalar");
  util::Rng rng(78);
  const float alpha = -0.7f;
  for (std::size_t n : {0, 1, 7, 8, 31, 32, 33, 64, 100}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<float> x(n), y(n);
    for (float& v : x) v = rng.NextFloat(-1.0f, 1.0f);
    for (float& v : y) v = rng.NextFloat(-1.0f, 1.0f);
    std::vector<float> want = y;
    for (std::size_t i = 0; i < n; ++i) want[i] += alpha * x[i];
    std::vector<float> got = y;
    Axpy(alpha, x.data(), got.data(), n);
    // x == y is allowed (only a partial overlap is not).
    std::vector<float> want_self = y;
    for (std::size_t i = 0; i < n; ++i) want_self[i] += alpha * want_self[i];
    std::vector<float> self = y;
    Axpy(alpha, self.data(), self.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "elem " << i;
      ASSERT_EQ(Bits(self[i]), Bits(want_self[i])) << "elem " << i;
    }
  }
}

// The update AdamOptimizer::Step ran per element before AdamRow existed,
// verbatim: the reference both kernel bodies must reproduce bit for bit.
void ReferenceAdam(float lr, float beta1, float beta2, float eps, float wd,
                   float bc1, float bc2, const float* grad, float* val,
                   float* m, float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] + wd * val[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    val[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

// Gradient entries with exact zeros of both signs, as sparse backward
// passes leave them.
float RandomGrad(util::Rng* rng) {
  const double u = rng->NextDouble();
  return u < 0.1 ? 0.0f : u < 0.15 ? -0.0f : rng->NextFloat(-2.0f, 2.0f);
}

TEST(KernelTest, AdamRowMatchesScalarLoopBitForBit) {
  RecordProperty("simd", AdamRowUsesSimd() ? "avx2" : "scalar");
  util::Rng rng(79);
  constexpr float kLr = 0.01f, kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f;
  for (float wd : {0.0f, 0.05f}) {
    for (std::size_t n = 1; n <= 100; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n) + " wd=" + std::to_string(wd));
      std::vector<float> want_val(n), want_m(n, 0.0f), want_v(n, 0.0f);
      for (float& x : want_val) x = rng.NextFloat(-1.0f, 1.0f);
      std::vector<float> val = want_val, m = want_m, v = want_v;
      std::vector<float> grad(n);
      // Several steps, so the moments and the bias corrections move.
      for (int t = 1; t <= 4; ++t) {
        for (float& g : grad) g = RandomGrad(&rng);
        AdamStepParams p;
        p.lr = kLr;
        p.beta1 = kBeta1;
        p.beta2 = kBeta2;
        p.eps = kEps;
        p.weight_decay = wd;
        p.bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t));
        p.bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t));
        ReferenceAdam(kLr, kBeta1, kBeta2, kEps, wd, p.bc1, p.bc2,
                      grad.data(), want_val.data(), want_m.data(),
                      want_v.data(), n);
        AdamRow(p, grad.data(), val.data(), m.data(), v.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(val[i]), Bits(want_val[i])) << "t=" << t << " " << i;
          ASSERT_EQ(Bits(m[i]), Bits(want_m[i])) << "t=" << t << " " << i;
          ASSERT_EQ(Bits(v[i]), Bits(want_v[i])) << "t=" << t << " " << i;
        }
      }
    }
  }
}

TEST(OptimizerTest, AdamStepMatchesScalarLoopOnSparseAndDenseParameters) {
  // A row-sparse table whose rows are touched again across steps (and
  // twice within one) beside dense parameters, one of odd width so the
  // kernel's scalar tail runs. Step must equal the per-element reference
  // over the touched rows and the whole dense buffers, bit for bit.
  RecordProperty("simd", AdamRowUsesSimd() ? "avx2" : "scalar");
  constexpr float kLr = 0.02f, kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f;
  for (float wd : {0.0f, 0.01f}) {
    SCOPED_TRACE("wd=" + std::to_string(wd));
    util::Rng rng(80);
    ParameterStore store;
    Parameter* table = store.CreateEmbedding("table", 12, 37, 0.5f, &rng);
    Parameter* dense = store.CreateXavier("dense", 5, 19, &rng);
    Parameter* bias = store.Create("bias", 1, 64);
    AdamOptimizer opt(kLr, kBeta1, kBeta2, kEps, wd);
    std::vector<std::vector<float>> want_val, want_m, want_v;
    for (const auto& p : store.parameters()) {
      want_val.push_back(p->value.data());
      want_m.emplace_back(p->value.size(), 0.0f);
      want_v.emplace_back(p->value.size(), 0.0f);
    }
    const std::vector<std::vector<std::uint32_t>> touches = {
        {3, 7, 3}, {7, 0, 11}, {3}, {11, 7, 5, 7}};
    for (std::size_t t = 1; t <= touches.size(); ++t) {
      store.ZeroGrads();
      for (std::uint32_t row : touches[t - 1]) {
        for (std::size_t c = 0; c < table->grad.cols(); ++c) {
          table->grad.at(row, c) += RandomGrad(&rng);
        }
        table->TouchRow(row);
      }
      for (Parameter* p : {dense, bias}) {
        for (float& g : p->grad.data()) g = RandomGrad(&rng);
      }
      opt.Step(&store);

      const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t));
      for (std::size_t k = 0; k < store.parameters().size(); ++k) {
        const Parameter& p = *store.parameters()[k];
        const float* grad = p.grad.data().data();
        auto update = [&](std::size_t begin, std::size_t n) {
          ReferenceAdam(kLr, kBeta1, kBeta2, kEps, wd, bc1, bc2, grad + begin,
                        want_val[k].data() + begin, want_m[k].data() + begin,
                        want_v[k].data() + begin, n);
        };
        if (p.row_sparse_grad) {
          for (std::uint32_t row : p.touched_rows) {
            update(row * p.value.cols(), p.value.cols());
          }
        } else {
          update(0, p.value.size());
        }
        for (std::size_t i = 0; i < p.value.size(); ++i) {
          ASSERT_EQ(Bits(p.value.data()[i]), Bits(want_val[k][i]))
              << p.name << " step " << t << " elem " << i;
        }
      }
    }
  }
}

// ---- Tanh ------------------------------------------------------------------

// Tanh's probe set, in order: each branch boundary of fdlibm's tanhf and
// expm1f (the expm1 thresholds also at half their value, where +-2|x| meets
// them) with its neighbours and both signs, then every 257th bit pattern.
// Calls fn(inputs, n) one chunk at a time.
template <typename Fn>
void ForEachTanhProbe(Fn fn) {
  std::vector<float> chunk;
  auto push = [&chunk](std::uint32_t bits) {
    chunk.push_back(std::bit_cast<float>(bits));
    chunk.push_back(std::bit_cast<float>(bits ^ 0x80000000u));
  };
  for (std::uint32_t b : {0x24000000u, 0x33000000u, 0x3eb17218u, 0x3f800000u,
                          0x3f851592u, 0x4195b844u, 0x41b00000u}) {
    for (std::uint32_t base : {b, b - 0x00800000u}) {
      for (std::uint32_t near : {base - 1, base, base + 1}) push(near);
    }
  }
  // Where expm1's rounded k of 2|x| steps to 3, 23 and 57 (from below
  // and above), and where -2|x|'s steps to -3.
  for (float m : {2.5f, 22.5f, 56.5f}) {
    const std::uint32_t at =
        std::bit_cast<std::uint32_t>(m * 0.6931471805599453f / 2.0f);
    for (std::uint32_t near = at - 2; near <= at + 2; ++near) push(near);
  }
  // Zeros, denormals, the largest finite, infinities and NaNs.
  for (std::uint32_t bits : {0x00000000u, 0x00000001u, 0x00400000u,
                             0x007fffffu, 0x7f7fffffu, 0x7f800000u,
                             0x7f800001u, 0x7fc00000u, 0x7fffffffu}) {
    push(bits);
  }
  fn(chunk.data(), chunk.size());
  constexpr std::uint64_t kStride = 257;
  constexpr std::size_t kChunk = 1 << 16;
  chunk.resize(kChunk);
  std::size_t n = 0;
  for (std::uint64_t bits = 0; bits <= 0xffffffffu; bits += kStride) {
    chunk[n++] = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
    if (n == kChunk) {
      fn(chunk.data(), n);
      n = 0;
    }
  }
  fn(chunk.data(), n);
}

// FNV-1a over the outputs' bit patterns, every NaN as 0x7fc00000 so a
// host's NaN payload rules cannot move it.
struct OutputHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t count = 0;
  void Add(float v) {
    const std::uint32_t bits =
        std::isnan(v) ? 0x7fc00000u : std::bit_cast<std::uint32_t>(v);
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
    ++count;
  }
};

TEST(KernelTest, TanhMatchesFdlibmBitForBit) {
  // The scalar body's outputs over the probe set hash to what std::tanh
  // (glibc 2.36's fdlibm tanhf) gave on an x86-64 host, so this pins the
  // port without calling libm. The AVX2 body and the dispatched Tanh must
  // equal the scalar body bit for bit, NaN payloads included.
  RecordProperty("simd", TanhUsesSimd() ? "avx2" : "scalar");
  constexpr std::uint64_t kStdTanhHash = 0x950533d944e41982ull;
  constexpr std::size_t kProbes = 16712068;
  OutputHash hash;
  std::vector<float> scalar, avx2, dispatched;
  ForEachTanhProbe([&](const float* in, std::size_t n) {
    if (HasFatalFailure()) return;
    scalar.assign(in, in + n);
    TanhScalar(scalar.data(), n);
    for (float v : scalar) hash.Add(v);
    dispatched.assign(in, in + n);
    Tanh(dispatched.data(), n);
    if (TanhUsesSimd()) {
      avx2.assign(in, in + n);
      TanhAvx2(avx2.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(dispatched[i]), Bits(scalar[i])) << Bits(in[i]);
      if (TanhUsesSimd()) {
        ASSERT_EQ(Bits(avx2[i]), Bits(scalar[i])) << Bits(in[i]);
      }
    }
  });
  EXPECT_EQ(hash.count, kProbes);
  EXPECT_EQ(hash.h, kStdTanhHash);
}

// ---- ParameterStore --------------------------------------------------------

TEST(ParameterStoreTest, CreateAndFind) {
  ParameterStore store;
  Parameter* p = store.Create("w", 2, 3);
  EXPECT_EQ(store.Find("w"), p);
  EXPECT_EQ(store.Find("absent"), nullptr);
  EXPECT_EQ(store.TotalSize(), 6u);
}

TEST(ParameterStoreTest, XavierInitWithinBounds) {
  ParameterStore store;
  util::Rng rng(5);
  Parameter* p = store.CreateXavier("w", 10, 10, &rng);
  const float bound = std::sqrt(6.0f / 20.0f);
  bool nonzero = false;
  for (float v : p->value.data()) {
    EXPECT_LE(std::abs(v), bound);
    if (v != 0.0f) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST(ParameterStoreTest, FlattenAndLoadValuesRoundTrip) {
  ParameterStore store;
  util::Rng rng(5);
  store.CreateNormal("a", 3, 4, 1.0f, &rng);
  store.CreateNormal("b", 2, 2, 1.0f, &rng);
  auto flat = store.FlattenValues();
  EXPECT_EQ(flat.size(), 16u);
  std::vector<float> doubled = flat;
  for (float& v : doubled) v *= 2.0f;
  ASSERT_TRUE(store.LoadValues(doubled).ok());
  EXPECT_FLOAT_EQ(store.Find("a")->value.data()[0], flat[0] * 2.0f);
  EXPECT_FALSE(store.LoadValues({1.0f}).ok());  // wrong size
}

TEST(ParameterStoreTest, SaveLoadRoundTrip) {
  util::Rng rng(5);
  ParameterStore a;
  a.CreateNormal("w", 4, 4, 1.0f, &rng);
  util::BinaryWriter writer;
  a.Save(&writer);

  ParameterStore b;
  b.Create("w", 4, 4);
  util::BinaryReader reader(writer.buffer());
  ASSERT_TRUE(b.Load(&reader).ok());
  EXPECT_EQ(a.FlattenValues(), b.FlattenValues());
}

TEST(ParameterStoreTest, LoadRejectsShapeMismatch) {
  util::Rng rng(5);
  ParameterStore a;
  a.CreateNormal("w", 4, 4, 1.0f, &rng);
  a.CreateNormal("v", 4, 4, 1.0f, &rng);
  util::BinaryWriter writer;
  a.Save(&writer);

  ParameterStore b;
  b.Create("w", 4, 4);
  b.Create("v", 2, 2);
  const std::vector<float> before = b.FlattenValues();
  util::BinaryReader reader(writer.buffer());
  EXPECT_FALSE(b.Load(&reader).ok());
  // Nothing is written before the whole section checks out, not even "w".
  EXPECT_EQ(b.FlattenValues(), before);
}

TEST(ParameterStoreTest, SparseGradTrackingMatchesDense) {
  // A sparse-tracked table and a dense parameter must produce the same
  // ZeroGrads / GradDot semantics.
  util::Rng rng(7);
  ParameterStore store;
  Parameter* table = store.CreateEmbedding("t", 100, 4, 0.1f, &rng);

  Graph g;
  Var pooled = g.EmbeddingBagMean(table, {{3, 7}, {7, 50}});
  Var loss = g.Sum(pooled);
  store.ZeroGrads();
  g.Backward(loss);

  // Rows 3, 7, 50 touched; everything else zero.
  EXPECT_EQ(table->touched_rows.size(), 3u);
  std::vector<float> dense = store.FlattenGrads();
  double dense_dot = 0.0;
  for (float v : dense) dense_dot += static_cast<double>(v) * v;
  EXPECT_NEAR(store.GradDot(dense), dense_dot, 1e-6);

  store.ZeroGrads();
  EXPECT_TRUE(table->touched_rows.empty());
  for (float v : store.FlattenGrads()) EXPECT_EQ(v, 0.0f);
}

// ---- Gradient checks (finite differences) ----------------------------------

// Builds loss(params) via `forward`, then checks d loss / d params against
// central differences at a handful of coordinates.
void CheckGradients(ParameterStore* store,
                    const std::function<Var(Graph*)>& forward,
                    double tol = 2e-2) {
  Graph g;
  Var loss = forward(&g);
  ASSERT_EQ(g.value(loss).size(), 1u) << "loss must be scalar";
  store->ZeroGrads();
  g.Backward(loss);

  util::Rng rng(99);
  for (const auto& p : store->parameters()) {
    for (int probe = 0; probe < 5; ++probe) {
      const std::size_t i = rng.NextUint64(p->value.size());
      const float eps = 1e-3f;
      const float orig = p->value.data()[i];

      p->value.data()[i] = orig + eps;
      Graph gp;
      const float up = gp.value(forward(&gp)).at(0, 0);
      p->value.data()[i] = orig - eps;
      Graph gm;
      const float down = gm.value(forward(&gm)).at(0, 0);
      p->value.data()[i] = orig;

      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p->grad.data()[i];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0, std::abs(numeric)))
          << "param " << p->name << " index " << i;
    }
  }
}

TEST(GradCheckTest, MatMulChain) {
  util::Rng rng(1);
  ParameterStore store;
  Parameter* w = store.CreateXavier("w", 4, 3, &rng);
  Parameter* b = store.CreateNormal("b", 1, 3, 0.5f, &rng);
  Tensor x(2, 4);
  for (float& v : x.data()) v = rng.NextFloat(-1, 1);
  CheckGradients(&store, [&](Graph* g) {
    Var input = g->Input(x);
    Var h = g->AddBiasRow(g->MatMul(input, g->Param(w)), g->Param(b));
    return g->Mean(g->Tanh(h));
  });
}

TEST(GradCheckTest, MatMulBothSidesAreParams) {
  util::Rng rng(2);
  ParameterStore store;
  Parameter* a = store.CreateNormal("a", 3, 4, 0.5f, &rng);
  Parameter* b = store.CreateNormal("b", 4, 2, 0.5f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    return g->Mean(g->MatMul(g->Param(a), g->Param(b)));
  });
}

TEST(GradCheckTest, MatMulTransposeB) {
  util::Rng rng(3);
  ParameterStore store;
  Parameter* a = store.CreateNormal("a", 3, 4, 0.5f, &rng);
  Parameter* b = store.CreateNormal("b", 5, 4, 0.5f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    return g->Mean(g->Tanh(g->MatMulTransposeB(g->Param(a), g->Param(b))));
  });
}

TEST(GradCheckTest, EmbeddingBagMean) {
  util::Rng rng(4);
  ParameterStore store;
  Parameter* table = store.CreateNormal("t", 10, 3, 0.5f, &rng);
  std::vector<std::vector<std::uint32_t>> bags = {{0, 1, 1}, {5}, {}};
  CheckGradients(&store, [&](Graph* g) {
    return g->Mean(g->Tanh(g->EmbeddingBagMean(table, bags)));
  });
}

TEST(GradCheckTest, TanhAndScale) {
  util::Rng rng(5);
  ParameterStore store;
  Parameter* w = store.CreateNormal("w", 2, 6, 0.8f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    return g->Mean(g->Tanh(g->Scale(g->Param(w), 1.7f)));
  });
}

TEST(GradCheckTest, AddMul) {
  util::Rng rng(6);
  ParameterStore store;
  Parameter* a = store.CreateNormal("a", 2, 3, 0.5f, &rng);
  Parameter* b = store.CreateNormal("b", 2, 3, 0.5f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    Var va = g->Param(a), vb = g->Param(b);
    return g->Mean(g->Mul(g->Add(va, vb), g->Tanh(va)));
  });
}

TEST(GradCheckTest, RowL2Normalize) {
  util::Rng rng(7);
  ParameterStore store;
  Parameter* w = store.CreateNormal("w", 3, 4, 1.0f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    Var y = g->RowL2Normalize(g->Param(w));
    // A non-symmetric readout so the Jacobian is exercised off-diagonal.
    Tensor mask(3, 4);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask.data()[i] = static_cast<float>(i % 3) - 1.0f;
    }
    return g->Mean(g->Mul(y, g->Input(mask)));
  });
}

TEST(GradCheckTest, ConcatColsAndRowsAndReshape) {
  util::Rng rng(8);
  ParameterStore store;
  Parameter* a = store.CreateNormal("a", 2, 3, 0.5f, &rng);
  Parameter* b = store.CreateNormal("b", 2, 2, 0.5f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    Var cat = g->ConcatCols(g->Param(a), g->Param(b));  // [2,5]
    Var reshaped = g->Reshape(cat, 1, 10);
    Var stacked = g->ConcatRows({reshaped, reshaped});  // [2,10]
    return g->Mean(g->Tanh(stacked));
  });
}

TEST(GradCheckTest, BroadcastRow) {
  util::Rng rng(12);
  ParameterStore store;
  Parameter* w = store.CreateNormal("w", 1, 4, 0.5f, &rng);
  Tensor mask(3, 4);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = static_cast<float>((i * 7) % 5) - 2.0f;
  }
  CheckGradients(&store, [&](Graph* g) {
    Var rows = g->BroadcastRow(g->Param(w), 3);
    return g->Mean(g->Mul(g->Tanh(rows), g->Input(mask)));
  });
}

TEST(GradCheckTest, SoftmaxCrossEntropy) {
  util::Rng rng(10);
  ParameterStore store;
  Parameter* logits = store.CreateNormal("l", 3, 5, 1.0f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    return g->Mean(g->SoftmaxCrossEntropy(g->Param(logits), {0, 3, 4}));
  });
}

TEST(GradCheckTest, Sum) {
  util::Rng rng(11);
  ParameterStore store;
  Parameter* w = store.CreateNormal("w", 4, 1, 1.0f, &rng);
  CheckGradients(&store, [&](Graph* g) {
    return g->Sum(g->Tanh(g->Param(w)));
  });
}

// ---- Forward values --------------------------------------------------------

TEST(GraphTest, SoftmaxCrossEntropyValue) {
  Graph g;
  Tensor logits(1, 2);
  logits.at(0, 0) = 0.0f;
  logits.at(0, 1) = 0.0f;
  Var loss = g.SoftmaxCrossEntropy(g.Input(logits), {0});
  EXPECT_NEAR(g.value(loss).at(0, 0), std::log(2.0), 1e-6);
}

TEST(GraphTest, RowL2NormalizeUnitRows) {
  Graph g;
  Tensor x(2, 3);
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  x.at(1, 2) = -2.0f;
  Var y = g.RowL2Normalize(g.Input(x));
  EXPECT_NEAR(g.value(y).at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(g.value(y).at(0, 1), 0.8f, 1e-6);
  EXPECT_NEAR(g.value(y).at(1, 2), -1.0f, 1e-6);
}

TEST(GraphTest, EmbeddingBagMeanEmptyBagIsZeroRow) {
  util::Rng rng(1);
  ParameterStore store;
  Parameter* table = store.CreateNormal("t", 4, 2, 1.0f, &rng);
  Graph g;
  Var v = g.EmbeddingBagMean(table, {{}, {1}});
  EXPECT_EQ(g.value(v).at(0, 0), 0.0f);
  EXPECT_EQ(g.value(v).at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(g.value(v).at(1, 0), table->value.at(1, 0));
}

TEST(GraphTest, RepeatedBackwardAccumulatesIntoParams) {
  util::Rng rng(2);
  ParameterStore store;
  Parameter* w = store.CreateNormal("w", 1, 2, 1.0f, &rng);
  Graph g;
  Var loss = g.Sum(g.Param(w));
  store.ZeroGrads();
  g.Backward(loss);
  EXPECT_FLOAT_EQ(w->grad.at(0, 0), 1.0f);
  // A second backward over the same tape without reset doubles node grads.
  g.ResetGrads();
  g.Backward(loss);
  EXPECT_FLOAT_EQ(w->grad.at(0, 0), 2.0f);  // param grads accumulate
  store.ZeroGrads();
  g.ResetGrads();
  g.Backward(loss);
  EXPECT_FLOAT_EQ(w->grad.at(0, 0), 1.0f);
}

TEST(GraphTest, OneHotSeedGivesPerRowGradient) {
  util::Rng rng(3);
  ParameterStore store;
  Parameter* table = store.CreateNormal("t", 6, 2, 1.0f, &rng);
  Graph g;
  Var pooled = g.EmbeddingBagMean(table, {{0}, {1}});
  Var sq = g.Mul(pooled, pooled);  // [2,2]
  // Backward only row 1: row 0's bag (id 0) must receive no gradient.
  store.ZeroGrads();
  g.ResetGrads();
  g.BackwardWithSeed(sq, {0.0f, 0.0f, 1.0f, 1.0f});
  EXPECT_EQ(table->grad.at(0, 0), 0.0f);
  EXPECT_NE(table->grad.at(1, 0), 0.0f);
}

// ---- Optimizers ------------------------------------------------------------

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1);
  w->value.at(0, 0) = 5.0f;
  SgdOptimizer opt(0.1f);
  for (int i = 0; i < 200; ++i) {
    store.ZeroGrads();
    w->grad.at(0, 0) = 2.0f * w->value.at(0, 0);  // d/dw w^2
    opt.Step(&store);
  }
  EXPECT_NEAR(w->value.at(0, 0), 0.0f, 1e-4);
}

TEST(OptimizerTest, SgdMomentumConverges) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 1);
  w->value.at(0, 0) = 5.0f;
  SgdOptimizer opt(0.05f, /*momentum=*/0.9f);
  for (int i = 0; i < 300; ++i) {
    store.ZeroGrads();
    w->grad.at(0, 0) = 2.0f * w->value.at(0, 0);
    opt.Step(&store);
  }
  EXPECT_NEAR(w->value.at(0, 0), 0.0f, 1e-3);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 2);
  w->value.at(0, 0) = 3.0f;
  w->value.at(0, 1) = -4.0f;
  AdamOptimizer opt(0.1f);
  for (int i = 0; i < 500; ++i) {
    store.ZeroGrads();
    w->grad.at(0, 0) = 2.0f * w->value.at(0, 0);
    w->grad.at(0, 1) = 2.0f * w->value.at(0, 1);
    opt.Step(&store);
  }
  EXPECT_NEAR(w->value.at(0, 0), 0.0f, 1e-3);
  EXPECT_NEAR(w->value.at(0, 1), 0.0f, 1e-3);
  EXPECT_EQ(opt.step_count(), 500);
}

TEST(OptimizerTest, LearningRateMutable) {
  AdamOptimizer opt(0.1f);
  opt.set_learning_rate(0.5f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.5f);
}

TEST(OptimizerTest, LazyAdamOnlyUpdatesTouchedRows) {
  util::Rng rng(4);
  ParameterStore store;
  Parameter* table = store.CreateEmbedding("t", 8, 2, 0.5f, &rng);
  const float untouched_before = table->value.at(5, 0);
  AdamOptimizer opt(0.1f);
  store.ZeroGrads();
  // Touch only row 2.
  Graph g;
  Var loss = g.Sum(g.EmbeddingBagMean(table, {{2}}));
  g.Backward(loss);
  const float touched_before = table->value.at(2, 0);
  opt.Step(&store);
  EXPECT_EQ(table->value.at(5, 0), untouched_before);
  EXPECT_NE(table->value.at(2, 0), touched_before);
}

}  // namespace
}  // namespace metablink::tensor
