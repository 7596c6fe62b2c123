#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/graph_lint.h"
#include "analysis/write_set.h"
#include "data/generator.h"
#include "model/bi_encoder.h"
#include "tensor/graph.h"
#include "tensor/parameter.h"
#include "train/meta_trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace metablink::analysis {
namespace {

using tensor::OpKind;
using tensor::TapeOp;

// Forged-tape helper. GraphLint tests seed defects directly in TapeOp
// vectors because the Graph op builders METABLINK_CHECK-abort on the very
// mistakes the linter exists to describe.
TapeOp Op(OpKind kind, std::int32_t id, std::size_t rows, std::size_t cols,
          std::vector<std::int32_t> inputs = {},
          const tensor::Parameter* param = nullptr) {
  TapeOp op;
  op.kind = kind;
  op.id = id;
  op.rows = rows;
  op.cols = cols;
  op.inputs = std::move(inputs);
  op.param = param;
  return op;
}

// A minimal well-formed tape: loss = Mean(MatMul(input, param)).
std::vector<TapeOp> CleanTape(const tensor::Parameter* w) {
  return {
      Op(OpKind::kInput, 0, 4, 8),
      Op(OpKind::kParam, 1, 8, 2, {}, w),
      Op(OpKind::kMatMul, 2, 4, 2, {0, 1}),
      Op(OpKind::kMean, 3, 1, 1, {2}),
  };
}

// ---- GraphLint: seeded-defect fixtures, one per lint class -----------------

TEST(GraphLintTest, CleanTapeHasNoErrorsOrWarnings) {
  tensor::Parameter w("w", 8, 2);
  LintReport report = LintTape(CleanTape(&w), 3);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.warnings, 0u);
  EXPECT_EQ(report.num_nodes, 4u);
  // The accounting info finding is always present.
  EXPECT_TRUE(report.Has(LintClass::kMemoryBudget));
  EXPECT_EQ(report.tape_bytes, (4 * 8 + 8 * 2 + 4 * 2 + 1) * sizeof(float));
}

TEST(GraphLintTest, FlagsForwardAndSelfReferences) {
  tensor::Parameter w("w", 8, 2);
  std::vector<TapeOp> tape = CleanTape(&w);
  tape[2].inputs = {0, 3};  // forward reference into the future
  LintReport report = LintTape(tape, 3);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(LintClass::kTapeStructure));

  tape = CleanTape(&w);
  tape[2].inputs = {0, 2};  // self reference
  report = LintTape(tape, 3);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(LintClass::kTapeStructure));
}

TEST(GraphLintTest, FlagsOutOfRangeInputAndWrongArity) {
  tensor::Parameter w("w", 8, 2);
  std::vector<TapeOp> tape = CleanTape(&w);
  tape[2].inputs = {0, 99};  // id outside the tape
  EXPECT_TRUE(LintTape(tape, 3).Has(LintClass::kTapeStructure));

  tape = CleanTape(&w);
  tape[2].inputs = {0};  // MatMul with one input
  EXPECT_TRUE(LintTape(tape, 3).Has(LintClass::kTapeStructure));
}

TEST(GraphLintTest, FlagsBadRoot) {
  tensor::Parameter w("w", 8, 2);
  LintReport report = LintTape(CleanTape(&w), 42);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(LintClass::kTapeStructure));
  EXPECT_FALSE(LintTape(CleanTape(&w), -1).ok());
}

TEST(GraphLintTest, FlagsMatMulInnerDimensionMismatch) {
  tensor::Parameter w("w", 5, 2);  // input is [4,8]; 8 != 5
  std::vector<TapeOp> tape = CleanTape(&w);
  tape[1].rows = 5;
  LintReport report = LintTape(tape, 3);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.Has(LintClass::kShapeMismatch));
  for (const LintFinding& f : report.findings) {
    if (f.lint_class != LintClass::kShapeMismatch) continue;
    EXPECT_EQ(f.node, 2);
    EXPECT_EQ(f.op, "MatMul");
    EXPECT_EQ(f.severity, Severity::kError);
  }
}

TEST(GraphLintTest, FlagsWrongRecordedOutputShape) {
  tensor::Parameter w("w", 8, 2);
  std::vector<TapeOp> tape = CleanTape(&w);
  tape[2].cols = 7;  // MatMul output should be [4,2]
  EXPECT_TRUE(LintTape(tape, 3).Has(LintClass::kShapeMismatch));
}

TEST(GraphLintTest, FlagsDetachedNodeAsDead) {
  tensor::Parameter w("w", 8, 2);
  std::vector<TapeOp> tape = CleanTape(&w);
  // A computed-but-unused branch: Tanh of the input, never consumed.
  tape.push_back(Op(OpKind::kTanh, 4, 4, 8, {0}));
  LintReport report = LintTape(tape, 3);
  EXPECT_TRUE(report.ok());  // dead code is a warning, not an error
  ASSERT_TRUE(report.Has(LintClass::kDeadNode));
  for (const LintFinding& f : report.findings) {
    if (f.lint_class != LintClass::kDeadNode) continue;
    EXPECT_EQ(f.node, 4);
    EXPECT_EQ(f.severity, Severity::kWarning);
  }
  EXPECT_FALSE(report.Has(LintClass::kFrozenParameter));
}

TEST(GraphLintTest, FlagsUnreachedParameterAsFrozen) {
  tensor::Parameter w("w", 8, 2);
  tensor::Parameter frozen("frozen_bias", 1, 2);
  std::vector<TapeOp> tape = CleanTape(&w);
  // The classic bug: the parameter is on the tape but nothing consumes it,
  // so it never receives gradient and silently stops training.
  tape.push_back(Op(OpKind::kParam, 4, 1, 2, {}, &frozen));
  LintReport report = LintTape(tape, 3);
  ASSERT_TRUE(report.Has(LintClass::kFrozenParameter));
  bool named = false;
  for (const LintFinding& f : report.findings) {
    if (f.lint_class != LintClass::kFrozenParameter) continue;
    EXPECT_EQ(f.node, 4);
    named = f.message.find("frozen_bias") != std::string::npos;
  }
  EXPECT_TRUE(named) << "finding should name the frozen parameter";
}

TEST(GraphLintTest, MemoryBudgetWarnsWhenExceeded) {
  tensor::Parameter w("w", 8, 2);
  GraphLintOptions options;
  options.memory_budget_bytes = 1;  // everything exceeds one byte
  LintReport report = LintTape(CleanTape(&w), 3, options);
  EXPECT_TRUE(report.ok());  // budget overrun is a warning
  EXPECT_EQ(report.warnings, 1u);
  EXPECT_TRUE(report.Has(LintClass::kMemoryBudget));

  options.memory_budget_bytes = 1u << 20;
  report = LintTape(CleanTape(&w), 3, options);
  EXPECT_EQ(report.warnings, 0u);
}

TEST(GraphLintTest, NonFiniteScanFlagsNaNValues) {
  // This class needs real node values, so it uses a live Graph.
  tensor::Tensor bad(2, 2);
  bad.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  tensor::Graph g;
  tensor::Var x = g.Input(std::move(bad));
  tensor::Var loss = g.Mean(g.Tanh(x));

  GraphLintOptions options;
  options.scan_non_finite = true;
  LintReport report = LintGraph(g, loss, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(LintClass::kNonFinite));

  // Without the opt-in scan the same graph lints clean.
  EXPECT_TRUE(LintGraph(g, loss).ok());
}

TEST(GraphLintTest, SummaryAndToStringNameTheDefect) {
  tensor::Parameter w("w", 5, 2);
  std::vector<TapeOp> tape = CleanTape(&w);
  tape[1].rows = 5;
  LintReport report = LintTape(tape, 3);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("error"), std::string::npos);
  EXPECT_NE(summary.find("MatMul"), std::string::npos);
  EXPECT_NE(summary.find("shape-mismatch"), std::string::npos);
}

// ---- DebugTape: the structural snapshot matches the built graph ------------

TEST(DebugTapeTest, RecordsKindsShapesEdgesAndParams) {
  tensor::ParameterStore store;
  tensor::Parameter* w = store.Create("w", 8, 4);
  tensor::Graph g;
  tensor::Var x = g.Input(tensor::Tensor(3, 8));
  tensor::Var wp = g.Param(w);
  tensor::Var h = g.MatMul(x, wp);
  tensor::Var loss = g.Mean(g.Tanh(h));

  const std::vector<TapeOp> tape = g.DebugTape();
  ASSERT_EQ(tape.size(), g.num_nodes());
  for (std::size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(tape[i].id, static_cast<std::int32_t>(i));
    ASSERT_NE(tape[i].value, nullptr);
    EXPECT_EQ(tape[i].rows, tape[i].value->rows());
    EXPECT_EQ(tape[i].cols, tape[i].value->cols());
  }
  EXPECT_EQ(tape[static_cast<std::size_t>(x.id)].kind, OpKind::kInput);
  EXPECT_EQ(tape[static_cast<std::size_t>(wp.id)].kind, OpKind::kParam);
  EXPECT_EQ(tape[static_cast<std::size_t>(wp.id)].param, w);
  EXPECT_EQ(tape[static_cast<std::size_t>(h.id)].kind, OpKind::kMatMul);
  EXPECT_EQ(tape[static_cast<std::size_t>(h.id)].inputs,
            (std::vector<std::int32_t>{x.id, wp.id}));
  EXPECT_EQ(tape[static_cast<std::size_t>(loss.id)].kind, OpKind::kMean);

  // And the built graph lints clean.
  EXPECT_TRUE(LintGraph(g, loss).ok());
}

// ---- Real training graphs lint clean ---------------------------------------

class RealGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 77;
    opts.shared_vocab_size = 300;
    opts.domain_vocab_size = 150;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "d";
    specs[0].num_entities = 60;
    specs[0].num_examples = 64;
    specs[0].num_documents = 30;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
  }

  model::BiEncoderConfig SmallConfig() const {
    model::BiEncoderConfig cfg;
    cfg.features.hasher.num_buckets = 1024;
    cfg.dim = 16;
    return cfg;
  }

  std::unique_ptr<data::Corpus> corpus_;
};

TEST_F(RealGraphTest, BiEncoderInBatchLossGraphLintsClean) {
  util::Rng rng(1);
  model::BiEncoder model(SmallConfig(), &rng);
  const auto& examples = corpus_->ExamplesIn("d");
  std::vector<data::LinkingExample> batch(examples.begin(),
                                          examples.begin() + 8);
  tensor::Graph g;
  tensor::Var losses = model.InBatchLoss(&g, batch, corpus_->kb);
  LintReport report = LintGraph(g, losses);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.errors, 0u);
  EXPECT_FALSE(report.Has(LintClass::kFrozenParameter)) << report.Summary();
}

// ---- WriteSetChecker: protocol-level seeded defects ------------------------

TEST(WriteSetCheckerTest, AcceptsDisjointCoveringPartition) {
  WriteSetChecker checker;
  int buffer = 0;
  checker.OnRegionBegin(&buffer, 10, /*expect_cover=*/true, "Clean");
  checker.OnTaskWrite(&buffer, 0, 4);
  checker.OnTaskWrite(&buffer, 7, 10);  // arrival order is not row order
  checker.OnTaskWrite(&buffer, 4, 7);
  checker.OnRegionEnd(&buffer);
  EXPECT_TRUE(checker.ok()) << checker.Summary();
  EXPECT_EQ(checker.regions_checked(), 1u);
}

TEST(WriteSetCheckerTest, DetectsDeliberatelyOverlappingPartition) {
  WriteSetChecker checker;
  int buffer = 0;
  checker.OnRegionBegin(&buffer, 10, /*expect_cover=*/true, "Overlap");
  checker.OnTaskWrite(&buffer, 0, 6);
  checker.OnTaskWrite(&buffer, 4, 10);  // rows [4,6) written twice: a race
  checker.OnRegionEnd(&buffer);
  EXPECT_FALSE(checker.ok());
  ASSERT_EQ(checker.findings().size(), 1u);
  EXPECT_NE(checker.findings()[0].message.find("overlap"),
            std::string::npos);
  EXPECT_EQ(checker.findings()[0].tag, "Overlap");
}

TEST(WriteSetCheckerTest, DetectsCoverageGap) {
  WriteSetChecker checker;
  int buffer = 0;
  checker.OnRegionBegin(&buffer, 10, /*expect_cover=*/true, "Gap");
  checker.OnTaskWrite(&buffer, 0, 4);
  checker.OnTaskWrite(&buffer, 6, 10);  // rows [4,6) never written
  checker.OnRegionEnd(&buffer);
  EXPECT_FALSE(checker.ok());
  ASSERT_EQ(checker.findings().size(), 1u);
  EXPECT_NE(checker.findings()[0].message.find("cover"), std::string::npos);
}

TEST(WriteSetCheckerTest, GapIsFineWhenCoverageNotExpected) {
  WriteSetChecker checker;
  int buffer = 0;
  checker.OnRegionBegin(&buffer, 10, /*expect_cover=*/false, "Scatter");
  checker.OnTaskWrite(&buffer, 2, 3);
  checker.OnTaskWrite(&buffer, 8, 9);
  checker.OnRegionEnd(&buffer);
  EXPECT_TRUE(checker.ok()) << checker.Summary();
}

TEST(WriteSetCheckerTest, DetectsOutOfBoundsRange) {
  WriteSetChecker checker;
  int buffer = 0;
  checker.OnRegionBegin(&buffer, 10, /*expect_cover=*/false, "Bounds");
  checker.OnTaskWrite(&buffer, 8, 12);  // escapes the 10-row buffer
  checker.OnRegionEnd(&buffer);
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.findings()[0].message.find("escapes"),
            std::string::npos);
}

TEST(WriteSetCheckerTest, DetectsWriteWithNoOpenRegion) {
  WriteSetChecker checker;
  int buffer = 0;
  checker.OnTaskWrite(&buffer, 0, 1);
  EXPECT_FALSE(checker.ok());
  EXPECT_EQ(checker.regions_checked(), 0u);
}

// ---- WriteSetChecker over the real instrumented kernels --------------------

TEST(WriteSetKernelTest, GemmRowBlocksAreDisjointAndCovering) {
  util::ThreadPool pool(3);
  WriteSetChecker checker;
  {
    WriteSetScope scope(&checker);
    tensor::Graph g;
    g.SetPool(&pool);
    tensor::Var a = g.Input(tensor::Tensor(33, 8));
    tensor::Var b = g.Input(tensor::Tensor(8, 5));
    tensor::Var c = g.MatMul(a, b);          // Gemm region
    tensor::Var d = g.MatMulTransposeB(c, c);  // GemmTransposeB region
    (void)d;
  }
  EXPECT_TRUE(checker.ok()) << checker.Summary();
  // MatMul + MatMulTransposeB kernels, plus the ThreadPool partitions they
  // ran on, each closed one region.
  EXPECT_GE(checker.regions_checked(), 2u);
}

TEST(WriteSetKernelTest, EmbeddingBagGatherAndScatterAreDisjoint) {
  util::ThreadPool pool(3);
  util::Rng rng(7);
  tensor::ParameterStore store;
  tensor::Parameter* table = store.CreateEmbedding("table", 100, 6, 0.1f, &rng);
  std::vector<std::vector<std::uint32_t>> bags(80);
  for (std::size_t b = 0; b < bags.size(); ++b) {
    bags[b] = {static_cast<std::uint32_t>(b % 100),
               static_cast<std::uint32_t>((b * 7) % 100)};
  }
  WriteSetChecker checker;
  {
    WriteSetScope scope(&checker);
    tensor::Graph g;
    g.SetPool(&pool);
    tensor::Var e = g.EmbeddingBagMean(table, bags);  // forward gather
    tensor::Var n = g.RowL2Normalize(e);              // row-parallel kernel
    tensor::Var loss = g.Mean(n);
    store.ZeroGrads();
    g.Backward(loss);  // scatter into table->grad
  }
  EXPECT_TRUE(checker.ok()) << checker.Summary();
  EXPECT_GE(checker.regions_checked(), 3u);
}

TEST(WriteSetKernelTest, ThreadPoolChunkPartitionIsValidated) {
  util::ThreadPool pool(3);
  WriteSetChecker checker;
  {
    WriteSetScope scope(&checker);
    pool.ParallelForChunks(257, 7,
                           [](std::size_t, std::size_t, std::size_t) {});
  }
  EXPECT_TRUE(checker.ok()) << checker.Summary();
  EXPECT_EQ(checker.regions_checked(), 1u);
}

// ---- End-to-end: a full meta-reweight step under the checker ---------------

// One pooled meta-reweight step in the default (kJvp) mode under the
// checker: the forward-mode sweep and every backward over the graph's
// pooled ops.
TEST_F(RealGraphTest, JvpMetaReweightStepRunsRaceFreeUnderChecker) {
  util::ThreadPool pool(3);
  util::Rng rng(4);
  model::BiEncoder model(SmallConfig(), &rng);
  const kb::KnowledgeBase* kb = &corpus_->kb;
  model::BiEncoder* m = &model;
  train::MetaTrainOptions opts;
  opts.pool = &pool;
  train::MetaReweightTrainer meta(
      opts, model.params(),
      [m, kb](tensor::Graph* g,
              const std::vector<data::LinkingExample>& batch) {
        return m->InBatchLoss(g, batch, *kb);
      });
  const auto& examples = corpus_->ExamplesIn("d");
  std::vector<data::LinkingExample> syn(examples.begin(),
                                        examples.begin() + 12);
  std::vector<data::LinkingExample> seed(examples.begin() + 12,
                                         examples.begin() + 20);
  WriteSetChecker checker;
  {
    WriteSetScope scope(&checker);
    auto weights = meta.Step(syn, seed);
    ASSERT_TRUE(weights.ok());
  }
  EXPECT_TRUE(checker.ok()) << checker.Summary();
  EXPECT_GT(checker.regions_checked(), 0u);
}

}  // namespace
}  // namespace metablink::analysis
