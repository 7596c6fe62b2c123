#include "analysis/graph_lint.h"

#include <cmath>
#include <cstddef>

#include "util/string_util.h"

namespace metablink::analysis {

namespace {

using tensor::OpKind;
using tensor::OpKindName;
using tensor::TapeOp;

void Add(LintReport* report, Severity severity, LintClass lint_class,
         std::int32_t node, const char* op, std::string message) {
  LintFinding f;
  f.severity = severity;
  f.lint_class = lint_class;
  f.node = node;
  f.op = op != nullptr ? op : "";
  f.message = std::move(message);
  switch (severity) {
    case Severity::kInfo:
      ++report->infos;
      break;
    case Severity::kWarning:
      ++report->warnings;
      break;
    case Severity::kError:
      ++report->errors;
      break;
  }
  report->findings.push_back(std::move(f));
}

std::string ShapeStr(const TapeOp& op) {
  return util::StrFormat("[%zu,%zu]", op.rows, op.cols);
}

/// Expected input arity per op; -1 means "one or more" (ConcatRows).
int ExpectedArity(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
    case OpKind::kParam:
    case OpKind::kEmbeddingBagMean:
      return 0;
    case OpKind::kScale:
    case OpKind::kTanh:
    case OpKind::kRowL2Normalize:
    case OpKind::kBroadcastRow:
    case OpKind::kReshape:
    case OpKind::kSoftmaxCrossEntropy:
    case OpKind::kMean:
    case OpKind::kSum:
      return 1;
    case OpKind::kMatMul:
    case OpKind::kMatMulTransposeB:
    case OpKind::kAddBiasRow:
    case OpKind::kAdd:
    case OpKind::kMul:
    case OpKind::kConcatCols:
      return 2;
    case OpKind::kConcatRows:
      return -1;
  }
  return -1;
}

/// Validates input edges (range, ordering, arity). Returns false when the
/// edges are too broken for shape rules to be meaningful.
bool CheckStructure(const std::vector<TapeOp>& tape, const TapeOp& op,
                    LintReport* report) {
  const char* name = OpKindName(op.kind);
  bool usable = true;
  const int arity = ExpectedArity(op.kind);
  if (arity >= 0 && op.inputs.size() != static_cast<std::size_t>(arity)) {
    Add(report, Severity::kError, LintClass::kTapeStructure, op.id, name,
        util::StrFormat("expects %d input(s), has %zu", arity,
                        op.inputs.size()));
    usable = false;
  }
  if (arity < 0 && op.inputs.empty()) {
    Add(report, Severity::kError, LintClass::kTapeStructure, op.id, name,
        "expects at least one input, has none");
    usable = false;
  }
  for (std::int32_t in : op.inputs) {
    if (in < 0 || static_cast<std::size_t>(in) >= tape.size()) {
      Add(report, Severity::kError, LintClass::kTapeStructure, op.id, name,
          util::StrFormat("input id %d outside tape [0,%zu)", in,
                          tape.size()));
      usable = false;
    } else if (in >= op.id) {
      Add(report, Severity::kError, LintClass::kTapeStructure, op.id, name,
          util::StrFormat("input id %d is not before the node (%s reference "
                          "breaks tape order)",
                          in, in == op.id ? "self" : "forward"));
      usable = false;
    }
  }
  return usable;
}

/// Re-derives each op's shape contract from its input shapes and compares
/// against the recorded output shape.
void CheckShapes(const std::vector<TapeOp>& tape, const TapeOp& op,
                 LintReport* report) {
  const char* name = OpKindName(op.kind);
  auto in = [&tape, &op](std::size_t i) -> const TapeOp& {
    return tape[static_cast<std::size_t>(op.inputs[i])];
  };
  auto bad = [&](std::string message) {
    Add(report, Severity::kError, LintClass::kShapeMismatch, op.id, name,
        std::move(message));
  };
  auto expect_out = [&](std::size_t rows, std::size_t cols) {
    if (op.rows != rows || op.cols != cols) {
      bad(util::StrFormat("output is %s, expected [%zu,%zu]",
                          ShapeStr(op).c_str(), rows, cols));
    }
  };
  switch (op.kind) {
    case OpKind::kInput:
    case OpKind::kParam:
      break;
    case OpKind::kEmbeddingBagMean:
      if (op.param != nullptr && op.cols != op.param->value.cols()) {
        bad(util::StrFormat("output width %zu != embedding dim %zu", op.cols,
                            op.param->value.cols()));
      }
      break;
    case OpKind::kMatMul:
      if (in(0).cols != in(1).rows) {
        bad(util::StrFormat("inner dims differ: %s x %s",
                            ShapeStr(in(0)).c_str(),
                            ShapeStr(in(1)).c_str()));
      } else {
        expect_out(in(0).rows, in(1).cols);
      }
      break;
    case OpKind::kMatMulTransposeB:
      if (in(0).cols != in(1).cols) {
        bad(util::StrFormat("widths differ: %s x %s^T",
                            ShapeStr(in(0)).c_str(),
                            ShapeStr(in(1)).c_str()));
      } else {
        expect_out(in(0).rows, in(1).rows);
      }
      break;
    case OpKind::kAddBiasRow:
      if (in(1).rows != 1 || in(1).cols != in(0).cols) {
        bad(util::StrFormat("bias %s does not broadcast over %s",
                            ShapeStr(in(1)).c_str(),
                            ShapeStr(in(0)).c_str()));
      } else {
        expect_out(in(0).rows, in(0).cols);
      }
      break;
    case OpKind::kAdd:
    case OpKind::kMul:
      if (in(0).rows != in(1).rows || in(0).cols != in(1).cols) {
        bad(util::StrFormat("operand shapes differ: %s vs %s",
                            ShapeStr(in(0)).c_str(),
                            ShapeStr(in(1)).c_str()));
      } else {
        expect_out(in(0).rows, in(0).cols);
      }
      break;
    case OpKind::kScale:
    case OpKind::kTanh:
    case OpKind::kRowL2Normalize:
      expect_out(in(0).rows, in(0).cols);
      break;
    case OpKind::kConcatCols:
      if (in(0).rows != in(1).rows) {
        bad(util::StrFormat("row counts differ: %s vs %s",
                            ShapeStr(in(0)).c_str(),
                            ShapeStr(in(1)).c_str()));
      } else {
        expect_out(in(0).rows, in(0).cols + in(1).cols);
      }
      break;
    case OpKind::kConcatRows: {
      const std::size_t cols = in(0).cols;
      std::size_t rows = 0;
      bool widths_ok = true;
      for (std::size_t i = 0; i < op.inputs.size(); ++i) {
        if (in(i).cols != cols) {
          bad(util::StrFormat("part %zu is %s, expected width %zu", i,
                              ShapeStr(in(i)).c_str(), cols));
          widths_ok = false;
        }
        rows += in(i).rows;
      }
      if (widths_ok) expect_out(rows, cols);
      break;
    }
    case OpKind::kBroadcastRow:
      if (in(0).rows != 1) {
        bad(util::StrFormat("input %s is not a [1,c] row",
                            ShapeStr(in(0)).c_str()));
      } else if (op.cols != in(0).cols) {
        bad(util::StrFormat("output %s changes width from %s",
                            ShapeStr(op).c_str(), ShapeStr(in(0)).c_str()));
      }
      break;
    case OpKind::kReshape:
      if (op.rows * op.cols != in(0).rows * in(0).cols) {
        bad(util::StrFormat("output %s does not preserve %s's element count",
                            ShapeStr(op).c_str(), ShapeStr(in(0)).c_str()));
      }
      break;
    case OpKind::kSoftmaxCrossEntropy:
      expect_out(in(0).rows, 1);
      break;
    case OpKind::kMean:
    case OpKind::kSum:
      expect_out(1, 1);
      break;
  }
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const char* LintClassName(LintClass lint_class) {
  switch (lint_class) {
    case LintClass::kTapeStructure:
      return "tape-structure";
    case LintClass::kShapeMismatch:
      return "shape-mismatch";
    case LintClass::kDeadNode:
      return "dead-node";
    case LintClass::kFrozenParameter:
      return "frozen-parameter";
    case LintClass::kMemoryBudget:
      return "memory-budget";
    case LintClass::kNonFinite:
      return "non-finite";
  }
  return "?";
}

std::string LintFinding::ToString() const {
  std::string where =
      node >= 0 ? util::StrFormat("node %d (%s)", node, op.c_str()) : "tape";
  return util::StrFormat("[%s] %s: %s: %s", SeverityName(severity),
                         LintClassName(lint_class), where.c_str(),
                         message.c_str());
}

bool LintReport::Has(LintClass lint_class) const {
  for (const LintFinding& f : findings) {
    if (f.lint_class == lint_class) return true;
  }
  return false;
}

std::string LintReport::Summary() const {
  std::string out = util::StrFormat(
      "GraphLint: %zu nodes, %zu bytes, %zu error(s), %zu warning(s)",
      num_nodes, tape_bytes, errors, warnings);
  for (const LintFinding& f : findings) {
    if (f.severity == Severity::kInfo) continue;
    out += "\n  ";
    out += f.ToString();
  }
  return out;
}

LintReport LintTape(const std::vector<TapeOp>& tape, std::int32_t root,
                    const GraphLintOptions& options) {
  LintReport report;
  report.num_nodes = tape.size();

  // Pass 0: tape-order ids and memory accounting.
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (tape[i].id != static_cast<std::int32_t>(i)) {
      Add(&report, Severity::kError, LintClass::kTapeStructure, tape[i].id,
          OpKindName(tape[i].kind),
          util::StrFormat("id %d at tape position %zu", tape[i].id, i));
    }
    report.tape_bytes += tape[i].rows * tape[i].cols * sizeof(float);
  }
  Add(&report, Severity::kInfo, LintClass::kMemoryBudget, -1, nullptr,
      util::StrFormat("tape holds %zu nodes / %zu activation bytes (a "
                      "dense backward workspace mirrors up to %zu more)",
                      tape.size(), report.tape_bytes, report.tape_bytes));
  if (options.memory_budget_bytes > 0 &&
      report.tape_bytes > options.memory_budget_bytes) {
    Add(&report, Severity::kWarning, LintClass::kMemoryBudget, -1, nullptr,
        util::StrFormat("activation bytes %zu exceed budget %zu",
                        report.tape_bytes, options.memory_budget_bytes));
  }

  // Pass 1: per-op structure, then shape contracts on usable edges.
  for (const TapeOp& op : tape) {
    if (op.id < 0 || static_cast<std::size_t>(op.id) >= tape.size()) continue;
    if (CheckStructure(tape, op, &report)) CheckShapes(tape, op, &report);
  }

  // Pass 2: reachability from the loss root. Every edge on this tape
  // propagates gradient, so "reachable from root" and "receives gradient"
  // coincide.
  if (root < 0 || static_cast<std::size_t>(root) >= tape.size()) {
    Add(&report, Severity::kError, LintClass::kTapeStructure, root, nullptr,
        util::StrFormat("root id %d outside tape [0,%zu)", root,
                        tape.size()));
    return report;
  }
  std::vector<std::uint8_t> reached(tape.size(), 0);
  std::vector<std::int32_t> stack = {root};
  reached[static_cast<std::size_t>(root)] = 1;
  while (!stack.empty()) {
    const std::size_t id = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    for (std::int32_t in : tape[id].inputs) {
      if (in < 0 || static_cast<std::size_t>(in) >= tape.size()) continue;
      if (reached[static_cast<std::size_t>(in)] != 0) continue;
      reached[static_cast<std::size_t>(in)] = 1;
      stack.push_back(in);
    }
  }
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (reached[i] != 0) continue;
    const TapeOp& op = tape[i];
    if (op.param != nullptr) {
      const std::string pname =
          op.param->name.empty() ? "<unnamed>" : op.param->name;
      Add(&report, Severity::kWarning, LintClass::kFrozenParameter,
          static_cast<std::int32_t>(i), OpKindName(op.kind),
          util::StrFormat("parameter '%s' has no gradient path from the "
                          "root; it will not train",
                          pname.c_str()));
    } else {
      Add(&report, Severity::kWarning, LintClass::kDeadNode,
          static_cast<std::int32_t>(i), OpKindName(op.kind),
          "unreachable from the root (dead code or detached subgraph)");
    }
  }

  // Pass 3 (opt-in): value scan for NaN/Inf.
  if (options.scan_non_finite) {
    for (const TapeOp& op : tape) {
      if (op.value == nullptr) continue;
      const std::vector<float>& data = op.value->data();
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (!std::isfinite(data[i])) {
          Add(&report, Severity::kError, LintClass::kNonFinite, op.id,
              OpKindName(op.kind),
              util::StrFormat("value[%zu,%zu] is %s", i / op.value->cols(),
                              i % op.value->cols(),
                              std::isnan(data[i]) ? "NaN" : "Inf"));
          break;  // one finding per node is enough
        }
      }
    }
  }
  return report;
}

LintReport LintGraph(const tensor::Graph& g, tensor::Var root,
                     const GraphLintOptions& options) {
  return LintTape(g.DebugTape(), root.id, options);
}

}  // namespace metablink::analysis
