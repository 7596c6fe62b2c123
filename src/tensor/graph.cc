#include "tensor/graph.h"

#include <cmath>
#include <memory>
#include <mutex>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/parallel_trace.h"
#include "util/thread_pool.h"

namespace metablink::tensor {

namespace {

bool AllZero(const float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0.0f) return false;
  }
  return true;
}

bool AllZero(const Tensor& t) { return AllZero(t.data().data(), t.size()); }

/// Inverted index over a set of embedding bags: for each distinct table
/// row, the list of (bag, 1/bag_size) contributions, in bag-major order so
/// per-row accumulation matches the classic bag-major scatter bit for bit.
/// Built lazily on the first backward pass (forward-only graphs never pay).
struct BagIndex {
  std::once_flag once;
  std::vector<std::uint32_t> rows;   // distinct rows, first-touch order
  std::vector<std::size_t> offsets;  // CSR offsets into entries
  struct Entry {
    std::uint32_t bag;
    float inv;
  };
  std::vector<Entry> entries;
};

void BuildBagIndex(const std::vector<std::vector<std::uint32_t>>& bags,
                   std::size_t table_rows, BagIndex* index) {
  std::vector<std::int32_t> slot(table_rows, -1);
  std::vector<std::size_t> counts;
  for (const auto& bag : bags) {
    for (std::uint32_t id : bag) {
      if (slot[id] < 0) {
        slot[id] = static_cast<std::int32_t>(index->rows.size());
        index->rows.push_back(id);
        counts.push_back(0);
      }
      ++counts[static_cast<std::size_t>(slot[id])];
    }
  }
  index->offsets.assign(index->rows.size() + 1, 0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    index->offsets[r + 1] = index->offsets[r] + counts[r];
  }
  index->entries.resize(index->offsets.back());
  std::vector<std::size_t> cursor(index->offsets.begin(),
                                  index->offsets.end() - 1);
  for (std::size_t b = 0; b < bags.size(); ++b) {
    if (bags[b].empty()) continue;
    const float inv = 1.0f / static_cast<float>(bags[b].size());
    for (std::uint32_t id : bags[b]) {
      const std::size_t r = static_cast<std::size_t>(slot[id]);
      index->entries[cursor[r]++] = {static_cast<std::uint32_t>(b), inv};
    }
  }
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "Input";
    case OpKind::kParam:
      return "Param";
    case OpKind::kEmbeddingBagMean:
      return "EmbeddingBagMean";
    case OpKind::kMatMul:
      return "MatMul";
    case OpKind::kMatMulTransposeB:
      return "MatMulTransposeB";
    case OpKind::kAddBiasRow:
      return "AddBiasRow";
    case OpKind::kAdd:
      return "Add";
    case OpKind::kMul:
      return "Mul";
    case OpKind::kScale:
      return "Scale";
    case OpKind::kTanh:
      return "Tanh";
    case OpKind::kRowL2Normalize:
      return "RowL2Normalize";
    case OpKind::kConcatCols:
      return "ConcatCols";
    case OpKind::kConcatRows:
      return "ConcatRows";
    case OpKind::kBroadcastRow:
      return "BroadcastRow";
    case OpKind::kReshape:
      return "Reshape";
    case OpKind::kSoftmaxCrossEntropy:
      return "SoftmaxCrossEntropy";
    case OpKind::kMean:
      return "Mean";
    case OpKind::kSum:
      return "Sum";
  }
  return "?";
}

Var Graph::AddNode(Tensor value, OpKind kind,
                   std::vector<std::int32_t> inputs, const Parameter* param) {
  Node n;
  n.value = std::move(value);
  n.kind = kind;
  n.inputs = std::move(inputs);
  n.param = param;
  nodes_.push_back(std::move(n));
  return Var{static_cast<std::int32_t>(nodes_.size() - 1)};
}

std::vector<TapeOp> Graph::DebugTape() const {
  std::vector<TapeOp> tape;
  tape.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    TapeOp op;
    op.kind = n.kind;
    op.id = static_cast<std::int32_t>(i);
    op.rows = n.value.rows();
    op.cols = n.value.cols();
    op.inputs = n.inputs;
    op.param = n.param;
    op.value = &n.value;
    tape.push_back(std::move(op));
  }
  return tape;
}

const Tensor& Graph::value(Var v) const { return node(v).value; }

const Tensor& Graph::grad(Var v) const { return default_ws_.grad(*this, v); }

Var Graph::Input(Tensor value) {
  return AddNode(std::move(value), OpKind::kInput);
}

Var Graph::Param(Parameter* p) {
  Var v = AddNode(p->value, OpKind::kParam, {}, p);
  Var self = v;
  node(v).backward = [self, p](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    p->EnsureGrad();
    Axpy(1.0f, gr.data().data(), p->grad.data().data(), gr.size());
  };
  node(v).jvp = [self, p](const Graph* g, JvpWorkspace* ws) {
    // The direction is p->grad; an unsized one is zero.
    Tensor& t = ws->TangentForWrite(*g, self);
    if (!p->has_grad()) {
      t.SetZero();
      return;
    }
    std::copy(p->grad.data().begin(), p->grad.data().end(),
              t.data().begin());
  };
  return v;
}

Var Graph::EmbeddingBagMean(Parameter* table,
                            std::vector<std::vector<std::uint32_t>> bags) {
  const std::size_t n = bags.size();
  const std::size_t d = table->value.cols();
  for (const auto& bag : bags) {
    for (std::uint32_t id : bag) {
      METABLINK_CHECK(id < table->value.rows()) << "embedding id out of range";
    }
  }
  auto shared_bags =
      std::make_shared<std::vector<std::vector<std::uint32_t>>>(
          std::move(bags));
  Tensor out(n, d);
  util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
  auto gather = [&out, table, &shared_bags, d, trace](std::size_t b) {
    // The task owns row b whether or not the bag is empty.
    if (trace != nullptr) trace->OnTaskWrite(out.data().data(), b, b + 1);
    const auto& bag = (*shared_bags)[b];
    if (bag.empty()) return;
    BagRowChain(bag.data(), bag.size(), 1.0f / static_cast<float>(bag.size()),
                table->value.data().data(), out.row_data(b), d);
  };
  if (trace != nullptr) {
    trace->OnRegionBegin(out.data().data(), n, /*expect_cover=*/true,
                         "EmbeddingBagMean.forward");
  }
  if (pool_ != nullptr && n >= 2) {
    pool_->ParallelFor(n, gather);
  } else {
    for (std::size_t b = 0; b < n; ++b) gather(b);
  }
  if (trace != nullptr) trace->OnRegionEnd(out.data().data());
  Var v = AddNode(std::move(out), OpKind::kEmbeddingBagMean, {}, table);
  Var self = v;
  auto index = std::make_shared<BagIndex>();
  node(v).backward = [self, table, shared_bags, index](const Graph* g,
                                                       GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const std::size_t d = table->value.cols();
    const std::size_t nbags = shared_bags->size();
    // Bags with no incoming gradient contribute nothing (common during the
    // meta trainer's one-hot per-example backward passes).
    std::vector<std::uint8_t> active(nbags, 0);
    bool any = false;
    for (std::size_t b = 0; b < nbags; ++b) {
      if ((*shared_bags)[b].empty()) continue;
      if (AllZero(gr.row_data(b), d)) continue;
      active[b] = 1;
      any = true;
    }
    if (!any) return;
    std::call_once(index->once, [&shared_bags, table, &index] {
      BuildBagIndex(*shared_bags, table->value.rows(), index.get());
    });
    const std::size_t nrows = index->rows.size();
    std::vector<std::uint8_t> live(nrows, 0);
    for (std::size_t r = 0; r < nrows; ++r) {
      for (std::size_t e = index->offsets[r]; e < index->offsets[r + 1];
           ++e) {
        if (active[index->entries[e].bag]) {
          live[r] = 1;
          break;
        }
      }
    }
    // Touch rows serially (TouchRow is not thread-safe); the scatter
    // itself owns one destination row per task.
    table->EnsureGrad();
    Tensor& gt = table->grad;
    for (std::size_t r = 0; r < nrows; ++r) {
      if (live[r]) table->TouchRow(index->rows[r]);
    }
    util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
    auto scatter = [&](std::size_t r) {
      if (!live[r]) return;
      const std::uint32_t row = index->rows[r];
      if (trace != nullptr) {
        trace->OnTaskWrite(gt.data().data(), row, row + 1);
      }
      float* dst = gt.row_data(row);
      for (std::size_t e = index->offsets[r]; e < index->offsets[r + 1];
           ++e) {
        const BagIndex::Entry& en = index->entries[e];
        if (!active[en.bag]) continue;
        Axpy(en.inv, gr.row_data(en.bag), dst, d);
      }
    };
    if (trace != nullptr) {
      // Scatter: tasks own one distinct table row each, but dead rows are
      // skipped, so only disjointness (not coverage) is expected.
      trace->OnRegionBegin(gt.data().data(), table->value.rows(),
                           /*expect_cover=*/false, "EmbeddingBagMean.scatter");
    }
    util::ThreadPool* pool = g->pool();
    if (pool != nullptr && nrows >= 64) {
      pool->ParallelFor(nrows, scatter);
    } else {
      for (std::size_t r = 0; r < nrows; ++r) scatter(r);
    }
    if (trace != nullptr) trace->OnRegionEnd(gt.data().data());
  };
  node(v).jvp = [self, table, shared_bags](const Graph* g,
                                           JvpWorkspace* ws) {
    // Direction tangent of the table is table->grad; same mean-pool as the
    // forward pass, reading grad rows instead of value rows. An unsized
    // table->grad is zero.
    Tensor& t = ws->TangentForWrite(*g, self);
    if (!table->has_grad()) {
      t.SetZero();
      return;
    }
    const std::size_t d = table->value.cols();
    util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
    auto gather = [&t, table, &shared_bags, d, trace](std::size_t b) {
      if (trace != nullptr) trace->OnTaskWrite(t.data().data(), b, b + 1);
      const auto& bag = (*shared_bags)[b];
      if (bag.empty()) return;
      BagRowChain(bag.data(), bag.size(),
                  1.0f / static_cast<float>(bag.size()),
                  table->grad.data().data(), t.row_data(b), d);
    };
    if (trace != nullptr) {
      trace->OnRegionBegin(t.data().data(), shared_bags->size(),
                           /*expect_cover=*/true, "EmbeddingBagMean.jvp");
    }
    util::ThreadPool* pool = g->pool();
    if (pool != nullptr && shared_bags->size() >= 2) {
      pool->ParallelFor(shared_bags->size(), gather);
    } else {
      for (std::size_t b = 0; b < shared_bags->size(); ++b) gather(b);
    }
    if (trace != nullptr) trace->OnRegionEnd(t.data().data());
  };
  return v;
}

Var Graph::MatMul(Var a, Var b) {
  const Tensor& ta = node(a).value;
  const Tensor& tb = node(b).value;
  METABLINK_CHECK(ta.cols() == tb.rows()) << "MatMul shape mismatch";
  Tensor out(ta.rows(), tb.cols());
  Gemm(ta, tb, &out, pool_);
  Var v = AddNode(std::move(out), OpKind::kMatMul, {a.id, b.id});
  Var self = v;
  node(v).backward = [self, a, b](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    if (AllZero(gr)) return;
    const Tensor& ta = g->node(a).value;
    const Tensor& tb = g->node(b).value;
    // dA = dOut * B^T ; dB = A^T * dOut
    GemmTransposeB(gr, tb, &ws->GradForWrite(*g, a), g->pool());
    GemmTransposeA(ta, gr, &ws->GradForWrite(*g, b), g->pool());
  };
  node(v).jvp = [self, a, b](const Graph* g, JvpWorkspace* ws) {
    const Tensor& ta = g->node(a).value;
    const Tensor& tb = g->node(b).value;
    const Tensor& da = ws->tangent(*g, a);
    const Tensor& db = ws->tangent(*g, b);
    Tensor& t = ws->TangentForWrite(*g, self);
    Gemm(da, tb, &t, g->pool());
    Gemm(ta, db, &t, g->pool());
  };
  return v;
}

Var Graph::MatMulTransposeB(Var a, Var b) {
  const Tensor& ta = node(a).value;
  const Tensor& tb = node(b).value;
  METABLINK_CHECK(ta.cols() == tb.cols()) << "MatMulTransposeB shape mismatch";
  Tensor out(ta.rows(), tb.rows());
  GemmTransposeB(ta, tb, &out, pool_);
  Var v = AddNode(std::move(out), OpKind::kMatMulTransposeB, {a.id, b.id});
  Var self = v;
  node(v).backward = [self, a, b](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    if (AllZero(gr)) return;
    const Tensor& ta = g->node(a).value;
    const Tensor& tb = g->node(b).value;
    // dA = dOut * B ; dB = dOut^T * A
    Gemm(gr, tb, &ws->GradForWrite(*g, a), g->pool());
    GemmTransposeA(gr, ta, &ws->GradForWrite(*g, b), g->pool());
  };
  node(v).jvp = [self, a, b](const Graph* g, JvpWorkspace* ws) {
    const Tensor& ta = g->node(a).value;
    const Tensor& tb = g->node(b).value;
    const Tensor& da = ws->tangent(*g, a);
    const Tensor& db = ws->tangent(*g, b);
    Tensor& t = ws->TangentForWrite(*g, self);
    GemmTransposeB(da, tb, &t, g->pool());
    GemmTransposeB(ta, db, &t, g->pool());
  };
  return v;
}

Var Graph::AddBiasRow(Var x, Var bias) {
  const Tensor& tx = node(x).value;
  const Tensor& tbias = node(bias).value;
  METABLINK_CHECK(tbias.rows() == 1 && tbias.cols() == tx.cols())
      << "AddBiasRow shape mismatch";
  Tensor out = tx;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    Axpy(1.0f, tbias.row_data(0), out.row_data(i), out.cols());
  }
  Var v = AddNode(std::move(out), OpKind::kAddBiasRow, {x.id, bias.id});
  Var self = v;
  node(v).backward = [self, x, bias](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const std::size_t c = gr.cols();
    Tensor* gx = nullptr;
    Tensor* gbias = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      const float* row = gr.row_data(i);
      if (AllZero(row, c)) continue;
      if (gx == nullptr) {
        gx = &ws->GradForWrite(*g, x);
        gbias = &ws->GradForWrite(*g, bias);
      }
      Axpy(1.0f, row, gx->row_data(i), c);
      Axpy(1.0f, row, gbias->row_data(0), c);
    }
  };
  node(v).jvp = [self, x, bias](const Graph* g, JvpWorkspace* ws) {
    const Tensor& dx = ws->tangent(*g, x);
    const Tensor& dbias = ws->tangent(*g, bias);
    Tensor& t = ws->TangentForWrite(*g, self);
    for (std::size_t i = 0; i < t.rows(); ++i) {
      std::copy(dx.row_data(i), dx.row_data(i) + t.cols(), t.row_data(i));
      Axpy(1.0f, dbias.row_data(0), t.row_data(i), t.cols());
    }
  };
  return v;
}

Var Graph::Add(Var a, Var b) {
  const Tensor& ta = node(a).value;
  const Tensor& tb = node(b).value;
  METABLINK_CHECK(ta.rows() == tb.rows() && ta.cols() == tb.cols())
      << "Add shape mismatch";
  Tensor out = ta;
  Axpy(1.0f, tb.data().data(), out.data().data(), out.size());
  Var v = AddNode(std::move(out), OpKind::kAdd, {a.id, b.id});
  Var self = v;
  node(v).backward = [self, a, b](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    if (AllZero(gr)) return;
    Tensor& ga = ws->GradForWrite(*g, a);
    Tensor& gb = ws->GradForWrite(*g, b);
    Axpy(1.0f, gr.data().data(), ga.data().data(), gr.size());
    Axpy(1.0f, gr.data().data(), gb.data().data(), gr.size());
  };
  node(v).jvp = [self, a, b](const Graph* g, JvpWorkspace* ws) {
    const Tensor& da = ws->tangent(*g, a);
    const Tensor& db = ws->tangent(*g, b);
    Tensor& t = ws->TangentForWrite(*g, self);
    std::copy(da.data().begin(), da.data().end(), t.data().begin());
    Axpy(1.0f, db.data().data(), t.data().data(), t.size());
  };
  return v;
}

Var Graph::Mul(Var a, Var b) {
  const Tensor& ta = node(a).value;
  const Tensor& tb = node(b).value;
  METABLINK_CHECK(ta.rows() == tb.rows() && ta.cols() == tb.cols())
      << "Mul shape mismatch";
  Tensor out = ta;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= tb.data()[i];
  }
  Var v = AddNode(std::move(out), OpKind::kMul, {a.id, b.id});
  Var self = v;
  node(v).backward = [self, a, b](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const Tensor& ta = g->node(a).value;
    const Tensor& tb = g->node(b).value;
    const std::size_t c = gr.cols();
    Tensor* ga = nullptr;
    Tensor* gb = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      const float* row = gr.row_data(i);
      if (AllZero(row, c)) continue;
      if (ga == nullptr) {
        ga = &ws->GradForWrite(*g, a);
        gb = &ws->GradForWrite(*g, b);
      }
      float* gar = ga->row_data(i);
      float* gbr = gb->row_data(i);
      const float* tar = ta.row_data(i);
      const float* tbr = tb.row_data(i);
      for (std::size_t j = 0; j < c; ++j) {
        gar[j] += row[j] * tbr[j];
        gbr[j] += row[j] * tar[j];
      }
    }
  };
  node(v).jvp = [self, a, b](const Graph* g, JvpWorkspace* ws) {
    const Tensor& ta = g->node(a).value;
    const Tensor& tb = g->node(b).value;
    const Tensor& da = ws->tangent(*g, a);
    const Tensor& db = ws->tangent(*g, b);
    Tensor& t = ws->TangentForWrite(*g, self);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = da.data()[i] * tb.data()[i] + ta.data()[i] * db.data()[i];
    }
  };
  return v;
}

Var Graph::Scale(Var x, float s) {
  Tensor out = node(x).value;
  for (float& v : out.data()) v *= s;
  Var v = AddNode(std::move(out), OpKind::kScale, {x.id});
  Var self = v;
  node(v).backward = [self, x, s](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    if (AllZero(gr)) return;
    Tensor& gx = ws->GradForWrite(*g, x);
    Axpy(s, gr.data().data(), gx.data().data(), gr.size());
  };
  node(v).jvp = [self, x, s](const Graph* g, JvpWorkspace* ws) {
    const Tensor& dx = ws->tangent(*g, x);
    Tensor& t = ws->TangentForWrite(*g, self);
    for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = s * dx.data()[i];
  };
  return v;
}

Var Graph::Tanh(Var x) {
  Tensor out = node(x).value;
  tensor::Tanh(out.data().data(), out.size());
  Var v = AddNode(std::move(out), OpKind::kTanh, {x.id});
  Var self = v;
  node(v).backward = [self, x](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const Tensor& val = g->node(self).value;
    const std::size_t c = gr.cols();
    Tensor* gx = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      const float* row = gr.row_data(i);
      if (AllZero(row, c)) continue;
      if (gx == nullptr) gx = &ws->GradForWrite(*g, x);
      float* gxr = gx->row_data(i);
      const float* vr = val.row_data(i);
      for (std::size_t j = 0; j < c; ++j) {
        gxr[j] += row[j] * (1.0f - vr[j] * vr[j]);
      }
    }
  };
  node(v).jvp = [self, x](const Graph* g, JvpWorkspace* ws) {
    const Tensor& val = g->node(self).value;
    const Tensor& dx = ws->tangent(*g, x);
    Tensor& t = ws->TangentForWrite(*g, self);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = dx.data()[i] * (1.0f - val.data()[i] * val.data()[i]);
    }
  };
  return v;
}

Var Graph::RowL2Normalize(Var x, float eps) {
  const Tensor& tx = node(x).value;
  Tensor out = tx;
  auto shared_norms = std::make_shared<std::vector<float>>(tx.rows());
  util::ParallelTraceObserver* trace = util::GetParallelTraceObserver();
  auto normalize = [&out, &tx, &shared_norms, eps, trace](std::size_t i) {
    if (trace != nullptr) trace->OnTaskWrite(out.data().data(), i, i + 1);
    float n2 = Dot(tx.row_data(i), tx.row_data(i), tx.cols());
    (*shared_norms)[i] = std::max(std::sqrt(n2), eps);
    const float inv = 1.0f / (*shared_norms)[i];
    for (std::size_t c = 0; c < tx.cols(); ++c) out.row_data(i)[c] *= inv;
  };
  if (trace != nullptr) {
    trace->OnRegionBegin(out.data().data(), tx.rows(), /*expect_cover=*/true,
                         "RowL2Normalize.forward");
  }
  if (pool_ != nullptr && tx.rows() >= 2) {
    pool_->ParallelFor(tx.rows(), normalize);
  } else {
    for (std::size_t i = 0; i < tx.rows(); ++i) normalize(i);
  }
  if (trace != nullptr) trace->OnRegionEnd(out.data().data());
  Var v = AddNode(std::move(out), OpKind::kRowL2Normalize, {x.id});
  Var self = v;
  node(v).backward = [self, x, shared_norms](const Graph* g,
                                             GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const Tensor& y = g->node(self).value;  // normalized rows
    const std::size_t d = gr.cols();
    Tensor* gx = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      // dx = (dy - y * (y . dy)) / ||x||
      const float* dy = gr.row_data(i);
      if (AllZero(dy, d)) continue;
      if (gx == nullptr) gx = &ws->GradForWrite(*g, x);
      const float* yr = y.row_data(i);
      const float ydy = Dot(yr, dy, d);
      const float inv = 1.0f / (*shared_norms)[i];
      float* gxr = gx->row_data(i);
      for (std::size_t c = 0; c < d; ++c) {
        gxr[c] += (dy[c] - yr[c] * ydy) * inv;
      }
    }
  };
  node(v).jvp = [self, x, shared_norms](const Graph* g, JvpWorkspace* ws) {
    const Tensor& y = g->node(self).value;
    const Tensor& dx = ws->tangent(*g, x);
    Tensor& t = ws->TangentForWrite(*g, self);
    const std::size_t d = t.cols();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      const float* dxr = dx.row_data(i);
      const float* yr = y.row_data(i);
      const float ydx = Dot(yr, dxr, d);
      const float inv = 1.0f / (*shared_norms)[i];
      float* tr = t.row_data(i);
      for (std::size_t c = 0; c < d; ++c) {
        tr[c] = (dxr[c] - yr[c] * ydx) * inv;
      }
    }
  };
  return v;
}

Var Graph::ConcatCols(Var a, Var b) {
  const Tensor& ta = node(a).value;
  const Tensor& tb = node(b).value;
  METABLINK_CHECK(ta.rows() == tb.rows()) << "ConcatCols row mismatch";
  Tensor out(ta.rows(), ta.cols() + tb.cols());
  for (std::size_t i = 0; i < ta.rows(); ++i) {
    float* dst = out.row_data(i);
    std::copy(ta.row_data(i), ta.row_data(i) + ta.cols(), dst);
    std::copy(tb.row_data(i), tb.row_data(i) + tb.cols(), dst + ta.cols());
  }
  Var v = AddNode(std::move(out), OpKind::kConcatCols, {a.id, b.id});
  Var self = v;
  node(v).backward = [self, a, b](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const std::size_t ca = g->node(a).value.cols();
    const std::size_t cb = g->node(b).value.cols();
    Tensor* ga = nullptr;
    Tensor* gb = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      const float* row = gr.row_data(i);
      if (AllZero(row, ca + cb)) continue;
      if (ga == nullptr) {
        ga = &ws->GradForWrite(*g, a);
        gb = &ws->GradForWrite(*g, b);
      }
      Axpy(1.0f, row, ga->row_data(i), ca);
      Axpy(1.0f, row + ca, gb->row_data(i), cb);
    }
  };
  node(v).jvp = [self, a, b](const Graph* g, JvpWorkspace* ws) {
    const Tensor& da = ws->tangent(*g, a);
    const Tensor& db = ws->tangent(*g, b);
    Tensor& t = ws->TangentForWrite(*g, self);
    const std::size_t ca = da.cols(), cb = db.cols();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      float* dst = t.row_data(i);
      std::copy(da.row_data(i), da.row_data(i) + ca, dst);
      std::copy(db.row_data(i), db.row_data(i) + cb, dst + ca);
    }
  };
  return v;
}

Var Graph::ConcatRows(const std::vector<Var>& parts) {
  METABLINK_CHECK(!parts.empty()) << "ConcatRows of nothing";
  const std::size_t cols = node(parts[0]).value.cols();
  std::size_t rows = 0;
  for (Var p : parts) {
    METABLINK_CHECK(node(p).value.cols() == cols)
        << "ConcatRows width mismatch";
    rows += node(p).value.rows();
  }
  Tensor out(rows, cols);
  std::size_t r = 0;
  for (Var p : parts) {
    const Tensor& t = node(p).value;
    std::copy(t.data().begin(), t.data().end(), out.row_data(r));
    r += t.rows();
  }
  std::vector<std::int32_t> part_ids;
  part_ids.reserve(parts.size());
  for (Var p : parts) part_ids.push_back(p.id);
  Var v = AddNode(std::move(out), OpKind::kConcatRows, std::move(part_ids));
  Var self = v;
  auto shared_parts = std::make_shared<std::vector<Var>>(parts);
  node(v).backward = [self, shared_parts](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    std::size_t r = 0;
    for (Var p : *shared_parts) {
      const Tensor& pv = g->node(p).value;
      // Skipping parts whose gradient slice is all zero keeps the dirty
      // set confined to one example's sub-tape under one-hot seeds.
      if (!AllZero(gr.row_data(r), pv.size())) {
        Tensor& gp = ws->GradForWrite(*g, p);
        Axpy(1.0f, gr.row_data(r), gp.data().data(), gp.size());
      }
      r += pv.rows();
    }
  };
  node(v).jvp = [self, shared_parts](const Graph* g, JvpWorkspace* ws) {
    Tensor& t = ws->TangentForWrite(*g, self);
    std::size_t r = 0;
    for (Var p : *shared_parts) {
      const Tensor& dp = ws->tangent(*g, p);
      std::copy(dp.data().begin(), dp.data().end(), t.row_data(r));
      r += dp.rows();
    }
  };
  return v;
}

Var Graph::BroadcastRow(Var row, std::size_t n) {
  const Tensor& tr = node(row).value;
  METABLINK_CHECK(tr.rows() == 1) << "BroadcastRow expects a [1,c] input";
  const std::size_t c = tr.cols();
  Tensor out(n, c);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(tr.row_data(0), tr.row_data(0) + c, out.row_data(i));
  }
  Var v = AddNode(std::move(out), OpKind::kBroadcastRow, {row.id});
  Var self = v;
  node(v).backward = [self, row](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const std::size_t c = gr.cols();
    Tensor* grow = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      const float* src = gr.row_data(i);
      if (AllZero(src, c)) continue;
      if (grow == nullptr) grow = &ws->GradForWrite(*g, row);
      Axpy(1.0f, src, grow->row_data(0), c);
    }
  };
  node(v).jvp = [self, row](const Graph* g, JvpWorkspace* ws) {
    const Tensor& dr = ws->tangent(*g, row);
    Tensor& t = ws->TangentForWrite(*g, self);
    for (std::size_t i = 0; i < t.rows(); ++i) {
      std::copy(dr.row_data(0), dr.row_data(0) + t.cols(), t.row_data(i));
    }
  };
  return v;
}

Var Graph::Reshape(Var x, std::size_t rows, std::size_t cols) {
  const Tensor& tx = node(x).value;
  METABLINK_CHECK(rows * cols == tx.size()) << "Reshape size mismatch";
  Tensor out(rows, cols, tx.data());
  Var v = AddNode(std::move(out), OpKind::kReshape, {x.id});
  Var self = v;
  node(v).backward = [self, x](const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    if (AllZero(gr)) return;
    Tensor& gx = ws->GradForWrite(*g, x);
    Axpy(1.0f, gr.data().data(), gx.data().data(), gr.size());
  };
  node(v).jvp = [self, x](const Graph* g, JvpWorkspace* ws) {
    const Tensor& dx = ws->tangent(*g, x);
    Tensor& t = ws->TangentForWrite(*g, self);
    std::copy(dx.data().begin(), dx.data().end(), t.data().begin());
  };
  return v;
}

Var Graph::SoftmaxCrossEntropy(Var logits, std::vector<std::size_t> targets) {
  const Tensor& tl = node(logits).value;
  METABLINK_CHECK(targets.size() == tl.rows())
      << "SoftmaxCrossEntropy target count mismatch";
  const std::size_t n = tl.rows(), m = tl.cols();
  Tensor out(n, 1);
  // Cache the softmax for the backward pass.
  auto probs = std::make_shared<Tensor>(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    METABLINK_CHECK(targets[i] < m) << "target out of range";
    const float* row = tl.row_data(i);
    float mx = row[0];
    for (std::size_t c = 1; c < m; ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (std::size_t c = 0; c < m; ++c) {
      sum += std::exp(static_cast<double>(row[c] - mx));
    }
    const double logsum = std::log(sum) + mx;
    out.at(i, 0) = static_cast<float>(logsum - row[targets[i]]);
    for (std::size_t c = 0; c < m; ++c) {
      probs->at(i, c) =
          static_cast<float>(std::exp(static_cast<double>(row[c]) - logsum));
    }
  }
  Var v = AddNode(std::move(out), OpKind::kSoftmaxCrossEntropy, {logits.id});
  Var self = v;
  auto shared_targets =
      std::make_shared<std::vector<std::size_t>>(std::move(targets));
  node(v).backward = [self, logits, probs, shared_targets](
                         const Graph* g, GradWorkspace* ws) {
    const Tensor& gr = ws->grad(*g, self);
    const std::size_t m = probs->cols();
    Tensor* gl = nullptr;
    for (std::size_t i = 0; i < gr.rows(); ++i) {
      const float gv = gr.at(i, 0);
      if (gv == 0.0f) continue;
      if (gl == nullptr) gl = &ws->GradForWrite(*g, logits);
      float* dst = gl->row_data(i);
      const float* p = probs->row_data(i);
      for (std::size_t c = 0; c < m; ++c) dst[c] += gv * p[c];
      dst[(*shared_targets)[i]] -= gv;
    }
  };
  node(v).jvp = [self, logits, probs, shared_targets](const Graph* g,
                                                      JvpWorkspace* ws) {
    // d loss_r = sum_c probs[r,c]*dz[r,c] - dz[r,target_r].
    const Tensor& dz = ws->tangent(*g, logits);
    Tensor& t = ws->TangentForWrite(*g, self);
    const std::size_t m = probs->cols();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      const float* p = probs->row_data(i);
      const float* dzr = dz.row_data(i);
      double acc = 0.0;
      for (std::size_t c = 0; c < m; ++c) {
        acc += static_cast<double>(p[c]) * dzr[c];
      }
      t.at(i, 0) = static_cast<float>(acc) - dzr[(*shared_targets)[i]];
    }
  };
  return v;
}

Var Graph::Mean(Var x) {
  const Tensor& tx = node(x).value;
  METABLINK_CHECK(tx.size() > 0) << "Mean of empty tensor";
  double acc = 0.0;
  for (float v : tx.data()) acc += v;
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(acc / static_cast<double>(tx.size()));
  Var v = AddNode(std::move(out), OpKind::kMean, {x.id});
  Var self = v;
  node(v).backward = [self, x](const Graph* g, GradWorkspace* ws) {
    const float gv = ws->grad(*g, self).at(0, 0);
    if (gv == 0.0f) return;
    Tensor& gx = ws->GradForWrite(*g, x);
    const float inv = gv / static_cast<float>(gx.size());
    for (float& d : gx.data()) d += inv;
  };
  node(v).jvp = [self, x](const Graph* g, JvpWorkspace* ws) {
    const Tensor& dx = ws->tangent(*g, x);
    double acc = 0.0;
    for (float d : dx.data()) acc += d;
    ws->TangentForWrite(*g, self).at(0, 0) =
        static_cast<float>(acc / static_cast<double>(dx.size()));
  };
  return v;
}

Var Graph::Sum(Var x) {
  const Tensor& tx = node(x).value;
  double acc = 0.0;
  for (float v : tx.data()) acc += v;
  Tensor out(1, 1);
  out.at(0, 0) = static_cast<float>(acc);
  Var v = AddNode(std::move(out), OpKind::kSum, {x.id});
  Var self = v;
  node(v).backward = [self, x](const Graph* g, GradWorkspace* ws) {
    const float gv = ws->grad(*g, self).at(0, 0);
    if (gv == 0.0f) return;
    Tensor& gx = ws->GradForWrite(*g, x);
    for (float& d : gx.data()) d += gv;
  };
  node(v).jvp = [self, x](const Graph* g, JvpWorkspace* ws) {
    const Tensor& dx = ws->tangent(*g, x);
    double acc = 0.0;
    for (float d : dx.data()) acc += d;
    ws->TangentForWrite(*g, self).at(0, 0) = static_cast<float>(acc);
  };
  return v;
}

void Graph::Backward(Var v) {
  std::vector<float> seed(node(v).value.size(), 1.0f);
  BackwardWithSeed(v, seed);
}

void Graph::BackwardWithSeed(Var v, const std::vector<float>& seed) {
  BackwardWithSeed(v, seed, &default_ws_);
}

void Graph::BackwardWithSeed(Var v, const std::vector<float>& seed,
                             GradWorkspace* ws) const {
  METABLINK_CHECK(seed.size() == node(v).value.size()) << "seed size mismatch";
  Tensor& root = ws->GradForWrite(*this, v);
  for (std::size_t i = 0; i < seed.size(); ++i) {
    root.data()[i] += seed[i];
  }
  const bool skip = ws->sparsity_skip();
  for (std::int32_t id = v.id; id >= 0; --id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (!n.backward) continue;
    // A node whose gradient was never written holds exact zeros, so its
    // closure could only add zeros downstream — skip it.
    if (skip && !ws->dirty(Var{id})) continue;
    n.backward(this, ws);
  }
}

Tensor Graph::Jvp(Var v) const {
  JvpWorkspace ws;
  for (std::int32_t id = 0; id <= v.id; ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.jvp) n.jvp(this, &ws);
  }
  return ws.tangent(*this, v);
}

void Graph::ResetGrads() { default_ws_.Reset(); }

}  // namespace metablink::tensor
