#include "tensor/parameter.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace metablink::tensor {

Parameter* ParameterStore::Create(const std::string& name, std::size_t rows,
                                  std::size_t cols) {
  METABLINK_CHECK(Find(name) == nullptr) << "duplicate parameter " << name;
  params_.push_back(std::make_unique<Parameter>(name, rows, cols));
  return params_.back().get();
}

Parameter* ParameterStore::CreateXavier(const std::string& name,
                                        std::size_t rows, std::size_t cols,
                                        util::Rng* rng) {
  Parameter* p = Create(name, rows, cols);
  if (rng == nullptr) return p;
  const float bound =
      std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float& v : p->value.data()) v = rng->NextFloat(-bound, bound);
  return p;
}

Parameter* ParameterStore::CreateNormal(const std::string& name,
                                        std::size_t rows, std::size_t cols,
                                        float stddev, util::Rng* rng) {
  Parameter* p = Create(name, rows, cols);
  if (rng == nullptr) return p;
  for (float& v : p->value.data()) {
    v = static_cast<float>(rng->NextGaussian()) * stddev;
  }
  return p;
}

Parameter* ParameterStore::CreateEmbedding(const std::string& name,
                                           std::size_t rows, std::size_t cols,
                                           float stddev, util::Rng* rng) {
  Parameter* p = CreateNormal(name, rows, cols, stddev, rng);
  p->row_sparse_grad = true;
  return p;
}

Parameter* ParameterStore::Find(const std::string& name) {
  for (auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

const Parameter* ParameterStore::Find(const std::string& name) const {
  for (const auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

std::size_t ParameterStore::TotalSize() const {
  std::size_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

void ParameterStore::ZeroGrads() {
  for (auto& p : params_) {
    if (!p->has_grad()) {
      p->EnsureGrad();
    } else if (p->row_sparse_grad) {
      const std::size_t cols = p->grad.cols();
      for (std::uint32_t row : p->touched_rows) {
        std::fill_n(p->grad.row_data(row), cols, 0.0f);
        p->touched_mask[row] = 0;
      }
      p->touched_rows.clear();
    } else {
      p->grad.SetZero();
    }
  }
}

void ParameterStore::ReleaseGrads() {
  for (auto& p : params_) p->ReleaseGrad();
}

ParameterStore::Bytes ParameterStore::MemoryBytes() const {
  Bytes bytes;
  for (const auto& p : params_) {
    bytes.values += p->value.data().capacity() * sizeof(float);
    bytes.grads += p->grad.data().capacity() * sizeof(float) +
                   p->touched_rows.capacity() * sizeof(std::uint32_t) +
                   p->touched_mask.capacity();
  }
  return bytes;
}

std::vector<float> ParameterStore::FlattenGrads() const {
  std::vector<float> out;
  out.reserve(TotalSize());
  for (const auto& p : params_) {
    if (p->has_grad()) {
      out.insert(out.end(), p->grad.data().begin(), p->grad.data().end());
    } else {
      out.resize(out.size() + p->value.size(), 0.0f);
    }
  }
  return out;
}

double ParameterStore::GradDot(const std::vector<float>& snapshot) const {
  double acc = 0.0;
  std::size_t offset = 0;
  for (const auto& p : params_) {
    const auto& g = p->grad.data();
    if (!p->has_grad()) {
      // An unsized gradient is zero and adds nothing.
    } else if (p->row_sparse_grad) {
      const std::size_t cols = p->grad.cols();
      for (std::uint32_t row : p->touched_rows) {
        const float* gr = p->grad.row_data(row);
        const float* sr = snapshot.data() + offset + row * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          acc += static_cast<double>(gr[c]) * sr[c];
        }
      }
    } else {
      for (std::size_t i = 0; i < g.size(); ++i) {
        acc += static_cast<double>(g[i]) * snapshot[offset + i];
      }
    }
    offset += p->value.size();
  }
  return acc;
}

std::vector<float> ParameterStore::FlattenValues() const {
  std::vector<float> out;
  out.reserve(TotalSize());
  for (const auto& p : params_) {
    out.insert(out.end(), p->value.data().begin(), p->value.data().end());
  }
  return out;
}

std::uint32_t ParameterStore::ValuesCrc32() const {
  std::uint32_t crc = 0;
  for (const auto& p : params_) {
    crc = util::Crc32(p->value.data().data(),
                      p->value.data().size() * sizeof(float), crc);
  }
  return crc;
}

util::Status ParameterStore::LoadValues(const std::vector<float>& flat) {
  if (flat.size() != TotalSize()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "flat size %zu != total parameter size %zu", flat.size(),
        TotalSize()));
  }
  std::size_t offset = 0;
  for (auto& p : params_) {
    std::copy(flat.begin() + offset, flat.begin() + offset + p->value.size(),
              p->value.data().begin());
    offset += p->value.size();
  }
  return util::Status::OK();
}

void ParameterStore::Save(util::BinaryWriter* writer) const {
  writer->WriteU64(params_.size());
  for (const auto& p : params_) {
    writer->WriteString(p->name);
    writer->WriteU64(p->value.rows());
    writer->WriteU64(p->value.cols());
    writer->WriteFloatVector(p->value.data());
  }
}

namespace {

// Reads one parameter's header (name and shape) as Save wrote it.
util::Status ReadShape(util::BinaryReader* reader, ParameterShape* out) {
  std::uint64_t rows = 0, cols = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadString(&out->name));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&rows));
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&cols));
  out->rows = static_cast<std::size_t>(rows);
  out->cols = static_cast<std::size_t>(cols);
  return util::Status::OK();
}

util::Status CheckCount(util::BinaryReader* reader, std::uint64_t want) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n != want) {
    return util::Status::InvalidArgument(util::StrFormat(
        "checkpoint declares %llu parameters, model has %llu",
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(want)));
  }
  return util::Status::OK();
}

util::Status CheckConsumed(const util::BinaryReader& reader) {
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%zu trailing bytes after the last parameter", reader.Remaining()));
  }
  return util::Status::OK();
}

}  // namespace

util::Status ParameterStore::Load(util::BinaryReader* reader) {
  // The whole section is checked before the first value is written.
  METABLINK_RETURN_IF_ERROR(CheckSaved(*reader, Shapes()));
  std::uint64_t count = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&count));
  ParameterShape stored;
  for (auto& p : params_) {
    METABLINK_RETURN_IF_ERROR(ReadShape(reader, &stored));
    METABLINK_RETURN_IF_ERROR(
        reader->ReadFloatsInto(p->value.data().data(), p->value.size()));
  }
  return util::Status::OK();
}

std::vector<ParameterShape> ParameterStore::Shapes() const {
  std::vector<ParameterShape> shapes;
  shapes.reserve(params_.size());
  for (const auto& p : params_) {
    shapes.push_back({p->name, p->value.rows(), p->value.cols()});
  }
  return shapes;
}

util::Status ParameterStore::CheckSaved(
    util::BinaryReader reader, const std::vector<ParameterShape>& expected) {
  METABLINK_RETURN_IF_ERROR(CheckCount(&reader, expected.size()));
  ParameterShape stored;
  for (const ParameterShape& want : expected) {
    METABLINK_RETURN_IF_ERROR(ReadShape(&reader, &stored));
    if (stored.name != want.name || stored.rows != want.rows ||
        stored.cols != want.cols) {
      return util::Status::InvalidArgument(util::StrFormat(
          "checkpoint mismatch at parameter %s", stored.name.c_str()));
    }
    std::uint64_t n = 0;
    METABLINK_RETURN_IF_ERROR(reader.ReadU64(&n));
    // The shape's floats must fit in what remains, checked without a
    // product that could wrap.
    const std::size_t max_floats = reader.Remaining() / sizeof(float);
    if (want.rows == 0 || want.cols == 0 || want.rows > max_floats / want.cols) {
      return util::Status::InvalidArgument(util::StrFormat(
          "parameter %s declares an empty or oversized %zu x %zu shape",
          want.name.c_str(), want.rows, want.cols));
    }
    const std::size_t floats = want.rows * want.cols;
    if (n != floats) {
      return util::Status::InvalidArgument(util::StrFormat(
          "parameter %s holds %llu values for a %zu x %zu shape",
          want.name.c_str(), static_cast<unsigned long long>(n), want.rows,
          want.cols));
    }
    METABLINK_RETURN_IF_ERROR(reader.Skip(floats * sizeof(float)));
  }
  return CheckConsumed(reader);
}

}  // namespace metablink::tensor
