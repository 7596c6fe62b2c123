#include "store/checkpoint.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace metablink::store {

util::BinaryWriter* CheckpointWriter::AddSection(const std::string& name) {
  for (const auto& [existing, writer] : sections_) {
    METABLINK_CHECK(existing != name) << "duplicate section " << name;
  }
  sections_.emplace_back(name, util::BinaryWriter());
  return &sections_.back().second;
}

std::vector<std::uint8_t> CheckpointWriter::Serialize() const {
  util::BinaryWriter out;
  out.WriteU32(kCheckpointMagic);
  out.WriteU32(kCheckpointVersion);
  out.WriteU32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, writer] : sections_) {
    const auto& payload = writer.buffer();
    out.WriteString(name);
    out.WriteU64(payload.size());
    std::uint32_t crc = util::Crc32(name.data(), name.size());
    crc = util::Crc32(payload.data(), payload.size(), crc);
    out.WriteU32(crc);
    out.WriteRaw(payload.data(), payload.size());
  }
  return out.TakeBuffer();
}

util::Status CheckpointWriter::WriteToFile(const std::string& path) const {
  util::BinaryWriter out;
  const std::vector<std::uint8_t> bytes = Serialize();
  out.WriteRaw(bytes.data(), bytes.size());
  return out.WriteToFile(path);
}

util::Result<CheckpointReader> CheckpointReader::FromFile(
    const std::string& path) {
  auto reader = util::BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  auto parsed = Parse(std::move(*reader));
  if (!parsed.ok()) {
    return util::Status(parsed.status().code(),
                        parsed.status().message() + " (" + path + ")");
  }
  return parsed;
}

util::Result<CheckpointReader> CheckpointReader::Parse(
    std::vector<std::uint8_t> bytes) {
  return Parse(util::BinaryReader(std::move(bytes)));
}

util::Result<CheckpointReader> CheckpointReader::Parse(
    util::BinaryReader reader) {
  std::uint32_t magic = 0;
  METABLINK_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kCheckpointMagic) {
    return util::Status::InvalidArgument("not a checkpoint container");
  }
  CheckpointReader out;
  METABLINK_RETURN_IF_ERROR(reader.ReadU32(&out.version_));
  if (out.version_ == 0 || out.version_ > kCheckpointVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unsupported checkpoint format version %u (this build reads <= %u)",
        out.version_, kCheckpointVersion));
  }
  std::uint32_t count = 0;
  METABLINK_RETURN_IF_ERROR(reader.ReadU32(&count));
  // The count is untrusted: reserve no more sections than the remaining
  // bytes could frame (each needs a name length, a size and a CRC).
  constexpr std::size_t kMinSectionBytes =
      sizeof(std::uint64_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t);
  out.sections_.reserve(
      std::min<std::size_t>(count, reader.Remaining() / kMinSectionBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    METABLINK_RETURN_IF_ERROR(reader.ReadString(&name));
    std::uint64_t size = 0;
    METABLINK_RETURN_IF_ERROR(reader.ReadU64(&size));
    std::uint32_t want_crc = 0;
    METABLINK_RETURN_IF_ERROR(reader.ReadU32(&want_crc));
    auto payload = reader.ReadView(static_cast<std::size_t>(size));
    if (!payload.ok()) {
      return util::Status::OutOfRange(
          "truncated checkpoint section '" + name + "'");
    }
    std::uint32_t got_crc = util::Crc32(name.data(), name.size());
    got_crc = util::Crc32(payload->data(), payload->Remaining(), got_crc);
    if (got_crc != want_crc) {
      return util::Status::DataLoss(util::StrFormat(
          "checkpoint section '%s' failed its CRC check "
          "(stored %08x, computed %08x)",
          name.c_str(), want_crc, got_crc));
    }
    for (const auto& [existing, bytes_unused] : out.sections_) {
      if (existing == name) {
        return util::Status::DataLoss("duplicate checkpoint section '" +
                                      name + "'");
      }
    }
    out.sections_.emplace_back(std::move(name), std::move(*payload));
  }
  if (!reader.AtEnd()) {
    return util::Status::DataLoss(util::StrFormat(
        "%zu trailing bytes after the last checkpoint section",
        reader.Remaining()));
  }
  return out;
}

bool CheckpointReader::Has(const std::string& name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return true;
  }
  return false;
}

std::vector<std::string> CheckpointReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) names.push_back(name);
  return names;
}

util::Result<util::BinaryReader> CheckpointReader::Section(
    const std::string& name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return payload;
  }
  return util::Status::NotFound("checkpoint has no section '" + name + "'");
}

}  // namespace metablink::store
