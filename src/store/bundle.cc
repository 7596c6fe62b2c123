#include "store/bundle.h"

#include <sys/stat.h>
#include <sys/types.h>

#include "util/string_util.h"

namespace metablink::store {

namespace {

// Manifest container section name and its stream tag.
constexpr const char* kManifestSection = "manifest";
constexpr std::uint32_t kManifestTag = 0x464E414Du;  // "MANF"

util::Status EnsureDirectory(const std::string& dir) {
  struct stat st {};
  if (::stat(dir.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return util::Status::OK();
    return util::Status::IoError(dir + " exists and is not a directory");
  }
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return util::Status::IoError("cannot create bundle directory " + dir);
  }
  return util::Status::OK();
}

util::Status ValidFilename(const std::string& filename) {
  if (filename.empty() || filename == kManifestFilename ||
      filename.find('/') != std::string::npos) {
    return util::Status::InvalidArgument("invalid artifact filename '" +
                                         filename + "'");
  }
  return util::Status::OK();
}

}  // namespace

util::Status BundleWriter::AddArtifact(const std::string& name,
                                       const std::string& filename,
                                       const CheckpointWriter& ckpt) {
  METABLINK_RETURN_IF_ERROR(ValidFilename(filename));
  for (const BundleArtifact& a : artifacts_) {
    if (a.name == name) {
      return util::Status::AlreadyExists("duplicate artifact '" + name + "'");
    }
    if (a.filename == filename) {
      return util::Status::AlreadyExists("duplicate artifact file '" +
                                         filename + "'");
    }
  }
  METABLINK_RETURN_IF_ERROR(EnsureDirectory(dir_));
  const std::vector<std::uint8_t> bytes = ckpt.Serialize();
  util::BinaryWriter file;
  file.WriteRaw(bytes.data(), bytes.size());
  METABLINK_RETURN_IF_ERROR(file.WriteToFile(dir_ + "/" + filename));
  BundleArtifact artifact;
  artifact.name = name;
  artifact.filename = filename;
  artifact.size = bytes.size();
  artifact.crc32 = util::Crc32(bytes.data(), bytes.size());
  artifacts_.push_back(std::move(artifact));
  return util::Status::OK();
}

util::Status BundleWriter::Finalize(std::uint64_t model_version,
                                    const std::string& domain) {
  METABLINK_RETURN_IF_ERROR(EnsureDirectory(dir_));
  CheckpointWriter manifest;
  util::BinaryWriter* w = manifest.AddSection(kManifestSection);
  w->WriteU32(kManifestTag);
  w->WriteU64(model_version);
  w->WriteString(domain);
  w->WriteU64(artifacts_.size());
  for (const BundleArtifact& a : artifacts_) {
    w->WriteString(a.name);
    w->WriteString(a.filename);
    w->WriteU64(a.size);
    w->WriteU32(a.crc32);
  }
  return manifest.WriteToFile(dir_ + "/" + kManifestFilename);
}

util::Result<BundleReader> BundleReader::Open(const std::string& dir) {
  auto manifest_ckpt = CheckpointReader::FromFile(dir + "/" +
                                                  kManifestFilename);
  if (!manifest_ckpt.ok()) return manifest_ckpt.status();
  auto section = manifest_ckpt->Section(kManifestSection);
  if (!section.ok()) return section.status();

  BundleReader out;
  out.dir_ = dir;
  std::uint32_t tag = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU32(&tag));
  if (tag != kManifestTag) {
    return util::Status::InvalidArgument("not a bundle manifest: " + dir);
  }
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&out.manifest_.model_version));
  METABLINK_RETURN_IF_ERROR(section->ReadString(&out.manifest_.domain));
  std::uint64_t count = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&count));
  for (std::uint64_t i = 0; i < count; ++i) {
    BundleArtifact a;
    METABLINK_RETURN_IF_ERROR(section->ReadString(&a.name));
    METABLINK_RETURN_IF_ERROR(section->ReadString(&a.filename));
    METABLINK_RETURN_IF_ERROR(section->ReadU64(&a.size));
    METABLINK_RETURN_IF_ERROR(section->ReadU32(&a.crc32));
    METABLINK_RETURN_IF_ERROR(ValidFilename(a.filename));
    out.manifest_.artifacts.push_back(std::move(a));
  }
  // Manifests written while bundles could declare a KB shard count end
  // with that u32. It never changed a response, so it is accepted and
  // ignored; any other tail is corruption.
  if (section->Remaining() != 0 && section->Remaining() != 4) {
    return util::Status::DataLoss(util::StrFormat(
        "bundle manifest has %zu stray trailing bytes", section->Remaining()));
  }

  // Verify every artifact file against the manifest before anything else
  // reads it: a bundle is valid as a whole or not at all.
  for (const BundleArtifact& a : out.manifest_.artifacts) {
    auto bytes = util::BinaryReader::FromFile(out.dir_ + "/" + a.filename);
    if (!bytes.ok()) return bytes.status();
    if (bytes->Remaining() != a.size) {
      return util::Status::DataLoss(util::StrFormat(
          "artifact '%s' is %zu bytes, manifest says %llu", a.name.c_str(),
          bytes->Remaining(), static_cast<unsigned long long>(a.size)));
    }
    if (util::Crc32(bytes->data(), bytes->Remaining()) != a.crc32) {
      return util::Status::DataLoss("artifact '" + a.name +
                                    "' failed its whole-file CRC check");
    }
    out.contents_.push_back(std::move(*bytes));
  }
  return out;
}

bool BundleReader::Has(const std::string& name) const {
  for (const BundleArtifact& a : manifest_.artifacts) {
    if (a.name == name) return true;
  }
  return false;
}

util::Result<CheckpointReader> BundleReader::OpenArtifact(
    const std::string& name) const {
  for (std::size_t i = 0; i < manifest_.artifacts.size(); ++i) {
    const BundleArtifact& a = manifest_.artifacts[i];
    if (a.name != name) continue;
    auto parsed = CheckpointReader::Parse(contents_[i]);
    if (!parsed.ok()) {
      return util::Status(parsed.status().code(),
                          parsed.status().message() + " (" + dir_ + "/" +
                              a.filename + ")");
    }
    return parsed;
  }
  return util::Status::NotFound("bundle has no artifact '" + name + "'");
}

}  // namespace metablink::store
