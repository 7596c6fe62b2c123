#ifndef METABLINK_STORE_BUNDLE_H_
#define METABLINK_STORE_BUNDLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/checkpoint.h"
#include "util/status.h"

namespace metablink::store {

/// Manifest filename inside every bundle directory.
inline constexpr const char* kManifestFilename = "MANIFEST";

/// One artifact recorded in a bundle manifest. `size` and `crc32` cover
/// the artifact file's entire byte stream, so a swapped, truncated, or
/// bit-rotted file is caught before its container is even parsed.
struct BundleArtifact {
  std::string name;      // logical name ("bi_encoder", "index", ...)
  std::string filename;  // file inside the bundle directory
  std::uint64_t size = 0;
  std::uint32_t crc32 = 0;
};

/// Parsed bundle manifest: the versioned description of a packaged model.
struct BundleManifest {
  std::uint64_t model_version = 0;
  std::string domain;
  std::vector<BundleArtifact> artifacts;
};

/// Writes a versioned artifact bundle: a directory of checkpoint-container
/// files plus a MANIFEST (itself a container) describing them. Artifacts
/// are written first and the manifest last, each via atomic temp+rename,
/// so a crash mid-packaging never yields a directory that *looks* like a
/// bundle but fails validation only halfway through loading: either the
/// manifest exists and describes fully-written artifacts, or Open fails.
class BundleWriter {
 public:
  explicit BundleWriter(std::string dir) : dir_(std::move(dir)) {}

  /// Writes `ckpt` to `<dir>/<filename>` and records it in the manifest.
  /// Creates the bundle directory on first use.
  util::Status AddArtifact(const std::string& name,
                           const std::string& filename,
                           const CheckpointWriter& ckpt);

  /// Writes the MANIFEST. Call exactly once, after every AddArtifact.
  util::Status Finalize(std::uint64_t model_version,
                        const std::string& domain);

 private:
  std::string dir_;
  std::vector<BundleArtifact> artifacts_;
};

/// Opens and validates a bundle directory: parses the manifest and checks
/// every listed artifact's size + whole-file CRC. Corruption anywhere is a
/// clean kDataLoss/kOutOfRange/kIoError Status.
///
/// Each artifact file is read from disk exactly once, by Open, and its
/// verified bytes are kept: OpenArtifact parses those bytes in place, so
/// what is parsed is exactly what passed the whole-file CRC even if the
/// file on disk changes afterwards.
class BundleReader {
 public:
  static util::Result<BundleReader> Open(const std::string& dir);

  const BundleManifest& manifest() const { return manifest_; }
  bool Has(const std::string& name) const;

  /// Parses the named artifact's container from the bytes Open verified
  /// (the container re-verifies per-section). The returned reader's
  /// sections share those bytes; nothing is copied or re-read.
  util::Result<CheckpointReader> OpenArtifact(const std::string& name) const;

 private:
  std::string dir_;
  BundleManifest manifest_;
  /// The verified contents of manifest_.artifacts[i], index for index.
  std::vector<util::BinaryReader> contents_;
};

}  // namespace metablink::store

#endif  // METABLINK_STORE_BUNDLE_H_
