#ifndef METABLINK_UTIL_SERIALIZE_H_
#define METABLINK_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace metablink::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `n` bytes. Pass a prior
/// result as `seed` to continue a running checksum over multiple buffers.
/// Used by the checkpoint container format for per-section integrity.
/// On a CPU with PCLMULQDQ and SSE4.1 (dispatched once per process), the
/// 16-byte-multiple body of a buffer of >= 64 bytes goes through a carry-
/// less-multiply folding kernel; slice-by-8 (eight bytes per step through
/// eight 256-entry tables) takes the tail, and the whole buffer elsewhere.
/// Both are bit-identical to the bytewise table algorithm on every input.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// True when Crc32 dispatches to the carry-less-multiply kernel.
bool Crc32UsesClmul();

/// Append-only little-endian binary encoder used for model checkpoints and
/// knowledge-base snapshots.
class BinaryWriter {
 public:
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloatVector(const std::vector<float>& v);
  void WriteU32Vector(const std::vector<std::uint32_t>& v);
  /// Length-prefixed raw byte blob (PQ codes, packed structs).
  void WriteByteVector(const std::vector<std::int8_t>& v);
  /// Appends `n` bytes verbatim — no length prefix. Used by the checkpoint
  /// container to splice already-encoded section payloads.
  void WriteRaw(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }

  /// Writes the accumulated buffer to `path` crash-safely: the bytes go to
  /// `path + ".tmp"`, are flushed and fsync'd, and only then renamed over
  /// `path`. A crash mid-write leaves either the old file or the stray temp
  /// file, never a torn `path`; on any failure the temp file is deleted and
  /// the previous `path` contents are untouched.
  Status WriteToFile(const std::string& path) const;

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked decoder matching BinaryWriter. All reads return Status and
/// fail with kOutOfRange on truncated input instead of crashing.
///
/// A reader is a `[cursor, end)` window over an immutable byte buffer it
/// shares with every view cut from it (ReadView): a container is read from
/// disk once and its sections are parsed in place, never copied. The
/// buffer lives as long as any reader over it.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> data);

  /// Loads the whole regular file at `path` into a reader; anything else
  /// (a directory, a missing file) is an IoError.
  static Result<BinaryReader> FromFile(const std::string& path);

  Status ReadU32(std::uint32_t* out);
  Status ReadU64(std::uint64_t* out);
  Status ReadI64(std::int64_t* out);
  Status ReadF32(float* out);
  Status ReadF64(double* out);
  Status ReadString(std::string* out);
  Status ReadFloatVector(std::vector<float>* out);
  Status ReadU32Vector(std::vector<std::uint32_t>* out);
  Status ReadByteVector(std::vector<std::int8_t>* out);
  /// Reads a float vector (as WriteFloatVector frames it) into the `n`
  /// floats at `out`, without allocating. A stored count other than `n` is
  /// InvalidArgument, so a shape mismatch cannot resize the destination.
  Status ReadFloatsInto(float* out, std::size_t n);

  /// Consumes the next `n` bytes and returns a reader over exactly those
  /// bytes. Nothing is copied: the view shares this reader's buffer and
  /// stays valid after this reader is gone.
  Result<BinaryReader> ReadView(std::size_t n);
  /// Consumes the next `n` bytes without reading them.
  Status Skip(std::size_t n);

  /// The Remaining() unconsumed bytes.
  const std::uint8_t* data() const { return cursor_; }
  /// True when all bytes have been consumed.
  bool AtEnd() const { return cursor_ == end_; }
  /// Bytes not yet consumed.
  std::size_t Remaining() const {
    return static_cast<std::size_t>(end_ - cursor_);
  }

 private:
  BinaryReader(std::shared_ptr<const std::vector<std::uint8_t>> buffer,
               const std::uint8_t* begin, const std::uint8_t* end)
      : buffer_(std::move(buffer)), cursor_(begin), end_(end) {}

  Status ReadRaw(void* dst, std::size_t n);

  std::shared_ptr<const std::vector<std::uint8_t>> buffer_;
  const std::uint8_t* cursor_ = nullptr;
  const std::uint8_t* end_ = nullptr;
};

}  // namespace metablink::util

#endif  // METABLINK_UTIL_SERIALIZE_H_
