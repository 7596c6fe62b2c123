#include "util/serialize.h"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstdio>

#include "util/string_util.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define METABLINK_SERIALIZE_X86 1
#endif

namespace metablink::util {

namespace {
template <typename T>
void AppendRaw(std::vector<std::uint8_t>* buf, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf->insert(buf->end(), p, p + sizeof(T));
}

// tables[0] is the bytewise CRC-32 table. tables[k][b] is the CRC state
// after byte b followed by k zero bytes, so one step can fold eight input
// bytes with eight independent lookups.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

// Slice-by-8 over `n` bytes from the running (pre-inverted) state `c`.
std::uint32_t Crc32SliceBy8(const std::uint8_t* p, std::size_t n,
                            std::uint32_t c) {
  // The 8-byte step loads two words and XORs the running state into the
  // first, which matches the stream's byte order only on a little-endian
  // host (the one every on-disk format here assumes).
  static_assert(std::endian::native == std::endian::little);
  static const Crc32Tables t = MakeCrc32Tables();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef METABLINK_SERIALIZE_X86

__attribute__((target("sse4.1"))) inline __m128i Load128(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold of `a` onto `b`: a.lo * k.lo ^ a.hi * k.hi ^ b, carry-less.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(__m128i a,
                                                                 __m128i k,
                                                                 __m128i b) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       b);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) over `n`
// bytes, n >= 64 and a multiple of 16, from the running state `c`. Four
// 128-bit lanes fold 64 bytes per step, the lanes fold into one, single
// 16-byte folds take the rest, and a Barrett reduction brings the 128-bit
// remainder back to 32 bits. The constants are the bit-reflected
// x^k mod P(x) of the paper for the IEEE polynomial, so the result equals
// the table algorithm's on every input.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t Crc32FoldClmul(
    const std::uint8_t* p, std::size_t n, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2);

  // Barrett reduction, 64 -> 32 bits.
  x2 = _mm_and_si128(x1, mask32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, mask32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // METABLINK_SERIALIZE_X86

using Crc32FoldFn = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                      std::uint32_t);

// One-time dispatch, as the tensor kernels do: the CPU cannot change
// mid-process, so every call sees the same implementation. Null means
// slice-by-8 does the whole buffer.
Crc32FoldFn ResolveCrc32Fold() {
#ifdef METABLINK_SERIALIZE_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return &Crc32FoldClmul;
  }
#endif
  return nullptr;
}

const Crc32FoldFn g_crc32_fold = ResolveCrc32Fold();

// The folding kernel needs four full lanes to start.
constexpr std::size_t kCrc32FoldMinBytes = 64;

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (g_crc32_fold != nullptr && n >= kCrc32FoldMinBytes) {
    const std::size_t body = n & ~std::size_t{15};
    c = g_crc32_fold(p, body, c);
    p += body;
    n -= body;
  }
  return Crc32SliceBy8(p, n, c) ^ 0xFFFFFFFFu;
}

bool Crc32UsesClmul() { return g_crc32_fold != nullptr; }

void BinaryWriter::WriteU32(std::uint32_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteU64(std::uint64_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteI64(std::int64_t v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteF32(float v) { AppendRaw(&buffer_, v); }
void BinaryWriter::WriteF64(double v) { AppendRaw(&buffer_, v); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteU64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(float));
}

void BinaryWriter::WriteU32Vector(const std::vector<std::uint32_t>& v) {
  WriteU64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(std::uint32_t));
}

void BinaryWriter::WriteByteVector(const std::vector<std::int8_t>& v) {
  WriteU64(v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size());
}

void BinaryWriter::WriteRaw(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + n);
}

Status BinaryWriter::WriteToFile(const std::string& path) const {
  // Temp-file + rename: `path` is only ever replaced by a fully flushed
  // file, so a crash at any point leaves the previous contents readable.
  // The temp lives next to the target (rename must not cross filesystems).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for writing", tmp.c_str()));
  }
  const std::size_t written =
      buffer_.empty() ? 0 : std::fwrite(buffer_.data(), 1, buffer_.size(), f);
  bool ok = written == buffer_.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("short write to %s", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(
        StrFormat("cannot rename %s over %s", tmp.c_str(), path.c_str()));
  }
  return Status::OK();
}

BinaryReader::BinaryReader(std::vector<std::uint8_t> data)
    : buffer_(std::make_shared<const std::vector<std::uint8_t>>(
          std::move(data))),
      cursor_(buffer_->data()),
      end_(buffer_->data() + buffer_->size()) {}

Result<BinaryReader> BinaryReader::FromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for reading", path.c_str()));
  }
  // Size from fstat of a regular file, never from fseek/ftell: a directory
  // opens fine, and its end offset (-1, or LONG_MAX on ext4) must not size
  // a buffer.
  struct ::stat st;
  if (::fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IoError(
        StrFormat("%s is not a readable regular file", path.c_str()));
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(st.st_size));
  std::size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) {
    return Status::IoError(StrFormat("short read from %s", path.c_str()));
  }
  return BinaryReader(std::move(data));
}

Status BinaryReader::ReadRaw(void* dst, std::size_t n) {
  if (n > Remaining()) {  // overflow-safe bound check
    return Status::OutOfRange("truncated input buffer");
  }
  // An empty vector's data() may be null, and memcpy from/to null is
  // undefined even for zero bytes.
  if (n != 0) std::memcpy(dst, cursor_, n);
  cursor_ += n;
  return Status::OK();
}

Status BinaryReader::ReadU32(std::uint32_t* out) {
  return ReadRaw(out, sizeof(*out));
}
Status BinaryReader::ReadU64(std::uint64_t* out) {
  return ReadRaw(out, sizeof(*out));
}
Status BinaryReader::ReadI64(std::int64_t* out) {
  return ReadRaw(out, sizeof(*out));
}
Status BinaryReader::ReadF32(float* out) { return ReadRaw(out, sizeof(*out)); }
Status BinaryReader::ReadF64(double* out) { return ReadRaw(out, sizeof(*out)); }

Status BinaryReader::ReadString(std::string* out) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadU64(&n));
  if (n > Remaining()) {
    return Status::OutOfRange("truncated string");
  }
  out->assign(reinterpret_cast<const char*>(cursor_),
              static_cast<std::size_t>(n));
  cursor_ += n;
  return Status::OK();
}

Status BinaryReader::ReadFloatVector(std::vector<float>* out) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadU64(&n));
  if (n > Remaining() / sizeof(float)) {
    return Status::OutOfRange("truncated float vector");
  }
  out->resize(static_cast<std::size_t>(n));
  return ReadRaw(out->data(), out->size() * sizeof(float));
}

Status BinaryReader::ReadFloatsInto(float* out, std::size_t n) {
  std::uint64_t stored = 0;
  METABLINK_RETURN_IF_ERROR(ReadU64(&stored));
  if (stored != n) {
    return Status::InvalidArgument(StrFormat(
        "float vector holds %llu values, expected %zu",
        static_cast<unsigned long long>(stored), n));
  }
  if (n > Remaining() / sizeof(float)) {
    return Status::OutOfRange("truncated float vector");
  }
  return ReadRaw(out, n * sizeof(float));
}

Status BinaryReader::ReadU32Vector(std::vector<std::uint32_t>* out) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadU64(&n));
  if (n > Remaining() / sizeof(std::uint32_t)) {
    return Status::OutOfRange("truncated u32 vector");
  }
  out->resize(static_cast<std::size_t>(n));
  return ReadRaw(out->data(), out->size() * sizeof(std::uint32_t));
}

Status BinaryReader::ReadByteVector(std::vector<std::int8_t>* out) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(ReadU64(&n));
  if (n > Remaining()) {
    return Status::OutOfRange("truncated byte vector");
  }
  out->resize(static_cast<std::size_t>(n));
  return ReadRaw(out->data(), out->size());
}

Result<BinaryReader> BinaryReader::ReadView(std::size_t n) {
  const std::uint8_t* begin = cursor_;
  METABLINK_RETURN_IF_ERROR(Skip(n));
  return BinaryReader(buffer_, begin, cursor_);
}

Status BinaryReader::Skip(std::size_t n) {
  if (n > Remaining()) {  // overflow-safe bound check
    return Status::OutOfRange("truncated input buffer");
  }
  cursor_ += n;
  return Status::OK();
}

}  // namespace metablink::util
