#include "data/record_io.h"

#include <array>
#include <cstring>
#include <fstream>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/retry.h"

namespace kmeansll::data {

namespace {

// Reflected CRC-32 table (IEEE 802.3 polynomial 0xEDB88320), built at
// compile time so no static initializer can see it empty. It computes
// every CRC on CPUs without PCLMULQDQ, and everywhere for inputs under
// kClmulMinBytes and for the last size % 16 bytes of longer ones.
constexpr std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = BuildCrcTable();

uint32_t Crc32Table(const unsigned char* p, size_t size, uint32_t c) {
  for (size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

// The folding kernel needs one full 4 x 16-byte block to start from.
constexpr size_t kClmulMinBytes = 64;

#if defined(__x86_64__)

inline __m128i Load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// One 128-bit lane carried forward by the distance its constant pair
// encodes (low half times the low constant, high half times the high
// one), then `next` xored in.
__attribute__((target("pclmul"), always_inline)) inline __m128i Fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), with
// the paper's bit-reflected constants. Four 128-bit lanes each fold 64
// bytes ahead per step (k1, k2 from x^(4*128+32) and x^(4*128-32) mod
// P), the lanes fold into one and single 16-byte folds follow (k3, k4
// from x^(128+32) and x^(128-32) mod P), then 128 -> 64 bits (k4, k5
// from x^64 mod P) and a Barrett reduction by P with mu = x^64 div P
// leave the 32-bit remainder. `c` is the running pre-inverted state, as
// in Crc32Table; `size` is a multiple of 16 and at least kClmulMinBytes.
// The result equals the table loop's for every input
// (format_golden_test's sweep pins it).
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Clmul(
    const unsigned char* p, size_t size, uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load16(p));
    x1 = Fold(x1, k1k2, Load16(p + 16));
    x2 = Fold(x2, k1k2, Load16(p + 32));
    x3 = Fold(x3, k1k2, Load16(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = Fold(x0, k3k4, Load16(p));

  // 128 -> 64 bits: the low half times k4 joins the high half, then the
  // low 32 bits of that times k5 join the rest.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5,
                                          0x00));
  // Barrett: q = (low 32 bits * mu) mod x^32, remainder = x ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

bool DetectClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
const bool kUseClmul = DetectClmul();

#else
constexpr bool kUseClmul = false;
inline uint32_t Crc32Clmul(const unsigned char*, size_t, uint32_t c) {
  return c;
}
#endif  // defined(__x86_64__)

/// Opens `path` for reading at its start; *size receives its length.
Status OpenSized(const std::string& path, std::ifstream* in,
                 int64_t* size) {
  in->open(path, std::ios::binary | std::ios::ate);
  if (!in->is_open()) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  const std::streamoff end = in->tellg();
  if (end < 0) return Status::IOError("cannot size '" + path + "'");
  in->seekg(0);
  *size = static_cast<int64_t>(end);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* bytes, size_t size, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  if (kUseClmul && size >= kClmulMinBytes) {
    const size_t folded = size & ~size_t{15};
    c = Crc32Clmul(p, folded, c);
    p += folded;
    size -= folded;
  }
  return Crc32Table(p, size, c) ^ 0xFFFFFFFFu;
}

const char* Crc32Kernel() { return kUseClmul ? "pclmul" : "table"; }

int64_t CheckedBytes(int64_t count, int64_t elem_bytes) {
  int64_t bytes = 0;
  if (count < 0 || elem_bytes < 0 ||
      __builtin_mul_overflow(count, elem_bytes, &bytes)) {
    return -1;
  }
  return bytes;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in;
  int64_t size = 0;
  KMEANSLL_RETURN_NOT_OK(OpenSized(path, &in, &size));
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in.good()) return Status::IOError("read of '" + path + "' failed");
  return bytes;
}

Status PublishFile(const std::string& path, std::string_view bytes,
                   std::string_view fault_site, int64_t* retries) {
  return RetryTransient(
      RetryPolicy{},
      [&] {
        return AtomicWriteFile(path, bytes.data(), bytes.size(), fault_site);
      },
      retries);
}

// ---------------------------------------------------------------------------
// RecordWriter
// ---------------------------------------------------------------------------

void RecordWriter::Reserve(size_t bytes) {
  if (out_ == nullptr) buf_.reserve(bytes);
}

void RecordWriter::PutBytes(const void* bytes, size_t size) {
  if (size == 0) return;
  if (out_ != nullptr) {
    out_->write(static_cast<const char*>(bytes),
                static_cast<std::streamsize>(size));
    crc_ = Crc32(bytes, size, crc_);
  } else {
    buf_.append(static_cast<const char*>(bytes), size);
  }
  size_ += size;
}

void RecordWriter::PutString(std::string_view text) {
  Put<int32_t>(static_cast<int32_t>(text.size()));
  PutBytes(text.data(), text.size());
}

void RecordWriter::PutCrc() {
  Put<uint32_t>(out_ != nullptr ? crc_ : Crc32(buf_.data(), buf_.size()));
}

void RecordWriter::PutCrcAt(size_t offset) {
  KMEANSLL_CHECK(out_ == nullptr && offset + sizeof(uint32_t) <= size_);
  const size_t covered = offset + sizeof(uint32_t);
  const uint32_t crc = Crc32(buf_.data() + covered, size_ - covered);
  std::memcpy(buf_.data() + offset, &crc, sizeof(crc));
}

// ---------------------------------------------------------------------------
// RecordReader
// ---------------------------------------------------------------------------

RecordReader::RecordReader(std::string_view bytes, std::string path)
    : bytes_(bytes),
      path_(std::move(path)),
      size_(static_cast<int64_t>(bytes.size())) {}

RecordReader::RecordReader(std::unique_ptr<std::ifstream> in, int64_t size,
                           std::string path)
    : in_(std::move(in)), path_(std::move(path)), size_(size) {}

RecordReader::RecordReader(RecordReader&&) noexcept = default;
RecordReader& RecordReader::operator=(RecordReader&&) noexcept = default;
RecordReader::~RecordReader() = default;

Result<RecordReader> RecordReader::OpenFile(const std::string& path) {
  auto in = std::make_unique<std::ifstream>();
  int64_t size = 0;
  KMEANSLL_RETURN_NOT_OK(OpenSized(path, in.get(), &size));
  return RecordReader(std::move(in), size, path);
}

Status RecordReader::Truncated() const {
  return Status::IOError("'" + path_ + "' is truncated");
}

Status RecordReader::ExpectMagic(const char (&magic)[8],
                                 std::string_view what) {
  char got[8];
  if (!ReadBytes(got, sizeof(got)).ok() ||
      std::memcmp(got, magic, sizeof(got)) != 0) {
    return Status::InvalidArgument("'" + path_ + "' is not a kmeansll " +
                                   std::string(what));
  }
  return Status::OK();
}

Status RecordReader::ReadBytes(void* dst, size_t size) {
  if (static_cast<uint64_t>(remaining()) < size) return Truncated();
  if (in_ != nullptr) {
    in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
    if (!in_->good()) return Truncated();
    crc_ = Crc32(dst, size, crc_);
  } else if (size > 0) {
    std::memcpy(dst, bytes_.data() + offset_, size);
  }
  offset_ += static_cast<int64_t>(size);
  return Status::OK();
}

Status RecordReader::CheckArray(int64_t count, size_t elem_bytes) const {
  const int64_t bytes =
      CheckedBytes(count, static_cast<int64_t>(elem_bytes));
  if (bytes < 0) {
    return Status::InvalidArgument("implausible length in '" + path_ + "'");
  }
  return bytes > remaining() ? Truncated() : Status::OK();
}

Status RecordReader::ReadMatrix(int64_t rows, int64_t cols, Matrix* out) {
  const int64_t cells = CheckedBytes(rows, cols);
  if (rows <= 0 || cols <= 0 || cells < 0) {
    return Status::InvalidArgument("implausible matrix shape in '" + path_ +
                                   "'");
  }
  KMEANSLL_RETURN_NOT_OK(CheckArray(cells, sizeof(double)));
  *out = Matrix(rows, cols);
  return ReadBytes(out->data(), static_cast<size_t>(cells) * sizeof(double));
}

Status RecordReader::ReadString(int32_t max_len, std::string* out) {
  int32_t len = 0;
  KMEANSLL_RETURN_NOT_OK(Read(&len));
  if (len < 0 || len > max_len) {
    return Status::InvalidArgument("implausible string length in '" + path_ +
                                   "'");
  }
  KMEANSLL_RETURN_NOT_OK(CheckArray(len, 1));
  out->resize(static_cast<size_t>(len));
  return ReadBytes(out->data(), out->size());
}

const char* RecordReader::Skip(size_t size) {
  KMEANSLL_CHECK(in_ == nullptr);
  const char* at = bytes_.data() + offset_;
  offset_ += static_cast<int64_t>(size);
  return at;
}

Status RecordReader::ReadCrc(std::string_view what,
                             std::string_view fault_site) {
  uint32_t actual =
      in_ != nullptr ? crc_
                     : Crc32(bytes_.data(), static_cast<size_t>(offset_));
  uint32_t stored = 0;
  KMEANSLL_RETURN_NOT_OK(Read(&stored));
  fault::FaultKind injected;
  if (!fault_site.empty() && fault::CheckKind(fault_site, &injected) &&
      injected == fault::FaultKind::kCrcError) {
    actual ^= 0xDEADBEEFu;  // simulated bit rot, caught by the checksum
  }
  if (stored != actual) {
    return Status::InvalidArgument(std::string(what) +
                                   " CRC mismatch in '" + path_ + "'");
  }
  return Status::OK();
}

Status RecordReader::ExpectEnd(std::string_view what) const {
  if (remaining() != 0) {
    return Status::InvalidArgument("'" + path_ +
                                   "' has trailing bytes after the " +
                                   std::string(what));
  }
  return Status::OK();
}

}  // namespace kmeansll::data
