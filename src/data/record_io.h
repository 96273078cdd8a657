// The binary record codec every on-disk format is written and read
// through (docs/ARCHITECTURE.md "On-disk formats"): KMLLDATA datasets
// and shards, KMLLSHRD manifests, KMLLMODL models, KMLLCKPT training
// checkpoints, the KMLLOPLG write-ahead log, and KMLLFRSH refine-loop
// checkpoints.
//
// Records are little-endian: an 8-byte magic, an i32 version, then
// scalars and arrays in the format's documented order, optionally closed
// by a CRC-32 trailer over every preceding byte. RecordWriter builds a
// record in memory (for a format published in one write) or streams it
// to a file with a running CRC (no staging copy). RecordReader is the
// one parser: every field and every declared array length is checked
// against the bytes left, with overflow-checked sizes, BEFORE anything
// is allocated, so a corrupt file of any format yields a non-OK Status,
// never a crash or an allocation larger than the file itself.

#ifndef KMEANSLL_DATA_RECORD_IO_H_
#define KMEANSLL_DATA_RECORD_IO_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "matrix/matrix.h"

namespace kmeansll::data {

/// CRC-32 (IEEE 802.3, reflected, init/final-xor 0xFFFFFFFF) over
/// `size` bytes, resumable via `seed` (pass a previous return value to
/// extend). Inputs of 64 bytes or more fold 16 bytes at a time with
/// PCLMULQDQ where the CPU has it (see Crc32Kernel); the value is the
/// same either way.
uint32_t Crc32(const void* bytes, size_t size, uint32_t seed = 0);

/// The path Crc32 was dispatched to, chosen once per process from the
/// CPU: "pclmul" (carry-less-multiply folding, with the table loop for
/// inputs under 64 bytes and the last size % 16 bytes) or "table" (the
/// byte-at-a-time table loop for every byte).
const char* Crc32Kernel();

/// `count` elements of `elem_bytes` each, in bytes; -1 when `count` is
/// negative or the product overflows int64.
int64_t CheckedBytes(int64_t count, int64_t elem_bytes);

/// Reads the whole file at `path` in one read.
Result<std::string> ReadWholeFile(const std::string& path);

/// Publishes `bytes` at `path` crash-safely: AtomicWriteFile (temp +
/// fsync + rename, checking `fault_site`), with transient failures
/// retried under the default RetryPolicy. `*retries` (optional)
/// accumulates the retries burned.
Status PublishFile(const std::string& path, std::string_view bytes,
                   std::string_view fault_site, int64_t* retries = nullptr);

/// Serializes one record, in memory (bytes()) or straight to a stream.
class RecordWriter {
 public:
  /// Buffers the record in memory.
  RecordWriter() = default;
  /// Streams the record to `out` with no staging buffer; the CRC folds
  /// as bytes pass. The caller checks the stream's state.
  explicit RecordWriter(std::ostream* out) : out_(out) {}

  /// Pre-sizes the in-memory buffer (no-op when streaming).
  void Reserve(size_t bytes);
  void PutBytes(const void* bytes, size_t size);
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&value, sizeof(T));
  }
  template <typename T>
  void PutArray(const T* values, int64_t count) {
    PutBytes(values, static_cast<size_t>(count) * sizeof(T));
  }
  /// An i32 byte length, then the bytes.
  void PutString(std::string_view text);
  /// Appends the u32 CRC-32 of every byte put so far.
  void PutCrc();
  /// Fills the u32 placeholder at `offset` with the CRC-32 of every byte
  /// after it: a frame whose checksum leads the bytes it covers.
  /// In-memory records only.
  void PutCrcAt(size_t offset);

  size_t size() const { return size_; }
  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }

 private:
  std::ostream* out_ = nullptr;
  std::string buf_;
  size_t size_ = 0;
  uint32_t crc_ = 0;  // running CRC of streamed bytes
};

/// Bounds-checked cursor over one record. Truncation is an IOError
/// ("'<path>' is truncated"); an implausible length, a wrong magic, a
/// CRC mismatch, or surplus bytes are InvalidArgument.
class RecordReader {
 public:
  /// Cursor over an in-memory record (typically ReadWholeFile's); the
  /// bytes must outlive the reader.
  RecordReader(std::string_view bytes, std::string path);
  /// Streams the file at `path` front to back straight into the
  /// caller's destinations (no whole-file staging buffer).
  static Result<RecordReader> OpenFile(const std::string& path);

  RecordReader(RecordReader&&) noexcept;
  RecordReader& operator=(RecordReader&&) noexcept;
  ~RecordReader();

  /// Fails unless the next 8 bytes are `magic`; `what` names the format
  /// in the error ("model file").
  Status ExpectMagic(const char (&magic)[8], std::string_view what);
  Status ReadBytes(void* dst, size_t size);
  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }
  /// Reads `count` Ts. A negative count or one larger than the bytes
  /// left fails before `out` is sized.
  template <typename T>
  Status ReadArray(int64_t count, std::vector<T>* out) {
    KMEANSLL_RETURN_NOT_OK(CheckArray(count, sizeof(T)));
    out->resize(static_cast<size_t>(count));
    return ReadBytes(out->data(), static_cast<size_t>(count) * sizeof(T));
  }
  /// Reads a rows × cols matrix, checked like ReadArray.
  Status ReadMatrix(int64_t rows, int64_t cols, Matrix* out);
  /// Reads an i32 length (at most `max_len`) and that many bytes.
  Status ReadString(int32_t max_len, std::string* out);
  /// Points `*out` at the next `count` Ts and skips them: a zero-copy
  /// read, checked like ReadArray. In-memory records only; the record
  /// must be aligned for T at the cursor.
  template <typename T>
  Status View(int64_t count, const T** out) {
    KMEANSLL_RETURN_NOT_OK(CheckArray(count, sizeof(T)));
    *out = reinterpret_cast<const T*>(Skip(static_cast<size_t>(count) *
                                           sizeof(T)));
    return Status::OK();
  }
  /// Reads the u32 CRC trailer and checks it against the CRC-32 of every
  /// byte before it; a mismatch names `what` ("payload CRC mismatch").
  /// A kCrcError fault at `fault_site` (when given) flips the computed
  /// value, simulating bit rot.
  Status ReadCrc(std::string_view what, std::string_view fault_site = {});
  /// Fails unless every byte has been read.
  Status ExpectEnd(std::string_view what) const;

  int64_t offset() const { return offset_; }
  int64_t remaining() const { return size_ - offset_; }
  const std::string& path() const { return path_; }
  Status Truncated() const;

 private:
  RecordReader(std::unique_ptr<std::ifstream> in, int64_t size,
               std::string path);
  Status CheckArray(int64_t count, size_t elem_bytes) const;
  const char* Skip(size_t size);

  std::string_view bytes_;             // in-memory record, or empty
  std::unique_ptr<std::ifstream> in_;  // streamed file, or null
  std::string path_;
  int64_t size_ = 0;
  int64_t offset_ = 0;
  uint32_t crc_ = 0;  // running CRC of streamed bytes
};

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_RECORD_IO_H_
