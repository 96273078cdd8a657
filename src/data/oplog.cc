#include "data/oplog.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <thread>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "data/record_io.h"

namespace kmeansll::data {

namespace {

constexpr char kMagic[8] = {'K', 'M', 'L', 'L', 'O', 'P', 'L', 'G'};
constexpr int32_t kVersion = 1;
constexpr uint32_t kFlagWeights = 1u << 0;
// magic(8) + version(4) + dim(8) + flags(4).
constexpr int64_t kHeaderBytes = 24;
// body = first_row(8) + rows(8) + payload.
constexpr int64_t kBodyFixedBytes = 16;
// frame = crc(4) + len(4) + body.
constexpr int64_t kFrameFixedBytes = 8;

Status FlushAndFsync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    return Status::IOError("fflush of oplog '" + path + "' failed");
  }
#if !defined(_WIN32)
  if (::fsync(::fileno(f)) != 0) {
    return Status::IOError("fsync of oplog '" + path + "' failed");
  }
#endif
  return Status::OK();
}

void PutHeader(int64_t dim, bool has_weights, RecordWriter* out) {
  out->PutBytes(kMagic, sizeof(kMagic));
  out->Put(kVersion);
  out->Put(dim);
  out->Put(has_weights ? kFlagWeights : 0u);
}

/// Validates the log header against the shape the caller expects.
Status ReadHeader(RecordReader* in, int64_t dim, bool has_weights) {
  if (in->remaining() < kHeaderBytes) {
    return Status::InvalidArgument("'" + in->path() +
                                   "' is not a kmeansll oplog");
  }
  KMEANSLL_RETURN_NOT_OK(in->ExpectMagic(kMagic, "oplog"));
  int32_t version = 0;
  int64_t file_dim = 0;
  uint32_t flags = 0;
  KMEANSLL_RETURN_NOT_OK(in->Read(&version));
  KMEANSLL_RETURN_NOT_OK(in->Read(&file_dim));
  KMEANSLL_RETURN_NOT_OK(in->Read(&flags));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported oplog version in '" +
                                   in->path() + "'");
  }
  if (file_dim != dim || ((flags & kFlagWeights) != 0) != has_weights) {
    return Status::InvalidArgument("oplog '" + in->path() +
                                   "' shape disagrees with the request");
  }
  return Status::OK();
}

/// One record frame, decoded in place: the pointers alias the log bytes.
struct Frame {
  std::string_view bytes;  // the whole frame: crc | len | body
  int64_t first_row = 0;
  int64_t rows = 0;
  const double* points = nullptr;
  const double* weights = nullptr;  // null in a weight-less log
};

/// The one frame decoder, shared by Open's scan, Compact, and Replay.
/// The length must fit in the bytes left, the CRC over (len || body)
/// must match when `check_crc`, and the body must hold exactly `rows`
/// rows of the log's shape.
Status DecodeFrame(RecordReader* in, int64_t dim, bool has_weights,
                   bool check_crc, Frame* out) {
  uint32_t crc = 0, len = 0;
  const char* body = nullptr;
  KMEANSLL_RETURN_NOT_OK(in->Read(&crc));
  KMEANSLL_RETURN_NOT_OK(in->Read(&len));
  KMEANSLL_RETURN_NOT_OK(in->View(len, &body));
  if (check_crc && Crc32(body - sizeof(len), sizeof(len) + len) != crc) {
    return Status::InvalidArgument("oplog '" + in->path() +
                                   "' record failed its CRC");
  }
  RecordReader fields(std::string_view(body, len), in->path());
  KMEANSLL_RETURN_NOT_OK(fields.Read(&out->first_row));
  KMEANSLL_RETURN_NOT_OK(fields.Read(&out->rows));
  if (out->first_row < 0 || out->rows <= 0 ||
      out->first_row > INT64_MAX - out->rows) {
    return Status::InvalidArgument("oplog '" + in->path() +
                                   "' record shape is corrupt");
  }
  KMEANSLL_RETURN_NOT_OK(
      fields.View(CheckedBytes(out->rows, dim), &out->points));
  out->weights = nullptr;
  if (has_weights) {
    KMEANSLL_RETURN_NOT_OK(fields.View(out->rows, &out->weights));
  }
  KMEANSLL_RETURN_NOT_OK(fields.ExpectEnd("record"));
  out->bytes = std::string_view(body - kFrameFixedBytes,
                                static_cast<size_t>(kFrameFixedBytes) + len);
  return Status::OK();
}

}  // namespace

struct OpLog::Impl {
  std::string path;
  int64_t dim = 0;
  OpLogOptions options;
  std::FILE* file = nullptr;  // positioned at file_end for appends
  int64_t file_end = kHeaderBytes;
  int64_t unsynced_bytes = 0;
  int64_t unsynced_records = 0;
  Status poison;  // sticky: set by torn writes / failed fsyncs
  OpLogStats stats;

  ~Impl() {
    if (file != nullptr) std::fclose(file);
  }

  /// Marks the log unusable until reopened. The error is sticky on
  /// purpose: after a torn write or a failed fsync the on-disk state is
  /// unknown, and the only sound continuation is Open()'s scan.
  Status Poison(Status status) {
    if (poison.ok()) poison = status;
    return poison;
  }

  Status DoSync() {
    KMEANSLL_RETURN_NOT_OK(FlushAndFsync(file, path));
    unsynced_bytes = 0;
    unsynced_records = 0;
    ++stats.syncs;
    MetricsRegistry::Global()
        .GetCounter("kmll_oplog_syncs_total",
                    "Oplog fsync batches (group commits plus explicit "
                    "Sync calls).")
        ->Increment();
    return Status::OK();
  }

  /// Serializes one record frame: crc | len | first_row | rows | data.
  std::string BuildFrame(int64_t first_row, int64_t rows,
                         const double* points,
                         const double* weights) const {
    const int64_t len = kBodyFixedBytes +
                        rows * (dim + (options.has_weights ? 1 : 0)) * 8;
    RecordWriter frame;
    frame.Reserve(static_cast<size_t>(kFrameFixedBytes + len));
    frame.Put<uint32_t>(0);  // crc, filled in below
    frame.Put(static_cast<uint32_t>(len));
    frame.Put(first_row);
    frame.Put(rows);
    frame.PutArray(points, rows * dim);
    if (options.has_weights) frame.PutArray(weights, rows);
    frame.PutCrcAt(0);  // over (len || body)
    return frame.TakeBytes();
  }
};

OpLog::OpLog(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
OpLog::OpLog(OpLog&&) noexcept = default;
OpLog& OpLog::operator=(OpLog&&) noexcept = default;
OpLog::~OpLog() = default;

Result<OpLog> OpLog::Create(const std::string& path, int64_t dim,
                            const OpLogOptions& options) {
  if (dim <= 0) return Status::InvalidArgument("dim must be positive");
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::IOError("cannot create oplog '" + path + "'");
  }
  RecordWriter header;
  PutHeader(dim, options.has_weights, &header);
  if (std::fwrite(header.bytes().data(), 1, header.size(), f) !=
      header.size()) {
    std::fclose(f);
    return Status::IOError("cannot write oplog header to '" + path + "'");
  }
  if (Status st = FlushAndFsync(f, path); !st.ok()) {
    std::fclose(f);
    return st;
  }
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->dim = dim;
  impl->options = options;
  impl->file = f;
  impl->file_end = kHeaderBytes;
  return OpLog(std::move(impl));
}

Result<OpLog> OpLog::Open(const std::string& path, int64_t dim,
                          const OpLogOptions& options) {
  if (dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (!FileExists(path)) return Create(path, dim, options);

  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) {
    return Status::IOError("cannot open oplog '" + path + "'");
  }
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->dim = dim;
  impl->options = options;
  impl->file = f;  // Impl now owns f; early returns close it

  KMEANSLL_ASSIGN_OR_RETURN(std::string log, ReadWholeFile(path));
  RecordReader in(log, path);
  KMEANSLL_RETURN_NOT_OK(ReadHeader(&in, dim, options.has_weights));

  // Scan: keep the longest valid prefix of whole records, truncate the
  // rest. `good_end` only ever advances to a record boundary, so the
  // surviving bytes are exactly some uninterrupted writer's log — the
  // property replay's bitwise contract rests on.
  const auto file_size = static_cast<int64_t>(log.size());
  int64_t good_end = kHeaderBytes;
  Frame frame;
  while (in.remaining() > 0 &&
         DecodeFrame(&in, dim, options.has_weights, /*check_crc=*/true,
                     &frame)
             .ok()) {
    good_end = in.offset();
    ++impl->stats.recovered_records;
    impl->stats.recovered_rows += frame.rows;
    MetricsRegistry::Global()
        .GetCounter("kmll_oplog_recovered_records_total",
                    "Intact record frames replayed from oplogs on reopen.")
        ->Increment();
  }

  if (good_end < file_size) {
    impl->stats.torn_bytes = file_size - good_end;
    MetricsRegistry::Global()
        .GetCounter("kmll_oplog_torn_bytes_total",
                    "Bytes truncated from torn oplog tails on reopen.")
        ->Increment(impl->stats.torn_bytes);
#if !defined(_WIN32)
    if (::ftruncate(::fileno(f), static_cast<off_t>(good_end)) != 0) {
      return Status::IOError("cannot truncate torn tail of oplog '" + path +
                             "'");
    }
    if (::fsync(::fileno(f)) != 0) {
      return Status::IOError("fsync of oplog '" + path + "' failed");
    }
#else
    return Status::IOError("torn oplog tail truncation unsupported here");
#endif
  }
  std::fseek(f, static_cast<long>(good_end), SEEK_SET);
  impl->file_end = good_end;
  return OpLog(std::move(impl));
}

Status OpLog::Append(int64_t first_row, int64_t rows, const double* points,
                     const double* weights) {
  Impl* impl = impl_.get();
  if (!impl->poison.ok()) return impl->poison;
  if (rows <= 0) return Status::InvalidArgument("rows must be positive");
  if ((weights != nullptr) != impl->options.has_weights) {
    return Status::InvalidArgument(
        impl->options.has_weights
            ? "weighted oplog append requires weights"
            : "weight-less oplog cannot take weights");
  }

  const std::string frame = impl->BuildFrame(first_row, rows, points,
                                             weights);
  fault::FaultKind kind;
  if (fault::CheckKind("oplog.append", &kind)) {
    if (kind == fault::FaultKind::kSlowIo) {
      std::this_thread::sleep_for(std::chrono::microseconds(1000));
    } else if (kind == fault::FaultKind::kTornWrite) {
      // Crash mid-record: a prefix of the frame reaches the disk, then
      // the writer dies. The log poisons itself — the torn tail is
      // Open()'s problem now, which is the whole point of the test.
      const size_t torn = frame.size() / 2;
      (void)std::fwrite(frame.data(), 1, torn, impl->file);
      (void)FlushAndFsync(impl->file, impl->path);
      return impl->Poison(
          Status::IOError("injected torn write at oplog.append"));
    } else {
      // Fails BEFORE any byte lands, so the caller may simply retry.
      return Status::IOError("injected " +
                             std::string(fault::FaultKindToString(kind)) +
                             " at oplog.append");
    }
  }

  if (std::fwrite(frame.data(), 1, frame.size(), impl->file) !=
      frame.size()) {
    // A short stdio write may have pushed a prefix into the file: the
    // on-disk state is unknown, so poison (same as a torn write).
    return impl->Poison(
        Status::IOError("short write to oplog '" + impl->path + "'"));
  }
  impl->file_end += static_cast<int64_t>(frame.size());
  impl->unsynced_bytes += static_cast<int64_t>(frame.size());
  ++impl->unsynced_records;
  ++impl->stats.records_appended;
  impl->stats.rows_appended += rows;
  {
    static Counter* records = MetricsRegistry::Global().GetCounter(
        "kmll_oplog_records_appended_total",
        "Record frames appended to write-ahead oplogs.");
    static Counter* appended_rows = MetricsRegistry::Global().GetCounter(
        "kmll_oplog_rows_appended_total",
        "Data rows appended through the write-ahead oplog.");
    records->Increment();
    appended_rows->Increment(rows);
  }

  const bool commit =
      (impl->options.group_commit_bytes > 0 &&
       impl->unsynced_bytes >= impl->options.group_commit_bytes) ||
      (impl->options.group_commit_records > 0 &&
       impl->unsynced_records >= impl->options.group_commit_records);
  if (commit) return Sync();
  return Status::OK();
}

Status OpLog::Sync() {
  Impl* impl = impl_.get();
  if (!impl->poison.ok()) return impl->poison;
  if (Status st = fault::Check("oplog.fsync"); !st.ok()) {
    // Durability of everything since the last successful sync is now
    // unknown; poison so the owner reopens instead of acking blind.
    return impl->Poison(st);
  }
  if (Status st = impl->DoSync(); !st.ok()) return impl->Poison(st);
  return Status::OK();
}

Status OpLog::Reset() {
  Impl* impl = impl_.get();
  if (!impl->poison.ok()) return impl->poison;
  if (std::fflush(impl->file) != 0) {
    return impl->Poison(
        Status::IOError("fflush of oplog '" + impl->path + "' failed"));
  }
#if !defined(_WIN32)
  if (::ftruncate(::fileno(impl->file), static_cast<off_t>(kHeaderBytes)) !=
      0) {
    return impl->Poison(
        Status::IOError("cannot reset oplog '" + impl->path + "'"));
  }
  if (::fsync(::fileno(impl->file)) != 0) {
    return impl->Poison(
        Status::IOError("fsync of oplog '" + impl->path + "' failed"));
  }
#else
  return Status::IOError("oplog reset unsupported here");
#endif
  std::fseek(impl->file, static_cast<long>(kHeaderBytes), SEEK_SET);
  impl->file_end = kHeaderBytes;
  impl->unsynced_bytes = 0;
  impl->unsynced_records = 0;
  return Status::OK();
}

Status OpLog::Compact(int64_t min_first_row) {
  Impl* impl = impl_.get();
  if (!impl->poison.ok()) return impl->poison;
  if (std::fflush(impl->file) != 0) {
    return impl->Poison(
        Status::IOError("fflush of oplog '" + impl->path + "' failed"));
  }

  // Assemble the survivor log in memory: header + surviving frames
  // copied verbatim (same bytes an uninterrupted writer would hold).
  auto changed = [impl] {
    return Status::IOError("oplog '" + impl->path +
                           "' changed under compaction");
  };
  KMEANSLL_ASSIGN_OR_RETURN(std::string log, ReadWholeFile(impl->path));
  if (static_cast<int64_t>(log.size()) < impl->file_end) return changed();
  RecordReader in(std::string_view(log).substr(0, impl->file_end),
                  impl->path);
  if (!ReadHeader(&in, impl->dim, impl->options.has_weights).ok()) {
    return changed();
  }
  RecordWriter out;
  out.Reserve(log.size());
  PutHeader(impl->dim, impl->options.has_weights, &out);
  Frame frame;
  while (in.remaining() > 0) {
    if (!DecodeFrame(&in, impl->dim, impl->options.has_weights,
                     /*check_crc=*/false, &frame)
             .ok()) {
      return changed();
    }
    // Keep any record with rows PAST the frontier — a batch may
    // straddle a seal boundary, and its unsealed suffix must survive.
    if (frame.first_row + frame.rows > min_first_row) {
      out.PutBytes(frame.bytes.data(), frame.bytes.size());
    }
  }

  KMEANSLL_RETURN_NOT_OK(
      AtomicWriteFile(impl->path, out.bytes().data(), out.size()));
  // The handle still references the pre-rename inode; reopen.
  std::fclose(impl->file);
  impl->file = std::fopen(impl->path.c_str(), "rb+");
  if (impl->file == nullptr) {
    return impl->Poison(
        Status::IOError("cannot reopen oplog '" + impl->path +
                        "' after compaction"));
  }
  std::fseek(impl->file, 0, SEEK_END);
  impl->file_end = static_cast<int64_t>(std::ftell(impl->file));
  impl->unsynced_bytes = 0;
  impl->unsynced_records = 0;
  return Status::OK();
}

Status OpLog::Replay(int64_t min_first_row, const ReplayFn& fn) const {
  Impl* impl = impl_.get();
  // Make buffered appends visible to the independent read below (plain
  // flush, not fsync — replay reads the OS view, durability unchanged).
  if (impl->file != nullptr) std::fflush(impl->file);

  KMEANSLL_ASSIGN_OR_RETURN(std::string log, ReadWholeFile(impl->path));
  if (static_cast<int64_t>(log.size()) < impl->file_end) {
    return Status::IOError("oplog '" + impl->path +
                           "' changed under replay");
  }
  RecordReader in(std::string_view(log).substr(0, impl->file_end),
                  impl->path);
  KMEANSLL_RETURN_NOT_OK(
      ReadHeader(&in, impl->dim, impl->options.has_weights));
  Frame frame;
  while (in.remaining() > 0) {
    KMEANSLL_RETURN_NOT_OK(DecodeFrame(&in, impl->dim,
                                       impl->options.has_weights,
                                       /*check_crc=*/true, &frame));
    if (frame.first_row < min_first_row) continue;  // sealed already
    KMEANSLL_RETURN_NOT_OK(
        fn(frame.first_row, frame.rows, frame.points, frame.weights));
  }
  return Status::OK();
}

Status OpLog::status() const { return impl_->poison; }
const std::string& OpLog::path() const { return impl_->path; }
int64_t OpLog::dim() const { return impl_->dim; }
bool OpLog::has_weights() const { return impl_->options.has_weights; }
int64_t OpLog::tail_bytes() const {
  return impl_->file_end - kHeaderBytes;
}
OpLogStats OpLog::stats() const { return impl_->stats; }

}  // namespace kmeansll::data
